"""Toy sweep cell: one build per model spec, the flipped phase on the block only.

The cell must give the bits of the two-pass cell it replaces (two full
builds, two full-length untiled passes, tests/oracles.py) for every
model kind, every window width and both rim weights, whether it
prepares its own prefix sum or shares one padded for a wider window.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from realpathsim import cli
from realpathsim.cli import (
    _block_range_indices,
    _flipped_prefix,
    _toy_experiment,
    _toy_prefix,
    main,
)
from realpathsim.distances import DistanceSpec
from realpathsim.engine import _prefix
from realpathsim.toymodels import M1Spec, M2Spec, M3Spec, build_model

from oracles import flip_last_theta, two_pass_toy_experiment

DATA = Path(__file__).parent / "data"

SMALL = [
    M1Spec(N=204, M=101, K=3),
    M2Spec(N=600, M0=201, K0=4, M1=216, K1=4, theta0=0.3, theta1=1.1),
    M3Spec(N=601, regions=((201, 4, 0.0), (216, 4, 1.1), (301, 6, 2.5))),
]
LARGE = [
    M1Spec(N=1_000_004, M=500_001, K=3),
    M2Spec(N=1_000_000, M0=499_999, K0=4, M1=500_216, K1=4, theta1=0.7),
    M3Spec(
        N=1_000_001,
        regions=((499_999, 4, 0.0), (500_216, 4, 1.1), (500_301, 6, 2.5)),
    ),
]


def _last_end(spec):
    if isinstance(spec, M1Spec):
        return spec.M + spec.K
    if isinstance(spec, M2Spec):
        return spec.M1 + spec.K1
    return spec.block_range[1]


def _widths(spec):
    # 1 and 2 stop short of N; from the third on the flipped window
    # min(N, hi + D) covers all N paths
    reach = -(-(spec.N - _last_end(spec)) // 2)
    return (1, 2, reach, spec.N // 2, 10**7)


@pytest.mark.parametrize("spec", SMALL + LARGE, ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_cell_matches_two_pass_oracle(spec):
    # a small cell prepares its own prefix; the large ones share one,
    # padded for the widest window, as a sweep over D does
    shared = _toy_prefix(spec, max(_widths(spec))) if spec in LARGE else None
    for D in _widths(spec):
        for literal in (False, True):
            dspec = DistanceSpec("step", D=D, literal_log_half=literal)
            vis, mass, dist = _toy_experiment(spec, dspec, shared)
            ref_vis, ref_mass, ref = two_pass_toy_experiment(spec, dspec)
            case = (D, literal)
            assert vis == ref_vis, case
            assert mass == ref_mass, case
            assert dist.norm_constant == ref.norm_constant, case
            for name in ("probs", "smeared", "denom"):
                assert getattr(dist, name).tobytes() == getattr(ref, name).tobytes(), case


def test_cell_matches_two_pass_oracle_exp_index():
    # an unbounded index distance evaluates the flipped phase over all N
    spec = SMALL[1]
    for D in (1, 5, 600):
        dspec = DistanceSpec("exp_index", D=D)
        vis, mass, dist = _toy_experiment(spec, dspec)
        ref_vis, ref_mass, ref = two_pass_toy_experiment(spec, dspec)
        assert (vis, mass, dist.norm_constant) == (ref_vis, ref_mass, ref.norm_constant)
        assert dist.probs.tobytes() == ref.probs.tobytes()


@pytest.mark.parametrize("spec", SMALL + LARGE[1:2], ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_flipped_prefix_is_a_flipped_build(spec):
    prefix = _toy_prefix(spec, max(_widths(spec)))
    full = _prefix(build_model(flip_last_theta(spec)).amplitudes, spec.N)
    for D in _widths(spec):
        lo, hi = _block_range_indices(spec, D)
        got = _flipped_prefix(spec, prefix, D, lo - 1, hi)
        r = min(D, spec.N)
        # the entries the block rows' windows read, P(lo-1-r) .. P(hi+r)
        want = full.sums[full.origin + lo - 1 - r : full.origin + hi + r + 1]
        assert got.origin == r - (lo - 1), D
        assert got.sums.tobytes() == want.tobytes(), D


def _count_builds(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_model(spec)

    monkeypatch.setattr(cli, "build_model", counted)
    return calls


@pytest.mark.parametrize("config, builds", [("m2_sweep.json", 1), ("m2_theta_sweep.json", 4)])
def test_sweep_builds_once_per_model_spec(tmp_path, monkeypatch, config, builds):
    # a sweep over D shares one build; a theta1 sweep has a spec per cell
    calls = _count_builds(monkeypatch)
    out = tmp_path / "out.csv"
    assert main(["--config", str(DATA / config), "--output", str(out), "sweep"]) == 0
    assert len(calls) == builds


def test_repeated_value_shares_a_build(tmp_path, monkeypatch):
    calls = _count_builds(monkeypatch)
    cfg = tmp_path / "rep.json"
    cfg.write_text(
        '{"model": {"model": "M2", "N": 600, "M0": 201, "K0": 4, "M1": 216, "K1": 4},'
        ' "distance": {"name": "step", "D": 20},'
        ' "sweep": {"name": "theta1", "values": [0.5, 1.0, 0.5, 0.5]}}'
    )
    out = tmp_path / "rep.csv"
    assert main(["--config", str(cfg), "--output", str(out), "sweep"]) == 0
    assert len(calls) == 2  # theta1 = 0.5 once, 1.0 once
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[2:] == lines[3].split(",")[2:] == lines[4].split(",")[2:]


@pytest.mark.parametrize("config", ["m2_sweep.json", "m2_theta_sweep.json"])
def test_sweep_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, config):
    # more pool threads than cores, switching often, all reading the
    # shared prefix (or preparing their own)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("REALPATH_THREADS", threads)
            out = tmp_path / f"{threads}.csv"
            assert main(["--config", str(DATA / config), "--output", str(out), "sweep"]) == 0
            golden = (DATA / config.replace(".json", ".csv")).read_bytes()
            assert out.read_bytes() == golden, threads
    finally:
        sys.setswitchinterval(interval)


def test_toy_sweep_rejects_galilean_distance(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        '{"model": {"model": "M2", "N": 600, "M0": 201, "K0": 4, "M1": 216, "K1": 4},'
        ' "distance": {"name": "max_sep"}, "sweep": {"name": "theta1", "values": [0, 1]}}'
    )
    assert main(["--config", str(cfg), "sweep"]) == 64
    err = capsys.readouterr().err
    assert "is not an index distance" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_large_exp_index_model_exits_65(tmp_path, capsys, monkeypatch, command):
    # 10^6 paths would need a 7 TiB distance matrix: refused before any
    # n x n array is asked for
    class NoOuter:
        def outer(self, *args):
            raise AssertionError("built an n x n index matrix")

    monkeypatch.setattr(np, "subtract", NoOuter())
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        '{"model": {"model": "M1", "N": 1000004, "M": 500001, "K": 3},'
        ' "distance": {"name": "exp_index", "D": 50},'
        ' "sweep": {"name": "D", "values": [50]}}'
    )
    assert main(["--config", str(cfg), command]) == 65
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err
