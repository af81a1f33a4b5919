"""Toy sweep cell: one build per model spec, the flipped phase on the block only.

The cell must give the bits of the two-pass cell it replaces (two full
builds, two full-length untiled passes, tests/oracles.py) for every
model kind, every window width, both rim weights and exp_index, whether it
prepares its own prefix or shares one for a wider window.  The group's
compact prefix must give the bits of the full-length prefix and the rows
of its full-length break scan (oracles.full_prefix, oracles.scanned_rows),
and the flipped setting's compact prefix those of a flipped build's full
prefix.  At N = 10^9, where no full-length oracle fits, a cell's block
mass and C must lie within 1e-12 relative, and its visibility within
1e-12, of Fractions from integer window sums and region counts
(oracles.exact_toy_sweep_cell), exact for zero phases.
"""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpathsim import cli, toymodels
from realpathsim.cli import main
from realpathsim.distances import DistanceSpec
from realpathsim.engine import (
    CompactPrefix,
    CompactRows,
    check_probabilities,
    distinct_rows,
    index_smeared,
    index_tiles,
    kernel_windows,
    norm_constant,
    prefix_sum,
    weighted_probabilities,
)
from realpathsim.errors import AllZeroProbability
from realpathsim.toymodels import M1Spec, M2Spec, M3Spec, beam_sweep, build_grammar, build_model

from oracles import (
    exact_toy_sweep_cell,
    flip_last_theta,
    full_family_rows,
    full_prefix,
    scanned_rows,
    two_pass_toy_experiment,
)

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


def _compact_prefix(spec):
    """The spec's compact prefix, as a sweep group prepares it."""
    grammar = build_grammar(spec)
    return CompactPrefix(spec.N, grammar.amplitudes, grammar.spans)


def _own_cell(spec, dspec):
    """The cell of a sweep group of one distance, which prepares its own prefix."""
    return beam_sweep(spec, [dspec])(dspec)


def _expand(probs):
    """Every row of a cell's CompactRows, as an array."""
    return probs.take(0, probs.n)


def _block_rows(spec, D):
    """0-based rows lo..hi-1 of the beam block widened by D."""
    first, last = spec.as_m3().block_range
    return max(1, first - D) - 1, min(spec.N, last + D)


def _widths(spec):
    # 1 and 2 stop short of N; from the third on the flipped window
    # min(N, hi + D) covers all N paths
    reach = -(-(spec.N - _last_end(spec)) // 2)
    return (1, 2, reach, spec.N // 2, 10**7)


@pytest.mark.parametrize("spec", SMALL + LARGE, ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_cell_matches_two_pass_oracle(spec):
    # a small cell prepares its own prefix; the large ones share one,
    # padded for the widest window, as a sweep over D does.  The cell
    # keeps no full-length sums: on the large specs those of the shared
    # prefix's banded pass are checked against the oracle's instead
    dspecs = [DistanceSpec("step", D=D, literal_log_half=literal)
              for D in _widths(spec) for literal in (False, True)]
    shared = full_prefix(spec, max(_widths(spec))) if spec in LARGE else None
    group = beam_sweep(spec, dspecs) if spec in LARGE else None
    for D in _widths(spec):
        for literal in (False, True):
            dspec = DistanceSpec("step", D=D, literal_log_half=literal)
            vis, mass, probs, C = _own_cell(spec, dspec) if group is None else group(dspec)
            ref_vis, ref_mass, ref = two_pass_toy_experiment(spec, dspec)
            case = (D, literal)
            assert vis == ref_vis, case
            assert mass == ref_mass, case
            assert C == ref.norm_constant, case
            assert _expand(probs).tobytes() == ref.probs.tobytes(), case
            if shared is not None:
                smeared, denom = index_smeared(shared, kernel_windows(dspec, spec.N))
                assert smeared.tobytes() == ref.smeared.tobytes(), case
                assert denom.tobytes() == ref.denom.tobytes(), case


def test_cell_matches_two_pass_oracle_exp_index():
    # the kernel windows reach past the block: the flipped prefix window
    # takes the widest radius, up to all N paths at D = 600
    spec = SMALL[1]
    for D in (1, 5, 600):
        dspec = DistanceSpec("exp_index", D=D)
        vis, mass, probs, C = _own_cell(spec, dspec)
        ref_vis, ref_mass, ref = two_pass_toy_experiment(spec, dspec)
        assert (vis, mass, C) == (ref_vis, ref_mass, ref.norm_constant)
        assert _expand(probs).tobytes() == ref.probs.tobytes()


def _phased_regions(count):
    """An M3 of ``count`` regions, each of nonzero phase, apart by 61 to 1 601 paths."""
    regions, M = [], 301
    for k in range(count):
        K = (1, 2, 4, 7)[k % 4]
        regions.append((M, K, 0.3 + 0.1 * k))
        M += K + (121, 377, 999, 61, 1601)[k % 5]  # odd gaps: even alternating runs
    M, K, _ = regions[-1]
    return M3Spec(N=M + K + 2000, regions=tuple(regions))


# specs whose rows are mostly a 2-periodic stretch, which the desk-scale
# specs above lack: 60 phased regions, each leaving a complex transient
# in the prefix, and a real M2 whose stretches the literal rim makes
# nonzero (the usual rim weighs them to 0)
PHASED = _phased_regions(60)
REAL_M2 = M2Spec(N=100_002, M0=40_001, K0=4, M1=40_216, K1=4)


@pytest.mark.parametrize("spec", [PHASED, REAL_M2], ids=["M3-phased", "M2-real"])
@pytest.mark.parametrize("literal", [False, True], ids=["half", "literal"])
def test_periodic_stretches_match_two_pass_oracle(spec, literal):
    # one group whose widest D closes every gap between ranges, beside
    # cells that prepare their own prefix; D from 1 past N
    Ds = (1, 2, 40, 700, 2000, spec.N - 1, spec.N, 10**7)
    dspecs = [DistanceSpec("step", D=D, literal_log_half=literal) for D in Ds]
    rows = _compact_prefix(spec).rows(1)
    assert sum(hi - lo for lo, hi in rows) < spec.N // 20  # mostly copied at D = 1
    group = beam_sweep(spec, dspecs)
    for dspec in dspecs:
        ref_vis, ref_mass, ref = two_pass_toy_experiment(spec, dspec)
        for vis, mass, probs, C in (group(dspec), _own_cell(spec, dspec)):
            assert (vis, mass, C) == (ref_vis, ref_mass, ref.norm_constant), dspec.D
            assert _expand(probs).tobytes() == ref.probs.tobytes(), dspec.D
    if literal and spec is REAL_M2:
        probs = _expand(group(dspecs[0])[2])
        assert probs[1000] == probs[1002] > 0 and probs[1001] == probs[1003] > 0


@pytest.mark.parametrize("D", [3, 300])
def test_periodic_stretches_match_two_pass_oracle_exp_index(D):
    # D = 300 reaches 1 985 radii, which close the narrower gaps
    dspec = DistanceSpec("exp_index", D=D)
    vis, mass, probs, C = _own_cell(PHASED, dspec)
    ref_vis, ref_mass, ref = two_pass_toy_experiment(PHASED, dspec)
    assert (vis, mass, C) == (ref_vis, ref_mass, ref.norm_constant)
    assert _expand(probs).tobytes() == ref.probs.tobytes()


def test_cell_computes_only_the_rows_near_a_beam_or_an_edge(monkeypatch):
    # the benchmark's m2_sweep spec: every other row of the 10^6 repeats
    # the row two before it
    handed = []

    def counted(prefix, windows, lo=0, hi=None):
        handed.append((prefix.n if hi is None else hi) - lo)
        return index_tiles(prefix, windows, lo, hi)

    monkeypatch.setattr(toymodels, "index_tiles", counted)
    dspecs = [DistanceSpec("step", D=D) for D in (2, 5, 10, 20, 40, 80, 160, 320, 640,
                                                  1280, 2560, 5120)]
    cell = beam_sweep(M2Spec(N=1_000_000, M0=499_999, K0=4, M1=500_216, K1=4), dspecs)
    rows = {}
    for dspec in dspecs:
        handed.clear()
        cell(dspec)
        rows[dspec.D] = sum(handed)
    assert rows[2] <= 27
    assert max(rows.values()) == rows[5120] <= 20_706


def test_cell_walks_the_pairwise_tree_once(monkeypatch):
    # C takes CompactRows.sum, whose walk gives np.sum's bits; the
    # probability check totals the compact rows instead
    config = json.loads((DATA / "m2_sweep.json").read_text())
    spec = M2Spec(**{k: v for k, v in config["model"].items() if k != "model"})
    dspecs = [DistanceSpec(config["distance"]["name"], D=D) for D in config["sweep"]["values"]]
    walks, walk = [], CompactRows.sum

    def counted(rows):
        walks.append(rows.n)
        return walk(rows)

    monkeypatch.setattr(CompactRows, "sum", counted)
    cell = beam_sweep(spec, dspecs)
    for dspec in dspecs:
        walks.clear()
        cell(dspec)
        assert walks == [spec.N], dspec.D


def test_cell_holds_no_full_length_array():
    # the benchmark's m2_sweep spec: an array of the 10^6 probabilities
    # alone would take 7.6 MiB
    dspecs = [DistanceSpec("step", D=D) for D in (2, 5, 10, 20, 40, 80, 160, 320, 640,
                                                  1280, 2560, 5120)]
    cell = beam_sweep(M2Spec(N=1_000_000, M0=499_999, K0=4, M1=500_216, K1=4), dspecs)
    peaks = {}
    for dspec in dspecs:
        tracemalloc.start()
        try:
            cell(dspec)
            peaks[dspec.D] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 4 * 2**20, peaks


def _poisoned_rows(monkeypatch, value=None, row=0):
    """Patch the cell's weighted_probabilities: every row times 0.0, or one row set to ``value``.

    ``row`` counts the rows of the cell's own-phase pass, in the order
    it computes them (row 0 is the first of the range at row 0).
    """
    seen = [0]

    def poisoned(smeared, denom, weights=None, out=None):
        unnorm = weighted_probabilities(smeared, denom, weights, out)
        if value is None:
            unnorm *= 0.0
        elif out is not None and seen[0] <= row < seen[0] + unnorm.size:
            unnorm[row - seen[0]] = value
        seen[0] += unnorm.size if out is not None else 0
        return unnorm

    monkeypatch.setattr(toymodels, "weighted_probabilities", poisoned)


def _refusal(probs):
    """The message check_probabilities gives ``probs``."""
    with pytest.raises(ValueError) as refused:
        check_probabilities(probs)
    return str(refused.value)


def test_cell_refuses_an_all_zero_distribution(monkeypatch):
    # every weight 0: the cell raises as distribution_from_sums does,
    # from its sum over the computed ranges and their stretches
    _poisoned_rows(monkeypatch)
    with pytest.raises(AllZeroProbability, match="sum to 0.0, not above 0"):
        _own_cell(SMALL[0], DistanceSpec("step", D=3))


@pytest.mark.parametrize("spec", [SMALL[0], REAL_M2], ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_cell_refuses_a_nan_total(monkeypatch, spec):
    # a NaN row makes the unnormalized total NaN: refused as
    # distribution_from_sums refuses it
    _poisoned_rows(monkeypatch, np.nan, row=5)
    with pytest.raises(AllZeroProbability, match="sum to nan, not above 0") as refused:
        _own_cell(spec, DistanceSpec("step", D=3))
    with pytest.raises(AllZeroProbability) as direct:
        norm_constant(float(np.sum(np.array([1.0, np.nan]))))
    assert str(refused.value) == str(direct.value)


def test_cell_refuses_a_negative_row(monkeypatch):
    # a negative row in a computed range, on a spec whose stretches
    # repeat positive rows (the literal rim)
    _poisoned_rows(monkeypatch, -1e-3, row=5)
    with pytest.raises(ValueError) as refused:
        _own_cell(REAL_M2, DistanceSpec("step", D=3, literal_log_half=True))
    assert type(refused.value) is ValueError
    assert str(refused.value) == _refusal(np.array([0.5, -1e-3, 0.5])) == "negative probability"


def test_cell_refuses_a_normalized_nan_sum(monkeypatch):
    # an infinite row passes the unnormalized total, gives C = 0 and a
    # NaN row times 0: the normalized sum is NaN, refused as
    # check_probabilities refuses it (inf * 0 warns, as in
    # distribution_from_sums)
    _poisoned_rows(monkeypatch, np.inf, row=5)
    with pytest.raises(ValueError) as refused, np.errstate(invalid="ignore"):
        _own_cell(SMALL[0], DistanceSpec("step", D=3))
    assert type(refused.value) is ValueError
    assert str(refused.value) == _refusal(np.array([0.0, np.nan])) == "probabilities sum to nan, not 1"


@pytest.mark.parametrize("spec", SMALL + LARGE[1:2], ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_flipped_prefix_is_a_flipped_build(monkeypatch, spec):
    # the compact prefix a sweep group builds for the flipped setting, the
    # second it builds: every window the block rows' windows read, pads
    # included, has the bits of the full prefix of a flipped build
    built = []

    def recorded(*args):
        built.append(CompactPrefix(*args))
        return built[-1]

    monkeypatch.setattr(toymodels, "CompactPrefix", recorded)
    beam_sweep(spec, [DistanceSpec("step", D=D) for D in _widths(spec)])
    assert len(built) == 2
    flipped = built[1]
    full = prefix_sum(build_model(flip_last_theta(spec)).amplitudes, spec.N)
    for D in _widths(spec):
        lo, hi = _block_rows(spec, D)
        r = min(D, spec.N)
        # the entries the block rows' windows read, P(lo-r) .. P(hi+r)
        want = full.sums[full.origin + lo - r : full.origin + hi + r + 1]
        got = flipped.window(lo, hi, D)
        assert got.origin == r - lo, D
        assert got.sums.tobytes() == want.tobytes(), D


def _count_builds(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_grammar(spec)

    monkeypatch.setattr(toymodels, "build_grammar", counted)
    return calls


@pytest.mark.parametrize(
    "config, builds",
    [("m2_sweep.json", 1), ("m2_theta_sweep.json", 4), ("m2_exp_index.json", 1)],
)
def test_sweep_builds_once_per_model_spec(tmp_path, monkeypatch, config, builds):
    # a sweep over D shares one build, under exp_index too; a theta1
    # sweep has a spec per cell
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


@pytest.mark.parametrize(
    "config", ["m2_sweep.json", "m2_theta_sweep.json", "m2_exp_index.json", "m3_sweep_long.json"]
)
def test_sweep_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, config):
    # cells run on the calling thread, and REALPATH_THREADS, which sized
    # a sweep pool in earlier versions, is ignored whatever its value
    golden = (DATA / config.replace(".json", ".csv")).read_bytes()
    for threads in ("1", "2", "3", "two"):
        monkeypatch.setenv("REALPATH_THREADS", threads)
        out = tmp_path / f"{threads}.csv"
        assert main(["--config", str(DATA / config), "--output", str(out), "sweep"]) == 0
        assert out.read_bytes() == golden, threads


def test_toy_sweep_rejects_galilean_distance(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        '{"model": {"model": "M2", "N": 600, "M0": 201, "K0": 4, "M1": 216, "K1": 4},'
        ' "distance": {"name": "max_sep"}, "sweep": {"name": "theta1", "values": [0, 1]}}'
    )
    assert main(["--config", str(cfg), "sweep"]) == 64
    err = capsys.readouterr().err
    assert "is not an index distance" in err and "Traceback" not in err


_LARGE_EXP_INDEX = (
    '{"model": {"model": "M1", "N": 1000004, "M": 500001, "K": 3},'
    ' "distance": {"name": "exp_index", "D": %d},'
    ' "sweep": {"name": "D", "values": [%d]}}'
)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_large_exp_index_model_runs_banded(tmp_path, capsys, monkeypatch, command):
    # 10^6 paths under exp_index take the banded route, 332 windows at
    # D = 50, with no n x n array asked for
    subtract = np.subtract

    class NoOuter:
        def __call__(self, *args, **kwargs):  # the window sums subtract in place
            return subtract(*args, **kwargs)

        def outer(self, *args):
            raise AssertionError("built an n x n index matrix")

    monkeypatch.setattr(np, "subtract", NoOuter())
    cfg = tmp_path / "exp.json"
    cfg.write_text(_LARGE_EXP_INDEX % (50, 50))
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--output", str(out), command]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == (1_000_004 + 2 if command == "run" else 2)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_exp_index_past_the_banded_bound_exits_65(tmp_path, capsys, monkeypatch, command):
    # D = 10^7 over 10^6 paths: 1 000 005 windows per row, refused before
    # the model is built
    def no_build(spec):
        raise AssertionError("built a model past the bound")

    monkeypatch.setattr(cli, "build_model", no_build)
    monkeypatch.setattr(toymodels, "build_grammar", no_build)
    cfg = tmp_path / "exp.json"
    cfg.write_text(_LARGE_EXP_INDEX % (10**7, 10**7))
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--output", str(out), command]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_step_past_the_banded_bound_exits_65(tmp_path, capsys, monkeypatch, command):
    # 10^15 paths under the step distance: 2e15 window rows, refused
    # before the model is built by every subcommand that builds one
    def no_build(spec):
        raise AssertionError("built a model past the bound")

    monkeypatch.setattr(cli, "build_model", no_build)
    monkeypatch.setattr(toymodels, "build_grammar", no_build)
    cfg = tmp_path / "step.json"
    cfg.write_text('{"model": {"model": "M1", "N": 1000000000000000, "M": 9, "K": 3},'
                   ' "distance": {"name": "step", "D": 3}, "sweep": {"name": "D", "values": [3]}}')
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--output", str(out), command]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err


# region phases of both dtypes: the signed zeros, pi (not real in
# floating point), a phase whose exp(-i theta) is 1 - 1e-300 i, and
# ordinary and large ones
_PHASES = [0.0, -0.0, math.pi, -math.pi, 1e-300, 0.7, 2.1, 1e16, 1e300]


@st.composite
def _m3_specs(draw):
    """An M3 of 1 to 30 regions, as close as adjacent or up to 121 paths apart."""
    phases = st.sampled_from([0.0, -0.0] if draw(st.booleans()) else _PHASES)
    regions, M = [], 2 * draw(st.integers(1, 40)) + 1  # odd, above 1
    for _ in range(draw(st.integers(1, 30))):
        K = draw(st.integers(1, 9))
        regions.append((M, K, draw(phases)))
        M += K + 2 * draw(st.integers(0, 60)) + 1  # odd gaps from each region's end
    M, K, _ = regions[-1]
    return M3Spec(N=M + K + 2 * draw(st.integers(1, 60)), regions=tuple(regions))


@settings(max_examples=150, deadline=None)
@given(_m3_specs(), st.data())
def test_compact_prefix_matches_the_full_length_scan(spec, data):
    # every window the compact prefix materializes, pads included, has
    # the bits of the full-length prefix, and its breaks give the rows
    # the full-length int64 scan gives, for radii from 1 to past N
    n = spec.N
    compact, full = _compact_prefix(spec), full_prefix(spec, n)
    assert compact.window(0, n, n).sums.tobytes() == full.sums.tobytes()
    rows, want_rows = compact.rows, scanned_rows(full)
    for _ in range(4):
        R = data.draw(st.integers(1, n + 50), label="R")
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, n), label="hi")
        r = min(R, n)
        got = compact.window(lo, hi, R)
        assert (got.origin, got.n) == (r - lo, n)
        assert got.sums.tobytes() == full.sums[full.origin + lo - r : full.origin + hi + r + 1].tobytes()
        assert rows(R) == want_rows(R)


@settings(max_examples=150, deadline=None)
@given(_m3_specs(), st.data())
def test_family_rows_match_the_full_length_rows(spec, data):
    # a screen family's distinct rows and how many rows each stands for,
    # from the compact prefix's computed rows and stretches, against the
    # full-length prefix's windows grouped by np.unique, for D from 1 to
    # past N
    D = data.draw(st.integers(1, spec.N + 50), label="D")
    got = distinct_rows(_compact_prefix(spec), kernel_windows(DistanceSpec("step", D=D), spec.N))
    want = full_family_rows(build_model(spec).amplitudes, D)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[2].sum() == spec.N


_BENCH_D = [2, 5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120]


@pytest.mark.parametrize("N", [10**6, 10**7, 10**9])
def test_far_apart_sweep_holds_no_n_length_array(tmp_path, N):
    # the benchmark's 12 D values on its M2 spec, moved to the middle of N
    # paths: the whole cli.main call peaks under 8 MiB of tracemalloc,
    # where the amplitudes alone would take 8 GB at N = 10^9.  The
    # visibilities read only the rows near the beams, so they have the
    # bits of the N = 10^7 golden at every N
    h = N // 2
    config = {"model": {"model": "M2", "N": N, "M0": h - 1, "K0": 4, "M1": h + 216, "K1": 4},
              "distance": {"name": "step", "D": 2},
              "sweep": {"name": "D", "values": _BENCH_D}}
    cfg, out = tmp_path / "far.json", tmp_path / "far.csv"
    cfg.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        assert main(["--config", str(cfg), "--output", str(out), "sweep"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    golden = (DATA / "m2_sweep_1e7.csv").read_text().splitlines()
    lines = out.read_text().splitlines()
    assert [line.split(",")[2] for line in lines] == [line.split(",")[2] for line in golden]


# the tolerance was fixed before the first comparison: the cell's float
# sums over up to 10^9 rows against exact Fractions
_EXACT_RTOL = Fraction(1e-12)


@pytest.mark.parametrize("N", [600, 10**5, 10**9])
def test_sweep_columns_match_the_exact_oracle(N):
    # the benchmark's M2 spec, zero phases, moved to the middle of N
    # paths, at both rim weights: the visibility, block mass and C within
    # _EXACT_RTOL of exact Fractions from integer window sums.  At the
    # literal rim the 2-periodic stretches weigh 9/(2D+3) a row, so C
    # reads every stretch.  At the small N, where the two-pass oracle
    # also holds such cells to its bits, this checks the exact oracle
    h = N // 2
    spec = M2Spec(N=N, M0=h - 1, K0=4, M1=h + 216, K1=4)
    dspecs = [DistanceSpec("step", D=D, literal_log_half=literal)
              for D in _BENCH_D if 2 * D < N for literal in (False, True)]
    cell = beam_sweep(spec, dspecs)
    for dspec in dspecs:
        vis, mass, _, C = cell(dspec)
        for got, want in zip((vis, mass, C), exact_toy_sweep_cell(spec, dspec)):
            assert abs(Fraction(got) - want) <= _EXACT_RTOL * abs(want), (dspec, got, float(want))


# the visibility's tolerance is absolute, fixed with _EXACT_RTOL before
# the first comparison: far-apart beams give a visibility near 0, of
# which no relative error is meaningful
_EXACT_VIS_ATOL = Fraction(1e-12)


@st.composite
def _phased_cells(draw):
    """An M3 of 1 to 30 regions and a step distance of either rim.

    The phases are signed zeros in half the specs, else _PHASES and any
    in [-10, 10].  Mostly N up to about 4 100, with D from 1 to past N;
    now and then the regions at the start or in the middle of N = 10^9
    paths, with D up to 300.
    """
    if draw(st.booleans()):
        phases = st.sampled_from([0.0, -0.0])
    else:
        phases = st.one_of(st.sampled_from(_PHASES), st.floats(-10.0, 10.0))
    regions, M = [], 2 * draw(st.integers(1, 40)) + 1  # odd, above 1
    for _ in range(draw(st.integers(1, 30))):
        K = draw(st.integers(1, 9))
        regions.append((M, K, draw(phases)))
        M += K + 2 * draw(st.integers(0, 60)) + 1  # odd gaps from each region's end
    end = regions[-1][0] + regions[-1][1]
    if draw(st.integers(0, 9)) == 9:
        shift = draw(st.sampled_from([0, 500_000_000]))  # even, so the parity rules hold
        regions = [(M + shift, K, th) for M, K, th in regions]
        N, D = 10**9 - (10**9 - end - shift) % 2, draw(st.integers(1, 300))
    else:
        N = end + 2 * draw(st.integers(1, 60))
        D = draw(st.integers(1, N + 50))
    dspec = DistanceSpec("step", D=D, literal_log_half=draw(st.booleans()))
    return M3Spec(N=N, regions=tuple(regions)), dspec


@settings(max_examples=60, deadline=None)
@given(_phased_cells())
def test_phased_sweep_cells_match_the_exact_oracle(cell):
    # visibility, block mass and C of one cell against the exact oracle's
    # integer window sums and region counts: the mass and C within
    # _EXACT_RTOL relative, the visibility within _EXACT_VIS_ATOL
    spec, dspec = cell
    vis, mass, _, C = beam_sweep(spec, [dspec])(dspec)
    want_vis, want_mass, want_C = exact_toy_sweep_cell(spec, dspec)
    assert abs(Fraction(vis) - want_vis) <= _EXACT_VIS_ATOL, (vis, float(want_vis))
    for got, want in ((mass, want_mass), (C, want_C)):
        assert abs(Fraction(got) - want) <= _EXACT_RTOL * abs(want), (got, float(want))
