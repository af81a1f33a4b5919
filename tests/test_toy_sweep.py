"""Toy sweep cell: one build per model spec, the flipped phase on the block only.

The cell must give the bits of the two-pass cell it replaces (two full
builds, two full-length untiled passes, tests/oracles.py) for every
model kind, every window width, both rim weights and exp_index, whether it
prepares its own prefix sum or shares one padded for a wider window.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from realpathsim import cli, toymodels
from realpathsim.cli import main
from realpathsim.distances import DistanceSpec
from realpathsim.engine import (
    check_probabilities,
    computed_rows,
    index_smeared,
    index_tiles,
    kernel_windows,
    normalize,
    patched_prefix,
    prefix_sum,
    weighted_probabilities,
)
from realpathsim.errors import AllZeroProbability
from realpathsim.toymodels import M1Spec, M2Spec, M3Spec, beam_sweep, build_model

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


def _shared_prefix(spec, pad):
    """The spec's amplitudes prefix-summed and padded by ``pad``, as a sweep group prepares them."""
    return prefix_sum(build_model(spec).amplitudes, pad)


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
    shared = _shared_prefix(spec, max(_widths(spec))) if spec in LARGE else None
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
    # the kernel windows reach past the block: the flipped prefix is
    # rebuilt for the widest radius, up to all N paths at D = 600
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
    rows = computed_rows(_shared_prefix(spec, 1))(1)
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

    def counted(prefix, windows, lo=0, hi=None, rest=()):
        handed.append((prefix.n if hi is None else hi) - lo)
        return index_tiles(prefix, windows, lo, hi, rest)

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
    # a NaN row makes the unnormalized total NaN: refused as normalize refuses it
    _poisoned_rows(monkeypatch, np.nan, row=5)
    with pytest.raises(AllZeroProbability, match="sum to nan, not above 0") as refused:
        _own_cell(spec, DistanceSpec("step", D=3))
    with pytest.raises(AllZeroProbability) as direct:
        normalize(np.array([1.0, np.nan]))
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
    # check_probabilities refuses it (inf * 0 warns, as in normalize)
    _poisoned_rows(monkeypatch, np.inf, row=5)
    with pytest.raises(ValueError) as refused, np.errstate(invalid="ignore"):
        _own_cell(SMALL[0], DistanceSpec("step", D=3))
    assert type(refused.value) is ValueError
    assert str(refused.value) == _refusal(np.array([0.0, np.nan])) == "probabilities sum to nan, not 1"


@pytest.mark.parametrize("spec", SMALL + LARGE[1:2], ids=lambda s: f"{type(s).__name__}-{s.N}")
def test_flipped_prefix_is_a_flipped_build(spec):
    # the amplitudes from the last region on, of a flipped build, patched
    # into the entries the block rows' windows read
    prefix = _shared_prefix(spec, max(_widths(spec)))
    flipped = build_model(flip_last_theta(spec)).amplitudes
    full = prefix_sum(flipped, spec.N)
    start = spec.as_m3().regions[-1][0] - 1
    for D in _widths(spec):
        lo, hi = _block_rows(spec, D)
        got = patched_prefix(prefix, start, flipped[start:], lo, hi, D)
        r = min(D, spec.N)
        # the entries the block rows' windows read, P(lo-r) .. P(hi+r)
        want = full.sums[full.origin + lo - r : full.origin + hi + r + 1]
        assert got.origin == r - lo, D
        assert got.sums.tobytes() == want.tobytes(), D


def _count_builds(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_model(spec)

    monkeypatch.setattr(toymodels, "build_model", counted)
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
    monkeypatch.setattr(toymodels, "build_model", no_build)
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
    monkeypatch.setattr(toymodels, "build_model", no_build)
    cfg = tmp_path / "step.json"
    cfg.write_text('{"model": {"model": "M1", "N": 1000000000000000, "M": 9, "K": 3},'
                   ' "distance": {"name": "step", "D": 3}, "sweep": {"name": "D", "values": [3]}}')
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--output", str(out), command]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err
