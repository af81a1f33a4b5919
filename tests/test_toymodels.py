"""Toy models M1/M2/M3: amplitude patterns and closed-form oracles.

The closed forms are exact for M1 (every strictly covered index equals
the direct evaluation bit for bit after common normalization) and exact
up to an alternating-tail residue of at most 1 in amplitude for M2.

A zero-phase model is built as float64 and runs the banded kernel in
real arithmetic; its oracle is the same amplitudes cast to complex128,
whose sums must have the real route's bits and an imaginary part of +0.
"""

import math

import numpy as np
import pytest

from realpathsim import screen, toymodels
from realpathsim.cli import _model_spec
from realpathsim.distances import DistanceSpec
from realpathsim.engine import (
    CompactPrefix,
    distinct_rows,
    kernel_windows,
    path_probabilities,
    unnormalized_probabilities,
)
from realpathsim.errors import NonUnitAmplitude, PreconditionViolation, SpecViolation
from realpathsim.paths import PathEnsemble
from realpathsim.screen import ScreenSpec
from realpathsim.toymodels import (
    M1Spec,
    M2Spec,
    M3Spec,
    RunGrammar,
    beam_sweep,
    build_grammar,
    build_m1,
    build_m2,
    build_m3,
    build_model,
    m1_closed_form,
    m2_closed_form,
)

import oracles
from oracles import amplitude_total, m2_tolerance

CANON = M1Spec(N=24, M=9, K=3)


def test_build_m1_canonical_pattern():
    amps = build_m1(CANON).amplitudes
    expected = [1, -1, 1, -1, 1, -1, 1, -1,
                1, 1, 1, 1,
                -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1]
    assert np.array_equal(amps, np.array(expected, dtype=complex))


def test_build_m1_parity_violations():
    with pytest.raises(SpecViolation, match="odd"):
        M1Spec(N=24, M=8, K=3)
    with pytest.raises(SpecViolation, match="even"):
        M1Spec(N=23, M=9, K=3)
    with pytest.raises(SpecViolation):
        M1Spec(N=10, M=9, K=3)  # M+K >= N


def test_amplitude_sum_is_block_strength():
    rng = np.random.default_rng(0)
    for _ in range(40):
        K = int(rng.integers(1, 9))
        M = int(rng.integers(1, 30)) * 2 + 1
        tail = int(rng.integers(1, 30)) * 2
        spec = M1Spec(N=M + K + tail, M=M, K=K)
        assert amplitude_total(build_m1(spec)) == pytest.approx(K + 1)


def test_build_m2_zero_phases_two_plateaus():
    spec = M2Spec(N=31, M0=5, K0=2, M1=14, K1=3)
    amps = build_m2(spec).amplitudes
    assert np.all(np.isreal(amps))
    assert np.array_equal(amps[4:7], np.ones(3))
    assert np.array_equal(amps[13:17], np.ones(4))
    # alternating elsewhere
    assert np.array_equal(amps[:4], [1, -1, 1, -1])
    assert np.array_equal(amps[7:13], [-1, 1, -1, 1, -1, 1])


def test_m3_single_region_reduces_to_m1_with_phase():
    th = 0.987
    m3 = build_m3(M3Spec(N=24, regions=((9, 3, th),)))
    m1 = build_m1(CANON)
    block = slice(8, 12)
    assert np.allclose(m3.amplitudes[block], np.exp(-1j * th) * m1.amplitudes[block])
    outside = np.ones(24, dtype=bool)
    outside[block] = False
    assert np.array_equal(m3.amplitudes[outside], m1.amplitudes[outside])


def test_m3_two_beams_opposite_phases_cancel():
    # region sum (K0+1) + (K1+1) e^{-i pi} = 0; tails cancel pairwise,
    # so the ensemble total equals the region sum
    spec = M3Spec(N=200, regions=((31, 4, 0.0), (42, 4, math.pi)))
    ens = build_m3(spec)
    assert abs(spec.beam_sum) < 1e-12
    assert abs(amplitude_total(ens)) < 1e-12


def test_m3_parity_violations():
    with pytest.raises(SpecViolation, match="odd"):
        M3Spec(N=200, regions=((31, 4, 0.0), (41, 4, 0.0)))  # gap parity
    with pytest.raises(SpecViolation, match="even"):
        M3Spec(N=199, regions=((31, 4, 0.0), (42, 4, 0.0)))  # tail parity
    with pytest.raises(SpecViolation, match="overlap"):
        M3Spec(N=200, regions=((31, 6, 0.0), (35, 4, 0.0)))


def test_m1_closed_form_examples():
    status, value = m1_closed_form(CANON, 3)
    assert status.shape == value.shape == (CANON.N,)
    assert value[5 - 1] == 0.0
    assert value[10 - 1] == pytest.approx(9.0 / 6.0)
    assert value[7 - 1] == pytest.approx(1.0 / 6.0)
    assert status[1 - 1] == "boundary"
    assert value[1 - 1] == pytest.approx(0.25 / 3.5)


def test_m1_closed_form_preconditions():
    with pytest.raises(PreconditionViolation):
        m1_closed_form(CANON, 4)  # M=9 not > 2D+1
    with pytest.raises(PreconditionViolation):
        m1_closed_form(M1Spec(N=18, M=9, K=3), 3)  # N-M-K=6 not > 2D+1


def _direct_unnormalized(ensemble, D, literal=False):
    unnorm, _, _ = unnormalized_probabilities(
        ensemble, DistanceSpec("step", D=D, literal_log_half=literal)
    )
    return unnorm


def _m1_grid():
    specs = []
    for K in (1, 3, 5):
        for D in (5, 9, 13):
            if 2 * D <= K:
                continue
            M = 2 * D + 3
            tail = 2 * D + 4          # even, so N - M - K stays even
            specs.append((M1Spec(N=M + K + tail, M=M, K=K), D))
    for K in (12, 24):
        for D in (2, 5):
            M = 2 * D + 3
            tail = 2 * D + 4
            specs.append((M1Spec(N=M + K + tail, M=M, K=K), D))
    return specs


def test_m1_oracle_agreement_covered_indices():
    for spec, D in _m1_grid():
        direct = _direct_unnormalized(build_m1(spec), D)
        status, value = m1_closed_form(spec, D)
        covered = status != "uncovered"
        assert direct[covered] == pytest.approx(value[covered], abs=1e-13), (spec, D)


def test_m1_uncovered_gaps_exist_and_are_benign():
    spec, D = CANON, 3
    direct = _direct_unnormalized(build_m1(spec), D)
    status, value = m1_closed_form(spec, D)
    assert np.count_nonzero(status == "uncovered") > 0
    assert np.array_equal(np.isnan(value), status == "uncovered")
    # the strict-range boundary at i = M+K-D carries the plateau value
    # even though the formulas omit it; direct evaluation is ground truth
    i = spec.M + spec.K - D
    assert status[i - 1] == "uncovered"
    assert direct[i - 1] == pytest.approx(spec.K**2 / (2 * D))


def test_m2_closed_form_examples():
    # destructive equal beams cancel
    spec = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3, theta0=0.0, theta1=math.pi)
    status, value = m2_closed_form(spec, 14, "i")
    assert status[44 - 1] == "covered"
    assert value[44 - 1] == pytest.approx(0.0, abs=1e-12)
    assert "boundary" not in status
    # constructive equal beams: 4 (K+1)^2 / 2D
    spec2 = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3)
    assert m2_closed_form(spec2, 14, "i")[1][44 - 1] == pytest.approx(4 * 16 / 28)
    # no-interference plateau ratio (K0+1)^2 : (K1+1)^2 = 1 : 4
    spec3 = M2Spec(N=261, M0=41, K0=4, M1=102, K1=9)
    _, value3 = m2_closed_form(spec3, 15, "ii")
    assert value3[41 - 1] / value3[103 - 1] == pytest.approx(0.25)


def test_m2_case_premises_enforced():
    spec = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3)
    with pytest.raises(PreconditionViolation):
        m2_closed_form(spec, 3, "i")  # window cannot span both beams
    with pytest.raises(PreconditionViolation):
        m2_closed_form(spec, 14, "ii")  # beams are d-close, not distant
    with pytest.raises(PreconditionViolation):
        m2_closed_form(spec, 14, "iii")


def test_m2_oracle_agreement_within_tolerance():
    # case (i): tolerance relative to the closed value floored at the
    # single-beam scale (K_min+1)^2/2D, since the closed form can vanish
    for th in (0.0, math.pi / 2, math.pi):
        spec = M2Spec(N=160, M0=41, K0=4, M1=52, K1=4, theta0=0.0, theta1=th)
        D = 19
        direct = _direct_unnormalized(build_m2(spec), D)
        floor = (min(spec.K0, spec.K1) + 1) ** 2 / (2 * D)
        status, value = m2_closed_form(spec, D, "i")
        covered = status == "covered"
        rel = np.abs(direct[covered] - value[covered]) / np.maximum(value[covered], floor)
        assert np.all(rel <= m2_tolerance(spec)), th


def test_m2_case_ii_agreement():
    spec = M2Spec(N=261, M0=41, K0=4, M1=102, K1=9)
    D = 15
    direct = _direct_unnormalized(build_m2(spec), D)
    status, value = m2_closed_form(spec, D, "ii")
    covered = status == "covered"
    rel = np.abs(direct[covered] - value[covered]) / value[covered]
    assert np.all(rel <= m2_tolerance(spec))
    assert np.count_nonzero(covered) > 10


def _closed_form_cases():
    thetas = (0.0, math.pi / 2, math.pi)
    cases = [("M1", spec, D, None) for spec, D in _m1_grid()]
    # the size compare runs at, in the 2D > K branch
    cases.append(("M1", M1Spec(N=200_004, M=100_001, K=3), 50, None))
    cases += [("M2", M2Spec(N=160, M0=41, K0=4, M1=52, K1=4, theta1=th), 19, "i")
              for th in thetas]
    cases += [("M2", M2Spec(N=261, M0=41, K0=4, M1=102, K1=9, theta1=th), 15, "ii")
              for th in thetas]
    return cases


@pytest.mark.parametrize("model, spec, D, case", _closed_form_cases())
def test_closed_forms_match_scalar_oracle_bit_for_bit(model, spec, D, case):
    # the scalar oracle's status at every index, and its value in every
    # bit, NaN where it reports no value
    if model == "M1":
        status, value = m1_closed_form(spec, D)
        cfs = [oracles.m1_closed_form(i, spec, D) for i in range(1, spec.N + 1)]
    else:
        status, value = m2_closed_form(spec, D, case)
        cfs = [oracles.m2_closed_form(i, spec, D, case) for i in range(1, spec.N + 1)]
    assert status.tolist() == [cf.status for cf in cfs]
    expected = np.array([np.nan if cf.value is None else cf.value for cf in cfs])
    assert value.dtype == np.float64
    assert np.array_equal(value.view(np.uint64), expected.view(np.uint64))


def test_closed_form_cases_cover_both_m1_branches_and_every_status():
    cases = _closed_form_cases()
    m1 = [(spec, D) for model, spec, D, _ in cases if model == "M1"]
    assert {2 * D > spec.K for spec, D in m1} == {True, False}
    for spec, D in m1:
        status, _ = m1_closed_form(spec, D)
        assert set(status.tolist()) == {"covered", "boundary", "uncovered"}, (spec, D)
    assert {case for model, _, _, case in cases if model == "M2"} == {"i", "ii"}


def test_m3_dominance_near_beam_block():
    # beams jointly d-close, far from the ends: nearly all probability
    # lands within D of the beam block
    D = 110
    spec = M3Spec(
        N=4800,
        regions=((2211, 9, 0.0), (2223, 9, math.pi / 2)),
    )
    first, last = spec.block_range
    assert last - first <= 2 * D + 1
    dist = path_probabilities(build_m3(spec), DistanceSpec("step", D=D))
    lo, hi = first - D, last + D
    mass = float(np.sum(dist.probs[lo - 1 : hi]))
    assert mass > 0.99


def test_parse_model_spec_round_trip():
    spec = _model_spec({"model": "M1", "N": 24, "M": 9, "K": 3})
    assert spec == CANON
    m2 = _model_spec(
        {"model": "M2", "N": 120, "M0": 31, "K0": 3, "M1": 41, "K1": 3,
         "theta0": 0.5, "theta1": 1.5}
    )
    assert isinstance(m2, M2Spec) and m2.theta1 == 1.5
    with pytest.raises(SpecViolation):
        _model_spec({"model": "M9"})


# -- the real route: zero-phase models in float64 --------------------------------

ZERO_PHASE = [
    M1Spec(N=204, M=101, K=3),
    M2Spec(N=600, M0=201, K0=4, M1=216, K1=4),
    M3Spec(N=601, regions=((201, 4, 0.0), (216, 4, -0.0), (301, 6, 0.0))),
]
# the spec of the benchmark's m2_sweep, and its D values
BENCH_M2 = M2Spec(N=1_000_000, M0=499_999, K0=4, M1=500_216, K1=4)
BENCH_D = [2, 5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120]


def _spec_id(spec):
    return f"{type(spec).__name__}-{spec.N}"


def _dspec_id(dspec):
    return f"{dspec.name}-{dspec.D}" + ("-literal" if dspec.literal_log_half else "")


def _bits(x):
    """The int64 bit patterns of float values, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _all_plus_zero(x) -> bool:
    return not np.any(_bits(x))


def _as_complex(ensemble: PathEnsemble) -> PathEnsemble:
    return PathEnsemble(ensemble.amplitudes.astype(np.complex128))


@pytest.mark.parametrize("spec", ZERO_PHASE + [BENCH_M2], ids=_spec_id)
@pytest.mark.parametrize("dspec", [
    DistanceSpec("step", D=3),
    DistanceSpec("step", D=20, literal_log_half=True),
    DistanceSpec("step", D=10**7),
    DistanceSpec("exp_index", D=5),
], ids=_dspec_id)
def test_real_route_has_the_bits_of_the_complex_route(spec, dspec):
    ensemble = build_model(spec)
    assert ensemble.amplitudes.dtype == np.float64
    unnorm, smeared, denom = unnormalized_probabilities(ensemble, dspec)
    ref_unnorm, ref_smeared, ref_denom = unnormalized_probabilities(_as_complex(ensemble), dspec)
    assert smeared.dtype == np.float64 and ref_smeared.dtype == np.complex128
    assert _same_bits(unnorm, ref_unnorm)
    assert _same_bits(smeared, ref_smeared.real)
    assert _same_bits(denom, ref_denom)
    assert _all_plus_zero(ref_smeared.imag)


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.0, 0.7)])
def test_screen_real_components_have_the_bits_of_complex_ones(phases):
    # zero phases make every family real; a phase on the second endpoint
    # leaves its particle family complex beside real screens.  Each family's
    # rows, and each endpoint's mass, have the bits of the families built
    # in complex128
    spec = ScreenSpec(
        D=12,
        endpoints=tuple(M3Spec(N=56, regions=((27, 3, th),)) for th in phases),
        screen_before=M1Spec(N=61, M=27, K=8),
        n_after=95, k_after=8, anchors=(27, 61),
    )
    windows = kernel_windows(DistanceSpec("step", D=spec.D), 1)

    def rows(grammar):
        return distinct_rows(CompactPrefix(grammar.spec.N, grammar.amplitudes, grammar.spans), windows)

    totals = screen.evaluate_screen_model(spec).totals
    for j, th in enumerate(phases):
        families = [build_grammar(f) for f in (spec.endpoints[j], spec.screen_before,
                                               M1Spec(N=spec.n_after, M=spec.anchors[j], K=spec.k_after))]
        assert [g.dtype for g in families] == [np.complex128 if th else np.float64] + [np.float64] * 2
        real = [rows(g) for g in families]
        ref = [rows(RunGrammar(g.spec, [complex(v) for v in g.values], np.complex128)) for g in families]
        for (sums, counts, repeats), (ref_sums, ref_counts, ref_repeats) in zip(real, ref):
            assert _same_bits(sums.real, ref_sums.real)
            assert _same_bits(counts, ref_counts) and _same_bits(repeats, ref_repeats)
            if sums.dtype == np.float64:
                assert _all_plus_zero(ref_sums.imag)
            else:
                assert _same_bits(sums.imag, ref_sums.imag)
        mass = screen._mass(real, windows.weights)
        assert _same_bits(mass, screen._mass(ref, windows.weights)) and mass == totals[j]


@pytest.mark.parametrize("spec, dspecs", [
    *(pytest.param(s, [DistanceSpec("step", D=D, literal_log_half=literal)
                       for D in (1, 2, 20, 10**7) for literal in (False, True)]
                   + [DistanceSpec("exp_index", D=D) for D in (1, 5, 600)], id=_spec_id(s))
      for s in ZERO_PHASE),
    pytest.param(BENCH_M2, [DistanceSpec("step", D=D) for D in BENCH_D]
                 + [DistanceSpec("step", D=50, literal_log_half=True),
                    DistanceSpec("exp_index", D=5)], id=_spec_id(BENCH_M2)),
])
def test_real_sweep_cells_have_the_bits_of_complex_cells(monkeypatch, spec, dspecs):
    # the complex side is the same sweep group with its run grammar cast
    # to complex128, which its compact prefix then takes; the flipped
    # block is complex128 on both sides
    cell = beam_sweep(spec, dspecs)
    cast = []

    def as_complex(s):
        grammar = build_grammar(s)
        assert grammar.dtype == np.float64
        cast.append(RunGrammar(grammar.spec, [complex(v) for v in grammar.values], np.complex128))
        return cast[-1]

    monkeypatch.setattr(toymodels, "build_grammar", as_complex)
    ref_cell = beam_sweep(spec, dspecs)
    assert len(cast) == 1
    assert cast[0].amplitudes(0, spec.N).tobytes() == _as_complex(build_model(spec)).amplitudes.tobytes()
    for dspec in dspecs:
        vis, mass, probs, C = cell(dspec)
        ref_vis, ref_mass, ref_probs, ref_C = ref_cell(dspec)
        assert (vis, mass, C) == (ref_vis, ref_mass, ref_C), _dspec_id(dspec)
        assert _same_bits(probs.take(0, spec.N), ref_probs.take(0, spec.N)), _dspec_id(dspec)


@pytest.mark.parametrize("spec", [
    CANON,
    M2Spec(N=31, M0=5, K0=2, M1=14, K1=3, theta1=2.1),
    M3Spec(N=31, regions=((3, 1, 0.5), (5, 2, -0.0), (14, 3, math.pi))),
], ids=_spec_id)
def test_grammar_slices_are_slices_of_the_build(spec):
    # every slice [a, b) the run grammar places, empty ones and those
    # starting or ending inside a region included, has the build's bits
    grammar, amps = build_grammar(spec), build_model(spec).amplitudes
    for a in range(spec.N + 1):
        for b in range(a, spec.N + 1):
            assert grammar.amplitudes(a, b).tobytes() == amps[a:b].tobytes(), (a, b)


@pytest.mark.parametrize("theta1", [0.0, 2.1])
def test_grammar_checks_each_region_amplitude(monkeypatch, theta1):
    # no finite phase leaves the unit circle, so the tolerance is made
    # negative: the check refuses the first region's value and names its
    # first index, as PathEnsemble's check names the first bad index
    spec = M2Spec(N=31, M0=5, K0=2, M1=14, K1=3, theta1=theta1)
    monkeypatch.setattr(toymodels, "UNIT_MODULUS_ATOL", -1.0)
    with pytest.raises(NonUnitAmplitude) as refused:
        build_grammar(spec)
    assert refused.value.index == 5


@pytest.mark.parametrize("spec", [
    CANON,
    M2Spec(N=31, M0=5, K0=2, M1=14, K1=3),
    M2Spec(N=31, M0=5, K0=2, M1=14, K1=3, theta0=-0.0),
    M3Spec(N=31, regions=((5, 2, -0.0), (14, 3, -0.0))),
], ids=_spec_id)
def test_zero_phase_models_build_float64(spec):
    assert build_model(spec).amplitudes.dtype == np.float64


@pytest.mark.parametrize("phases", [(0.0, math.pi), (1e-300, 0.0), (-0.0, -2.1)])
def test_a_nonzero_phase_builds_complex128(phases):
    # exp(-i pi) has an imaginary part of -1.2e-16: pi is not real either
    spec = M2Spec(N=31, M0=5, K0=2, M1=14, K1=3, theta0=phases[0], theta1=phases[1])
    amps = build_m2(spec).amplitudes
    assert amps.dtype == np.complex128
    assert np.array_equal(amps[4:7], np.full(3, np.exp(-1j * phases[0])))
    assert np.array_equal(amps[13:17], np.full(4, np.exp(-1j * phases[1])))


@pytest.mark.parametrize("amps, dtype", [
    ([1, -1], np.float64),
    (np.array([1.0, -1.0], dtype=np.float32), np.float64),
    ([1 + 0j, -1], np.complex128),
    (np.array([1j, -1], dtype=np.complex64), np.complex128),
])
def test_ensemble_keeps_real_amplitudes_real(amps, dtype):
    ensemble = PathEnsemble(amps)
    assert ensemble.amplitudes.dtype == dtype
    assert np.array_equal(ensemble.amplitudes, np.asarray(amps))
