"""Toy models M1/M2/M3: amplitude patterns and closed-form oracles.

The closed forms are exact for M1 (every strictly covered index equals
the direct evaluation bit for bit after common normalization) and exact
up to an alternating-tail residue of at most 1 in amplitude for M2.
"""

import math

import numpy as np
import pytest

from realpathsim.distances import DistanceSpec
from realpathsim.engine import path_probabilities, unnormalized_probabilities
from realpathsim.errors import PreconditionViolation, SpecViolation
from realpathsim.toymodels import (
    M1Spec,
    M2Spec,
    M3Spec,
    build_m1,
    build_m2,
    build_m3,
    m1_closed_form,
    m2_closed_form,
    parse_model_spec,
)

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


def test_scale_validation_is_opt_in():
    with pytest.raises(SpecViolation):
        M1Spec(N=24, M=9, K=5).validate_scale()  # 2K > M
    with pytest.raises(SpecViolation):
        CANON.validate_scale()  # 10K > N on the canonical desk example
    M1Spec(N=200, M=41, K=3).validate_scale()


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
    assert m1_closed_form(5, CANON, 3).value == 0.0
    assert m1_closed_form(10, CANON, 3).value == pytest.approx(9.0 / 6.0)
    assert m1_closed_form(7, CANON, 3).value == pytest.approx(1.0 / 6.0)
    assert m1_closed_form(1, CANON, 3).status == "boundary"
    assert m1_closed_form(1, CANON, 3).value == pytest.approx(0.25 / 3.5)


def test_m1_closed_form_preconditions():
    with pytest.raises(PreconditionViolation):
        m1_closed_form(5, CANON, 4)  # M=9 not > 2D+1
    with pytest.raises(PreconditionViolation):
        m1_closed_form(0, CANON, 3)
    with pytest.raises(PreconditionViolation):
        m1_closed_form(5, CANON, 3, strict=True)  # 10D > N


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
        for i in range(1, spec.N + 1):
            cf = m1_closed_form(i, spec, D)
            if cf.status == "uncovered":
                continue
            assert direct[i - 1] == pytest.approx(cf.value, abs=1e-13), (
                spec, D, i, cf)


def test_m1_uncovered_gaps_exist_and_are_benign():
    spec, D = CANON, 3
    direct = _direct_unnormalized(build_m1(spec), D)
    statuses = [m1_closed_form(i, spec, D).status for i in range(1, spec.N + 1)]
    assert statuses.count("uncovered") > 0
    # the strict-range boundary at i = M+K-D carries the plateau value
    # even though the formulas omit it; direct evaluation is ground truth
    i = spec.M + spec.K - D
    assert statuses[i - 1] == "uncovered"
    assert direct[i - 1] == pytest.approx(spec.K**2 / (2 * D))


def test_m2_closed_form_examples():
    # destructive equal beams cancel
    spec = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3, theta0=0.0, theta1=math.pi)
    cf = m2_closed_form(44, spec, 14, "i")
    assert cf.status == "covered"
    assert cf.value == pytest.approx(0.0, abs=1e-12)
    # constructive equal beams: 4 (K+1)^2 / 2D
    spec2 = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3)
    cf2 = m2_closed_form(44, spec2, 14, "i")
    assert cf2.value == pytest.approx(4 * 16 / 28)
    # no-interference plateau ratio (K0+1)^2 : (K1+1)^2 = 1 : 4
    spec3 = M2Spec(N=261, M0=41, K0=4, M1=102, K1=9)
    a = m2_closed_form(41, spec3, 15, "ii").value
    b = m2_closed_form(103, spec3, 15, "ii").value
    assert a / b == pytest.approx(0.25)


def test_m2_case_premises_enforced():
    spec = M2Spec(N=120, M0=31, K0=3, M1=41, K1=3)
    with pytest.raises(PreconditionViolation):
        m2_closed_form(45, spec, 3, "i")  # window cannot span both beams
    with pytest.raises(PreconditionViolation):
        m2_closed_form(45, spec, 14, "ii")  # beams are d-close, not distant
    with pytest.raises(PreconditionViolation):
        m2_closed_form(45, spec, 14, "iii")


def test_m2_oracle_agreement_within_tolerance():
    # case (i): tolerance relative to the closed value floored at the
    # single-beam scale (K_min+1)^2/2D, since the closed form can vanish
    for th in (0.0, math.pi / 2, math.pi):
        spec = M2Spec(N=160, M0=41, K0=4, M1=52, K1=4, theta0=0.0, theta1=th)
        D = 19
        direct = _direct_unnormalized(build_m2(spec), D)
        tol = m2_tolerance(spec)
        floor = (min(spec.K0, spec.K1) + 1) ** 2 / (2 * D)
        for i in range(1, spec.N + 1):
            cf = m2_closed_form(i, spec, D, "i")
            if cf.status != "covered":
                continue
            rel = abs(direct[i - 1] - cf.value) / max(cf.value, floor)
            assert rel <= tol, (th, i, direct[i - 1], cf.value)


def test_m2_case_ii_agreement():
    spec = M2Spec(N=261, M0=41, K0=4, M1=102, K1=9)
    D = 15
    direct = _direct_unnormalized(build_m2(spec), D)
    tol = m2_tolerance(spec)
    covered = 0
    for i in range(1, spec.N + 1):
        cf = m2_closed_form(i, spec, D, "ii")
        if cf.status != "covered":
            continue
        covered += 1
        rel = abs(direct[i - 1] - cf.value) / cf.value
        assert rel <= tol
    assert covered > 10


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
    spec = parse_model_spec({"model": "M1", "N": 24, "M": 9, "K": 3})
    assert spec == CANON
    m2 = parse_model_spec(
        {"model": "M2", "N": 120, "M0": 31, "K0": 3, "M1": 41, "K1": 3,
         "theta0": 0.5, "theta1": 1.5}
    )
    assert isinstance(m2, M2Spec) and m2.theta1 == 1.5
    with pytest.raises(SpecViolation):
        parse_model_spec({"model": "M9"})
