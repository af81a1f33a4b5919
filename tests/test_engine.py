"""Probability engine: postulate limits, invariances, oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpathsim import engine
from realpathsim.distances import DistanceSpec, index_distance_matrix
from realpathsim.engine import (
    _BAND_TILE,
    banded_smeared,
    dense_smeared,
    final_state_probabilities,
    path_probabilities,
    unnormalized_probabilities,
    weighted_probabilities,
)
from realpathsim.errors import AllZeroProbability
from realpathsim.toymodels import M1Spec, build_m1

from oracles import (
    block_distance_matrix,
    brute_force_probabilities,
    make_indexed_ensemble,
    sliding_window_smeared,
    step_distance_table,
    untiled_banded_smeared,
)


def _random_unit(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))


def _random_dmat(rng, n, hi=3.0):
    m = rng.uniform(0, hi, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_single_path_probability_one():
    ens = make_indexed_ensemble([1j])
    dist = path_probabilities(ens, np.zeros((1, 1)))
    assert dist.probs[0] == 1.0
    assert dist.denom[0] == 1.0


def test_m1_canonical_values():
    ens = build_m1(M1Spec(N=24, M=9, K=3))
    dist = path_probabilities(ens, DistanceSpec("step", D=3))
    assert dist.probs[4] == 0.0                      # P_5 window cancels
    assert dist.probs[9] / dist.probs[6] == pytest.approx(9.0)
    unnorm = dist.probs / dist.norm_constant
    assert unnorm[0] == pytest.approx(1.0 / 14.0)    # boundary artefact


def test_zero_distance_gives_uniform():
    rng = np.random.default_rng(1)
    ens = make_indexed_ensemble(_random_unit(rng, 37))
    dist = path_probabilities(ens, np.zeros((37, 37)))
    assert np.allclose(dist.probs, 1 / 37, atol=1e-15)


def test_off_diagonal_infinity_gives_uniform():
    # the naive |A|^2 rule reappears as a limit: every path equally likely
    rng = np.random.default_rng(2)
    n = 23
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = np.full((n, n), np.inf)
    np.fill_diagonal(dmat, 0.0)
    dist = path_probabilities(ens, dmat)
    assert np.allclose(dist.probs, 1 / n, atol=1e-15)


def test_global_phase_invariance():
    rng = np.random.default_rng(3)
    n = 31
    amps = _random_unit(rng, n)
    dmat = _random_dmat(rng, n)
    base = path_probabilities(make_indexed_ensemble(amps), dmat)
    phase = np.exp(1j * 1.234)
    shifted = path_probabilities(make_indexed_ensemble(phase * amps), dmat)
    assert np.max(np.abs(base.probs - shifted.probs)) < 1e-12


def test_uniform_weight_is_bit_for_bit_plain():
    rng = np.random.default_rng(4)
    n = 19
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = _random_dmat(rng, n)
    plain = path_probabilities(ens, dmat)
    weighted = path_probabilities(ens, dmat, weights=np.ones(n))
    assert np.array_equal(plain.probs, weighted.probs)


def test_all_zero_probability_raises():
    ens = make_indexed_ensemble([1, -1])
    with pytest.raises(AllZeroProbability):
        path_probabilities(ens, np.zeros((2, 2)), weights=np.zeros(2))


def test_denominator_at_least_one_for_zero_diagonal():
    rng = np.random.default_rng(5)
    n = 29
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dist = path_probabilities(ens, _random_dmat(rng, n))
    assert np.all(dist.denom >= 1.0)


def test_banded_equals_dense_exactly():
    rng = np.random.default_rng(6)
    for n, D in ((17, 2), (40, 5), (64, 80)):
        amps = rng.choice([1.0, -1.0], size=n).astype(complex)
        ens = make_indexed_ensemble(amps)
        spec = DistanceSpec("step", D=D)
        banded = path_probabilities(ens, spec)
        from realpathsim.distances import index_distance_matrix

        dense = path_probabilities(ens, index_distance_matrix(spec, n))
        assert np.array_equal(banded.probs, dense.probs)
        assert np.array_equal(banded.denom, dense.denom)


def test_banded_literal_log_half_matches_dense():
    ens = build_m1(M1Spec(N=24, M=9, K=3))
    spec = DistanceSpec("step", D=3, literal_log_half=True)
    from realpathsim.distances import index_distance_matrix

    banded = path_probabilities(ens, spec)
    dense = path_probabilities(ens, index_distance_matrix(spec, 24))
    assert np.allclose(banded.probs, dense.probs, atol=1e-14)


def test_callable_distance_rejected():
    ens = make_indexed_ensemble([1, -1, 1, -1, 1])
    with pytest.raises(TypeError):
        path_probabilities(ens, lambda i, j: float(abs(i - j)))


def test_banded_matches_sliding_window_at_scale():
    # the size the banded route runs at, random phases so nothing cancels
    rng = np.random.default_rng(15)
    amps = _random_unit(rng, 10**6)
    smeared, denom = banded_smeared([amps], 50)
    ref_smeared, ref_denom = sliding_window_smeared(amps, 50)
    assert np.max(np.abs(smeared - ref_smeared)) <= 1e-12 * np.max(np.abs(smeared))
    assert np.array_equal(denom, ref_denom)


@pytest.mark.parametrize("half", [0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_banded_window_counts_at_the_edges(n, half):
    # windows clipped at one end, at both ends, or wider than the ensemble
    rng = np.random.default_rng(n)
    amps = _random_unit(rng, n)
    for D in sorted({d for d in (1, n - 1, n, n + 1, 10**7) if d >= 1}):
        smeared, denom = banded_smeared([amps], D, half)
        ref_smeared, ref_denom = sliding_window_smeared(amps, D, rim=half)
        assert np.array_equal(denom, ref_denom), D
        assert np.max(np.abs(smeared - ref_smeared)) <= 1e-12 * np.max(np.abs(smeared)), D


def _same_bits(got, want):
    return all(g.tobytes() == w.tobytes() and g.shape == w.shape for g, w in zip(got, want))


@pytest.mark.parametrize(
    "n", [1, _BAND_TILE - 1, _BAND_TILE, _BAND_TILE + 1, 3 * _BAND_TILE + 7]
)
def test_tiled_kernel_has_the_untiled_bits(n):
    # tile edges at, around and past the ensemble's end
    amps = _random_unit(np.random.default_rng(n), n)
    for D in (1, 2, 50, n - 1, n, 10**7):
        if D < 1:
            continue
        for half in (0.5, 2.0):
            got = banded_smeared([amps], D, half)
            assert _same_bits(got, untiled_banded_smeared([amps], D, half)), (D, half)


def test_tiled_composite_has_the_untiled_bits():
    # K=3: the first component is tiled by _BAND_TILE // (3 * 4) rows
    rng = np.random.default_rng(3)
    rows = _BAND_TILE // 12
    comps = [_random_unit(rng, m) for m in (3 * rows + 7, 3, 4)]
    for D in (1, 2, 3, 10**7):
        got = banded_smeared(comps, D)
        assert _same_bits(got, untiled_banded_smeared(comps, D)), D


@pytest.mark.parametrize("n", [1, 2, 15, 33, 63, 65, 513])
def test_dense_bits_do_not_depend_on_tile_rows(monkeypatch, n):
    # tiles of 2, 3, 7, 10, 16, 21, 32 or 64 rows leave a lone last row at
    # some of these n; it joins the tile before it rather than take a
    # 1-row product, on whichever worker takes it
    rng = np.random.default_rng(n)
    amps = [_random_unit(rng, n), _random_unit(rng, n)]
    for name in ("exp_index", "step"):
        dmat = index_distance_matrix(DistanceSpec(name, D=3), n)
        runs = []
        for rows in (engine._TILE_ROWS, 2, 7, 32, n + 1):
            monkeypatch.setattr(engine, "_TILE_ROWS", rows)
            for workers in (1, 2, 3):
                smeared, denom = dense_smeared(amps, dmat, workers)
                runs.append((*smeared, denom))
        for run in runs[1:]:
            assert _same_bits(run, runs[0]), name


def test_weighted_probabilities_have_the_expression_bits():
    # computed in place; zero, signed-zero, NaN and infinite volumes included
    rng = np.random.default_rng(8)
    n = 1000
    smeared = rng.normal(size=n) + 1j * rng.normal(size=n)
    denom = rng.uniform(-1, 5, n)
    denom[:5] = [0.0, -0.0, np.nan, np.inf, 1e-300]
    weights = rng.uniform(0, 2, n)
    with np.errstate(all="ignore"):
        want = np.where(denom > 0, np.abs(smeared) ** 2 / denom, 0.0)
        assert weighted_probabilities(smeared, denom).tobytes() == want.tobytes()
        got = weighted_probabilities(smeared, denom, weights)
    assert got.tobytes() == (weights * want).tobytes()


def test_brute_force_agreement_small_sample():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        amps = _random_unit(rng, n)
        dmat = _random_dmat(rng, n)
        dist = path_probabilities(make_indexed_ensemble(amps), dmat)
        oracle = brute_force_probabilities(list(amps), dmat.tolist())
        assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


def test_brute_force_agreement_step_distance():
    ens = build_m1(M1Spec(N=30, M=11, K=5))
    dist = path_probabilities(ens, DistanceSpec("step", D=4))
    oracle = brute_force_probabilities(
        list(ens.amplitudes), step_distance_table(30, 4)
    )
    assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


def test_brute_force_agreement_exp_index_distance():
    ens = build_m1(M1Spec(N=30, M=11, K=5))
    dist = path_probabilities(ens, DistanceSpec("exp_index", D=4))
    table = [
        [math.exp(abs(i - j) / 4) for j in range(30)] for i in range(30)
    ]
    oracle = brute_force_probabilities(list(ens.amplitudes), table)
    assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


def test_normalization_large_banded():
    spec = M1Spec(N=5000, M=1001, K=11)
    dist = path_probabilities(build_m1(spec), DistanceSpec("step", D=100))
    assert abs(float(np.sum(dist.probs)) - 1.0) < 1e-9
    assert np.all(dist.probs >= 0.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distribution_properties_hypothesis(data):
    n = data.draw(st.integers(2, 16))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    amps = _random_unit(rng, n)
    dmat = _random_dmat(rng, n)
    dist = path_probabilities(make_indexed_ensemble(amps), dmat)
    assert np.all(dist.probs >= 0.0)
    assert abs(float(np.sum(dist.probs)) - 1.0) < 1e-9
    assert np.all(dist.denom >= 1.0)


# -- final-state (unconditioned) mode -----------------------------------------

def test_single_endpoint_probability_one():
    ens = make_indexed_ensemble([1, -1, 1], endpoint_tag="B1")
    by_endpoint, _ = final_state_probabilities([ens], np.zeros((3, 3)))
    assert by_endpoint == {"B1": pytest.approx(1.0)}


def test_two_endpoints_quantum_ratio_with_disjoint_groups():
    # coherent within a group, infinitely distant across groups: the
    # endpoint masses reduce to |sum A|^2 each, any group sizes
    rng = np.random.default_rng(12)
    a = make_indexed_ensemble(_random_unit(rng, 8), endpoint_tag="B1")
    b = make_indexed_ensemble(_random_unit(rng, 13), endpoint_tag="B2")
    dmat = block_distance_matrix(
        [8, 13], [np.zeros((8, 8)), np.zeros((13, 13))], across=math.inf
    )
    by_endpoint, union = final_state_probabilities([a, b], dmat)
    qa = abs(np.sum(a.amplitudes)) ** 2
    qb = abs(np.sum(b.amplitudes)) ** 2
    assert by_endpoint["B1"] / by_endpoint["B2"] == pytest.approx(qa / qb, rel=1e-12)
    assert abs(sum(by_endpoint.values()) - 1.0) < 1e-12
    assert union.n_paths == 21


def test_two_endpoints_global_zero_distance_is_size_weighted():
    # with d = 0 across the whole union every path is equally likely,
    # so endpoint masses follow group sizes
    rng = np.random.default_rng(13)
    a = make_indexed_ensemble(_random_unit(rng, 6), endpoint_tag="B1")
    b = make_indexed_ensemble(_random_unit(rng, 18), endpoint_tag="B2")
    by_endpoint, union = final_state_probabilities([a, b], np.zeros((24, 24)))
    assert np.allclose(union.probs, 1 / 24, atol=1e-14)
    assert by_endpoint["B1"] == pytest.approx(6 / 24)
    assert by_endpoint["B2"] == pytest.approx(18 / 24)


def test_final_state_all_zero_raises():
    a = make_indexed_ensemble([1, -1], endpoint_tag="B1")
    with pytest.raises(AllZeroProbability):
        final_state_probabilities([a], np.zeros((2, 2)), weights=np.zeros(2))


def test_unnormalized_route_matches_distribution():
    rng = np.random.default_rng(14)
    n = 9
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = _random_dmat(rng, n)
    unnorm, smeared, denom = unnormalized_probabilities(ens, dmat)
    dist = path_probabilities(ens, dmat)
    assert np.allclose(dist.probs, unnorm / unnorm.sum(), atol=1e-15)
    assert np.array_equal(dist.smeared, smeared)
    assert np.array_equal(dist.denom, denom)
