"""Screen model: composite ensembles, detection ratios, unitarity guard.

The factorized evaluation is checked against the dense engine on a
materialized small composite ensemble, so the fast route never drifts
from the postulate it implements.
"""

import math

import numpy as np
import pytest

from realpathsim.engine import banded_smeared, final_state_probabilities, smeared_components
from realpathsim.errors import ModelTooLarge, SpecViolation
from realpathsim.paths import PathEnsemble
from realpathsim.screen import (
    ScreenSpec,
    _components,
    composite_unnormalized,
    evaluate_screen_model,
    materialize_composite_ensemble,
)
from realpathsim.toymodels import M1Spec, M3Spec


def small_spec(theta1=0.0, k0=2, k1=4, D=2):
    """A deliberately tiny two-endpoint model for cross-validation."""
    return ScreenSpec(
        D=D,
        endpoints=(
            M3Spec(N=11, regions=((5, k0, 0.0),)),
            M3Spec(N=11, regions=((5, k1, theta1),)),
        ),
        screen_before=M1Spec(N=8, M=5, K=1),
        n_after=23, k_after=2, anchors=(7, 15),
    )


def regime_spec(strength0=9, strength1=17):
    """Beams d-close, blocks window-covered: the quantum-ratio regime."""
    return ScreenSpec(
        D=12,
        endpoints=(
            M3Spec(N=52 + strength0, regions=((27, strength0 - 1, 0.0),)),
            M3Spec(N=52 + strength1, regions=((27, strength1 - 1, 0.0),)),
        ),
        screen_before=M1Spec(N=61, M=27, K=8),
        n_after=95, k_after=8, anchors=(27, 61),
    )


def test_fast_route_matches_dense_engine():
    spec = small_spec(theta1=0.7)
    ensemble, labels, dmat = materialize_composite_ensemble(spec)
    groups = []
    for j in range(spec.n_endpoints):
        mask = labels[:, 0] == j
        groups.append(PathEnsemble(ensemble.amplitudes[mask], endpoint_tag=str(j)))
    by_endpoint, _ = final_state_probabilities(groups, dmat)
    fast = evaluate_screen_model(spec)
    for j in range(spec.n_endpoints):
        assert by_endpoint[str(j)] == pytest.approx(fast.probabilities[j], abs=1e-12)


@pytest.mark.parametrize("D", [1, 2, 30])
def test_banded_composite_matches_materialized_sums(D):
    # K=3 window counts, clipped in every component at D=30, against the
    # dense engine on the materialized composite with the max rule
    spec = small_spec(theta1=0.7, D=D)
    ensemble, labels, dmat = materialize_composite_ensemble(spec)
    ref_smeared, ref_denom = smeared_components(ensemble, dmat)
    for j in range(spec.n_endpoints):
        smeared, denom = banded_smeared(_components(spec, j), D)
        rows = labels[:, 0] == j
        at = tuple(labels[rows, 1:].T)
        assert np.array_equal(denom[at], ref_denom[rows])
        scale = np.max(np.abs(ref_smeared[rows]))
        assert np.max(np.abs(smeared[at] - ref_smeared[rows])) <= 1e-12 * scale


def test_single_endpoint_probability_one():
    spec = ScreenSpec(
        D=2,
        endpoints=(M3Spec(N=11, regions=((5, 2, 0.0),)),),
        screen_before=M1Spec(N=8, M=5, K=1),
        n_after=23, k_after=2, anchors=(7,),
    )
    res = evaluate_screen_model(spec)
    assert res.probabilities[0] == 1.0


def test_symmetric_endpoints_ratio_exactly_one():
    spec = small_spec(k0=2, k1=2)
    res = evaluate_screen_model(spec)
    assert res.totals[0] == res.totals[1]
    rows = res.ratio_rows()
    assert all(r["direct_ratio"] == 1.0 for r in rows)


def test_quantum_limit_recovers_quantum_ratios():
    spec = small_spec(k0=2, k1=4)
    res = evaluate_screen_model(spec, d_override=500, check_separations=False)
    # strengths 3 vs 5 -> probabilities 9/34, 25/34 exactly
    assert res.probabilities[0] == pytest.approx(9 / 34, abs=1e-9)
    assert res.probabilities[1] == pytest.approx(25 / 34, abs=1e-9)


def test_detection_ratio_matches_quantum_within_tolerance():
    spec = regime_spec(9, 17)
    res = evaluate_screen_model(spec)
    tol = 3.0 / 9.0  # min beam strength 9
    direct = res.totals[1] / res.totals[0]
    quantum = res.quantum[1] / res.quantum[0]
    assert abs(direct - quantum) / quantum <= tol
    rows = res.ratio_rows()
    assert all(r["rel_err"] <= tol for r in rows if not math.isnan(r["rel_err"]))


def test_weak_beams_example_strengths_two_and_four():
    # quantum ratio 4 : 16; with strengths this small the tail residue
    # tolerance 3/(K_min+1) = 1.5 is wide, but the ordering must hold
    spec = ScreenSpec(
        D=12,
        endpoints=(
            M3Spec(N=54, regions=((27, 1, 0.0),)),
            M3Spec(N=56, regions=((27, 3, 0.0),)),
        ),
        screen_before=M1Spec(N=59, M=27, K=6),
        n_after=91, k_after=6, anchors=(27, 59),
    )
    res = evaluate_screen_model(spec)
    direct = res.totals[1] / res.totals[0]
    assert abs(direct - 4.0) / 4.0 <= 1.5
    assert res.totals[1] > res.totals[0]


def test_destructive_endpoint_suppressed():
    # endpoint 1 carries two equal beams in antiphase: quantum mass 0
    spec = ScreenSpec(
        D=12,
        endpoints=(
            M3Spec(N=76, regions=((27, 5, 0.0), (35, 5, 0.0))),
            M3Spec(N=76, regions=((27, 5, 0.0), (35, 5, math.pi))),
        ),
        screen_before=M1Spec(N=61, M=27, K=8),
        n_after=95, k_after=8, anchors=(27, 61),
    )
    res = evaluate_screen_model(spec)
    tol = 3.0 / 6.0
    assert res.quantum[1] == pytest.approx(0.0, abs=1e-12)
    assert res.totals[1] / res.totals[0] <= tol
    # constructive pattern ~ |2(K+1)|^2 = 144 vs destructive ~ 0
    assert res.quantum[0] == pytest.approx(144.0)


def test_k_after_doubling_leaves_ratios_invariant():
    eps = (
        M3Spec(N=61, regions=((27, 8, 0.0),)),
        M3Spec(N=69, regions=((27, 16, 0.0),)),
    )
    ratios = []
    for k_after, n_after, anchors in ((8, 95, (27, 61)), (16, 121, (27, 69))):
        spec = ScreenSpec(
            D=12, endpoints=eps, screen_before=M1Spec(N=61, M=27, K=8),
            n_after=n_after, k_after=k_after, anchors=anchors,
        )
        res = evaluate_screen_model(spec)
        ratios.append(res.totals[1] / res.totals[0])
    tol = 3.0 / 9.0
    assert abs(ratios[1] - ratios[0]) / ratios[0] <= tol


def test_mass_concentrates_within_d_of_blocks():
    """Support structure of the max rule, modulo the half-weight rim.

    With the step distance's weight-1/2 shell at exactly D, the smeared
    amplitude of a composite couples components through the rim, so a
    composite with ONE component in a zero zone keeps a rim-order
    probability (~(edge scale / block scale)^2 of the max, here ~1e-3);
    only composites whose components are ALL in zero zones cancel
    exactly.  What the model does guarantee: the within-D-of-blocks
    region carries essentially all interior probability mass.
    """
    spec = regime_spec(9, 17)
    D = spec.D
    for j, pspec in enumerate(spec.endpoints):
        unnorm = composite_unnormalized(spec, j)
        sizes = (pspec.N, spec.screen_before.N, spec.n_after)
        pm, pk, _ = pspec.regions[0]
        sb = spec.screen_before
        blocks = (
            (pm, pm + pk),
            (sb.M, sb.M + sb.K),
            (spec.anchors[j], spec.anchors[j] + spec.k_after),
        )
        grids = np.meshgrid(
            *[np.arange(1, n + 1) for n in sizes], indexing="ij"
        )
        interior = np.ones(unnorm.shape, dtype=bool)
        near_block = np.ones(unnorm.shape, dtype=bool)
        n_zero_axes = np.zeros(unnorm.shape, dtype=int)
        for axis in range(3):
            idx = grids[axis]
            lo, hi = blocks[axis]
            interior &= (idx > D) & (idx <= sizes[axis] - D)
            near_block &= (idx >= lo - D) & (idx <= hi + D)
            n_zero_axes += ((idx < lo - D) | (idx > hi + D)).astype(int)
        # all components in zero zones: exact cancellation
        assert np.all(unnorm[interior & (n_zero_axes == 3)] == 0.0)
        # rim leakage stays rim-sized
        leak = unnorm[interior & (n_zero_axes > 0)]
        assert leak.max() < 1e-2 * unnorm.max()
        # the block windows dominate the interior mass
        mass_near = float(np.sum(unnorm[interior & near_block]))
        mass_total = float(np.sum(unnorm[interior]))
        assert mass_near / mass_total > 0.99


def test_spec_validation():
    with pytest.raises(SpecViolation):
        ScreenSpec(
            D=2,
            endpoints=(M3Spec(N=11, regions=((5, 2, 0.0),)),),
            screen_before=M1Spec(N=8, M=5, K=1),
            n_after=23, k_after=2, anchors=(7, 15),  # anchor count mismatch
        )
    # anchors too close for the separation chain
    spec = ScreenSpec(
        D=8,
        endpoints=(
            M3Spec(N=11, regions=((5, 2, 0.0),)),
            M3Spec(N=11, regions=((5, 2, 0.0),)),
        ),
        screen_before=M1Spec(N=8, M=5, K=1),
        n_after=41, k_after=2, anchors=(11, 27),
    )
    with pytest.raises(SpecViolation):
        spec.validate_separations()
    with pytest.raises(SpecViolation):
        evaluate_screen_model(spec)


def test_model_too_large():
    spec = ScreenSpec(
        D=4,
        endpoints=(M3Spec(N=2001, regions=((11, 2, 0.0),)),),
        screen_before=M1Spec(N=101, M=11, K=2),
        n_after=33, k_after=2, anchors=(11,),
    )
    with pytest.raises(ModelTooLarge):
        evaluate_screen_model(spec)
    with pytest.raises(ModelTooLarge):
        materialize_composite_ensemble(small_spec(), max_paths=100)


def test_spec_from_dict():
    data = {
        "D": 2,
        "endpoints": [{"N": 11, "regions": [[5, 2, 0.0]]}],
        "screen_before": {"N": 8, "M": 5, "K": 1},
        "screen_after": {"N": 23, "K": 2, "anchors": [7]},
    }
    spec = ScreenSpec.from_dict(data)
    assert spec.n_after == 23 and spec.anchors == (7,)


def test_cross_distance_parameter():
    spec = small_spec()
    _, labels, d_inf = materialize_composite_ensemble(spec)
    _, _, d_fin = materialize_composite_ensemble(spec, cross_distance=5.0)
    cross = labels[:, 0][:, None] != labels[:, 0][None, :]
    assert np.all(np.isinf(d_inf[cross]))
    assert np.all(d_fin[cross] >= 5.0)
    assert np.isfinite(d_fin[cross]).any()
