"""Lorentz-invariant distances, causal classification, boost invariance."""

import json
import math
import warnings

import numpy as np
import pytest

from realpathsim.errors import (
    AntiCausalArgument,
    EndpointMismatch,
    NonCausalPlainArgument,
)
from realpathsim.minkowski import (
    CausalClass,
    MinkowskiPath,
    _envelope_branches,
    _integrate_envelope,
    _quadratics,
    boost_path,
    classify,
    d1,
    d2,
    interval,
    lorentz_boost,
)

from oracles import (
    dense_interval_max,
    scalar_classify,
    scalar_d1,
    scalar_d2,
    scalar_segment_integral,
)

STRAIGHT = MinkowskiPath([[0, 0], [0, 2]])
BULGE = MinkowskiPath([[0, 0], [1, 1], [0, 2]])          # everywhere null
SPACELIKE = MinkowskiPath([[0, 0], [1, 0.1], [0, 2]])    # first leg spacelike
BACKWARD = MinkowskiPath([[0, 0], [0, 1], [0, 0.5], [0, 2]])


def test_interval_sign_convention():
    assert interval(np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 0.0
    assert interval(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0    # spacelike positive
    assert interval(np.array([0.0, 0.0, 0.0, 1.0])) == -1.0   # timelike negative


def test_classification_examples():
    assert classify(STRAIGHT) is CausalClass.CAUSAL
    assert classify(BULGE) is CausalClass.CAUSAL            # null counts as causal
    assert classify(SPACELIKE) is CausalClass.NON_CAUSAL
    assert classify(BACKWARD) is CausalClass.ANTI_CAUSAL


def test_anti_causal_hidden_between_segments():
    # no vertex pair is causally ordered backwards, but interior points are
    hidden = MinkowskiPath([[0, 0], [4, 0.5], [1, -0.3], [5, 5]])
    events = hidden.events
    for a in range(len(events)):
        for b in range(a + 1, len(events)):
            diff = events[b] - events[a]
            assert not (interval(diff) <= 0 and diff[-1] < 0)
    assert classify(hidden) is CausalClass.ANTI_CAUSAL


def test_stalling_path_is_causal():
    # a repeated event (zero segment) is on the light cone boundary
    assert classify(MinkowskiPath([[0, 0], [0, 1], [0, 1], [0, 2]])) is CausalClass.CAUSAL


def test_d1_examples():
    assert d1(STRAIGHT, STRAIGHT) == 0.0
    assert d1(STRAIGHT, BULGE) == pytest.approx(1.0)
    # non-causal self distance: identity of indiscernibles fails
    assert d1(SPACELIKE, SPACELIKE) == pytest.approx(0.99)


def test_d1_against_dense_grid():
    rng = np.random.default_rng(31)
    for _ in range(10):
        P = _random_causal(rng)
        Q = _random_path_between(rng, P.start, P.end)
        exact = d1(P, Q)
        grid = dense_interval_max(P.events.tolist(), Q.events.tolist(), samples=60)
        assert grid <= exact + 1e-9
        assert exact - grid < 5e-2  # the grid converges to the exact max


def test_d1_rejects_anti_causal():
    anti = MinkowskiPath([[0, 0], [0, 1], [0, 0.5], [0, 2]])
    with pytest.raises(AntiCausalArgument):
        d1(STRAIGHT, anti)
    with pytest.raises(EndpointMismatch):
        d1(STRAIGHT, MinkowskiPath([[0, 0], [1, 2]]))


def test_d2_null_path_is_degenerate():
    for Q in (STRAIGHT, BULGE, _wiggle()):
        assert d2(BULGE, Q) == 0.0


def test_d2_known_value():
    # straight timelike P against the null bulge: integrand 2t - t^2
    assert d2(STRAIGHT, BULGE) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_d2_asymmetry_witness():
    a = d2(STRAIGHT, BULGE)
    b = d2(BULGE, STRAIGHT)
    assert a != pytest.approx(b, abs=1e-6)  # b is exactly 0, a = 4/3
    s1 = d2(STRAIGHT, BULGE, "symmetrized")
    s2 = d2(BULGE, STRAIGHT, "symmetrized")
    assert s1 == s2


def test_d2_plain_requires_causal_first_argument():
    with pytest.raises(NonCausalPlainArgument):
        d2(SPACELIKE, STRAIGHT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # prime variant accepts non-causal P by restricting to causal segments
        val = d2(SPACELIKE, STRAIGHT, "prime")
    assert math.isfinite(val)
    with pytest.raises(AntiCausalArgument):
        d2(STRAIGHT, MinkowskiPath([[0, 0], [0, 2.5], [0, 2]]), "prime")


def test_causal_only_prescription_through_engine():
    """Only causal paths are realised; non-causal ones still smear.

    Anti-causal paths leave the ensemble before evaluation; non-causal
    paths get zero realization probability but their amplitudes keep
    contributing to other paths' smeared sums.
    """
    import warnings as _w

    from realpathsim.engine import distribution_from_sums, smeared_components
    from oracles import make_indexed_ensemble

    paths = [STRAIGHT, BULGE, _wiggle(), SPACELIKE, BACKWARD]
    kept = [p for p in paths if classify(p) is not CausalClass.ANTI_CAUSAL]
    assert len(kept) == 4
    amps = [1.0, -1.0, 1.0, 1.0]
    ensemble = make_indexed_ensemble(amps)
    n = len(kept)
    dmat = np.zeros((n, n))
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        for i in range(n):
            for j in range(n):
                if i != j:
                    dmat[i, j] = d1(kept[i], kept[j])
    weights = np.array([float(classify(p) is CausalClass.CAUSAL) for p in kept])
    assert list(weights) == [1.0, 1.0, 1.0, 0.0]
    dist = distribution_from_sums(*smeared_components(ensemble, dmat), weights)
    assert dist.probs[3] == 0.0                 # not realisable
    assert abs(dist.smeared[0]) != abs(         # but it contributed amplitude
        complex(np.sum(ensemble.amplitudes[:3] * np.exp(-dmat[0, :3])))
    )


def _wiggle():
    return MinkowskiPath([[0, 0], [0.3, 0.5], [-0.2, 1.2], [0, 2]])


def _random_causal(rng, n_mid=3, T=3.0, dim=2):
    while True:
        ts = np.sort(rng.uniform(0.2, T - 0.2, n_mid))
        ts = np.concatenate([[0.0], ts, [T]])
        xs = np.zeros((n_mid + 2, dim - 1))
        for k in range(1, n_mid + 2):
            dt = ts[k] - ts[k - 1]
            step = rng.uniform(-0.9, 0.9, size=dim - 1)
            step /= max(1.0, np.linalg.norm(step) / 0.9)
            xs[k] = xs[k - 1] + step * dt
        path = MinkowskiPath(np.column_stack([xs, ts]))
        if classify(path) is CausalClass.CAUSAL:
            return path


def _random_path_between(rng, A, B, n_mid=3):
    dim = A.size
    while True:
        ts = np.sort(rng.uniform(A[-1] + 0.1, B[-1] - 0.1, n_mid))
        mids = np.column_stack(
            [rng.uniform(-1.5, 1.5, size=(n_mid, dim - 1)), ts[:, None]]
        )
        path = MinkowskiPath(np.vstack([A, mids, B]))
        if classify(path) is not CausalClass.ANTI_CAUSAL:
            return path


def test_boost_matrix_is_lorentz():
    rng = np.random.default_rng(32)
    for dim in (2, 4):
        direction = rng.uniform(-1, 1, size=dim - 1)
        B = lorentz_boost(1.3, direction, dim=dim)
        eta = np.diag([1.0] * (dim - 1) + [-1.0])
        assert np.allclose(B.T @ eta @ B, eta, atol=1e-12)


def test_boost_invariance_small_suite():
    rng = np.random.default_rng(33)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for dim in (2, 4):
            for _ in range(5):
                P = _random_causal(rng, dim=dim)
                Q = _random_path_between(rng, P.start, P.end)
                base_d1 = d1(P, Q)
                base_d2 = d2(P, Q)
                base_cls = classify(Q)
                for _ in range(4):
                    rap = rng.uniform(-2, 2)
                    direction = rng.uniform(-1, 1, size=dim - 1)
                    bP = boost_path(P, rap, direction)
                    bQ = boost_path(Q, rap, direction)
                    assert classify(bP) is CausalClass.CAUSAL
                    assert classify(bQ) is base_cls
                    scale = max(1.0, abs(base_d1))
                    assert abs(d1(bP, bQ) - base_d1) / scale < 1e-9
                    scale2 = max(1.0, abs(base_d2))
                    assert abs(d2(bP, bQ) - base_d2) / scale2 < 1e-9


def test_subdivision_invariance():
    # doubling the polyline sampling density is a no-op geometrically,
    # so d1 and d2 must not move
    def refine(path):
        ev = path.events
        mids = (ev[:-1] + ev[1:]) / 2.0
        out = np.empty((2 * len(ev) - 1, ev.shape[1]))
        out[0::2] = ev
        out[1::2] = mids
        return MinkowskiPath(out)

    rng = np.random.default_rng(34)
    for _ in range(5):
        P = _random_causal(rng)
        Q = _random_path_between(rng, P.start, P.end)
        assert d1(refine(P), refine(Q)) == pytest.approx(d1(P, Q), abs=1e-9)
        assert d2(refine(P), refine(Q)) == pytest.approx(d2(P, Q), abs=1e-9)


def test_d1_nonnegative_for_shared_endpoints():
    rng = np.random.default_rng(35)
    for _ in range(20):
        P = _random_causal(rng)
        Q = _random_path_between(rng, P.start, P.end)
        assert d1(P, Q) >= 0.0


def test_slab_containment_warns_not_rejects():
    # overshoots t = 2 and returns along a spacelike leg
    outside = MinkowskiPath([[0, 0], [1.5, 2.5], [0, 2]])
    assert classify(outside) is CausalClass.NON_CAUSAL
    with pytest.warns(UserWarning, match="slab"):
        d1(STRAIGHT, outside)
    # one warning, naming the path as the caller does, at the caller's line
    calls = [
        lambda: d1(STRAIGHT, outside),
        lambda: d2(STRAIGHT, outside),
        lambda: d2(STRAIGHT, outside, "prime"),
        lambda: d2(STRAIGHT, outside, "symmetrized"),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert len(caught) == 1
        assert str(caught[0].message).startswith("path Q leaves the slab")
        assert caught[0].filename == __file__


def test_path_json_round_trip():
    text = json.dumps({"events": BULGE.events.tolist()})
    back = MinkowskiPath.from_json(text)
    assert np.array_equal(back.events, BULGE.events)


# -- the array forms against the scalar reference ------------------------------

# paths from (0, 0) to (0, 2), but the anti-causal one, whose segment pairs
# reach the degenerate cases of the closed forms
FIXTURES = {
    "null legs": [[0, 0], [0.5, 0.5], [0.5, 1.5], [0, 2]],
    "repeated event": [[0, 0], [0, 1], [0, 1], [0, 2]],
    "parallel segments": [[0, 0], [0.1, 0.5], [0.2, 1], [0, 2]],
    "Aff near 0": [[0, 0], [1, 1 + 1e-13], [0, 2]],
    "G = 0 window": [[0, 0], [1, 0.5], [0, 2]],
    "G near 0 window": [[0, 0], [1, 0.5 + 2e-13], [0, 2]],
    "timelike partner": [[0, 0], [0.5, 1], [0, 2]],
    "hidden anti-causal": [[0, 0], [4, 0.5], [1, -0.3], [5, 5]],
    # 3+1D: the spacelike second leg touches the first vertex's past light
    # cone, a null contact into the past that only the tie rule decides
    "past cone contact": [[0, 0, 0, 0], [1, -5, 0, -1], [1, 5, 0, -1], [20, 0, 0, 30]],
}


def _bits(x: float) -> str:
    return float(x).hex()


def _reference_pairs():
    # draws as criterion 6 makes them, 2-D and 4-D, with 1 to 20 interior vertices
    rng = np.random.default_rng(36)
    pairs = []
    for dim in (2, 4):
        for n_mid in (1, 2, 3, 5, 8, 13, 20):
            P = _random_causal(rng, n_mid=min(n_mid, 6), dim=dim)
            pairs.append((P, _random_path_between(rng, P.start, P.end, n_mid=n_mid)))
    fixtures = [MinkowskiPath(ev) for ev in FIXTURES.values()] + [STRAIGHT, BULGE, SPACELIKE]
    usable = [F for F in fixtures if scalar_classify(F) is not CausalClass.ANTI_CAUSAL]
    pairs += [(F, G) for F in usable for G in usable]
    return pairs


def test_fixtures_reach_every_degenerate_case():
    for name in ("hidden anti-causal", "past cone contact"):
        assert classify(MinkowskiPath(FIXTURES[name])) is CausalClass.ANTI_CAUSAL
    pairs = _reference_pairs()
    q = [_quadratics(P.events, Q.events) for P, Q in pairs]
    Ae, Af, G = (np.concatenate([x[k].ravel() for x in q]) for k in range(3))
    timelike_f = Af < -1e-12
    assert np.any(Ae == 0.0)                                # null legs, a repeated event
    assert np.any((Af != 0.0) & (abs(Af) <= 1e-12))         # a nearly null Q leg
    assert np.any((Ae < 0.0) & (Ae * Af - G * G == 0.0))    # parallel timelike segments
    assert np.any(timelike_f & (G == 0.0))                  # the G = 0 window
    assert np.any(timelike_f & (G != 0.0) & (abs(G) <= 1e-12))


def test_classify_matches_scalar_reference():
    paths = [MinkowskiPath(ev) for ev in FIXTURES.values()]
    for P, Q in _reference_pairs():
        paths += [P, Q]
    rng = np.random.default_rng(37)
    for dim in (2, 4):
        for n in range(3, 15):
            # times that may run backwards: all three classes
            times = np.cumsum(rng.uniform(-0.3, 1.0, n))
            paths.append(MinkowskiPath(np.column_stack([rng.uniform(-1, 1, (n, dim - 1)), times])))
    labels = [classify(path) for path in paths]
    assert labels == [scalar_classify(path) for path in paths]
    assert set(labels) == set(CausalClass)


def test_d1_and_d2_match_scalar_reference_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for P, Q in _reference_pairs():
            for A, B in ((P, Q), (Q, P)):
                assert _bits(d1(A, B)) == _bits(scalar_d1(A, B))
                variants = ["prime", "symmetrized"]
                if classify(A) is CausalClass.CAUSAL:
                    variants.append("plain")
                for variant in variants:
                    assert _bits(d2(A, B, variant)) == _bits(scalar_d2(A, B, variant))


def test_segment_integrals_match_scalar_reference_bit_for_bit():
    # every P segment, spacelike ones too, whose branches d2 never reads:
    # they reach the G = 0 window against a timelike Q segment
    for P, Q in _reference_pairs():
        branches, exists = _envelope_branches(P, Q)
        ev = P.events
        for i in range(P.n_segments):
            got = _integrate_envelope(*branches[:, i, exists[i]])
            assert _bits(got) == _bits(scalar_segment_integral(ev[i], ev[i + 1] - ev[i], Q))
