"""Core path types: ensembles, actions, composition."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from realpathsim.errors import EmptyEnsemble, NonUnitAmplitude
from realpathsim.paths import PathEnsemble

from oracles import (
    CompositePath,
    DegenerateSegment,
    SpacetimePath,
    TimeMismatch,
    amplitude_for,
    compose,
    free_action,
    make_indexed_ensemble,
)


def test_make_indexed_ensemble_basic():
    ens = make_indexed_ensemble([1, -1, 1])
    assert ens.n_paths == 3
    assert np.array_equal(ens.amplitudes, np.array([1, -1, 1], dtype=complex))
    assert list(ens.indices) == [1, 2, 3]
    assert ens.amplitude(2) == -1


def test_make_indexed_ensemble_empty():
    with pytest.raises(EmptyEnsemble):
        make_indexed_ensemble([])


def test_make_indexed_ensemble_non_unit_reports_index():
    with pytest.raises(NonUnitAmplitude) as exc:
        make_indexed_ensemble([1, 2])
    assert exc.value.index == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitude_reports_first_index(bad):
    # NaN compares False with everything, so it must fail the check too
    pairs = [[1, 0], [0, 1], [bad, 0], [math.nan, 0]]
    with pytest.raises(NonUnitAmplitude) as exc:
        PathEnsemble(np.array([complex(re, im) for re, im in pairs], dtype=np.complex128))
    assert exc.value.index == 3
    with pytest.raises(NonUnitAmplitude) as exc:
        make_indexed_ensemble([complex(re, im) for re, im in pairs])
    assert exc.value.index == 3


def test_round_trip_exact_for_unit_inputs():
    amps = [1, -1, 1j, -1j]
    ens = make_indexed_ensemble(amps)
    assert np.array_equal(ens.amplitudes, np.array(amps, dtype=complex))


@given(st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=30))
def test_round_trip_within_tolerance(thetas):
    amps = [complex(math.cos(t), math.sin(t)) for t in thetas]
    ens = make_indexed_ensemble(amps)
    assert np.max(np.abs(ens.amplitudes - np.array(amps))) < 1e-12
    assert np.max(np.abs(np.abs(ens.amplitudes) - 1.0)) <= 1e-12


def test_free_action_examples():
    straight = SpacetimePath([[0.0, 0.0], [0.0, 1.0]])
    assert free_action(straight, mass=1.0) == 0.0

    single = SpacetimePath([[0.0, 0.0], [1.0, 1.0]])
    assert free_action(single, mass=2.0) == pytest.approx(1.0, abs=1e-15)

    two_seg = SpacetimePath([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    assert free_action(two_seg, mass=1.0) == pytest.approx(1.0, abs=1e-15)


def test_amplitude_convention_is_exp_minus_i_s():
    path = SpacetimePath([[0.0, 0.0], [1.0, 1.0]])
    assert amplitude_for(path, mass=2.0) == pytest.approx(np.exp(-1j * 1.0))
    assert abs(amplitude_for(path, mass=2.0)) == pytest.approx(1.0)


def test_free_action_degenerate_segment():
    flat = SpacetimePath([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSegment):
        free_action(flat, mass=1.0)
    with pytest.raises(DegenerateSegment):
        free_action(SpacetimePath([[0.0, 0.0]]), mass=1.0)


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=8),
    st.floats(-50, 50),
)
def test_free_action_time_translation_invariant(xs, shift):
    ts = np.arange(len(xs), dtype=float)
    path = SpacetimePath(np.column_stack([xs, ts]))
    shifted = SpacetimePath(np.column_stack([xs, ts + shift]))
    assert free_action(path, 1.5) == pytest.approx(free_action(shifted, 1.5), rel=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
def test_free_action_space_reflection_invariant(xs):
    ts = np.arange(len(xs), dtype=float)
    path = SpacetimePath(np.column_stack([xs, ts]))
    mirrored = SpacetimePath(np.column_stack([-np.asarray(xs), ts]))
    assert free_action(path, 2.0) == free_action(mirrored, 2.0)


def _seg(t0, t1, x0=0.0, x1=0.0):
    return SpacetimePath([[x0, t0], [x1, t1]])


def test_compose_product_and_sequence():
    prod = compose("product", [_seg(0, 2), _seg(0, 2, 1, 1)])
    assert prod.kind == "product" and len(prod.components) == 2
    seq = compose("sequence", [_seg(0, 1), _seg(1, 3)])
    assert seq.time_span() == (0.0, 3.0)


def test_compose_gap_raises():
    with pytest.raises(TimeMismatch):
        compose("sequence", [_seg(0, 1), _seg(2, 3)])
    with pytest.raises(TimeMismatch):
        compose("product", [_seg(0, 1), _seg(0, 2)])


def test_compose_abstract_components_skip_span_checks():
    comp = compose("product", ["a", "b"])
    assert comp.components == ("a", "b")
    assert comp.time_span() is None


def test_nested_composites():
    inner = compose("product", [_seg(0, 1), _seg(0, 1, 2, 2)])
    outer = compose("sequence", [inner, _seg(1, 4)])
    assert outer.time_span() == (0.0, 4.0)
    assert isinstance(outer.components[0], CompositePath)
