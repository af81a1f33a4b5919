"""Distance catalog: step/exp index distances and the geometric family.

Covers the metric-axiom suite: non-negativity everywhere, exact symmetry,
triangle inequality for the norm-induced variants, and the documented
triangle violation of the step distance.
"""

import math

import numpy as np
import pytest

from realpathsim.distances import (
    GALILEAN_VARIANTS,
    MASS_VARIANTS,
    DistanceSpec,
    exp_index_distance,
    galilean_distance,
    grid_distance_matrix,
    index_distance_matrix,
    weight,
)
from realpathsim.errors import EndpointMismatch, IncompatibleGrids
from realpathsim.paths import SpacetimePath

from oracles import grid_max_separation, step_distance, trapezoid_l1


def test_step_distance_values():
    assert step_distance(5, 5, 3) == 0.0
    assert step_distance(5, 7, 3) == 0.0
    assert step_distance(5, 8, 3) == pytest.approx(math.log(2.0))
    assert step_distance(1, 100, 3) == math.inf
    # literal reading of the paper's log(1/2): negative distance, weight 2
    assert step_distance(5, 8, 3, literal_log_half=True) == pytest.approx(-math.log(2.0))
    assert weight(step_distance(5, 8, 3, literal_log_half=True)) == pytest.approx(2.0)


def test_exp_index_distance_values():
    assert exp_index_distance(7, 7, 4) == 1.0
    assert exp_index_distance(1, 1 + 4, 4) == pytest.approx(math.e)
    assert exp_index_distance(1, 1 + 12, 4) == pytest.approx(math.e**3)


def test_weight_values():
    assert weight(0.0) == 1.0
    assert weight(math.log(2.0)) == pytest.approx(0.5)
    assert weight(math.inf) == 0.0


def _path(xs, ts=None, mass=1.0):
    xs = np.asarray(xs, dtype=float)
    if ts is None:
        ts = np.arange(xs.size, dtype=float)
    return SpacetimePath(np.column_stack([xs, ts]), mass=mass)


STRAIGHT = _path([0, 0, 0])                  # (0,0) -> (0,2)
BULGE = _path([0, 1, 0])                     # (0,0) -> (1,1) -> (0,2)


def test_identity_all_variants():
    for name in GALILEAN_VARIANTS:
        assert galilean_distance(STRAIGHT, STRAIGHT, DistanceSpec(name)) == 0.0


def test_max_sep_example():
    assert galilean_distance(STRAIGHT, BULGE, DistanceSpec("max_sep")) == 1.0


def test_l1_trapezoid_example():
    # trapezoid of the gap on the unit grid: (0+1)/2 + (1+0)/2 = 1
    assert galilean_distance(STRAIGHT, BULGE, DistanceSpec("l1_time_integral")) == 1.0
    assert galilean_distance(STRAIGHT, BULGE, DistanceSpec("l1_time_average")) == 0.5


def test_velocity_l1_example():
    # velocities differ by 1 on both unit segments
    assert galilean_distance(STRAIGHT, BULGE, DistanceSpec("velocity_l1")) == 2.0


def test_mass_weighting_exact():
    for plain, weighted in (("max_sep", "mass_max_sep"), ("l1_time_integral", "mass_l1")):
        base = galilean_distance(STRAIGHT, BULGE, DistanceSpec(plain))
        m = 7.5
        assert galilean_distance(
            STRAIGHT, BULGE, DistanceSpec(weighted, mass=m)
        ) == m * base


def test_resampling_different_grids():
    # same polyline with a redundant vertex: distance must not change
    coarse = _path([0, 1, 0])
    fine = _path([0, 0.5, 1, 0.5, 0], ts=[0, 0.5, 1, 1.5, 2])
    for name in GALILEAN_VARIANTS:
        d_cf = galilean_distance(coarse, fine, DistanceSpec(name))
        assert d_cf == pytest.approx(0.0, abs=1e-12)
    assert galilean_distance(STRAIGHT, fine, DistanceSpec("max_sep")) == 1.0


def test_endpoint_and_grid_errors():
    other_end = _path([0, 1, 1])
    with pytest.raises(EndpointMismatch):
        galilean_distance(STRAIGHT, other_end, DistanceSpec("max_sep"))
    late = _path([0, 0, 0], ts=[5, 6, 7])
    with pytest.raises(IncompatibleGrids):
        galilean_distance(STRAIGHT, late, DistanceSpec("max_sep"))


def _random_grid_paths(rng, n_paths, n_times=6):
    ts = np.arange(n_times, dtype=float)
    xs = np.zeros((n_paths, n_times))
    xs[:, 1:-1] = rng.uniform(-4, 4, size=(n_paths, n_times - 2))
    return xs, ts


def test_non_negativity_ten_thousand_pairs():
    rng = np.random.default_rng(7)
    xs, ts = _random_grid_paths(rng, 100)
    for name in GALILEAN_VARIANTS:
        mat = grid_distance_matrix(xs, ts, DistanceSpec(name), mass=2.0)
        assert mat.shape == (100, 100)      # 10^4 ordered pairs
        assert np.all(mat >= 0.0)


def test_symmetry_exact():
    rng = np.random.default_rng(8)
    xs, ts = _random_grid_paths(rng, 40)
    for name in GALILEAN_VARIANTS:
        mat = grid_distance_matrix(xs, ts, DistanceSpec(name))
        assert np.array_equal(mat, mat.T)


def test_triangle_inequality_norm_induced():
    rng = np.random.default_rng(9)
    xs, ts = _random_grid_paths(rng, 60)
    triples = rng.integers(0, 60, size=(1000, 3))
    for name in ("max_sep", "l1_time_integral", "l2", "velocity_l1"):
        mat = grid_distance_matrix(xs, ts, DistanceSpec(name))
        p, q, r = triples[:, 0], triples[:, 1], triples[:, 2]
        assert np.all(mat[p, r] <= mat[p, q] + mat[q, r] + 1e-12)


def test_step_triangle_violation_witness():
    i, D = 11, 4
    d_near = step_distance(i, i + D, D)
    d_far = step_distance(i, i + 2 * D, D)
    assert d_far == math.inf
    assert d_far > d_near + step_distance(i + D, i + 2 * D, D)


def test_grid_matrix_matches_scalar_evaluation():
    rng = np.random.default_rng(10)
    xs, ts = _random_grid_paths(rng, 12)
    paths = [_path(row, ts, mass=3.0) for row in xs]
    for name in GALILEAN_VARIANTS:
        spec = DistanceSpec(name, mass=3.0 if name in MASS_VARIANTS else None)
        mat = grid_distance_matrix(xs, ts, spec, mass=3.0)
        for a in range(0, 12, 3):
            for b in range(1, 12, 4):
                assert mat[a, b] == pytest.approx(
                    galilean_distance(paths[a], paths[b], spec), rel=1e-12, abs=1e-12
                )
    # pure-python oracles agree on a sample pair
    a, b = 2, 9
    assert grid_distance_matrix(xs, ts, DistanceSpec("max_sep"))[a, b] == pytest.approx(
        grid_max_separation(xs[a], xs[b])
    )
    assert grid_distance_matrix(xs, ts, DistanceSpec("l1_time_integral"))[
        a, b
    ] == pytest.approx(trapezoid_l1(xs[a], xs[b], ts))


def test_index_distance_matrix_matches_pointwise():
    spec = DistanceSpec("step", D=3)
    mat = index_distance_matrix(spec, 10)
    for i in range(1, 11):
        for j in range(1, 11):
            assert mat[i - 1, j - 1] == step_distance(i, j, 3)
    espec = DistanceSpec("exp_index", D=2)
    emat = index_distance_matrix(espec, 6)
    assert emat[0, 5] == pytest.approx(exp_index_distance(1, 6, 2))


def test_distance_spec_json():
    spec = DistanceSpec("step", D=4)
    back = DistanceSpec.from_json(spec.to_json())
    assert back == spec
    with pytest.raises(ValueError):
        DistanceSpec.from_json('{"name": "mystery"}')
    with pytest.raises(ValueError):
        DistanceSpec("step")  # D required


def test_spec_refuses_fields_its_distance_never_reads():
    for name in ("max_sep", "l2", "velocity_l1"):
        with pytest.raises(ValueError, match="takes no D"):
            DistanceSpec(name, D=5)
    for name, D in (("exp_index", 5), ("max_sep", None)):
        with pytest.raises(ValueError, match="step distance only"):
            DistanceSpec(name, D=D, literal_log_half=True)
    for name, D in (("max_sep", None), ("l2", None), ("step", 3), ("exp_index", 3)):
        with pytest.raises(ValueError, match="takes no mass"):
            DistanceSpec(name, D=D, mass=7.0)
    for name in MASS_VARIANTS:
        assert DistanceSpec(name, mass=7.0).mass == 7.0
    assert DistanceSpec("step", D=5, literal_log_half=True).literal_log_half
