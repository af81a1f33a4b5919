"""Lattice path integral: enumeration, transfer matrix, decoherence."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from realpathsim import engine
from realpathsim.distances import (
    GALILEAN_VARIANTS,
    DistanceSpec,
    GridPathSource,
    galilean_distance,
    grid_distance_matrix,
)
from realpathsim.engine import (
    dense_smeared,
    dense_tile_bytes,
    path_probabilities,
    unnormalized_probabilities,
)
from realpathsim.errors import ModelTooLarge, NoPaths, SpecViolation, TooManyPaths
from realpathsim.lattice import (
    LatticeSpec,
    corridor_weights,
    enumerate_paths,
    lattice_ensemble,
    path_count,
    resolve_weight,
    run_lattice_experiment,
    site_path,
    transfer_amplitude,
    two_arm_experiment,
    two_arm_visibility,
    upper_arm_mask,
)

from oracles import block_dense_smeared, dfs_lattice_paths


def test_single_step_single_path():
    spec = LatticeSpec(steps=1, extent=3, start=0, end=2, hop=2)
    sites = enumerate_paths(spec)
    assert sites.shape == (1, 2)
    assert list(sites[0]) == [0, 2]
    # amplitude exp(-i m (b-a)^2 / 2)
    ens, _ = lattice_ensemble(spec, sites)
    assert ens.amplitudes[0] == pytest.approx(np.exp(-1j * 1.0 * 4 / 2))
    assert transfer_amplitude(spec) == pytest.approx(ens.amplitudes[0])


def test_two_step_three_paths():
    spec = LatticeSpec(steps=2, extent=1, start=0, end=0, hop=1)
    sites = enumerate_paths(spec)
    assert sites.shape[0] == 3
    assert sorted(s[1] for s in sites) == [-1, 0, 1]


def test_nineteen_paths_and_count_oracle():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1)
    assert enumerate_paths(spec).shape[0] == 19
    counting = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1, mass=0.0)
    assert transfer_amplitude(counting) == pytest.approx(19.0)


def test_transfer_matches_enumeration():
    for spec in (
        LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1, mass=1.0),
        LatticeSpec(steps=5, extent=3, start=-1, end=2, hop=2, mass=0.7),
        LatticeSpec(steps=6, extent=2, start=0, end=0, hop=1, mass=2.3),
    ):
        ens, _ = lattice_ensemble(spec)
        total = complex(np.sum(ens.amplitudes))
        assert abs(total - transfer_amplitude(spec)) < 1e-10


def test_extent_constrains_enumeration():
    wide = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1)
    tight = LatticeSpec(steps=4, extent=1, start=0, end=0, hop=1)
    assert enumerate_paths(tight).shape[0] < enumerate_paths(wide).shape[0]
    assert (np.abs(enumerate_paths(tight)) <= 1).all()
    # the transfer matrix honors the same wall
    count = LatticeSpec(steps=4, extent=1, start=0, end=0, hop=1, mass=0.0)
    assert transfer_amplitude(count) == pytest.approx(enumerate_paths(tight).shape[0])


def test_no_paths_and_bounds():
    with pytest.raises(NoPaths):
        LatticeSpec(steps=2, extent=9, start=0, end=8, hop=1)
    with pytest.raises(TooManyPaths):
        LatticeSpec(steps=20, extent=30, start=0, end=0, hop=3)
    with pytest.raises(SpecViolation):
        LatticeSpec(steps=0, extent=1, start=0, end=0)
    with pytest.raises(SpecViolation):
        LatticeSpec(steps=2, extent=1, start=0, end=2, hop=2)


def test_zero_scale_distance_gives_uniform():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1)
    dist, _ = run_lattice_experiment(spec, DistanceSpec("max_sep"), distance_scale=0.0)
    assert np.allclose(dist.probs, 1.0 / 19.0, atol=1e-12)


def test_site_paths_match_grid_distances():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1, mass=1.5)
    sites = enumerate_paths(spec)
    a, b = site_path(spec, sites[0]), site_path(spec, sites[7])
    from realpathsim.distances import grid_distance_matrix

    for name in ("max_sep", "l1_time_integral", "l2", "velocity_l1", "mass_l1"):
        dspec = DistanceSpec(name)
        mat = grid_distance_matrix(
            sites.astype(float), np.arange(5, dtype=float), dspec, mass=spec.mass
        )
        assert mat[0, 7] == pytest.approx(galilean_distance(a, b, dspec), abs=1e-12)


def test_velocity_distance_suppresses_zigzags():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1, mass=10.0)
    dist, sites = run_lattice_experiment(spec, DistanceSpec("velocity_l1"))
    zig = np.abs(np.diff(sites, n=2, axis=1)).sum(axis=1)
    straight = int(np.argmin(zig))      # the resting path
    zigzag = int(np.argmax(zig))        # maximal velocity reversals
    assert list(sites[straight]) == [0, 0, 0, 0, 0]
    assert dist.probs[straight] > dist.probs[zigzag]


def test_curvature_cutoff_zeroes_kinked_paths():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1)
    dist, sites = run_lattice_experiment(
        spec,
        DistanceSpec("max_sep"),
        weight={"name": "curvature_cutoff", "threshold": 1.0},
    )
    kinked = np.abs(np.diff(sites, n=2, axis=1)).max(axis=1) > 1.0
    assert kinked.any()
    assert np.all(dist.probs[kinked] == 0.0)
    assert np.all(dist.probs[~kinked] > 0.0)


def test_resolve_weight_from_weight_objects():
    sites = enumerate_paths(LatticeSpec(steps=4, extent=4, start=0, end=0, hop=2))
    assert resolve_weight(None, sites) is None
    assert resolve_weight({"name": "uniform"}, sites) is None
    assert np.array_equal(
        resolve_weight({"name": "corridor", "margin": 2}, sites), corridor_weights(sites, 2)
    )
    # causal_only is a Minkowski prescription, not a lattice weight
    for name in ("causal_only", "bogus"):
        with pytest.raises(ValueError, match=name):
            resolve_weight({"name": name}, sites)


def test_corridor_weights_split_arms():
    spec = LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2)
    sites = enumerate_paths(spec)
    w = corridor_weights(sites, margin=1)
    interior = sites[:, 1:-1]
    upper = (interior >= 1).all(axis=1)
    lower = (interior <= -1).all(axis=1)
    assert np.array_equal(w > 0, upper | lower)
    assert upper.sum() == lower.sum()  # mirror symmetry


def test_monotone_decoherence_under_distance_scaling():
    spec = LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2)
    vis = [
        two_arm_visibility(spec, DistanceSpec("max_sep"), distance_scale=s)
        for s in (0.0, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vis, vis[1:]))
    assert vis[0] > 0.5       # coherent limit interferes
    assert vis[-1] < 1e-3     # far-separated arms decohere


def test_mass_weighted_visibility_non_increasing():
    vis = []
    for m in (1.0, 2.0, 4.0, 8.0):
        spec = LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2, mass=m)
        vis.append(two_arm_visibility(spec, DistanceSpec("mass_max_sep")))
    assert all(a >= b - 1e-12 for a, b in zip(vis, vis[1:]))


def test_normalization_and_phase_invariance_on_lattice():
    spec = LatticeSpec(steps=5, extent=3, start=0, end=1, hop=1, mass=0.8)
    ens, sites = lattice_ensemble(spec)
    from realpathsim.distances import grid_distance_matrix
    from realpathsim.paths import PathEnsemble

    dmat = grid_distance_matrix(
        sites.astype(float), np.arange(6, dtype=float), DistanceSpec("l2")
    )
    base = path_probabilities(ens, dmat)
    assert abs(float(np.sum(base.probs)) - 1.0) < 1e-9
    rotated = path_probabilities(
        PathEnsemble(np.exp(0.7j) * ens.amplitudes), dmat
    )
    assert np.max(np.abs(base.probs - rotated.probs)) < 1e-12


def test_enumeration_matches_depth_first_walk():
    for spec in (
        LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2),
        LatticeSpec(steps=7, extent=6, start=0, end=0, hop=2),
        LatticeSpec(steps=6, extent=1, start=0, end=1, hop=1),   # tight extent
        LatticeSpec(steps=4, extent=2, start=-2, end=1, hop=7),  # hop past the extent
        LatticeSpec(steps=1, extent=5, start=-2, end=1, hop=3),
    ):
        assert np.array_equal(enumerate_paths(spec), dfs_lattice_paths(spec)), spec
    # an unreachable end, which LatticeSpec itself would refuse
    unreachable = SimpleNamespace(steps=2, extent=3, start=0, end=3, hop=1)
    for enumerate_ in (enumerate_paths, dfs_lattice_paths):
        with pytest.raises(NoPaths):
            enumerate_(unreachable)


def test_path_count_matches_enumeration_and_transfer():
    for T, X, h, a, b in [(1, 5, 3, -2, 1), (2, 10, 4, 0, 0), (3, 2, 3, -2, 2),
                          (4, 1, 1, 0, 0), (5, 3, 1, 0, 1), (6, 6, 2, 0, 0)]:
        spec = LatticeSpec(steps=T, extent=X, start=a, end=b, hop=h)
        count = LatticeSpec(steps=T, extent=X, start=a, end=b, hop=h, mass=0.0)
        n = path_count(spec)
        assert n == enumerate_paths(spec).shape[0]
        assert n == transfer_amplitude(count).real


# T=6, X=6, h=2: 1 751 paths, 27 full 64-row tiles and a 23-row tail
STREAM_SPEC = LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2, mass=1.7)


def test_streamed_route_matches_matrix_route():
    sites = enumerate_paths(STREAM_SPEC)
    assert sites.shape[0] == 1751
    times = np.arange(STREAM_SPEC.steps + 1, dtype=float)
    mask = upper_arm_mask(sites).astype(float)
    amps = [lattice_ensemble(STREAM_SPEC, sites, phase * mask)[0].amplitudes
            for phase in (0.0, np.pi)]
    for name in GALILEAN_VARIANTS:
        dspec = DistanceSpec(name)
        dmat = grid_distance_matrix(sites, times, dspec, mass=STREAM_SPEC.mass)
        for scale in (0.0, 0.3, 1.0, 300.0):
            source = GridPathSource(sites, times, dspec, STREAM_SPEC.mass, scale)
            streamed, denom = dense_smeared(amps, source)
            scaled = dmat * scale if scale != 1.0 else dmat
            for vec, got in zip(amps, streamed):
                (want,), want_denom = dense_smeared([vec], scaled)
                assert np.array_equal(got, want), (name, scale)
                assert np.array_equal(denom, want_denom), (name, scale)


@pytest.mark.parametrize("steps", [6, 7])
def test_tiled_route_has_the_block_route_bits(steps):
    # 1 751 and 8 135 paths, the sizes the benchmark runs
    spec = LatticeSpec(steps=steps, extent=6, start=0, end=0, hop=2)
    sites = enumerate_paths(spec)
    mask = upper_arm_mask(sites).astype(float)
    amps = [lattice_ensemble(spec, sites, phase * mask)[0].amplitudes
            for phase in (0.0, np.pi)]
    times = np.arange(steps + 1, dtype=float)
    for scale in (0.3, 1.0):
        source = GridPathSource(sites, times, DistanceSpec("max_sep"), spec.mass, scale)
        got, denom = dense_smeared(amps, source)
        want, want_denom = block_dense_smeared(amps, source)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), scale
        assert np.array_equal(denom, want_denom), scale


def test_one_pass_experiment_matches_separate_runs():
    spec = LatticeSpec(steps=5, extent=4, start=0, end=0, hop=2)
    dspec = DistanceSpec("max_sep")
    vis, dist, sites = two_arm_experiment(spec, dspec, distance_scale=0.3)
    alone, alone_sites = run_lattice_experiment(spec, dspec, distance_scale=0.3)
    assert np.array_equal(sites, alone_sites)
    assert np.array_equal(dist.probs, alone.probs)
    assert dist.norm_constant == alone.norm_constant
    assert vis == two_arm_visibility(spec, dspec, distance_scale=0.3)
    # the same visibility from two matrix-route runs, one per phase setting
    dmat = 0.3 * grid_distance_matrix(sites, np.arange(6.0), dspec)
    w = corridor_weights(sites)
    masses = []
    for phase in (0.0, np.pi):
        ens, _ = lattice_ensemble(spec, sites, phase * upper_arm_mask(sites))
        masses.append(float(np.sum(unnormalized_probabilities(ens, dmat, weights=w)[0])))
    assert vis == abs(masses[0] - masses[1]) / (masses[0] + masses[1])


def test_single_step_admits_any_hop_and_extent():
    # T=1 passes the enumeration bound for every hop; sites far outside
    # any small integer type still give the one path distance 0
    big = 10**12
    spec = LatticeSpec(steps=1, extent=big, start=-big, end=big, hop=2 * big)
    assert path_count(spec) == 1
    dist, sites = run_lattice_experiment(spec, DistanceSpec("max_sep"))
    assert sites.tolist() == [[-big, big]]
    assert dist.probs.tolist() == [1.0] and dist.denom.tolist() == [1.0]


def test_transfer_amplitude_refuses_oversized_lattice(monkeypatch):
    # T=1 passes LatticeSpec for any hop, but the transfer matrix would
    # need 2*10^12 + 1 sites and 4*10^12 + 1 hop offsets
    big = 10**12
    spec = LatticeSpec(steps=1, extent=big, start=0, end=0, hop=2 * big)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated the site vector")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(ModelTooLarge):
        transfer_amplitude(spec)


def test_integer_tiles_hold_every_difference():
    times = np.arange(3.0)
    for top in (127, 128, 40_000, 2**40):
        sites = np.array([[0, top, 0], [0, 0, 0], [0, -top, 0]])
        got = grid_distance_matrix(sites, times, DistanceSpec("max_sep"))
        assert got[0].tolist() == [0.0, top, 2.0 * top]
    # two steps with a wide hop: 401 paths spreading 400 sites in one step
    spec = LatticeSpec(steps=2, extent=200, start=0, end=0, hop=200)
    sites = enumerate_paths(spec)
    for name in GALILEAN_VARIANTS:
        ints = grid_distance_matrix(sites, times, DistanceSpec(name), mass=1.7)
        floats = grid_distance_matrix(sites.astype(float), times, DistanceSpec(name), mass=1.7)
        assert np.array_equal(ints, floats), name


def test_dense_pass_peak_within_tile_bytes():
    sites = enumerate_paths(STREAM_SPEC)
    n = sites.shape[0]
    amps = [lattice_ensemble(STREAM_SPEC, sites)[0].amplitudes] * 2
    times = np.arange(STREAM_SPEC.steps + 1, dtype=float)
    for name in GALILEAN_VARIANTS:
        source = GridPathSource(sites, times, DistanceSpec(name), STREAM_SPEC.mass, 0.3)
        for workers in (1, 2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                dense_smeared(amps, source, workers)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # the complex tiles, one per worker, are most of it; nothing
            # of size n x n appears
            bounds = engine._TILE_ROWS * n * 16 < peak <= dense_tile_bytes(n) < n * n * 8
            assert bounds, (name, workers)
