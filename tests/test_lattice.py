"""Lattice path integral: enumeration, transfer matrix, decoherence."""

import json
import warnings
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from realpathsim import cli, engine
from realpathsim.distances import (
    GALILEAN_VARIANTS,
    DistanceSpec,
    GridPathSource,
    grid_distance_matrix,
)
from realpathsim.engine import (
    dense_smeared,
    distribution_from_sums,
    path_probabilities,
    smeared_components,
    weighted_probabilities,
)
from realpathsim.errors import ModelTooLarge, NoPaths, SpecViolation, TooManyPaths
from realpathsim.lattice import (
    FACTORING_VARIANTS,
    MAX_VARIANTS,
    LatticeSpec,
    _distance_terms,
    _ends,
    _half_counts,
    _hops,
    _messages,
    _sides,
    _site_bounds,
    admit,
    corridor_weights,
    curvature_cutoff_weights,
    enumerate_paths,
    lattice_ensemble,
    path_count,
    path_halves,
    run_lattice_experiment,
    transfer_amplitude,
    transfer_bytes,
    transfer_plan,
    two_arm_sweep,
    two_arm_visibility,
    upper_arm_mask,
)

from oracles import (
    block_dense_smeared,
    dfs_lattice_paths,
    galilean_distance,
    row_messages,
    site_path,
    tube_smeared,
)

DATA = Path(__file__).parent / "data"


def test_single_step_single_path():
    spec = LatticeSpec(steps=1, extent=3, start=0, end=2, hop=2)
    sites = enumerate_paths(spec)
    assert sites.shape == (1, 2)
    assert list(sites[0]) == [0, 2]
    # amplitude exp(-i m (b-a)^2 / 2)
    ens = lattice_ensemble(spec, sites)
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
        ens = lattice_ensemble(spec, enumerate_paths(spec))
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

    for name in ("max_sep", "l1_time_integral", "l2", "velocity_l1", "mass_l1"):
        dspec = DistanceSpec(name)
        mat = grid_distance_matrix(sites.astype(float), dspec, mass=spec.mass)
        assert mat[0, 7] == pytest.approx(galilean_distance(a, b, dspec), abs=1e-12)


def test_velocity_distance_suppresses_zigzags():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1, mass=10.0)
    dist, _ = run_lattice_experiment(spec, DistanceSpec("velocity_l1"))
    sites = enumerate_paths(spec)
    zig = np.abs(np.diff(sites, n=2, axis=1)).sum(axis=1)
    straight = int(np.argmin(zig))      # the resting path
    zigzag = int(np.argmax(zig))        # maximal velocity reversals
    assert list(sites[straight]) == [0, 0, 0, 0, 0]
    assert dist.probs[straight] > dist.probs[zigzag]


def test_curvature_cutoff_zeroes_kinked_paths():
    spec = LatticeSpec(steps=4, extent=4, start=0, end=0, hop=1)
    dist, _ = run_lattice_experiment(
        spec,
        DistanceSpec("max_sep"),
        weight=partial(curvature_cutoff_weights, threshold=1.0),
    )
    sites = enumerate_paths(spec)
    kinked = np.abs(np.diff(sites, n=2, axis=1)).max(axis=1) > 1.0
    assert kinked.any()
    assert np.all(dist.probs[kinked] == 0.0)
    assert np.all(dist.probs[~kinked] > 0.0)


def test_resolve_weight_from_weight_objects():
    sites = enumerate_paths(LatticeSpec(steps=4, extent=4, start=0, end=0, hop=2))
    assert cli._weight({}) is None
    assert cli._weight({"name": "uniform"}) is None
    assert np.array_equal(
        cli._weight({"name": "corridor", "margin": 2})(sites), corridor_weights(sites, 2)
    )
    # causal_only is a Minkowski prescription, not a lattice weight
    for name in ("causal_only", "bogus"):
        with pytest.raises(ValueError, match=name):
            cli._weight({"name": name})
    # a key the name does not read would be ignored
    for weight in ({"name": "corridor", "margn": 3}, {"name": "corridor", "threshold": 2.0},
                   {"name": "uniform", "margin": 3}, {"margin": 3}):
        with pytest.raises(ValueError, match="unknown key"):
            cli._weight(weight)


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
    sites = enumerate_paths(spec)
    ens = lattice_ensemble(spec, sites)
    from realpathsim.paths import PathEnsemble

    dmat = grid_distance_matrix(sites.astype(float), DistanceSpec("l2"))
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_matches_depth_first_walk_on_drawn_specs(data):
    # any start and end, hops up to wider than the lattice, and ends the
    # extent or the hop cannot reach, which LatticeSpec would refuse
    steps = data.draw(st.integers(1, 8), label="steps")
    extent = data.draw(st.integers(0, 4), label="extent")
    hop = data.draw(st.integers(1, 2 * extent + 3), label="hop")
    start = data.draw(st.integers(-extent, extent), label="start")
    end = data.draw(st.integers(-extent - 1, extent + 1), label="end")
    spec = SimpleNamespace(steps=steps, extent=extent, start=start, end=end, hop=hop)
    assume(path_count(spec) <= 5000)
    try:
        want = dfs_lattice_paths(spec)
    except NoPaths:
        with pytest.raises(NoPaths):
            enumerate_paths(spec)
        assert path_count(spec) == 0
        return
    assert np.array_equal(enumerate_paths(spec), want)
    halves = path_halves(spec)
    mid = (steps + 1) // 2
    counts = (int(halves.runs.sum()), halves.prefixes.shape[0], halves.suffixes.shape[0])
    assert counts == (want.shape[0], len(np.unique(want[:, : mid + 1], axis=0)),
                      len(np.unique(want[:, mid:], axis=0)))
    # admission counts the halves into and out of each middle site by the
    # walk's step rule, without walking: the walk's counts, site by site
    assert _half_counts(spec)[:3] == counts
    lo, hi = halves.bounds[mid]
    into, out_of = (_ends(side, hop) for side in _sides(_site_bounds(spec)))
    assert np.array_equal(into, np.bincount(halves.prefixes[:, -1] - lo, minlength=hi - lo + 1))
    assert np.array_equal(out_of, np.bincount(halves.suffixes[:, 0] - lo, minlength=hi - lo + 1))


def _message_sides(spec):
    """(walk levels, rows, bounds, last_site, backward) of the forward and backward messages."""
    halves = path_halves(spec)
    bounds = _site_bounds(spec)
    mid = halves.prefixes.shape[1] - 1
    return bounds, [(halves.walks[0], halves.prefixes, bounds[: mid + 1], True, False),
                    (halves.walks[1], halves.suffixes[:, ::-1], bounds[: mid - 1 : -1], False, True)]


@pytest.mark.parametrize("spec", [
    LatticeSpec(steps=5, extent=6, start=0, end=0, hop=2, mass=1.7),
    LatticeSpec(steps=6, extent=6, start=-1, end=2, hop=2, mass=0.7),
    LatticeSpec(steps=7, extent=6, start=0, end=0, hop=2),
    LatticeSpec(steps=8, extent=6, start=0, end=0, hop=2),
])
def test_messages_over_the_walks_have_the_row_by_row_bits(spec):
    # every factoring variant, count and amplitude hops, both directions,
    # at each scale's terms and, for the max variants, at every radius a plan
    # for several scales can hold
    bounds, sides = _message_sides(spec)
    for name in FACTORING_VARIANTS:
        term_sets = [_distance_terms(spec, DistanceSpec(name), scale, bounds)[0]
                     for scale in (0.0, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)]
        if name in MAX_VARIANTS:
            spread = max(hi - lo for lo, hi in bounds)
            term_sets.append((np.arange(spread + 1), None, None))
        for radii, site_c, edge_c in term_sets:
            for hop, dtype in _hops(spec):
                for levels, rows, side_bounds, last_site, backward in sides:
                    c = site_c[::-1] if backward and site_c is not None else site_c
                    terms = (radii, c, edge_c)
                    got = _messages(levels, side_bounds, hop, dtype, terms, last_site)
                    want = row_messages(rows, side_bounds, hop, dtype, terms, last_site)
                    assert got.dtype == want.dtype and got.shape == want.shape, (name, backward)
                    assert got.tobytes() == want.tobytes(), (name, radii.size, dtype, backward)


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
    mask = upper_arm_mask(sites).astype(float)
    amps = [lattice_ensemble(STREAM_SPEC, sites, phase * mask).amplitudes
            for phase in (0.0, np.pi)]
    for name in GALILEAN_VARIANTS:
        dspec = DistanceSpec(name)
        dmat = grid_distance_matrix(sites, dspec, mass=STREAM_SPEC.mass)
        for scale in (0.0, 0.3, 1.0, 300.0):
            source = GridPathSource(sites, dspec, STREAM_SPEC.mass, scale)
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
    amps = [lattice_ensemble(spec, sites, phase * mask).amplitudes
            for phase in (0.0, np.pi)]
    for scale in (0.3, 1.0):
        source = GridPathSource(sites, DistanceSpec("max_sep"), spec.mass, scale)
        got, denom = dense_smeared(amps, source)
        want, want_denom = block_dense_smeared(amps, source)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), scale
        assert np.array_equal(denom, want_denom), scale


def test_one_pass_experiment_matches_separate_runs():
    spec = LatticeSpec(steps=5, extent=4, start=0, end=0, hop=2)
    dspec = DistanceSpec("max_sep")
    vis, mass, dist, _C = two_arm_sweep(spec, dspec, [0.3])(0.3)
    alone, halves = run_lattice_experiment(spec, dspec, distance_scale=0.3)
    sites = enumerate_paths(spec)
    assert np.array_equal(enumerate_paths(spec, halves), sites)
    assert np.array_equal(dist.probs, alone.probs)
    assert dist.norm_constant == alone.norm_constant
    assert mass == float(np.sum(alone.probs[corridor_weights(sites) > 0]))
    assert vis == two_arm_visibility(spec, dspec, distance_scale=0.3)
    # the same visibility from two runs of the route the spec takes
    # (transfer), one per phase setting
    w = corridor_weights(sites)
    masses = []
    for phase in (0.0, np.pi):
        (smeared,), denom = transfer_plan(spec, dspec, [0.3])(0.3, (phase,))
        masses.append(float(np.sum(weighted_probabilities(smeared, denom, w))))
    assert vis == abs(masses[0] - masses[1]) / (masses[0] + masses[1])
    # and, within the 1e-12 of the oracle tests below, from two runs of
    # the matrix route, which sums in another order
    dmat = 0.3 * grid_distance_matrix(sites, dspec)
    dense = []
    for phase in (0.0, np.pi):
        ens = lattice_ensemble(spec, sites, phase * upper_arm_mask(sites))
        dense.append(float(np.sum(weighted_probabilities(*smeared_components(ens, dmat), w))))
    assert masses == pytest.approx(dense, rel=1e-12, abs=0)
    assert vis == pytest.approx(abs(dense[0] - dense[1]) / (dense[0] + dense[1]),
                                rel=0, abs=1e-12)


def test_single_step_admits_any_hop_and_extent():
    # T=1 passes the enumeration bound for every hop; sites far outside
    # any small integer type still give the one path distance 0
    big = 10**12
    spec = LatticeSpec(steps=1, extent=big, start=-big, end=big, hop=2 * big)
    assert path_count(spec) == 1
    dist, _ = run_lattice_experiment(spec, DistanceSpec("max_sep"))
    assert enumerate_paths(spec).tolist() == [[-big, big]]
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
    for top in (127, 128, 40_000, 2**40):
        sites = np.array([[0, top, 0], [0, 0, 0], [0, -top, 0]])
        got = grid_distance_matrix(sites, DistanceSpec("max_sep"))
        assert got[0].tolist() == [0.0, top, 2.0 * top]
    # two steps with a wide hop: 401 paths spreading 400 sites in one step
    spec = LatticeSpec(steps=2, extent=200, start=0, end=0, hop=200)
    sites = enumerate_paths(spec)
    for name in GALILEAN_VARIANTS:
        ints = grid_distance_matrix(sites, DistanceSpec(name), mass=1.7)
        floats = grid_distance_matrix(sites.astype(float), DistanceSpec(name), mass=1.7)
        assert np.array_equal(ints, floats), name


def test_dense_pass_peak_within_tile_bytes():
    sites = enumerate_paths(STREAM_SPEC)
    n = sites.shape[0]
    amps = [lattice_ensemble(STREAM_SPEC, sites).amplitudes] * 2
    for name in GALILEAN_VARIANTS:
        source = GridPathSource(sites, DistanceSpec(name), STREAM_SPEC.mass, 0.3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dense_smeared(amps, source)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the complex tile is most of it, and the distance temporaries of
        # one tile take at most 32 bytes an entry; nothing of size n x n
        # appears
        rows = max(np.diff(engine._tile_edges(n, engine._TILE_ROWS)))
        bounds = engine._TILE_ROWS * n * 16 < peak <= rows * n * (16 + 32) < n * n * 8
        assert bounds, name


# The transfer route against the dense oracle.  Tolerances, fixed before
# measuring: smeared sums and denominators within 1e-12 of the row's
# denominator, probabilities within 1e-12 of the largest probability.
# Arm phases 0 and 1.1 and the phase plate's pi ride in one pass.
ORACLE_PHASES = (0.0, 1.1, np.pi)

# rows of T=7 (8 135 paths) the oracle recomputes for every variant,
# scale and mass: the first, a middle and the last block
T7_BLOCKS = ((0, 128), (4000, 4128), (8071, 8135))


def _dense_oracle(spec, sites, dspec, scale, blocks=None):
    """(smeared sums per phase, denominators, rows) of the dense oracle.

    Every row through the engine's dense pass, or only the rows of
    ``blocks``, each an exp(-d) block times every amplitude vector.
    """
    mask = upper_arm_mask(sites).astype(float)
    amps = [lattice_ensemble(spec, sites, phase * mask).amplitudes for phase in ORACLE_PHASES]
    source = GridPathSource(sites, dspec, spec.mass, scale)
    if blocks is None:
        return *dense_smeared(amps, source), slice(None)
    E = np.exp(np.concatenate([source.neg_rows(lo, hi) for lo, hi in blocks]))
    rows = np.concatenate([np.arange(lo, hi) for lo, hi in blocks])
    return [E @ a for a in amps], E.sum(axis=1), rows


def _assert_transfer_matches(spec, sites, dspec, scale, blocks=None):
    got, denom = transfer_plan(spec, dspec, [scale])(scale, ORACLE_PHASES)
    want, want_denom, rows = _dense_oracle(spec, sites, dspec, scale, blocks)
    assert np.all(np.abs(denom[rows] - want_denom) <= 1e-12 * want_denom), (dspec, scale)
    for phase, g, v in zip(ORACLE_PHASES, got, want):
        assert np.all(np.abs(g[rows] - v) <= 1e-12 * want_denom), (dspec, scale, phase)
        if blocks is not None:
            continue
        for weights in (None, corridor_weights(sites)):
            if weights is not None and not weights.any():
                continue
            p = distribution_from_sums(g, denom, weights).probs
            q = distribution_from_sums(v, want_denom, weights).probs
            assert np.max(np.abs(p - q)) <= 1e-12 * q.max(), (dspec, scale, phase)


@pytest.mark.parametrize("steps", [6, 7])
@pytest.mark.parametrize("mass", [1.0, 1.7])
def test_transfer_route_matches_dense_oracle(steps, mass):
    # every row at T=6 (1 751 paths), the T7_BLOCKS rows at T=7
    spec = LatticeSpec(steps=steps, extent=6, start=0, end=0, hop=2, mass=mass)
    sites = enumerate_paths(spec)
    blocks = T7_BLOCKS if steps == 7 else None
    for name in FACTORING_VARIANTS:
        for scale in (0.0, 0.3, 1.0, 3.0, 10.0, 300.0):
            _assert_transfer_matches(spec, sites, DistanceSpec(name), scale, blocks)


def test_transfer_route_matches_dense_oracle_on_every_t7_row():
    # the benchmark's lattice_run spec: all 8 135 rows, probabilities too
    spec = LatticeSpec(steps=7, extent=6, start=0, end=0, hop=2)
    _assert_transfer_matches(spec, enumerate_paths(spec), DistanceSpec("max_sep"), 1.0)


@pytest.mark.parametrize("spec", [
    LatticeSpec(steps=1, extent=5, start=-2, end=1, hop=3),          # T=1
    LatticeSpec(steps=5, extent=3, start=-1, end=2, hop=2, mass=0.7),  # start != end
    LatticeSpec(steps=4, extent=2, start=-2, end=1, hop=7),          # hop wider than 2X
    LatticeSpec(steps=3, extent=0, start=0, end=0, hop=1),           # extent 0
    LatticeSpec(steps=6, extent=1, start=0, end=1, hop=1),
])
def test_transfer_route_edge_specs(spec):
    sites = enumerate_paths(spec)
    for name in FACTORING_VARIANTS:
        for scale in (0.0, 0.3, 300.0):
            _assert_transfer_matches(spec, sites, DistanceSpec(name), scale)


def test_experiments_take_the_route_admit_picks(monkeypatch):
    from realpathsim import lattice

    spec = LatticeSpec(steps=5, extent=4, start=0, end=0, hop=2)
    # 401 paths two steps wide: the messages over 401 sites (and radii,
    # for max_sep) would outweigh the dense pass
    wide = LatticeSpec(steps=2, extent=200, start=0, end=0, hop=200)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"took {name}")
        return call

    monkeypatch.setattr(lattice, "dense_smeared", refuse("the dense pass"))
    for name in FACTORING_VARIANTS:
        run_lattice_experiment(spec, DistanceSpec(name), arm_phase=1.1)
        two_arm_sweep(spec, DistanceSpec(name), [1.0])(1.0)
    with pytest.raises(AssertionError, match="dense pass"):
        run_lattice_experiment(spec, DistanceSpec("l2"))
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "transfer_plan", refuse("the transfer route"))
    for name in FACTORING_VARIANTS:
        run_lattice_experiment(wide, DistanceSpec(name))
        two_arm_sweep(wide, DistanceSpec(name), [1.0])(1.0)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="does not factor"):
        transfer_plan(spec, DistanceSpec("l2"), [1.0])


def test_transfer_route_runs_steps_10():
    # 850,739 paths, past the dense bound, on every factoring variant
    spec = LatticeSpec(steps=10, extent=6, start=0, end=0, hop=2)
    for name in FACTORING_VARIANTS:
        dist, halves = run_lattice_experiment(spec, DistanceSpec(name), weight=corridor_weights)
        assert enumerate_paths(spec, halves).shape[0] == dist.n_paths == 850_739
        assert np.all(dist.denom >= 1.0)  # Q = P alone contributes 1


# rows of T=10 (850 739 paths) the tube oracle recomputes, a seeded sample
T10_ROWS = 2_000


def test_transfer_route_matches_tube_oracle_at_steps_10():
    # the size the route runs at in tier-1 and CI, past the dense oracle's
    # reach: sampled rows of every factoring variant at five scales and
    # both phase plate settings, from one walk and one plan per variant,
    # against a pass over the whole time per row (oracles.tube_smeared),
    # within the dense oracle's 1e-12 of each denominator; the
    # probabilities of those rows with C from the full run
    spec = LatticeSpec(steps=10, extent=6, start=0, end=0, hop=2)
    halves = path_halves(spec)
    sites = enumerate_paths(spec, halves)
    rows = np.sort(np.random.default_rng(23).choice(sites.shape[0], T10_ROWS, replace=False))
    scales = [0.0, 0.3, 1.0, 10.0, 300.0]
    phases = (0.0, np.pi)
    for name in FACTORING_VARIANTS:
        dspec = DistanceSpec(name)
        smeared = transfer_plan(spec, dspec, scales, halves)
        for scale in scales:
            got, denom = smeared(scale, phases)
            for phase, sums in zip(phases, got):
                want, want_denom = tube_smeared(spec, sites[rows], dspec, scale, phase)
                assert np.all(np.abs(denom[rows] - want_denom) <= 1e-12 * want_denom), (name, scale)
                assert np.all(np.abs(sums[rows] - want) <= 1e-12 * want_denom), (name, scale, phase)
                dist = distribution_from_sums(sums, denom)
                p = dist.norm_constant * weighted_probabilities(want, want_denom)
                assert np.max(np.abs(dist.probs[rows] - p)) <= 1e-12 * dist.probs.max(), (
                    name, scale, phase)


def test_transfer_pass_peak_within_transfer_bytes():
    sites = enumerate_paths(STREAM_SPEC)
    n = sites.shape[0]
    # a sweep's plan holds the messages of every scale's radii while each
    # scale picks (and, for a strict subset, copies) its own
    scales = [0.0, 0.3, 1.0, 100.0, 300.0]

    def sweep(dspec):
        smeared = transfer_plan(STREAM_SPEC, dspec, scales)
        for scale in scales:
            smeared(scale, (0.0, np.pi))

    for name in FACTORING_VARIANTS:
        dspec = DistanceSpec(name)
        for run in (lambda: transfer_plan(STREAM_SPEC, dspec, [0.3])(0.3, (0.0, np.pi)),
                    lambda: sweep(dspec)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # the outputs, 40 bytes per path, are a floor; nothing n x n appears
            assert 40 * n < peak <= transfer_bytes(STREAM_SPEC, dspec), name
            assert peak < n * n, name


def test_bad_scale_or_mass_is_refused_before_enumeration(monkeypatch, tmp_path):
    from realpathsim import lattice

    def refuse(spec):
        raise AssertionError("enumerated")

    monkeypatch.setattr(lattice, "enumerate_paths", refuse)
    spec = LatticeSpec(steps=4, extent=3, start=0, end=0, hop=2)
    for scale in (-1.0, -1e-300, np.nan, np.inf):
        with pytest.raises(SpecViolation, match="distance_scale"):
            run_lattice_experiment(spec, DistanceSpec("max_sep"), distance_scale=scale)
        with pytest.raises(SpecViolation, match="distance_scale"):
            two_arm_visibility(spec, DistanceSpec("l2"), distance_scale=scale)
        # a sweep checks all of its scales before its one enumeration
        with pytest.raises(SpecViolation, match="distance_scale"):
            two_arm_sweep(spec, DistanceSpec("max_sep"), [0.0, 1.0, scale, 10.0])
    config = json.loads((DATA / "lattice_sweep_transfer.json").read_text())
    config["sweep"]["values"] = [0, 0.3, -1, 10]
    path = tmp_path / "bad_sweep.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bad_sweep.csv"
    assert cli.main(["--config", str(path), "--output", str(out), "sweep"]) == 65
    assert not out.exists()
    for mass in (-2.0, np.nan):
        heavy = LatticeSpec(steps=4, extent=3, start=0, end=0, hop=2, mass=mass)
        for name in ("mass_l1", "mass_max_sep"):
            with pytest.raises(SpecViolation, match="lattice mass"):
                run_lattice_experiment(heavy, DistanceSpec(name))
    # a non-finite mass makes NaN amplitudes under every distance, on both
    # routes; a negative one is a mass like any other off the mass-weighted
    for mass in (np.nan, np.inf, -np.inf):
        bad = LatticeSpec(steps=4, extent=3, start=0, end=0, hop=2, mass=mass)
        for name in GALILEAN_VARIANTS:
            with pytest.raises(SpecViolation, match="lattice mass must be finite"):
                run_lattice_experiment(bad, DistanceSpec(name))
            with pytest.raises(SpecViolation, match="lattice mass must be finite"):
                two_arm_sweep(bad, DistanceSpec(name), [1.0])
    monkeypatch.undo()
    negative = LatticeSpec(steps=4, extent=3, start=0, end=0, hop=2, mass=-2.0)
    for name in ("max_sep", "l1_time_integral", "l2", "velocity_l1"):
        assert run_lattice_experiment(negative, DistanceSpec(name))[0].n_paths == 83


@pytest.mark.parametrize("spec", [
    LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2),  # the transfer route
    LatticeSpec(steps=4, extent=3, start=0, end=0, hop=2),  # max_sep and l2 dense
])
def test_sweep_cells_have_the_bits_of_single_scale_runs(spec):
    # one enumeration and one plan per sweep: each cell, whichever other
    # scales share its plan, gives what a sweep of its scale alone gives,
    # and what a run at its scale gives at arm phase 0
    scales = [0.0, 0.3, 1.0, 10.0, 300.0]
    sites = enumerate_paths(spec)
    for name in (*FACTORING_VARIANTS, "l2"):
        dspec = DistanceSpec(name)
        cell = two_arm_sweep(spec, dspec, scales)
        for scale in scales:
            vis, mass, dist, C = cell(scale)
            want_vis, want_mass, want, _C = two_arm_sweep(spec, dspec, [scale])(scale)
            run, _ = run_lattice_experiment(spec, dspec, distance_scale=scale)
            run_mass = float(np.sum(run.probs[corridor_weights(sites) > 0]))
            assert vis == want_vis == two_arm_visibility(spec, dspec, scale), (name, scale)
            assert mass == want_mass == run_mass, (name, scale)
            assert C == dist.norm_constant, (name, scale)
            for field in ("probs", "smeared", "denom"):
                assert np.array_equal(getattr(dist, field), getattr(want, field)), (name, scale)
                assert np.array_equal(getattr(dist, field), getattr(run, field)), (name, scale)


@pytest.mark.parametrize("name, steps, extent, hop, transfer", [
    *(pytest.param(name, 6, 6, 2, True, id=f"transfer-{name}") for name in FACTORING_VARIANTS),
    *(pytest.param(name, 3, 2, 1, False, id=f"dense-{name}") for name in GALILEAN_VARIANTS),
])
def test_overflowing_scale_writes_its_limit(tmp_path, capsys, name, steps, extent, hop, transfer):
    # at scale s -> inf, exp(-s d) is 1 at d = 0 and 0 at any other d,
    # which a scale of 1e300 already gives; 1e308 times a gap or the mass
    # 2 passes the float range, and must give the same bytes, with no
    # overflow or invalid-value warning on the way
    spec = LatticeSpec(steps=steps, extent=extent, start=0, end=0, mass=2.0, hop=hop)
    dspec = DistanceSpec(name)
    assert admit(spec, dspec)[1] is transfer
    args = ["lattice", "--steps", str(steps), "--extent", str(extent), "--hop", str(hop),
            "--mass", "2", "--distance", name, "--weight", "corridor", "--distance-scale"]
    written = []
    for scale in ("1e300", "1e308"):
        out = tmp_path / f"{scale}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*args, scale, "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0]
