"""Exhaustive 1+1D lattice free-particle path integral.

Sites are integers -X..X, time steps are unit (dt = 1), and a path moves
at most ``hop`` sites per step.  Every admissible site sequence from the
start site (t=0) to the end site (t=T) is enumerated, in depth-first
(lexicographic) order, with amplitude exp(-i S) for the discrete free
action S = sum m (dx)^2 / 2.  The paths are assembled from their
distinct halves, split at the middle time (path_halves): the prefixes
walked forward from the start and the suffixes backward from the end,
each walk growing only the distinct chains of every step (_steps, the
step admission counts them by).  A run walks once, and its enumeration,
plan and paths file read that one walk.
A transfer-matrix pass computes the total amplitude independently of the
enumeration, which is the correctness oracle for both.

Enumerated ensembles feed the probability postulate with any geometric
distance, by one of two routes, both on the calling thread:

* ``transfer_plan`` for the distances built step by step over time
  (FACTORING_VARIANTS: the max-separation and L1 families).  exp(-d)
  then factors over the time steps, so the smeared sum of every path is
  a forward message over its prefix joined with a backward message over
  its suffix, the forward-backward split of a hidden Markov model.  It
  pairs no paths; its messages run over the two walks, so they grow
  with the distinct prefixes and suffixes times the square of the
  lattice width (sites times radii) for the max variants.  It builds a scale-free plan once and joins per
  scale: for the max variants a scale only weights the tube radii, so
  one set of messages serves every scale of a sweep.
* the engine's dense pass, n^2 exponentials streamed from a
  GridPathSource in tiles: always for ``l2``, which does not factor, and
  for a factoring distance where it costs less than the transfer route,
  as on a wide lattice with few paths (see admit).

A sweep over ``distance_scale`` (two_arm_sweep) checks every scale,
picks the route and enumerates once, then runs each scale's pass from
the shared enumeration and plan, which the passes only read; a single
run is the sweep of one scale.

Weight functions carve experiments out of the ensemble:
``curvature_cutoff`` suppresses rapidly-varying paths (second difference
above a threshold), ``corridor`` keeps only paths that stay on one side
of a two-arm interferometer (all interior sites >= margin or all
<= -margin).  A phase plate in the upper arm supplies the constructive /
destructive settings interference visibility is measured between.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distances import MASS_VARIANTS, DistanceSpec, GridPathSource, unit_trapezoid
from .engine import (
    PathDistribution,
    dense_smeared,
    distribution_from_sums,
    visibility,
    weighted_probabilities,
)
from .errors import ModelTooLarge, NoPaths, SpecViolation, TooManyPaths
from .paths import PathEnsemble

ENUMERATION_BOUND = 10**7

# most site updates (steps x live hop offsets x sites) transfer_amplitude
# makes; its two site vectors then stay within 1 GiB
TRANSFER_BOUND = 10**8

# most paths one dense pass admits.  It holds one tile of rows, so time,
# not memory, bounds it: n^2 exponentials, 1.4e10 here, about 50 s at
# the 3.4 to 4.1 ns per pair a max_sep pass took over 8 135 and 38 131
# paths on one core of a 2-core host (the L1 variants take 8 to 16 ns).  The value is the count admitted when the
# pass held 512 rows of exp(-d) against a 1 GiB budget,
# 2**30 // (512*16 + 32*32), kept so that the same specs run.  It bounds
# l2; the factoring distances go past it on the transfer route, bounded
# by transfer_bytes.
DENSE_PATH_BOUND = 116_508

# largest working set of a lattice run on the transfer route, held to it
# as a whole: messages, per-path arrays and output text (transfer_bytes).
MAX_TILE_BYTES = 1 << 30

# multiply-adds of the transfer route (transfer_work) worth one pair of
# the dense pass, its exponential and its distance reduction; a
# factoring distance under DENSE_PATH_BOUND takes the dense pass when
# the transfer route would do more than this many times n^2.  Timed on
# one core of a 2-core host, the routes break even near 2: at 2.0 the
# transfer route took 0.83 of the dense pass's time (max_sep, 891
# paths), at 1.2 to 1.4 it took 0.1 to 0.5 (max_sep, l1_time_integral
# and velocity_l1 on 1 261 to 10 981 paths), at 3.0 it took 6.6 to 18
# times as long (l1 and velocity_l1, 401 paths) and at 57, 18 times
# (max_sep, 1 261 paths).
_PAIR_WORK = 2

# the Galilean distances that are a max or a sum over time steps of a
# term of one time (or, for velocity_l1, of one step) of the two paths,
# which transfer_plan can take (see admit); l2 is not
MAX_VARIANTS = ("max_sep", "mass_max_sep")
FACTORING_VARIANTS = (
    *MAX_VARIANTS, "l1_time_integral", "l1_time_average", "mass_l1", "velocity_l1",
)

# bytes the transfer route holds per message entry (for the max variants a
# plan's real and complex messages on both sides, 24, with a call's picked
# backward copy and one middle site's block of radius-weighted and
# phase-plated forward rows; for the L1 variants one dtype's messages with
# the product, gather and factor temporaries of one step) and per path (the
# joined blocks, the index that places each path in its block and its
# temporaries, and the outputs of two phase settings), and a fixed
# allowance for the small arrays.  tracemalloc puts the peak of a one-scale
# plan called once, and of a plan for eight scales (0 to 300) called at
# each, at 0.37 to 0.54 of these three terms for the max variants and 0.20
# to 0.57 for the L1 variants, on ten specs from 83 to 179 755 paths (see
# transfer_bytes).
_MESSAGE_BYTES = 64
_PATH_BYTES = 104
_FIXED_BYTES = 1 << 16

# bytes a run holds per path beyond the transfer route's: per site of
# the enumerated paths (they and a gathered half while they are
# assembled) and per path
# (weights, the distribution, and the text the CLI writes of each row,
# as CSV or JSON).  See transfer_bytes for the measurements.
_RUN_SITE_BYTES = 16
_RUN_PATH_BYTES = 720

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class LatticeSpec:
    """T unit time steps on sites -extent..extent, start to end, hop bound."""

    steps: int
    extent: int
    start: int
    end: int
    mass: float = 1.0
    hop: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise SpecViolation("need at least one time step")
        if self.extent < 0 or self.hop < 1:
            raise SpecViolation("extent must be >= 0 and hop >= 1")
        if abs(self.start) > self.extent or abs(self.end) > self.extent:
            raise SpecViolation("start and end must lie within the extent")
        if abs(self.end - self.start) > self.hop * self.steps:
            raise NoPaths(
                f"|end-start|={abs(self.end - self.start)} unreachable in "
                f"{self.steps} steps of hop {self.hop}"
            )
        if (2 * self.hop + 1) ** max(self.steps - 1, 0) > ENUMERATION_BOUND:
            raise TooManyPaths(
                f"(2h+1)^(T-1) exceeds the enumeration bound {ENUMERATION_BOUND}"
            )


def _site_bounds(spec: LatticeSpec) -> list[tuple[int, int]]:
    """(lo, hi) of the sites a complete path can occupy at each time t = 0..T, empty if none.

    Those inside the extent, t hops of the start and T - t of the end: the
    same read from either end, and each within hop of the last.
    """
    T, X, h, a, b = spec.steps, spec.extent, spec.hop, spec.start, spec.end
    return [(max(a - h * t, -X, b - h * (T - t)), min(a + h * t, X, b + h * (T - t)))
            for t in range(T + 1)]


def _steps(bounds, hop: int):
    """The hop step of the distinct chains from the sites of ``bounds[0]``, over the intervals ``bounds``.

    Yields, per interval, its sites x, the count of chains into each and
    where their parents start among the last step's chains (None at
    bounds[0]).  A step's chains come ordered by last site, so the parents
    within hop of x are one run of them, read from the prefix sums of the
    last counts; as no interval reaches past hop of the last, that run
    starts within them and ends past their first site.
    """
    lo, hi = bounds[0]
    counts = np.ones(max(hi - lo + 1, 0), dtype=np.int64)
    yield np.arange(lo, hi + 1), counts, None
    for new_lo, new_hi in bounds[1:]:
        x = np.arange(new_lo, new_hi + 1)
        ends = np.concatenate(([0], np.cumsum(counts)))
        begin = ends[np.maximum(x - (lo + hop), 0)]
        counts = ends[np.minimum(x + (hop + 1 - lo), counts.size)] - begin
        yield x, counts, begin
        lo = new_lo


def _walk(bounds, hop: int) -> list:
    """The distinct chains from the one site of ``bounds[0]`` through the intervals ``bounds[1:]``.

    One (sites, parents) pair per step of _steps: each chain's last site
    and the index of the chain one step shorter that it extends.  Each
    interval of _site_bounds lies within hop of the last and within reach
    of the other end, so every chain completes.
    """
    levels = []
    for x, runs, begin in [*_steps(bounds, hop)][1:]:  # past the one chain of no step
        ends = np.cumsum(runs)
        levels.append((np.repeat(x, runs), np.arange(ends[-1]) + np.repeat(begin - ends + runs, runs)))
    return levels


def _chains(first: int, levels) -> np.ndarray:
    """The chains of _walk's ``levels`` as rows of sites, (chains, steps + 1)."""
    rows = np.empty((levels[-1][0].size if levels else 1, len(levels) + 1), dtype=int)
    at = np.arange(rows.shape[0])
    for k in range(len(levels), 0, -1):
        sites, parents = levels[k - 1]
        rows[:, k] = sites[at]
        at = parents[at]
    rows[:, 0] = first
    return rows


@dataclass(frozen=True)
class PathHalves:
    """The paths of a spec as their distinct halves, split at the time mid = (T+1)//2.

    ``bounds`` are the _site_bounds intervals of the times 0..T.
    ``prefixes`` (p, mid+1) and ``suffixes`` (s, T-mid+1) are the site
    sequences up to and from the middle time, grown by ``walks``: the
    _walk levels of the prefixes forward from the start and of the
    suffixes backward from the end.  Both come ordered by middle site,
    then by their other sites from the middle outward.  Prefix i goes on
    with the ``runs[i]`` suffixes from suffix ``first[i]``, those that
    start at its middle site.  In depth-first order the paths are the
    prefixes ``order``, each followed by its suffixes in their order.
    """

    bounds: list
    prefixes: np.ndarray
    suffixes: np.ndarray
    walks: tuple
    first: np.ndarray
    runs: np.ndarray
    order: np.ndarray

    def spread(self, start: np.ndarray) -> np.ndarray:
        """start[i] + j for the j-th path through prefix i, over the paths in depth-first order."""
        runs = self.runs[self.order]
        ends = np.cumsum(runs)
        return np.arange(ends[-1]) + np.repeat(start[self.order] - ends + runs, runs)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(prefix, suffix) index of each path, in depth-first order."""
        return np.repeat(self.order, self.runs[self.order]), self.spread(self.first)


def _sides(bounds):
    """The intervals of the prefixes, from the start, and of the suffixes, from the end."""
    mid = len(bounds) // 2
    return bounds[: mid + 1], bounds[: mid - 1 : -1]


def path_halves(spec: LatticeSpec) -> PathHalves:
    """The distinct prefixes and suffixes of the paths, walked without the paths.

    Each half grows one step at a time through the _site_bounds intervals
    (_walk), so its cost grows with the prefixes and suffixes, not with
    the paths.  A run walks once, and all it does reads these halves.
    """
    bounds = _site_bounds(spec)
    if any(lo > hi for lo, hi in bounds):
        raise NoPaths("no admissible path (extent too tight)")
    forward, backward = _sides(bounds)
    walks = (_walk(forward, spec.hop), _walk(backward, spec.hop))
    prefixes = _chains(spec.start, walks[0])
    suffixes = _chains(spec.end, walks[1])[:, ::-1]
    lo, hi = forward[-1]
    at = np.searchsorted(suffixes[:, 0], np.arange(lo, hi + 2))
    k = prefixes[:, -1] - lo
    # lexsort's last key sorts first: the sites from the start on
    return PathHalves(bounds, prefixes, suffixes, walks, at[k], np.diff(at)[k],
                      np.lexsort(prefixes.T[::-1]))


def enumerate_paths(spec: LatticeSpec, halves: PathHalves | None = None) -> np.ndarray:
    """All site sequences as an (n_paths, T+1) int array, in depth-first order.

    Assembled from the distinct halves (``halves``, path_halves(spec) when
    None): each prefix, in lexicographic order, is followed by the
    suffixes that start at its middle site, in theirs.  Rows are thus in
    lexicographic, that is depth-first, order.  Raises NoPaths when no
    path fits the extent.
    """
    halves = halves or path_halves(spec)
    pre, suf = halves.pairs()
    sites = np.empty((pre.size, spec.steps + 1), dtype=int)
    cut = halves.prefixes.shape[1]
    sites[:, :cut] = halves.prefixes[pre]
    sites[:, cut:] = halves.suffixes[suf, 1:]
    return sites


def lattice_ensemble(
    spec: LatticeSpec, sites: np.ndarray, extra_phase: np.ndarray | None = None
) -> PathEnsemble:
    """The ensemble of the enumerated ``sites``, amplitudes exp(-i S) (optionally shifted).

    S is the discrete free action of each path row, dt = 1.
    """
    phases = 0.5 * spec.mass * np.sum(np.diff(sites, axis=1) ** 2, axis=1)
    if extra_phase is not None:
        phases = phases + extra_phase
    return PathEnsemble(np.exp(-1j * phases))


def _ends(bounds, hop: int) -> np.ndarray:
    """The count of chains into each site of bounds[-1] by _steps, without walking them."""
    return [*_steps(bounds, hop)][-1][1]


def _half_counts(spec: LatticeSpec):
    """(path count, prefixes, suffixes, site bounds) of the middle-time split.

    The distinct halves of path_halves, counted into and out of each
    middle site by _ends: a path is any prefix joined with any suffix
    that starts at its middle site.
    """
    bounds = _site_bounds(spec)
    into, out_of = (_ends(side, spec.hop) for side in _sides(bounds))
    return int(into @ out_of), int(into.sum()), int(out_of.sum()), bounds


def path_count(spec: LatticeSpec) -> int:
    """Exact number of enumerated paths, without enumerating them."""
    return _half_counts(spec)[0]


def _radii(distance: DistanceSpec, bounds) -> int:
    """Most tube radii transfer_plan carries: one per gap for the max variants."""
    return max(hi - lo for lo, hi in bounds) + 1 if distance.name in MAX_VARIANTS else 1


def transfer_bytes(spec: LatticeSpec, distance: DistanceSpec, counts=None) -> int:
    """Peak bytes of a transfer-route run, at two phase settings.

    The messages run over the distinct prefixes and suffixes of the
    paths (``counts``, _half_counts(spec) when None), each over a site
    interval and, for the max variants, over as many radii as sites; the
    join holds O(1) arrays per path.
    The run around it holds the enumerated sites and O(1) arrays and
    text per path (_RUN_SITE_BYTES, _RUN_PATH_BYTES): the ``lattice``
    command's peak RSS above a 30 MiB idle process came to 0.29 to 0.40
    of this total writing CSV and 0.74 to 0.89 writing JSON, over
    max_sep and l1_time_integral at T=8 to 10, X=6, h=2 (38 131 to
    850 739 paths).
    """
    n, prefixes, suffixes, bounds = counts or _half_counts(spec)
    width = max(hi - lo for lo, hi in bounds) + 1
    messages = (prefixes + suffixes) * _radii(distance, bounds) * width
    run = n * (_RUN_SITE_BYTES * (spec.steps + 1) + _RUN_PATH_BYTES)
    return _MESSAGE_BYTES * messages + _PATH_BYTES * n + run + _FIXED_BYTES


def transfer_work(spec: LatticeSpec, distance: DistanceSpec, counts) -> int:
    """Multiply-adds of one transfer-route message and join pass.

    Each side's messages step once per time over its rows' radii, from
    the last time's sites to the next's; the join pairs every path's
    prefix and suffix messages over the radii and middle sites.
    ``counts`` is _half_counts(spec).
    """
    n, prefixes, suffixes, bounds = counts
    mid = (spec.steps + 1) // 2
    widths = [hi - lo + 1 for lo, hi in bounds]
    hops = [a * b for a, b in zip(widths, widths[1:])]
    steps = prefixes * sum(hops[:mid]) + suffixes * sum(hops[mid:]) + n * widths[mid]
    return _radii(distance, bounds) * steps


def admit(spec: LatticeSpec, distance: DistanceSpec) -> tuple[int, bool]:
    """(path count, whether transfer_plan takes the spec), checked against its route's bound.

    A factoring distance takes transfer_plan when transfer_bytes is
    within MAX_TILE_BYTES and either the dense pass is out of
    reach (past DENSE_PATH_BOUND paths) or the transfer route costs less
    (transfer_work within _PAIR_WORK n^2); otherwise it takes the dense
    pass, as ``l2`` always does, refused past DENSE_PATH_BOUND paths.
    Every distance reads the count of _half_counts, which walks nothing.
    Either refusal raises ModelTooLarge before anything is enumerated; an
    index distance, which orders no lattice paths, raises ValueError
    before anything is counted.
    """
    if distance.is_index_based:
        raise ValueError(f"{distance.name} is an index distance, which lattice paths do not take")
    counts = _half_counts(spec)
    n = counts[0]
    if distance.name not in FACTORING_VARIANTS:
        if n > DENSE_PATH_BOUND:
            raise ModelTooLarge(
                f"{n} paths need {float(n) ** 2:.3g} exponentials in the dense pass, "
                f"above the bound of {DENSE_PATH_BOUND} paths"
            )
        return n, False
    need = transfer_bytes(spec, distance, counts)
    if need <= MAX_TILE_BYTES and (n > DENSE_PATH_BOUND
                                   or transfer_work(spec, distance, counts) <= _PAIR_WORK * n * n):
        return n, True
    if n > DENSE_PATH_BOUND:
        raise ModelTooLarge(
            f"the transfer route needs {need / 2**30:.2f} GiB, "
            f"above {MAX_TILE_BYTES / 2**30:.0f} GiB"
        )
    return n, False


def transfer_amplitude(spec: LatticeSpec) -> complex:
    """Total amplitude sum_paths exp(-i S) by stepwise matrix application.

    Dynamic programming over site occupation; needs no enumeration bound,
    but raises ModelTooLarge, before allocating anything, when it would
    make more than TRANSFER_BOUND site updates.  m = 0 returns the path
    count as a real number.
    """
    X, m = spec.extent, spec.mass
    n_sites = 2 * X + 1
    if abs(spec.start) > X or abs(spec.end) > X:
        raise NoPaths("endpoint outside the lattice")
    if abs(spec.end - spec.start) > spec.hop * spec.steps:
        raise NoPaths("endpoints unreachable")
    h = min(spec.hop, 2 * X)  # a longer hop leaves the lattice from every site
    updates = spec.steps * (2 * h + 1) * n_sites
    if updates > TRANSFER_BOUND:
        raise ModelTooLarge(
            f"the transfer matrix needs {updates:.3g} site updates, "
            f"above {TRANSFER_BOUND:.0e}"
        )
    offsets = np.arange(-h, h + 1)
    kernel = np.exp(-0.5j * m * offsets.astype(float) ** 2)
    psi = np.zeros(n_sites, dtype=np.complex128)
    psi[spec.start + X] = 1.0
    for _ in range(spec.steps):
        nxt = np.zeros_like(psi)
        for off, amp in zip(offsets, kernel):
            lo_src = max(0, -off)
            hi_src = min(n_sites, n_sites - off)
            if lo_src < hi_src:
                nxt[lo_src + off : hi_src + off] += amp * psi[lo_src:hi_src]
        psi = nxt
    return complex(psi[spec.end + X])


# -- weight functions on site paths -------------------------------------------

def curvature_cutoff_weights(sites: np.ndarray, threshold: float = 1.0) -> np.ndarray:
    """0/1 weights zeroing paths with any |dx_{k+1} - dx_k| > threshold."""
    second = np.abs(np.diff(sites, n=2, axis=1))
    if second.shape[1] == 0:
        return np.ones(sites.shape[0])
    return (second.max(axis=1) <= threshold).astype(float)


def corridor_weights(sites: np.ndarray, margin: int = 1) -> np.ndarray:
    """0/1 weights keeping two-arm paths only.

    A path is realizable when every interior site is >= margin (upper
    arm) or every interior site is <= -margin (lower arm); endpoints are
    shared and exempt.
    """
    interior = sites[:, 1:-1]
    if interior.shape[1] == 0:
        return np.ones(sites.shape[0])
    upper = (interior >= margin).all(axis=1)
    lower = (interior <= -margin).all(axis=1)
    return (upper | lower).astype(float)


def upper_arm_mask(sites: np.ndarray) -> np.ndarray:
    """Paths tagged by a phase plate in the upper arm: middle site >= 1."""
    mid = sites.shape[1] // 2
    return sites[:, mid] >= 1


def _check_scale(spec: LatticeSpec, distance: DistanceSpec, distance_scale: float):
    """Raise SpecViolation for a scale or mass that would break exp(-d) or A.

    ``distance_scale`` must be finite and >= 0, so that exp(-d) stays at
    most 1, and so must the lattice mass where a mass-weighted distance
    reads it.  Under any distance the mass must be finite: the amplitudes
    exp(-i m S) of a non-finite mass are NaN, and so are those of a mass
    whose largest action passes the float range.
    """
    if not (math.isfinite(distance_scale) and distance_scale >= 0):
        raise SpecViolation(f"distance_scale must be finite and >= 0, not {distance_scale!r}")
    weighted = distance.name in MASS_VARIANTS
    if not (math.isfinite(spec.mass) and (spec.mass >= 0 or not weighted)):
        need = f"finite and >= 0 under {distance.name}" if weighted else "finite"
        raise SpecViolation(f"the lattice mass must be {need}, not {spec.mass!r}")
    # no step of a path moves more than min(h, 2X) sites, so this bounds
    # the action of every path and of every step
    if not math.isfinite(0.5 * spec.mass * spec.steps * min(spec.hop, 2 * spec.extent) ** 2):
        raise SpecViolation(
            f"the lattice mass {spec.mass!r} takes the action 0.5 m T min(h, 2X)^2 "
            f"past the float range"
        )


def _messages(levels, bounds, hop, dtype, terms, last_site: bool) -> np.ndarray:
    """Messages of each chain of a walk over the sites of its last time, (m, radii, sites).

    ``levels`` are the _walk levels of m chains P from the one site of
    ``bounds[0]``.  Entry [i, r, x] sums, over every chain Q through the
    ``bounds`` intervals from that site to x, the product of
    hop(q_k - q_k-1) over Q's steps and of the distance factors between Q
    and chain i: the tube |q_k - p_k| <= radius r (max variants),
    exp(-c_k |q_k - p_k|) per site (L1 variants), or exp(-c |dq - dp|)
    per step (velocity_l1).  The first site's factor is 1 (P and Q share
    it); the last time's is applied only if ``last_site``, so that a site
    shared by two halves is counted once.

    Each step multiplies the distinct parents' messages by the hop kernel
    once, gathers the products to the children, and only then applies
    the factor of each child's own site; velocity_l1 takes one product
    per step value, over the parents of the children that step by it.
    """
    radii, site_c, edge_c = terms
    lo, hi = bounds[0]
    msg = np.zeros((radii.size, hi - lo + 1), dtype=dtype)
    msg[:, 0] = 1.0
    last = np.array([lo])
    for k, (sites, parents) in enumerate(levels, 1):
        x = np.arange(bounds[k][0], bounds[k][1] + 1)
        delta = x - np.arange(lo, hi + 1)[:, None]
        kernel = hop(delta)
        if edge_c is None:
            msg = (msg @ kernel).reshape(-1, radii.size, x.size)[parents]
        else:
            # one radius; the factor depends on P's step, one kernel per value
            prev, msg = msg, np.empty((parents.size, 1, x.size), dtype=dtype)
            values, which = np.unique(sites - last[parents], return_inverse=True)
            for j, v in enumerate(values):
                pick = which == j
                msg[pick, 0] = prev[parents[pick]] @ (kernel * _decay(edge_c, np.abs(delta - v)))
        lo, hi = bounds[k]
        if k < len(levels) or last_site:
            gap = np.abs(x - sites[:, None])
            if site_c is not None:
                msg *= _decay(site_c[k], gap)[:, None, :]
            elif radii[0] < x.size - 1:  # else every tube holds every site
                msg *= gap[:, None, :] <= radii[:, None]
        msg = msg.reshape(-1, x.size)
        last = sites
    return msg.reshape(-1, radii.size, hi - lo + 1)


def _decay(c, gap):
    """exp(-c gap) for c and gap >= 0: a product past the float range takes its limit, 0."""
    with np.errstate(over="ignore"):
        return np.exp(-c * gap)


def _distance_terms(spec: LatticeSpec, distance: DistanceSpec, scale: float, bounds):
    """(radii, per-time coefficients, per-step coefficient), radius weights.

    The max variants write exp(-s D), D = max_k |p_k - q_k| in 0..R, as
    sum_r c_r [D <= r] with c_r = e^{-s r} - e^{-s (r+1)} for r < R and
    c_R = e^{-s R}, s = scale (times mass for mass_max_sep) >= 0, so every
    c_r >= 0; R is the widest interval of sites, and radii whose weight
    underflows to 0 are dropped.  The other variants have the one radius
    R, under which every tube holds every site, and weight 1.  A
    coefficient that overflows is held at the largest float, so that its
    product with a gap of 0 is 0, not NaN: any coefficient past 746
    already makes exp(-c gap) 1 at a gap of 0 and 0 at any other.
    """
    spread = max(hi - lo for lo, hi in bounds)
    radii, weights = np.array([spread]), np.ones(1)
    if distance.name in MAX_VARIANTS:
        s = min(scale * spec.mass if distance.name == "mass_max_sep" else scale, _FLOAT_MAX)
        radii = np.arange(spread + 1)
        weights = _decay(s, radii) * -np.expm1(-s)
        weights[-1] = np.exp(-s * spread)
        keep = weights > 0
        return (radii[keep], None, None), weights[keep]
    if distance.name == "velocity_l1":
        return (radii, None, float(scale)), weights
    # trapezoid weights of the unit time grid, then duration, mass, scale
    c = unit_trapezoid(spec.steps + 1)
    if distance.name == "l1_time_average":
        c /= spec.steps
    if distance.name == "mass_l1":
        c *= spec.mass
    with np.errstate(over="ignore"):
        return (radii, np.minimum(c * scale, _FLOAT_MAX), None), weights


def _hops(spec: LatticeSpec):
    """((count, float), (amp, complex128)): the unit and exp(-i m dx^2 / 2) hop kernels.

    Each maps site differences to their kernel entries, 0 past the hop;
    the phase is taken of the differences within the hop only, so a mass
    that _check_scale admits keeps it finite.
    """
    h, m = spec.hop, spec.mass

    def count(delta):
        return (np.abs(delta) <= h).astype(float)

    def amp(delta):
        near = np.abs(delta) <= h
        return np.where(near, np.exp(-0.5j * m * np.where(near, delta, 0).astype(float) ** 2), 0)

    return (count, float), (amp, np.complex128)


def transfer_plan(spec: LatticeSpec, distance: DistanceSpec, scales, halves=None):
    """smeared(distance_scale, phases): smeared sums at each phase and their denominators.

    The sums run over the paths of enumerate_paths(spec, halves), in its
    order, where ``halves`` is the run's walk (path_halves(spec) when None);
    ``distance`` is one of FACTORING_VARIANTS, times ``distance_scale``,
    which must be one of ``scales``; ``phases`` the phase plate settings,
    each turning the amplitude of every path with middle site >= 1
    (upper_arm_mask) by exp(-i phase).  For each path P the smeared sum is
    sum_Q A(Q) exp(-d(P, Q)) over the whole ensemble and the denominator
    sum_Q exp(-d(P, Q)), as the dense pass gives them.

    exp(-d) factors over time (per radius, for the max variants), and so
    does A, so each sum splits at the middle time into a forward message
    over P's prefix and a backward message over its suffix (_messages),
    both over Q's middle site.  The messages run over the walks of
    ``halves``, once per distinct prefix and suffix and, before the
    middle, once per distinct shorter chain; nothing here runs over the
    paths one by one but the placing of each path's sum.  The paths
    through one middle site are every pairing of its prefixes with its
    suffixes, so one product of their message matrices gives the sums of
    exactly those paths.  The phase plate and the radius weights act on
    the forward side, and the denominators come from the same messages
    with unit amplitudes.  Nothing of size n x n is built;
    transfer_bytes bounds what is.

    The plan, built once, holds what no scale changes: the walks, each
    path's place in the joined blocks, and, for the max variants, the
    forward and backward count and amplitude messages over every radius
    that some scale's weights keep.  Each call picks its scale's radii
    from those messages, and weights and joins them one middle site's
    block of prefixes at a time; the radius rows of a
    message do not depend on which other radii run beside them, so a
    scale gets the bits of a plan built for it alone.  The L1 variants'
    messages carry the scale in every factor, so each call runs its own.
    """
    if distance.name not in FACTORING_VARIANTS:
        raise ValueError(f"{distance.name} does not factor over time steps")
    halves = halves or path_halves(spec)
    bounds = halves.bounds
    # suffixes are walked backward from the end, so their middle site comes last
    fwd_bounds, bwd_bounds = _sides(bounds)
    fwd_walk, bwd_walk = halves.walks
    counting, amplitude = _hops(spec)

    def messages(hop, dtype, terms):
        """Forward and backward messages, each (rows, radii, sites)."""
        radii, site_c, edge_c = terms
        back_c = None if site_c is None else site_c[::-1]
        fwd = _messages(fwd_walk, fwd_bounds, hop, dtype, terms, last_site=True)
        bwd = _messages(bwd_walk, bwd_bounds, hop, dtype, (radii, back_c, edge_c),
                        last_site=False)
        return fwd, bwd

    lo, hi = fwd_bounds[-1]
    middle = np.arange(lo, hi + 1)
    # block k of the joined sums pairs the prefixes pre_at[k]:pre_at[k+1]
    # with the suffixes suf_at[k]:suf_at[k+1], those through middle site k;
    # as the prefixes come by middle site, prefix i's sums start at the
    # runs of the prefixes before it.  Each block is (a, b, c, d, sums
    # from, sums to), as Python ints for the slices of each call
    pre_at = np.searchsorted(halves.prefixes[:, -1], np.arange(lo, hi + 2))
    suf_at = np.searchsorted(halves.suffixes[:, 0], np.arange(lo, hi + 2))
    start = np.concatenate([[0], np.cumsum(halves.runs)])
    blocks = np.column_stack([pre_at[:-1], pre_at[1:], suf_at[:-1], suf_at[1:],
                              start[pre_at[:-1]], start[pre_at[1:]]]).tolist()
    place = halves.spread(start[:-1])

    def join(left, right, plates):
        """Each path's product of its prefix's forward row and its suffix's row of ``right``.

        left(a, b) gives the forward rows of the prefixes a..b-1, so that
        no more than one middle site's block of them is made at a time;
        there is one result per entry of ``plates``, which multiplies
        those rows unless it is None.
        """
        flats = [np.empty(place.size, dtype=right.dtype) for _ in plates]
        for a, b, c, d, first, last in blocks:
            rows, cols = left(a, b), right[c:d].T
            for flat, plate in zip(flats, plates):
                block = flat[first:last].reshape(b - a, d - c)
                np.matmul(rows if plate is None else rows * plate, cols, out=block)
        for i, flat in enumerate(flats):
            flats[i] = flat[place]
        return flats

    shared = None
    if distance.name in MAX_VARIANTS:
        kept = np.zeros(_radii(distance, bounds), dtype=bool)
        for scale in scales:
            kept[_distance_terms(spec, distance, scale, bounds)[0][0]] = True
        union = np.flatnonzero(kept)
        # each radius's row in the plan's messages, -1 for one no scale keeps
        row = np.full(kept.size, -1)
        row[union] = np.arange(union.size)
        shared = {dtype: messages(hop, dtype, (union, None, None))
                  for hop, dtype in (counting, amplitude)}

    def weighted(hop, dtype, terms, weights):
        """(left, backward): the radius-weighted forward rows for join, and the backward messages.

        Both are (rows, radius x site) matrices; the forward rows are
        weighted one block at a time, as join asks for them.  The L1
        variants' one weight is 1, which keeps every bit of their rows.
        """
        pick = slice(None)
        if shared is None:
            fwd, bwd = messages(hop, dtype, terms)
        else:
            pick = row[terms[0]]
            if pick.min() < 0:
                raise ValueError("the scale keeps a radius the plan was not built for")
            if pick.size == union.size:
                pick = slice(None)
            fwd, bwd = shared[dtype]
        return ((lambda a, b: (fwd[a:b, pick] * weights[:, None]).reshape(b - a, -1)),
                bwd[:, pick].reshape(len(bwd), -1))

    def smeared(distance_scale, phases):
        terms, weights = _distance_terms(spec, distance, distance_scale, bounds)
        (denom,) = join(*weighted(*counting, terms, weights), [None])
        plates = [np.tile(np.where(middle >= 1, np.exp(-1j * phase), 1.0), weights.size)
                  if phase else None for phase in phases]
        return join(*weighted(*amplitude, terms, weights), plates), denom

    return smeared


def admit_scales(spec: LatticeSpec, distance: DistanceSpec, scales) -> bool:
    """Whether transfer_plan takes the spec (admit), every scale of ``scales`` checked first.

    Raises what _check_scale and admit raise, before anything is
    enumerated, so a sweep can refuse any of its cells before it runs one.
    """
    for scale in scales:
        _check_scale(spec, distance, scale)
    return admit(spec, distance)[1]


def _passes(spec, distance, scales, transfer=None):
    """(halves, sites, smeared(distance_scale, phases)) for every scale of ``scales``.

    Every scale is checked, and the route chosen (admit_scales), before
    the one walk (path_halves), which the enumeration and the plan both
    read; ``transfer`` is the route admit_scales already chose for these
    scales, or None to admit here.  smeared returns the smeared sums at
    each phase and the shared denominators: transfer_plan's, or the dense
    pass's, which multiplies each tile of exp(-d), streamed from a
    GridPathSource, by every phase setting's amplitudes.  Each scale's
    pass runs when smeared is called, which reads the shared sites and
    plan only.
    """
    if transfer is None:
        transfer = admit_scales(spec, distance, scales)
    halves = path_halves(spec)
    sites = enumerate_paths(spec, halves)
    if transfer:
        return halves, sites, transfer_plan(spec, distance, scales, halves)
    mask = upper_arm_mask(sites).astype(float)

    def dense(distance_scale, phases):
        amps = [lattice_ensemble(spec, sites, phase * mask if phase else None).amplitudes
                for phase in phases]
        return dense_smeared(amps, GridPathSource(sites, distance, spec.mass, distance_scale))

    return halves, sites, dense


def run_lattice_experiment(
    spec: LatticeSpec,
    distance: DistanceSpec,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
    distance_scale: float = 1.0,
    arm_phase: float = 0.0,
) -> tuple[PathDistribution, PathHalves]:
    """Path probabilities over the enumerated ensemble.

    ``weight`` maps the sites to per-path weights, as curvature_cutoff_weights
    and corridor_weights do, or is None for the plain postulate;
    ``distance_scale`` multiplies every pairwise distance (0 is the
    quantum limit); ``arm_phase`` is the setting of the upper-arm phase
    plate (upper_arm_mask), which must be finite.
    Returns (distribution, halves): the run's one walk (path_halves), from
    which enumerate_paths gives the sites of the distribution's rows and
    the CLI writes the paths file.
    """
    if not math.isfinite(arm_phase):
        raise SpecViolation(f"arm_phase must be finite, not {arm_phase!r}")
    halves, sites, smeared = _passes(spec, distance, [distance_scale])
    (sums,), denom = smeared(distance_scale, [arm_phase])
    weights = None if weight is None else weight(sites)
    return distribution_from_sums(sums, denom, weights), halves


def two_arm_sweep(spec: LatticeSpec, distance: DistanceSpec, scales, transfer=None):
    """cell(distance_scale) of the two-arm setup, for any scale of ``scales``.

    cell returns (visibility, block mass, distribution, norm constant),
    the cell shape toymodels.beam_sweep shares.  The visibility is
    |P+ - P-| / (P+ + P-) of the corridor-weighted unnormalized masses at
    phase plate 0 (constructive) and pi (destructive), the comparable
    quantity as C depends on the setting; the distribution is the
    unweighted one run_lattice_experiment gives at arm phase 0, the
    block mass its share on corridor paths, and the norm constant its
    C.  Both settings run in one pass and share the denominators, as
    these do not depend on the amplitudes.  Every scale is checked
    before the one walk and enumeration, whose plan (transfer_plan) serves every
    scale; cells only read it.  A caller that has admitted the scales
    passes the route admit_scales returned as ``transfer``, and the spec
    is not admitted again.
    """
    _, sites, smeared = _passes(spec, distance, scales, transfer)
    w = corridor_weights(sites)

    def cell(distance_scale):
        sums, denom = smeared(distance_scale, (0.0, np.pi))
        p_plus, p_minus = (float(np.sum(weighted_probabilities(s, denom, w))) for s in sums)
        dist = distribution_from_sums(sums[0], denom)
        return (visibility(p_plus, p_minus), float(np.sum(dist.probs[w > 0])), dist,
                dist.norm_constant)

    return cell


def two_arm_visibility(
    spec: LatticeSpec,
    distance: DistanceSpec,
    distance_scale: float = 1.0,
) -> float:
    """The visibility of two_arm_sweep's cell at the one scale ``distance_scale``."""
    return two_arm_sweep(spec, distance, [distance_scale])(distance_scale)[0]
