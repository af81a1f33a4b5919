"""Exhaustive 1+1D lattice free-particle path integral.

Sites are integers -X..X, time steps are unit (dt = 1), and a path moves
at most ``hop`` sites per step.  Every admissible site sequence from the
start site (t=0) to the end site (t=T) is enumerated, in depth-first
(lexicographic) order, with amplitude exp(-i S) for the discrete free
action S = sum m (dx)^2 / 2.
A transfer-matrix pass computes the total amplitude independently of the
enumeration, which is the correctness oracle for both.

Enumerated ensembles feed the probability postulate with any geometric
distance, by one of two routes, both on the calling thread:

* ``transfer_plan`` for the distances built step by step over time
  (FACTORING_VARIANTS: the max-separation and L1 families).  exp(-d)
  then factors over the time steps, so the smeared sum of every path is
  a forward message over its prefix joined with a backward message over
  its suffix, the forward-backward split of a hidden Markov model.  It
  pairs no paths; its messages grow with the distinct prefixes and
  suffixes times the square of the lattice width (sites times radii)
  for the max variants.  It builds a scale-free plan once and joins per
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

import dataclasses
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
# plan's real and complex messages on both sides, 24, with a call's
# radius-weighted, picked and phase-plated copies of them, at most 32
# more; for the L1 variants one dtype's messages with the product and
# factor temporaries of one step) and per path (the joined blocks, the
# int64 codes and indices that place each path in its block, and the
# outputs of two phase settings), and a fixed allowance for the small
# arrays.  tracemalloc puts the peak of a one-scale plan called once, and
# of a plan for eight scales (0 to 300) called at each, at 0.55 to 0.85 of
# these three terms for the max variants and 0.21 to 0.84 for the L1 variants,
# on ten specs from 83 to 179 755 paths (see transfer_bytes).
_MESSAGE_BYTES = 64
_PATH_BYTES = 104
_FIXED_BYTES = 1 << 16

# bytes a run holds per path beyond the transfer route's: per site of
# the enumerated paths (they and a copy while they grow) and per path
# (weights, the distribution, and the text the CLI writes of each row,
# as CSV or JSON).  See transfer_bytes for the measurements.
_RUN_SITE_BYTES = 16
_RUN_PATH_BYTES = 720


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


def _site_steps(spec: LatticeSpec):
    """(lo, hi, new_lo, new_hi) for each of the T steps.

    [lo, hi] holds the sites a complete path can occupy before the step
    and [new_lo, new_hi] those after it: sites within hop of the last
    interval, inside the extent and within reach of the end
    (|end - x| <= hop * steps_left).
    """
    T, X, h = spec.steps, spec.extent, spec.hop
    lo = hi = spec.start
    for k in range(1, T + 1):
        reach = h * (T - k)
        new_lo = max(lo - h, -X, spec.end - reach)
        new_hi = min(hi + h, X, spec.end + reach)
        yield lo, hi, new_lo, new_hi
        lo, hi = new_lo, new_hi


def enumerate_paths(spec: LatticeSpec) -> np.ndarray:
    """All site sequences as an (n_paths, T+1) int array, DFS order.

    Grown one step at a time: every prefix takes every hop offset, in
    increasing order, that lands in the step's interval of sites
    (_site_steps), so only completable prefixes survive.  Prefixes stay
    in row-major order, which is the lexicographic, that is depth-first,
    order of the paths.
    """
    h = spec.hop
    paths = np.full((1, 1), spec.start, dtype=int)
    for lo, hi, new_lo, new_hi in _site_steps(spec):
        # only offsets that reach [new_lo, new_hi] from some site in
        # [lo, hi]; a hop wider than the lattice has far fewer than 2h+1
        offsets = np.arange(max(-h, new_lo - hi), min(h, new_hi - lo) + 1)
        nxt = paths[:, -1:] + offsets
        keep = (nxt >= new_lo) & (nxt <= new_hi)
        rows, cols = np.nonzero(keep)
        paths = np.column_stack([paths[rows], nxt[rows, cols]])
    if paths.shape[0] == 0:
        raise NoPaths("no admissible path (extent too tight)")
    return paths


def path_actions(sites: np.ndarray, mass: float) -> np.ndarray:
    """Discrete free action per path row, dt = 1."""
    return 0.5 * mass * np.sum(np.diff(sites, axis=1) ** 2, axis=1)


def lattice_ensemble(
    spec: LatticeSpec, sites: np.ndarray, extra_phase: np.ndarray | None = None
) -> PathEnsemble:
    """The ensemble of the enumerated ``sites``, amplitudes exp(-i S) (optionally shifted)."""
    phases = path_actions(sites, spec.mass)
    if extra_phase is not None:
        phases = phases + extra_phase
    return PathEnsemble(np.exp(-1j * phases))


def _partial_counts(spec: LatticeSpec, steps: int) -> np.ndarray:
    """Paths of ``steps`` steps from the start into each site at that time.

    Counts, step by step, over only the sites a complete path can occupy
    (an interval no wider than the path count), so the cost is bounded
    for any hop and extent; the result runs over that interval.
    """
    h = spec.hop
    counts = np.ones(1, dtype=np.int64)
    for _, (lo, hi, new_lo, new_hi) in zip(range(steps), _site_steps(spec)):
        # paths into site x come from sites x-h..x+h of the last step
        prefix = np.concatenate([[0], np.cumsum(counts)])
        x = np.arange(new_lo, new_hi + 1)
        counts = (prefix[np.clip(x + h - lo + 1, 0, counts.size)]
                  - prefix[np.clip(x - h - lo, 0, counts.size)])
    return counts


def path_count(spec: LatticeSpec) -> int:
    """Exact number of enumerated paths, without enumerating them."""
    return int(_partial_counts(spec, spec.steps).sum())


def _site_bounds(spec: LatticeSpec) -> list[tuple[int, int]]:
    """(lo, hi) of the sites a complete path can occupy, at each time 0..T."""
    return [(spec.start, spec.start)] + [(lo, hi) for _, _, lo, hi in _site_steps(spec)]


def _halves(spec: LatticeSpec):
    """(path count, prefixes, suffixes, site bounds) of the middle-time split.

    The prefixes and suffixes are the distinct halves of the paths,
    counted by _partial_counts without enumerating: a path is any prefix
    joined with any suffix that starts at its middle site.
    """
    mid = (spec.steps + 1) // 2
    into = _partial_counts(spec, mid)
    back = dataclasses.replace(spec, start=spec.end, end=spec.start)
    out_of = _partial_counts(back, spec.steps - mid)
    return int(into @ out_of), int(into.sum()), int(out_of.sum()), _site_bounds(spec)


def _radii(spec: LatticeSpec, distance: DistanceSpec, bounds) -> int:
    """Most tube radii transfer_plan carries: one per gap for the max variants."""
    return max(hi - lo for lo, hi in bounds) + 1 if distance.name in MAX_VARIANTS else 1


def transfer_bytes(spec: LatticeSpec, distance: DistanceSpec, halves=None) -> int:
    """Peak bytes of a transfer-route run, at two phase settings.

    The messages run over the distinct prefixes and suffixes of the
    paths (``halves``, _halves(spec) when None), each over a site
    interval and, for the max variants, over as many radii as sites; the
    join holds O(1) arrays per path.
    The run around it holds the enumerated sites and O(1) arrays and
    text per path (_RUN_SITE_BYTES, _RUN_PATH_BYTES): the ``lattice``
    command's peak RSS above a 30 MiB idle process came to 0.29 to 0.40
    of this total writing CSV and 0.74 to 0.89 writing JSON, over
    max_sep and l1_time_integral at T=8 to 10, X=6, h=2 (38 131 to
    850 739 paths).
    """
    n, prefixes, suffixes, bounds = halves or _halves(spec)
    width = max(hi - lo for lo, hi in bounds) + 1
    messages = (prefixes + suffixes) * _radii(spec, distance, bounds) * width
    run = n * (_RUN_SITE_BYTES * (spec.steps + 1) + _RUN_PATH_BYTES)
    return _MESSAGE_BYTES * messages + _PATH_BYTES * n + run + _FIXED_BYTES


def transfer_work(spec: LatticeSpec, distance: DistanceSpec, halves) -> int:
    """Multiply-adds of one transfer-route message and join pass.

    Each side's messages step once per time over its rows' radii, from
    the last time's sites to the next's; the join pairs every path's
    prefix and suffix messages over the radii and middle sites.
    ``halves`` is _halves(spec).
    """
    n, prefixes, suffixes, bounds = halves
    mid = (spec.steps + 1) // 2
    widths = [hi - lo + 1 for lo, hi in bounds]
    hops = [a * b for a, b in zip(widths, widths[1:])]
    steps = prefixes * sum(hops[:mid]) + suffixes * sum(hops[mid:]) + n * widths[mid]
    return _radii(spec, distance, bounds) * steps


def admit(spec: LatticeSpec, distance: DistanceSpec) -> tuple[int, bool]:
    """(path count, whether transfer_plan takes the spec), checked against its route's bound.

    A factoring distance takes transfer_plan when transfer_bytes is
    within MAX_TILE_BYTES and either the dense pass is out of
    reach (past DENSE_PATH_BOUND paths) or the transfer route costs less
    (transfer_work within _PAIR_WORK n^2); otherwise it takes the dense
    pass, as ``l2`` always does, refused past DENSE_PATH_BOUND paths.
    Either refusal raises ModelTooLarge before anything is enumerated;
    an index distance, which orders no lattice paths, raises ValueError
    before anything is counted.
    """
    if distance.is_index_based:
        raise ValueError(f"{distance.name} is an index distance, which lattice paths do not take")
    if distance.name not in FACTORING_VARIANTS:
        n = path_count(spec)
        if n > DENSE_PATH_BOUND:
            raise ModelTooLarge(
                f"{n} paths need {float(n) ** 2:.3g} exponentials in the dense pass, "
                f"above the bound of {DENSE_PATH_BOUND} paths"
            )
        return n, False
    halves = _halves(spec)
    n = halves[0]
    need = transfer_bytes(spec, distance, halves)
    if need <= MAX_TILE_BYTES and (n > DENSE_PATH_BOUND
                                   or transfer_work(spec, distance, halves) <= _PAIR_WORK * n * n):
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
    exp(-i m S) of a non-finite mass are NaN.
    """
    if not (math.isfinite(distance_scale) and distance_scale >= 0):
        raise SpecViolation(f"distance_scale must be finite and >= 0, not {distance_scale!r}")
    weighted = distance.name in MASS_VARIANTS
    if not (math.isfinite(spec.mass) and (spec.mass >= 0 or not weighted)):
        need = f"finite and >= 0 under {distance.name}" if weighted else "finite"
        raise SpecViolation(f"the lattice mass must be {need}, not {spec.mass!r}")


def _distinct(rows: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows, index of each row's distinct row) of site sequences.

    Each row is coded as one integer, its sites' offsets in their
    ``bounds`` intervals as mixed-radix digits with the last column most
    significant, so the distinct rows come sorted by their last site.
    Under ENUMERATION_BOUND the code fits int64: over the mid + 1 times
    of a half, the widths multiply to at most mid! (2h+1)^mid, below
    8! * 10^7.
    """
    code = np.zeros(rows.shape[0], dtype=np.int64)
    stride = 1
    for k, (lo, hi) in enumerate(bounds):
        code += (rows[:, k] - lo) * stride
        stride *= hi - lo + 1
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    return rows[first], which.ravel()


def _messages(rows, bounds, hop, dtype, terms, last_site: bool) -> np.ndarray:
    """Messages of each row over the sites of its last column, (m, radii, sites).

    ``rows`` (m, L+1) are site sequences P sharing their first site.
    Entry [i, r, x] sums, over every chain Q through the ``bounds``
    intervals from that first site to x, the product of hop(q_k - q_k-1)
    over Q's steps and of the distance factors between Q and row i:
    the tube |q_k - p_k| <= radius r (max variants), exp(-c_k |q_k - p_k|)
    per site (L1 variants), or exp(-c |dq - dp|) per step (velocity_l1).
    The first column's factor is 1 (P and Q share the site); the last
    column's is applied only if ``last_site``, so that a site shared by
    two halves is counted once.
    """
    radii, site_c, edge_c = terms
    m, L = rows.shape[0], rows.shape[1] - 1
    lo, hi = bounds[0]
    msg = np.zeros((m * radii.size, hi - lo + 1), dtype=dtype)
    msg[:, rows[0, 0] - lo] = 1.0
    for k in range(1, L + 1):
        sites = np.arange(bounds[k][0], bounds[k][1] + 1)
        delta = sites - np.arange(lo, hi + 1)[:, None]
        kernel = hop(delta)
        if edge_c is None:
            msg = msg @ kernel
        else:
            # one radius; the factor depends on P's step, one kernel per value
            out = np.empty((m, sites.size), dtype=dtype)
            values, which = np.unique(rows[:, k] - rows[:, k - 1], return_inverse=True)
            for j, v in enumerate(values):
                pick = which.ravel() == j
                out[pick] = msg[pick] @ (kernel * np.exp(-edge_c * np.abs(delta - v)))
            msg = out
        lo, hi = bounds[k]
        if k < L or last_site:
            gap = np.abs(sites - rows[:, k, None])
            view = msg.reshape(m, radii.size, -1)
            if site_c is not None:
                view *= np.exp(-site_c[k] * gap)[:, None, :]
            elif radii[0] < sites.size - 1:  # else every tube holds every site
                view *= gap[:, None, :] <= radii[:, None]
    return msg.reshape(m, radii.size, -1)


def _distance_terms(spec: LatticeSpec, distance: DistanceSpec, scale: float, bounds):
    """(radii, per-time coefficients, per-step coefficient), radius weights.

    The max variants write exp(-s D), D = max_k |p_k - q_k| in 0..R, as
    sum_r c_r [D <= r] with c_r = e^{-s r} - e^{-s (r+1)} for r < R and
    c_R = e^{-s R}, s = scale (times mass for mass_max_sep) >= 0, so every
    c_r >= 0; R is the widest interval of sites, and radii whose weight
    underflows to 0 are dropped.  The other variants have the one radius
    R, under which every tube holds every site, and weight 1.
    """
    spread = max(hi - lo for lo, hi in bounds)
    radii, weights = np.array([spread]), np.ones(1)
    if distance.name in MAX_VARIANTS:
        s = scale * spec.mass if distance.name == "mass_max_sep" else scale
        radii = np.arange(spread + 1)
        weights = np.exp(-s * radii) * -np.expm1(-s)
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
    return (radii, c * scale, None), weights


def transfer_plan(spec: LatticeSpec, sites: np.ndarray, distance: DistanceSpec, scales):
    """smeared(distance_scale, phases): smeared sums at each phase and their denominators.

    ``sites`` is enumerate_paths(spec); ``distance`` one of
    FACTORING_VARIANTS, times ``distance_scale``, which must be one of
    ``scales``; ``phases`` the phase plate settings, each turning the
    amplitude of every path with middle site >= 1 (upper_arm_mask) by
    exp(-i phase).  For each path P the smeared sum is sum_Q A(Q)
    exp(-d(P, Q)) over the whole ensemble and the denominator
    sum_Q exp(-d(P, Q)), as the dense pass gives them.

    exp(-d) factors over time (per radius, for the max variants), and so
    does A, so each sum splits at the middle time into a forward message
    over P's prefix and a backward message over its suffix (_messages),
    both over Q's middle site.  The messages run once per distinct
    prefix and suffix; the paths through one middle site are every
    pairing of its prefixes with its suffixes, so one product of their
    message matrices gives the sums of exactly those paths.  The phase
    plate and the radius weights act on the forward side, and the
    denominators come from the same messages with unit amplitudes.
    Nothing of size n x n is built; transfer_bytes bounds what is.

    The plan, built once, holds what no scale changes: the distinct
    prefixes and suffixes, each path's place in the joined blocks, and,
    for the max variants, the forward and backward count and amplitude
    messages over every radius that some scale's weights keep.  Each
    call picks its scale's radii from those messages, weights them and
    joins; the radius rows of a message do not depend on which other
    radii run beside them, so a scale gets the bits of a plan built for
    it alone.  The L1 variants' messages carry the scale in every
    factor, so each call runs its own.
    """
    if distance.name not in FACTORING_VARIANTS:
        raise ValueError(f"{distance.name} does not factor over time steps")
    mid = sites.shape[1] // 2
    bounds = _site_bounds(spec)
    # suffixes are walked backward from the end, so their middle site comes last
    fwd_bounds, bwd_bounds = bounds[: mid + 1], bounds[: mid - 1 : -1]
    pre, pre_of = _distinct(sites[:, : mid + 1], fwd_bounds)
    suf, suf_of = _distinct(sites[:, : mid - 1 : -1], bwd_bounds)
    h, m = spec.hop, spec.mass

    def amp(delta):
        return np.where(np.abs(delta) <= h, np.exp(-0.5j * m * delta.astype(float) ** 2), 0)

    def count(delta):
        return (np.abs(delta) <= h).astype(float)

    def messages(hop, dtype, terms):
        """Forward and backward messages, each (rows, radii, sites)."""
        radii, site_c, edge_c = terms
        back_c = None if site_c is None else site_c[::-1]
        fwd = _messages(pre, fwd_bounds, hop, dtype, terms, last_site=True)
        bwd = _messages(suf, bwd_bounds, hop, dtype, (radii, back_c, edge_c), last_site=False)
        return fwd, bwd

    lo, hi = bounds[mid]
    middle = np.arange(lo, hi + 1)
    # block k of the joined sums pairs the prefixes pre_at[k]:pre_at[k+1]
    # with the suffixes suf_at[k]:suf_at[k+1], those through middle site k
    pre_at = np.searchsorted(pre[:, -1], np.arange(lo, hi + 2))
    suf_at = np.searchsorted(suf[:, -1], np.arange(lo, hi + 2))
    n_suf = np.diff(suf_at)
    start = np.concatenate([[0], np.cumsum(np.diff(pre_at) * n_suf)])
    k = sites[:, mid] - lo
    place = start[k] + (pre_of - pre_at[k]) * n_suf[k] + (suf_of - suf_at[k])
    del k, pre_of, suf_of

    def join(left, right):
        flat = np.empty(start[-1], dtype=np.result_type(left, right))
        for k in range(middle.size):
            a, b, c, d = pre_at[k], pre_at[k + 1], suf_at[k], suf_at[k + 1]
            block = flat[start[k] : start[k + 1]].reshape(b - a, d - c)
            np.matmul(left[a:b], right[c:d].T, out=block)
        return flat[place]

    shared = None
    if distance.name in MAX_VARIANTS:
        kept = np.zeros(_radii(spec, distance, bounds), dtype=bool)
        for scale in scales:
            kept[_distance_terms(spec, distance, scale, bounds)[0][0]] = True
        union = np.flatnonzero(kept)
        # each radius's row in the plan's messages, -1 for one no scale keeps
        row = np.full(kept.size, -1)
        row[union] = np.arange(union.size)
        shared = {dtype: messages(hop, dtype, (union, None, None))
                  for hop, dtype in ((count, float), (amp, np.complex128))}

    def weighted(hop, dtype, terms, weights):
        """Forward (radius-weighted) and backward messages as (rows, radius x site) matrices."""
        if shared is None:
            fwd, bwd = messages(hop, dtype, terms)
            fwd *= weights[:, None]
        else:
            pick = row[terms[0]]
            if pick.min() < 0:
                raise ValueError("the scale keeps a radius the plan was not built for")
            if pick.size == union.size:
                pick = slice(None)
            fwd, bwd = shared[dtype]
            fwd, bwd = fwd[:, pick] * weights[:, None], bwd[:, pick]
        return fwd.reshape(len(pre), -1), bwd.reshape(len(suf), -1)

    def smeared(distance_scale, phases):
        terms, weights = _distance_terms(spec, distance, distance_scale, bounds)
        denom = join(*weighted(count, float, terms, weights))
        fwd, bwd = weighted(amp, np.complex128, terms, weights)
        out = []
        for phase in phases:
            if phase:
                plate = np.tile(np.where(middle >= 1, np.exp(-1j * phase), 1.0), weights.size)
                out.append(join(fwd * plate, bwd))
            else:
                out.append(join(fwd, bwd))
        return out, denom

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
    """(sites, smeared(distance_scale, phases)) for every scale of ``scales``.

    Every scale is checked, and the route chosen (admit_scales), before
    the one enumeration; ``transfer`` is the route admit_scales already
    chose for these scales, or None to admit here.  smeared returns the
    smeared sums at each phase and the shared denominators:
    transfer_plan's, or the dense pass's, which multiplies each tile of
    exp(-d), streamed from a GridPathSource, by every phase setting's
    amplitudes.  Each scale's pass runs when smeared is called, which
    reads the shared sites and plan only.
    """
    if transfer is None:
        transfer = admit_scales(spec, distance, scales)
    sites = enumerate_paths(spec)
    if transfer:
        return sites, transfer_plan(spec, sites, distance, scales)
    mask = upper_arm_mask(sites).astype(float)

    def dense(distance_scale, phases):
        amps = [lattice_ensemble(spec, sites, phase * mask if phase else None).amplitudes
                for phase in phases]
        return dense_smeared(amps, GridPathSource(sites, distance, spec.mass, distance_scale))

    return sites, dense


def run_lattice_experiment(
    spec: LatticeSpec,
    distance: DistanceSpec,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
    distance_scale: float = 1.0,
    arm_phase: float = 0.0,
) -> tuple[PathDistribution, np.ndarray]:
    """Path probabilities over the enumerated ensemble.

    ``weight`` maps the sites to per-path weights, as curvature_cutoff_weights
    and corridor_weights do, or is None for the plain postulate;
    ``distance_scale`` multiplies every pairwise distance (0 is the
    quantum limit); ``arm_phase`` is the setting of the upper-arm phase
    plate (upper_arm_mask), which must be finite.
    Returns (distribution, sites).
    """
    if not math.isfinite(arm_phase):
        raise SpecViolation(f"arm_phase must be finite, not {arm_phase!r}")
    sites, smeared = _passes(spec, distance, [distance_scale])
    (sums,), denom = smeared(distance_scale, [arm_phase])
    weights = None if weight is None else weight(sites)
    return distribution_from_sums(sums, denom, weights), sites


def _two_arm_visibility(w: np.ndarray, sums, denom) -> float:
    """|P+ - P-| / (P+ + P-) of the ``w``-weighted masses of the two phase settings' sums."""
    p_plus, p_minus = (float(np.sum(weighted_probabilities(s, denom, w))) for s in sums)
    return visibility(p_plus, p_minus)


def two_arm_sweep(spec: LatticeSpec, distance: DistanceSpec, scales, transfer=None):
    """cell(distance_scale) of the two-arm setup, for any scale of ``scales``.

    cell returns (visibility, block mass, distribution).  The visibility
    is |P+ - P-| / (P+ + P-) of the corridor-weighted masses at phase
    plate 0 (constructive) and pi (destructive); the distribution is the
    unweighted one run_lattice_experiment gives at arm phase 0, and the
    block mass its share on corridor paths.  Both settings run in one
    pass and share the denominators, as these do not depend on the
    amplitudes.  Every scale is checked before the one enumeration,
    whose plan (transfer_plan) serves every scale; cells only read it.
    A caller that has admitted the scales passes the route admit_scales
    returned as ``transfer``, and the spec is not admitted again.
    """
    sites, smeared = _passes(spec, distance, scales, transfer)
    w = corridor_weights(sites)

    def cell(distance_scale):
        sums, denom = smeared(distance_scale, (0.0, np.pi))
        dist = distribution_from_sums(sums[0], denom)
        return _two_arm_visibility(w, sums, denom), float(np.sum(dist.probs[w > 0])), dist

    return cell


def two_arm_visibility(
    spec: LatticeSpec,
    distance: DistanceSpec,
    distance_scale: float = 1.0,
) -> float:
    """Interference visibility |P+ - P-| / (P+ + P-) of the two-arm setup.

    P+/- are the unnormalized realizable-path masses at phase plate 0
    (constructive) and pi (destructive); the normalization constant is
    setting-dependent, so raw masses are the comparable quantity.
    """
    sites, smeared = _passes(spec, distance, [distance_scale])
    return _two_arm_visibility(corridor_weights(sites), *smeared(distance_scale, (0.0, np.pi)))
