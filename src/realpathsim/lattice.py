"""Exhaustive 1+1D lattice free-particle path integral.

Sites are integers -X..X, time steps are unit (dt = 1), and a path moves
at most ``hop`` sites per step.  Every admissible site sequence from the
start site (t=0) to the end site (t=T) is enumerated, in depth-first
(lexicographic) order, with amplitude exp(-i S) for the discrete free
action S = sum m (dx)^2 / 2.
A transfer-matrix pass computes the total amplitude independently of the
enumeration, which is the correctness oracle for both.

Enumerated ensembles feed the probability engine with any geometric
distance; weight functions carve experiments out of the ensemble:
``curvature_cutoff`` suppresses rapidly-varying paths (second difference
above a threshold), ``corridor`` keeps only paths that stay on one side
of a two-arm interferometer (all interior sites >= margin or all
<= -margin).  A phase plate in the upper arm supplies the constructive /
destructive settings interference visibility is measured between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import DistanceSpec, GridPathSource
from .engine import (
    PathDistribution,
    dense_smeared,
    distribution_from_sums,
    path_probabilities,
    weighted_probabilities,
)
from .errors import ModelTooLarge, NoPaths, SpecViolation, TooManyPaths
from .paths import PathEnsemble

ENUMERATION_BOUND = 10**7

# most site updates (steps x live hop offsets x sites) transfer_amplitude
# makes; its two site vectors then stay within 1 GiB
TRANSFER_BOUND = 10**8

# most paths one lattice run admits.  The dense pass holds one tile of
# rows, so time, not memory, bounds it: n^2 exponentials, 1.4e10 here,
# about 30 s at the 2.2 ns per pair a max_sep pass takes over 8 135 and
# 38 131 paths on two workers of a 2-core host (3.4 to 4.1 ns on one,
# about 50 s).  The value is the count admitted when the pass held
# 512 rows of exp(-d) against a 1 GiB budget, 2**30 // (512*16 + 32*32),
# kept so that the same specs run.
DENSE_PATH_BOUND = 116_508


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
    spec: LatticeSpec, sites: np.ndarray | None = None, extra_phase: np.ndarray | None = None
) -> tuple[PathEnsemble, np.ndarray]:
    """(ensemble, sites) with amplitudes exp(-i S) (optionally shifted)."""
    if sites is None:
        sites = enumerate_paths(spec)
    phases = path_actions(sites, spec.mass)
    if extra_phase is not None:
        phases = phases + extra_phase
    return PathEnsemble(np.exp(-1j * phases)), sites


def path_count(spec: LatticeSpec) -> int:
    """Exact number of enumerated paths, without enumerating them.

    Counts paths into each site step by step, over only the sites a
    complete path can occupy at that step (an interval no wider than the
    path count), so the cost is bounded for any hop and extent.
    """
    h = spec.hop
    counts = np.ones(1, dtype=np.int64)
    for lo, hi, new_lo, new_hi in _site_steps(spec):
        # paths into site x come from sites x-h..x+h of the last step
        prefix = np.concatenate([[0], np.cumsum(counts)])
        x = np.arange(new_lo, new_hi + 1)
        counts = (prefix[np.clip(x + h - lo + 1, 0, counts.size)]
                  - prefix[np.clip(x - h - lo, 0, counts.size)])
    return int(counts.sum())


def admit(spec: LatticeSpec) -> int:
    """Path count of ``spec``, checked against DENSE_PATH_BOUND.

    Raises ModelTooLarge, before anything is enumerated, when the spec
    has more paths than the dense pass is allowed to take.
    """
    n = path_count(spec)
    if n > DENSE_PATH_BOUND:
        raise ModelTooLarge(
            f"{n} paths need {float(n) ** 2:.3g} exponentials in the dense pass, "
            f"above the bound of {DENSE_PATH_BOUND} paths"
        )
    return n


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


def resolve_weight(weight: dict | None, sites: np.ndarray) -> np.ndarray | None:
    """Per-path weight vector of a weight object, None for the plain postulate.

    ``weight`` is {"name": ..., "threshold": ..., "margin": ...} as in a
    config, or None (uniform).  An unknown name raises ValueError.
    """
    weight = weight or {}
    name = weight.get("name", "uniform")
    if name == "uniform":
        return None
    if name == "curvature_cutoff":
        return curvature_cutoff_weights(sites, float(weight.get("threshold", 1.0)))
    if name == "corridor":
        return corridor_weights(sites, int(weight.get("margin", 1)))
    raise ValueError(f"unknown weight function {name!r}")


def _grid_source(
    spec: LatticeSpec, sites: np.ndarray, distance: DistanceSpec, distance_scale: float
) -> GridPathSource:
    """Distances between enumerated paths, served to the engine by row block."""
    times = np.arange(spec.steps + 1, dtype=float)
    return GridPathSource(sites, times, distance, mass=spec.mass, scale=distance_scale)


def run_lattice_experiment(
    spec: LatticeSpec,
    distance: DistanceSpec,
    weight: dict | None = None,
    distance_scale: float = 1.0,
    arm_phase: float = 0.0,
    workers: int = 1,
) -> tuple[PathDistribution, np.ndarray]:
    """Path probabilities over the enumerated ensemble.

    ``weight`` is a weight object for resolve_weight; ``distance_scale``
    multiplies every pairwise distance (0 is the quantum limit);
    ``arm_phase`` is the setting of the upper-arm phase plate
    (upper_arm_mask); ``workers`` threads share the dense pass, with the
    bits of one.
    Returns (distribution, sites).
    """
    admit(spec)
    sites = enumerate_paths(spec)
    w = resolve_weight(weight, sites)
    extra = None
    if arm_phase != 0.0:
        extra = arm_phase * upper_arm_mask(sites).astype(float)
    ensemble, _ = lattice_ensemble(spec, sites, extra)
    source = _grid_source(spec, sites, distance, distance_scale)
    return path_probabilities(ensemble, source, weights=w, workers=workers), sites


def _two_arm_pass(spec, distance, distance_scale):
    """(visibility, sites, phase-0 smeared sums, denominators) in one pass.

    One enumeration and one dense pass carry both phase plate settings,
    0 (constructive) and pi (destructive); the denominators do not
    depend on the amplitudes, so the two settings share them.
    """
    admit(spec)
    sites = enumerate_paths(spec)
    mask = upper_arm_mask(sites).astype(float)
    amps = [lattice_ensemble(spec, sites, phase * mask)[0].amplitudes
            for phase in (0.0, np.pi)]
    smeared, denom = dense_smeared(amps, _grid_source(spec, sites, distance, distance_scale))
    w = corridor_weights(sites)
    p_plus, p_minus = (float(np.sum(weighted_probabilities(s, denom, w))) for s in smeared)
    vis = 0.0 if p_plus + p_minus == 0.0 else abs(p_plus - p_minus) / (p_plus + p_minus)
    return vis, sites, smeared[0], denom


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
    return _two_arm_pass(spec, distance, distance_scale)[0]


def two_arm_experiment(
    spec: LatticeSpec,
    distance: DistanceSpec,
    distance_scale: float = 1.0,
) -> tuple[float, PathDistribution, np.ndarray]:
    """(visibility, distribution, sites) from one enumeration and one pass.

    The visibility is two_arm_visibility's; the distribution is the
    unweighted one run_lattice_experiment gives at arm phase 0, which the
    phase-0 smeared sums and the shared denominators already are.
    """
    vis, sites, smeared, denom = _two_arm_pass(spec, distance, distance_scale)
    return vis, distribution_from_sums(smeared, denom), sites
