"""Catalog of path distance functions.

Two families:

* index distances on abstract path labels -- the step window distance
  (0 inside a window of half-width D, weight 1/2 exactly at D, infinite
  beyond) and its smooth cousin exp(|i-j|/D);
* geometric distances on Galilean polylines -- max separation, time-
  integrated L1/L2 separation, and a velocity-sensitive variant, each
  with optional mass weighting.

All distances return extended non-negative reals (np.inf allowed).  The
step distance is deliberately NOT a metric: it violates the triangle
inequality (0 + log2 + log2 < inf across a window boundary); the
geometric variants induced by norms are.

The step value at exactly |i-j| = D is log 2, so that the smearing weight
exp(-d) equals 1/2.  ``DistanceSpec(literal_log_half=True)`` switches to
log(1/2) (negative distance, weight 2) for comparison runs only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from .errors import EndpointMismatch, IncompatibleGrids, ModelTooLarge
from .paths import SpacetimePath

INDEX_VARIANTS = ("step", "exp_index")
GALILEAN_VARIANTS = (
    "max_sep",
    "mass_max_sep",
    "l1_time_integral",
    "l1_time_average",
    "mass_l1",
    "l2",
    "velocity_l1",
)

LOG2 = math.log(2.0)

_ENDPOINT_ATOL = 1e-9

# largest dense float64 distance matrix the package will build
MAX_MATRIX_BYTES = 2 << 30


def exp_index_distance(i: int, j: int, D: int) -> float:
    """Smooth index distance exp(|i-j|/D)."""
    return math.exp(abs(i - j) / D)


def weight(d: float) -> float:
    """Smearing weight exp(-d); +inf maps to exactly 0."""
    if d == math.inf:
        return 0.0
    return math.exp(-d)


@dataclass(frozen=True)
class DistanceSpec:
    """Named, parameterized distance function on path pairs.

    ``D`` is required for the index variants and refused for the others;
    ``mass`` overrides the path mass for the mass-weighted geometric
    variants (defaults to the mass stored on the first path).
    ``literal_log_half`` puts log(1/2) at the step rim |i-j| = D and is
    refused for every other distance; a run setting, not part of the JSON
    form.
    """

    name: str
    D: int | None = None
    mass: float | None = None
    literal_log_half: bool = False

    def __post_init__(self):
        if self.name not in INDEX_VARIANTS + GALILEAN_VARIANTS:
            raise ValueError(f"unknown distance name {self.name!r}")
        if self.literal_log_half and self.name != "step":
            raise ValueError(f"literal_log_half applies to the step distance only, not {self.name}")
        if self.name in INDEX_VARIANTS:
            if self.D is None or int(self.D) < 1:
                raise ValueError(f"{self.name} distance needs a positive integer D")
            object.__setattr__(self, "D", int(self.D))
        elif self.D is not None:
            raise ValueError(f"{self.name} distance takes no D")

    @property
    def is_index_based(self) -> bool:
        return self.name in INDEX_VARIANTS

    def to_json(self) -> str:
        out = {"name": self.name}
        if self.D is not None:
            out["D"] = self.D
        if self.mass is not None:
            out["mass"] = self.mass
        return json.dumps(out)

    @classmethod
    def from_json(cls, text: str) -> "DistanceSpec":
        data = json.loads(text)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "DistanceSpec":
        name = data.get("name")
        if name not in INDEX_VARIANTS + GALILEAN_VARIANTS:
            raise ValueError(f"unknown distance name {name!r}")
        return cls(
            name=name,
            D=data.get("D"),
            mass=data.get("mass"),
        )


def _common_grid(P: SpacetimePath, Q: SpacetimePath) -> np.ndarray:
    """Union time grid of two paths that share a span, else raise."""
    t0p, t1p = P.time_span()
    t0q, t1q = Q.time_span()
    if min(t1p, t1q) <= max(t0p, t0q):
        raise IncompatibleGrids(
            f"time ranges [{t0p},{t1p}] and [{t0q},{t1q}] do not overlap"
        )
    if abs(t0p - t0q) > _ENDPOINT_ATOL or abs(t1p - t1q) > _ENDPOINT_ATOL:
        raise EndpointMismatch("paths span different time intervals")
    grid = np.union1d(P.times, Q.times)
    return grid


def _check_endpoints(P: SpacetimePath, Q: SpacetimePath):
    if P.positions.shape[1] != Q.positions.shape[1]:
        raise EndpointMismatch("paths live in different spatial dimensions")
    if (
        np.max(np.abs(P.events[0] - Q.events[0])) > _ENDPOINT_ATOL
        or np.max(np.abs(P.events[-1] - Q.events[-1])) > _ENDPOINT_ATOL
    ):
        raise EndpointMismatch("paths do not share endpoints A, B")


def galilean_distance(P: SpacetimePath, Q: SpacetimePath, spec: DistanceSpec) -> float:
    """Geometric distance between two Galilean polylines.

    Paths are resampled onto their union time grid by linear interpolation
    (they are piecewise linear already, so this loses nothing).  Integrals
    use the trapezoid rule on that grid; derivatives are forward
    differences per segment.
    """
    if spec.is_index_based:
        raise ValueError("index distances do not apply to spacetime paths")
    grid = _common_grid(P, Q)   # IncompatibleGrids before endpoint checks
    _check_endpoints(P, Q)
    xp = P.position_at(grid)
    xq = Q.position_at(grid)
    gap = np.linalg.norm(xp - xq, axis=1)
    m = spec.mass if spec.mass is not None else P.mass

    name = spec.name
    if name == "max_sep":
        return float(np.max(gap))
    if name == "mass_max_sep":
        return float(m * np.max(gap))
    if name == "l1_time_integral":
        return float(_trapezoid(gap, grid))
    if name == "l1_time_average":
        T = grid[-1] - grid[0]
        return float(_trapezoid(gap, grid) / T)
    if name == "mass_l1":
        return float(m * _trapezoid(gap, grid))
    if name == "l2":
        return float(math.sqrt(_trapezoid(gap**2, grid)))
    if name == "velocity_l1":
        dt = np.diff(grid)
        vp = np.diff(xp, axis=0) / dt[:, None]
        vq = np.diff(xq, axis=0) / dt[:, None]
        dv = np.linalg.norm(vp - vq, axis=1)
        return float(np.sum(dv * dt))
    raise ValueError(f"unhandled variant {name!r}")


def admit_matrix(n: int):
    """Raise ModelTooLarge when an (n, n) float matrix passes MAX_MATRIX_BYTES."""
    if n * n * 8 > MAX_MATRIX_BYTES:
        raise ModelTooLarge(
            f"{n} paths need a {n * n * 8 / 2**30:.2f} GiB distance matrix, "
            f"above {MAX_MATRIX_BYTES / 2**30:.0f} GiB"
        )


def index_distance_matrix(spec: DistanceSpec, n: int) -> np.ndarray:
    """Dense (n, n) matrix of an index distance over labels 1..n.

    Raises ModelTooLarge, before allocating anything of size n x n, when
    the matrix would exceed MAX_MATRIX_BYTES.
    """
    if spec.name not in INDEX_VARIANTS:
        raise ValueError(f"{spec.name} is not an index distance")
    admit_matrix(n)
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if spec.name == "step":
        at = -LOG2 if spec.literal_log_half else LOG2
        return np.where(gaps < spec.D, 0.0, np.where(gaps > spec.D, np.inf, at))
    return np.exp(gaps / spec.D)


# narrowest signed integer dtypes tried for integer site differences
_INT_TILES = (np.int8, np.int16, np.int32, np.int64)

# rows per block when grid_distance_matrix stacks a full matrix
_MATRIX_ROWS = 512


class GridPathSource:
    """Pairwise geometric distances of scalar paths on one shared grid, by rows.

    ``positions`` is (n_paths, n_times) of 1-d coordinates; rows are
    resampled paths.  ``rows(lo, hi)`` computes the (hi - lo, n) block of
    distances from paths lo..hi-1 to every path, times ``scale``, so a
    caller can stream a distance matrix without ever holding n x n.
    Matches galilean_distance on every pair.

    The max and L1 reductions run one time step at a time into a block-
    sized accumulator; steps where all paths agree add nothing and are
    skipped.  The max variants difference integer positions (enumerated
    lattice sites) in the narrowest integer dtype that holds every step's
    spread.  Mass multiplies before ``scale``, as for a scaled matrix.
    """

    def __init__(
        self,
        positions: np.ndarray,
        times: np.ndarray,
        spec: DistanceSpec,
        mass: float = 1.0,
        scale: float = 1.0,
    ):
        if spec.is_index_based:
            raise ValueError("index distances do not apply to gridded paths")
        self.name = spec.name
        self.mass = spec.mass if spec.mass is not None else mass
        self.scale = float(scale)
        X = np.asarray(positions)
        if not (self.name in ("max_sep", "mass_max_sep") and np.issubdtype(X.dtype, np.integer)):
            X = X.astype(float)
        self.n = X.shape[0]
        t = np.asarray(times, dtype=float)

        # trapezoid weights for the shared grid
        w = np.zeros_like(t)
        dt = np.diff(t)
        w[:-1] += dt / 2.0
        w[1:] += dt / 2.0
        self._duration = t[-1] - t[0]

        if self.name == "l2":
            self._q = X**2 @ w
            self._Xw = X * w
            self._Xt = np.ascontiguousarray(X.T)
            return
        if self.name == "velocity_l1":
            base, seg_w = np.diff(X, axis=1) / dt, dt
        elif self.name in ("l1_time_integral", "l1_time_average", "mass_l1"):
            base, seg_w = X, w
        elif self.name in ("max_sep", "mass_max_sep"):
            base, seg_w = X, None
        else:
            raise ValueError(f"unhandled variant {self.name!r}")

        spans = np.zeros(base.shape[1], dtype=base.dtype)
        if self.n:
            spans = np.ptp(base, axis=0)
        self._dtype = base.dtype
        if np.issubdtype(base.dtype, np.integer):
            if self.n:
                base = base - base.min(axis=0)   # same differences, each step from 0
            widest = int(spans.max(initial=0))
            self._dtype = next(d for d in _INT_TILES if np.iinfo(d).max >= widest)
        self._steps = [
            (np.ascontiguousarray(base[:, k], dtype=self._dtype),
             None if seg_w is None else float(seg_w[k]))
            for k in np.flatnonzero(spans > 0)
        ]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Distances from paths lo..hi-1 to all n paths, as a new float array."""
        if self.name == "l2":
            twice_G = self._Xw[lo:hi] @ self._Xt
            twice_G *= 2.0
            d = self._q[lo:hi, None] + self._q[None, :]
            d -= twice_G
            d = np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        else:
            acc = np.zeros((hi - lo, self.n), dtype=self._dtype)
            diff = np.empty_like(acc)
            for col, w in self._steps:
                np.subtract(col[lo:hi, None], col[None, :], out=diff)
                np.abs(diff, out=diff)
                if w is None:
                    np.maximum(acc, diff, out=acc)
                else:
                    diff *= w
                    acc += diff
            d = acc.astype(float, copy=False)
        if self.name == "l1_time_average":
            d /= self._duration
        if self.name in ("mass_max_sep", "mass_l1"):
            d *= self.mass
        if self.scale != 1.0:
            d *= self.scale
        return d


def grid_distance_matrix(
    positions: np.ndarray,
    times: np.ndarray,
    spec: DistanceSpec,
    mass: float = 1.0,
) -> np.ndarray:
    """Dense (n, n) matrix of GridPathSource distances, stacked by row blocks.

    Raises ModelTooLarge, before allocating anything of size n x n, when
    the matrix would exceed MAX_MATRIX_BYTES.
    """
    n = np.shape(positions)[0]
    admit_matrix(n)
    source = GridPathSource(positions, times, spec, mass)
    out = np.empty((n, n), dtype=float)
    for lo in range(0, n, _MATRIX_ROWS):
        hi = min(lo + _MATRIX_ROWS, n)
        out[lo:hi] = source.rows(lo, hi)
    return out
