"""Catalog of path distance functions.

Two families:

* index distances on abstract path labels -- the step window distance
  (0 inside a window of half-width D, weight 1/2 exactly at D, infinite
  beyond) and its smooth cousin exp(|i-j|/D);
* geometric distances between Galilean paths sampled on the unit time
  grid -- max separation, time-integrated L1/L2 separation, and a
  velocity-sensitive variant, each with optional mass weighting --
  served by rows from GridPathSource to the dense pass.  The lattice
  smears the max and L1 families step by step over time instead
  (lattice.transfer_plan) where that costs less than pairing paths.

All distances return extended non-negative reals (np.inf allowed).  The
step distance is deliberately NOT a metric: it violates the triangle
inequality (0 + log2 + log2 < inf across a window boundary); the
geometric variants induced by norms are.

The step value at exactly |i-j| = D is log 2, so that the smearing weight
exp(-d) equals 1/2.  ``DistanceSpec(literal_log_half=True)`` switches to
log(1/2) (negative distance, weight 2) for comparison runs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelTooLarge, integer

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

# the Galilean variants that read a mass
MASS_VARIANTS = ("mass_max_sep", "mass_l1")

# largest dense float64 distance matrix the package will build
MAX_MATRIX_BYTES = 2 << 30

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class DistanceSpec:
    """Named, parameterized distance function on path pairs.

    ``D`` is required for the index variants and refused for the others.
    The mass-weighted geometric variants read the mass of the paths (the
    lattice mass); a distance carries none of its own.
    ``literal_log_half`` puts log(1/2) at the step rim |i-j| = D and is
    refused for every other distance; a run setting, not part of the
    config's distance object.
    """

    name: str
    D: int | None = None
    literal_log_half: bool = False

    def __post_init__(self):
        if self.name not in INDEX_VARIANTS + GALILEAN_VARIANTS:
            raise ValueError(f"unknown distance name {self.name!r}")
        if self.literal_log_half and self.name != "step":
            raise ValueError(f"literal_log_half applies to the step distance only, not {self.name}")
        if self.name in INDEX_VARIANTS:
            if self.D is None or integer(self.D, "D") < 1:
                raise ValueError(f"{self.name} distance needs a positive integer D")
            object.__setattr__(self, "D", int(self.D))
        elif self.D is not None:
            raise ValueError(f"{self.name} distance takes no D")

    @property
    def is_index_based(self) -> bool:
        return self.name in INDEX_VARIANTS


def admit_matrix(n: int):
    """Raise ModelTooLarge when an (n, n) float matrix passes MAX_MATRIX_BYTES."""
    if n * n * 8 > MAX_MATRIX_BYTES:
        raise ModelTooLarge(
            f"{n} paths need a {n * n * 8 / 2**30:.2f} GiB distance matrix, "
            f"above {MAX_MATRIX_BYTES / 2**30:.0f} GiB"
        )


# narrowest signed integer dtypes tried for integer site differences
_INT_TILES = (np.int8, np.int16, np.int32, np.int64)

# rows per block when grid_distance_matrix stacks a full matrix
_MATRIX_ROWS = 512


def unit_trapezoid(n_times: int) -> np.ndarray:
    """Trapezoid weights 1/2, 1, ..., 1, 1/2 of the unit time grid 0..n_times-1."""
    w = np.ones(n_times)
    w[[0, -1]] = 0.5
    return w


class GridPathSource:
    """Pairwise geometric distances of scalar paths on the unit time grid, by rows.

    ``positions`` is (n_paths, n_times) of 1-d coordinates at the times
    0, 1, ..., n_times - 1 (at least two), as lattice paths are sampled.
    ``neg_rows(lo, hi)`` computes the (hi - lo, n) block of negated
    distances from paths lo..hi-1 to every path, times ``scale``, the
    exponent the dense pass takes exp of, so a caller can stream a
    distance matrix without ever holding n x n.

    The max and L1 reductions run one time step at a time into a block-
    sized accumulator; steps where all paths agree add nothing and are
    skipped.  The max variants difference integer positions (enumerated
    lattice sites) in the narrowest integer dtype that holds every step's
    spread.  ``mass`` multiplies the mass-weighted variants before
    ``scale``, as for a scaled matrix.
    """

    def __init__(
        self,
        positions: np.ndarray,
        spec: DistanceSpec,
        mass: float = 1.0,
        scale: float = 1.0,
    ):
        if spec.is_index_based:
            raise ValueError("index distances do not apply to gridded paths")
        self.name = spec.name
        self.mass = mass
        self.scale = float(scale)
        X = np.asarray(positions)
        if not (self.name in ("max_sep", "mass_max_sep") and np.issubdtype(X.dtype, np.integer)):
            X = X.astype(float)
        self.n, n_times = X.shape
        self._duration = float(n_times - 1)

        if self.name == "l2":
            w = unit_trapezoid(n_times)
            self._q = X**2 @ w
            self._Xw = X * w
            self._Xt = np.ascontiguousarray(X.T)
            return
        if self.name == "velocity_l1":
            base, seg_w = np.diff(X, axis=1), np.ones(n_times - 1)
        elif self.name in ("l1_time_integral", "l1_time_average", "mass_l1"):
            base, seg_w = X, unit_trapezoid(n_times)
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

    def neg_rows(self, lo: int, hi: int) -> np.ndarray:
        """The negated distances of rows lo..hi-1, as a new float array.

        The max and L1 variants negate their accumulator as it becomes the
        float result, in one pass with the integer-to-float conversion of
        lattice sites.  Duration, mass and scale then act on -d, which
        gives every nonzero entry the bits of a negation at the end: a
        product's or quotient's sign does not change its magnitude.  A
        zero may come out -0.0 where the negation gives 0.0, or the other
        way round; exp takes both to 1.
        """
        if self.name == "l2":
            twice_G = self._Xw[lo:hi] @ self._Xt
            twice_G *= 2.0
            d = self._q[lo:hi, None] + self._q[None, :]
            d -= twice_G
            d = np.sqrt(np.maximum(d, 0.0, out=d), out=d)
            np.negative(d, out=d)
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
            d = np.negative(acc, out=acc if acc.dtype == float else np.empty(acc.shape))
        if self.name == "l1_time_average":
            d /= self._duration
        if self.name in MASS_VARIANTS:
            # a product past the float range is held at its largest float,
            # as lattice._distance_terms holds the scale, so that a scale
            # of 0 still takes it to -0.0, not NaN
            with np.errstate(over="ignore"):
                d *= self.mass
            np.maximum(d, -_FLOAT_MAX, out=d)
        if self.scale != 1.0:
            with np.errstate(over="ignore"):  # -inf past the float range: exp gives 0
                d *= self.scale
        return d


def grid_distance_matrix(
    positions: np.ndarray, spec: DistanceSpec, mass: float = 1.0
) -> np.ndarray:
    """Dense (n, n) matrix of GridPathSource distances, stacked by row blocks.

    Each block is 0.0 - neg_rows: the negation of every nonzero entry,
    and +0.0 for a zero of either sign.
    Raises ModelTooLarge, before allocating anything of size n x n, when
    the matrix would exceed MAX_MATRIX_BYTES.
    """
    n = np.shape(positions)[0]
    admit_matrix(n)
    source = GridPathSource(positions, spec, mass)
    out = np.empty((n, n), dtype=float)
    for lo in range(0, n, _MATRIX_ROWS):
        hi = min(lo + _MATRIX_ROWS, n)
        np.subtract(0.0, source.neg_rows(lo, hi), out=out[lo:hi])
    return out
