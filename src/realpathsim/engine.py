"""The path probability engine.

For an ensemble of N paths with unit amplitudes A_j and a distance d on
path pairs, each path gets the unnormalized probability

    w(P_i) * | sum_j A_j exp(-d(P_i, P_j)) |^2  /  sum_j exp(-d(P_i, P_j)),

i.e. the squared distance-smeared amplitude divided by the smearing
volume, optionally suppressed by a non-negative weight w.  The smearing
sum runs over the whole ensemble including Q = P itself.  Normalizing
over the ensemble gives the conditioned per-path distribution; summing
per endpoint group and normalizing across groups gives the unconditioned
final-state probabilities.

The smearing sum has two routes:

* ``banded_smeared``, a separable banded kernel for step distances over
  K index components combined by the max rule.  It needs only closed and
  open window sums per component (the weight at exactly D is 1/2).  K=1
  is the single ensemble; K=3 is the particle x screen composite.  One
  padded prefix sum serves every narrower window (``step_smeared``), so
  a sweep over the step width takes it once.
* ``dense_smeared``, a dense route for any other distance.  It streams
  cache-sized tiles of _TILE_ROWS rows, either from an (N, N) distance
  matrix or from a ``GridPathSource`` that computes the distances of
  gridded paths tile by tile, exponentiates each tile straight into one
  reused complex tile and reduces it there, once per amplitude vector,
  into the smeared sums and the shared denominators.  Fed from grid
  paths, it never holds anything of size N x N.

The engine takes resolved inputs only: the step rim convention rides on
the DistanceSpec, and a weight is a per-path vector or None, resolved by
the model module that defines it.  Distances given as Python callables
are not accepted: build the matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distances import DistanceSpec, GridPathSource, index_distance_matrix
from .errors import AllZeroProbability, EmptyEnsemble
from .paths import PathEnsemble

_SUM_ATOL = 1e-9

# smearing weight exp(-log 2) of a pair at exactly the step distance D
RIM_WEIGHT = 0.5

# rows of exp(-d) computed, exponentiated and multiplied at once on the
# dense route; any value gives the same bits (see _tile_edges).  Measured
# on 1 751 and 8 135 lattice paths (2-core host), 16 to 128 rows run
# alike when nothing else is busy; beside one busy process 64 beat 32,
# as each tile's product is one hand-off to the BLAS threads
_TILE_ROWS = 64

# output entries of banded_smeared computed at once, sized to stay in
# cache; any value gives the same bits
_BAND_TILE = 1 << 15

# largest working set one dense pass may hold (see dense_tile_bytes):
# half the 2 GiB matrix limit, as a sweep runs one pass per worker thread
# (two at once on a 2-core host).  The tile grows linearly in the path
# count: at the most paths the lattice admits it takes a third of this.
MAX_TILE_BYTES = 1 << 30

@dataclass(frozen=True)
class PathDistribution:
    """Normalized per-path probabilities plus the diagnostics behind them.

    probs[i] = norm_constant * weights[i] * |smeared[i]|^2 / denom[i]
    """

    probs: np.ndarray
    norm_constant: float
    smeared: np.ndarray
    denom: np.ndarray

    def __post_init__(self):
        if np.any(self.probs < 0):
            raise ValueError("negative probability")
        total = float(np.sum(self.probs))
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def n_paths(self) -> int:
        return int(self.probs.size)


def _resolve_weights(weights, n: int) -> np.ndarray | None:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    return w


def smeared_components(
    ensemble: PathEnsemble, distance
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path smeared amplitude and smearing volume (denominator).

    ``distance`` is a DistanceSpec (step gets the banded route, other
    index distances become a matrix), a dense (N, N) matrix with np.inf
    allowed, or a GridPathSource over the N paths.  Anything else raises
    TypeError.
    """
    amps = ensemble.amplitudes
    if isinstance(distance, DistanceSpec):
        if distance.name == "step":
            return step_smeared(_prefix(amps, distance.D), distance)
        distance = index_distance_matrix(distance, amps.size)
    (smeared,), denom = dense_smeared([amps], distance)
    return smeared, denom


def _tile_edges(n: int) -> list[int]:
    """Row edges of dense_smeared's tiles over n rows: _TILE_ROWS apart.

    A lone last row joins the tile before it: numpy computes a 1-row
    E @ amps by a dot call that sums in another order than the matrix-
    vector product of a taller tile, and would change that row's bits.
    Only n = 1 takes a 1-row product.
    """
    edges = [*range(0, n, _TILE_ROWS), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def dense_tile_bytes(n: int) -> int:
    """Peak bytes one dense_smeared pass over n paths holds beyond its inputs.

    The complex exp(-d) tile, 16 bytes per entry, plus the distance
    temporaries of one tile and the O(n) outputs, bounded by 32 bytes per
    tile entry.  tracemalloc puts the temporaries at 19 to 27 bytes per
    entry over the seven Galilean variants on 1 751 and 8 135 lattice
    paths.
    """
    rows = max(np.diff(_tile_edges(n)), default=0)
    return int(rows) * n * (16 + 32)


def dense_smeared(
    amplitudes: Sequence[np.ndarray], distance
) -> tuple[list[np.ndarray], np.ndarray]:
    """Smeared sums of each amplitude vector and their shared denominators.

    ``distance`` is an (N, N) matrix (np.inf allowed) or a GridPathSource
    over N paths.  Rows are taken one tile at a time (_tile_edges) and
    exponentiated into the real part of one reused complex tile, which
    every amplitude vector then multiplies; the denominators are the
    tile's row sums.
    """
    n = amplitudes[0].size
    if isinstance(distance, GridPathSource) and distance.n == n:
        def neg_rows(lo, hi):
            rows = distance.rows(lo, hi)
            return np.negative(rows, out=rows)
    elif isinstance(distance, np.ndarray) and distance.shape == (n, n):
        def neg_rows(lo, hi):
            return np.negative(distance[lo:hi])
    else:
        raise TypeError(
            f"distance must be an ({n}, {n}) array or a GridPathSource over {n} paths"
        )

    smeared = [np.empty(n, dtype=np.complex128) for _ in amplitudes]
    denom = np.empty(n, dtype=float)
    edges = _tile_edges(n)
    # exp(-d) of one tile as complex, the type E @ amps computes in; the
    # imaginary parts stay 0
    E = np.zeros((max(np.diff(edges), default=0), n), dtype=np.complex128)
    for lo, hi in zip(edges, edges[1:]):
        tile = E[: hi - lo]
        np.exp(neg_rows(lo, hi), out=tile.real)
        tile.real.sum(axis=1, out=denom[lo:hi])
        for out, amps in zip(smeared, amplitudes):
            out[lo:hi] = tile @ amps
    return smeared, denom


class Prefix(NamedTuple):
    """Prefix sums P(k), the sum of amps[:k], of n amplitudes.

    sums[origin + k] holds P(k) with k clamped to [0, n], so a window sum
    is the difference of two entries.  _prefix holds every k in
    [-pad, n + pad]; a slice of it, as a sweep cell's flipped setting
    takes, holds a shorter range and a smaller or negative origin.
    """

    sums: np.ndarray
    origin: int
    n: int


def banded_smeared(
    components: Sequence[np.ndarray], D: int, half: float = RIM_WEIGHT
) -> tuple[np.ndarray, np.ndarray]:
    """Smeared amplitude and volume under the max of step distances.

    Each component is an index family with its own amplitudes; a
    composite path picks one index per component and its amplitude is
    the product.  The pair weight exp(-max_c d_c) is 1 when every
    component gap is < D, ``half`` when every gap is <= D and one equals
    D, and 0 otherwise, so both sums factorize into per-component window
    sums S<= (|j-i| <= D) and S< (|j-i| < D):

        smeared = half * (x_c S<=_c) + (1 - half) * (x_c S<_c)

    and the same with window counts for the denominator.  Results have
    shape (n_1, ..., n_K).  K=1 is the single ensemble under the step
    distance.  ``half`` other than 1/2 (the literal log(1/2) step value
    gives 2) is exact only for K=1: with several components the weight
    at the rim then depends on how many gaps equal D.
    """
    first = components[0]
    return _banded(_prefix(first, D), D, half, 0, first.size, components[1:])


def step_smeared(
    prefix: Prefix, distance: DistanceSpec, lo: int = 0, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """banded_smeared's K=1 sums under a step distance, rows lo..hi-1 only.

    ``prefix`` comes from _prefix padded by at least distance.D, so one
    prefix serves every narrower step distance over the same amplitudes;
    or it holds at least the entries those rows read (see _windows).
    Rows outside lo..hi-1 are not computed.
    """
    half = 2.0 if distance.literal_log_half else RIM_WEIGHT
    return _banded(prefix, distance.D, half, lo, prefix.n if hi is None else hi)


def _banded(prefix: Prefix, D: int, half: float, lo: int, hi: int, rest=()):
    """The banded kernel: rows lo..hi-1 of the first component, whole rest.

    The first component is taken _BAND_TILE output entries at a time:
    its window sums and counts for those rows are differenced, scaled and
    summed in cache, straight into the outputs; components 2..K keep
    whole windows.
    """
    rest_windows = [_windows(_prefix(amps, D), D, 0, amps.size) for amps in rest]
    shape = (hi - lo, *(amps.size for amps in rest))
    smeared = np.empty(shape, dtype=np.result_type(prefix.sums, *rest))
    denom = np.empty(shape, dtype=float)
    rows = max(1, _BAND_TILE // math.prod(shape[1:]))
    for t in range(lo, hi, rows):
        u = min(t + rows, hi)
        # per kind (S<=, S<, counts<=, counts<), one factor per component
        s_le, s_lt, n_le, n_lt = zip(_windows(prefix, D, t, u), *rest_windows)
        _rim_sum(s_le, s_lt, half, smeared[t - lo : u - lo])
        _rim_sum(n_le, n_lt, half, denom[t - lo : u - lo])
    return smeared, denom


_outer = functools.partial(functools.reduce, np.multiply.outer)  # x_c v_c


def _rim_sum(le, lt, half: float, out: np.ndarray):
    """out = half * (x_c le_c) + (1 - half) * (x_c lt_c).

    Scaled in place: each product is a fresh array (K=1 returns the
    first component's own fresh window slice, never a shared one), and
    a *= b has the bits of a * b.
    """
    closed, open_ = _outer(le), _outer(lt)
    closed *= half
    open_ *= 1 - half
    np.add(closed, open_, out=out)


def _prefix(amps: np.ndarray, pad: int) -> Prefix:
    """Prefix sum of amps padded by ``pad`` entries each side, pad clipped to n.

    The left pad holds P(0) = 0 and the right pad copies P(n), so the
    windows of every radius D <= pad (any radius past n already covers
    every index) read it without bounds checks: one prefix serves them
    all, with the bits a prefix padded by D itself would give.
    """
    n = amps.size
    pad = min(pad, n)
    sums = np.zeros(n + 2 * pad + 1, dtype=np.result_type(amps, 0.0))
    np.cumsum(amps, out=sums[pad + 1 : pad + 1 + n])
    sums[pad + 1 + n :] = sums[pad + n]
    return Prefix(sums, pad, n)


def _windows(prefix: Prefix, D: int, lo: int, hi: int):
    """S<=, S<, counts<=, counts< for the rows lo..hi-1 of prefix.n indices.

    S<= sums the window |j-i| <= D and S< the window |j-i| < D, both
    clipped at the ends.  D is clipped to n first; the rows read P(k)
    for k in [lo - D, hi + D], which a _prefix padded by pad >= D holds
    for every row.
    """
    sums, o, n = prefix
    D = min(D, n)
    s_le = sums[o + lo + D + 1 : o + hi + D + 1] - sums[o + lo - D : o + hi - D]
    s_lt = sums[o + lo + D : o + hi + D] - sums[o + lo - D + 1 : o + hi - D + 1]
    return s_le, s_lt, _window_counts(n, D, lo, hi), _window_counts(n, D - 1, lo, hi)


def _window_counts(n: int, r: int, lo: int, hi: int) -> np.ndarray:
    """Number of j in [0, n) with |j-i| <= r, for each i in [lo, hi); r <= n.

    2r+1 away from the ends; only the indices whose window is clipped
    (i < r or i >= n-r) take the formula.
    """
    counts = np.full(hi - lo, 2.0 * r + 1)
    for a, b in ((lo, min(r, hi)), (max(n - r, r, lo), hi)):
        if a < b:
            edge = np.arange(a, b)
            counts[a - lo : b - lo] = (
                np.minimum(edge, r) + np.minimum(n - 1 - edge, r) + 1.0
            )
    return counts


def weighted_probabilities(
    smeared: np.ndarray, denom: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """w * |smeared|^2 / denom per path (0 where denom is 0), without C.

    ``weights`` is a resolved per-path vector, or None for the plain
    postulate.
    """
    # in place on one fresh array, with the bits of the expression
    # np.where(denom > 0, np.abs(smeared) ** 2 / denom, 0.0)
    unnorm = np.abs(smeared)
    unnorm **= 2
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(unnorm, denom, out=unnorm)
    unnorm[~(denom > 0)] = 0.0
    return unnorm if weights is None else weights * unnorm


def distribution_from_sums(
    smeared: np.ndarray, denom: np.ndarray, weights: np.ndarray | None = None
) -> PathDistribution:
    """Normalized distribution from smeared sums and denominators.

    Raises AllZeroProbability when every weighted smeared amplitude
    vanishes, since the postulate then defines no distribution.
    """
    unnorm = weighted_probabilities(smeared, denom, weights)
    total = float(np.sum(unnorm))
    if total <= 0.0:
        raise AllZeroProbability("all paths have zero probability weight")
    C = 1.0 / total
    unnorm *= C
    return PathDistribution(
        probs=unnorm, norm_constant=C, smeared=smeared, denom=denom
    )


def unnormalized_probabilities(
    ensemble: PathEnsemble, distance, weights=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unnormalized probs, smeared, denom) without the constant C."""
    smeared, denom = smeared_components(ensemble, distance)
    w = _resolve_weights(weights, ensemble.n_paths)
    return weighted_probabilities(smeared, denom, w), smeared, denom


def path_probabilities(
    ensemble: PathEnsemble, distance, weights=None
) -> PathDistribution:
    """Conditioned per-path distribution for one ensemble (endpoints fixed)."""
    smeared, denom = smeared_components(ensemble, distance)
    w = _resolve_weights(weights, ensemble.n_paths)
    return distribution_from_sums(smeared, denom, w)


def final_state_probabilities(
    ensembles: Sequence[PathEnsemble], distance, weights=None
) -> tuple[dict[str, float], PathDistribution]:
    """Unconditioned endpoint probabilities Prob(B_j | A).

    The ensembles are concatenated (the distance must be defined across
    the union index space; paths to different endpoints are typically
    infinitely distant) and normalized as one ensemble; an endpoint's
    probability is the sum over its group, so the group totals are
    normalized over the discrete final-state basis.  Returns the
    per-endpoint map and the per-path distribution over the union.
    """
    if not ensembles:
        raise EmptyEnsemble("no endpoint groups")
    union = PathEnsemble(np.concatenate([e.amplitudes for e in ensembles]))
    dist = path_probabilities(union, distance, weights)
    by_endpoint: dict[str, float] = {}
    offset = 0
    for e in ensembles:
        block = slice(offset, offset + e.n_paths)
        by_endpoint[e.endpoint_tag] = by_endpoint.get(e.endpoint_tag, 0.0) + float(
            np.sum(dist.probs[block])
        )
        offset += e.n_paths
    return by_endpoint, dist
