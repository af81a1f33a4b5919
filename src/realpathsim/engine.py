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
  is the single ensemble; K=3 is the particle x screen composite.
* ``dense_smeared``, a dense route for any other distance.  It streams
  blocks of _DENSE_ROWS rows, either from an (N, N) distance matrix or
  from a ``GridPathSource`` that computes the distances of gridded paths
  block by block, and exponentiates and reduces each block once into the
  smeared sums of every amplitude vector and the shared denominators.
  Fed from grid paths, it never holds anything of size N x N.

The engine takes resolved inputs only: the step rim convention rides on
the DistanceSpec, and a weight is a per-path vector or None, resolved by
the model module that defines it.  Distances given as Python callables
are not accepted: build the matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import DistanceSpec, GridPathSource, index_distance_matrix
from .errors import AllZeroProbability, EmptyEnsemble
from .paths import PathEnsemble

_SUM_ATOL = 1e-9

# smearing weight exp(-log 2) of a pair at exactly the step distance D
RIM_WEIGHT = 0.5

# rows of exp(-d) held at once on the dense route; block edges at its
# multiples keep the E @ amps products, and so every output bit, fixed
_DENSE_ROWS = 512

# rows of distances computed and exponentiated at once inside a block,
# sized to stay in cache; any value gives the same bits
_TILE_ROWS = 32

# output entries of banded_smeared computed at once, sized to stay in
# cache; any value gives the same bits
_BAND_TILE = 1 << 15

# largest working set one dense pass may hold (see dense_tile_bytes):
# half the 2 GiB matrix limit, as a sweep runs one pass per worker thread
# (two at once on a 2-core host)
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
            half = 2.0 if distance.literal_log_half else RIM_WEIGHT
            return banded_smeared([amps], distance.D, half)
        distance = index_distance_matrix(distance, amps.size)
    (smeared,), denom = dense_smeared([amps], distance)
    return smeared, denom


def dense_tile_bytes(n: int) -> int:
    """Peak bytes one dense_smeared pass over n paths holds beyond its inputs.

    The complex exp(-d) block, 16 bytes per entry, plus one cache tile of
    distance temporaries and the O(n) outputs, bounded by 32 bytes per
    tile entry.  tracemalloc puts the tile share at 19 to 27 bytes per
    entry over the seven Galilean variants on 1 751 and 8 135 lattice
    paths.
    """
    return min(n, _DENSE_ROWS) * n * 16 + min(n, _TILE_ROWS) * n * 32


def dense_smeared(
    amplitudes: Sequence[np.ndarray], distance
) -> tuple[list[np.ndarray], np.ndarray]:
    """Smeared sums of each amplitude vector and their shared denominators.

    ``distance`` is an (N, N) matrix (np.inf allowed) or a GridPathSource
    over N paths.  Rows are read _DENSE_ROWS at a time and exponentiated
    _TILE_ROWS at a time into one complex block, which every amplitude
    vector then multiplies; the denominators are the block's row sums.
    """
    n = amplitudes[0].size
    if isinstance(distance, GridPathSource) and distance.n == n:
        def neg_rows(lo, hi):
            block = distance.rows(lo, hi)
            return np.negative(block, out=block)
    elif isinstance(distance, np.ndarray) and distance.shape == (n, n):
        def neg_rows(lo, hi):
            return np.negative(distance[lo:hi])
    else:
        raise TypeError(
            f"distance must be an ({n}, {n}) array or a GridPathSource over {n} paths"
        )

    smeared = [np.empty(n, dtype=np.complex128) for _ in amplitudes]
    denom = np.empty(n, dtype=float)
    # exp(-d) of one block as complex, the type E @ amps computes in; the
    # imaginary parts stay 0
    E = np.zeros((min(n, _DENSE_ROWS), n), dtype=np.complex128)
    for lo in range(0, n, _DENSE_ROWS):
        hi = min(lo + _DENSE_ROWS, n)
        for t in range(lo, hi, _TILE_ROWS):
            u = min(t + _TILE_ROWS, hi)
            tile = neg_rows(t, u)
            np.exp(tile, out=tile)
            denom[t:u] = tile.sum(axis=1)
            E.real[t - lo : u - lo] = tile
        for out, amps in zip(smeared, amplitudes):
            out[lo:hi] = E[: hi - lo] @ amps
    return smeared, denom


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

    The first component is taken _BAND_TILE output entries at a time:
    its window sums and counts for those rows are differenced, scaled and
    summed in cache, straight into the outputs; components 2..K keep
    whole windows.
    """
    first, rest = components[0], components[1:]
    n = first.size
    prefix, D1 = _prefix(first, D)
    rest_windows = [
        _windows(*_prefix(amps, D), amps.size, 0, amps.size) for amps in rest
    ]
    shape = (n, *(amps.size for amps in rest))
    smeared = np.empty(shape, dtype=np.result_type(*components, 0.0))
    denom = np.empty(shape, dtype=float)
    rows = max(1, _BAND_TILE // math.prod(shape[1:]))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # per kind (S<=, S<, counts<=, counts<), one factor per component
        s_le, s_lt, n_le, n_lt = zip(_windows(prefix, D1, n, lo, hi), *rest_windows)
        _rim_sum(s_le, s_lt, half, smeared[lo:hi])
        _rim_sum(n_le, n_lt, half, denom[lo:hi])
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


def _prefix(amps: np.ndarray, D: int) -> tuple[np.ndarray, int]:
    """Padded prefix sum of amps and the window radius clipped to n.

    prefix[D + j] is the sum of amps[:j] with j clamped to [0, n], so
    every window sum is the difference of two slices.  Any radius past n
    already covers every index.
    """
    n = amps.size
    D = min(D, n)
    prefix = np.zeros(n + 2 * D + 1, dtype=np.result_type(amps, 0.0))
    np.cumsum(amps, out=prefix[D + 1 : D + 1 + n])
    prefix[D + 1 + n :] = prefix[D + n]
    return prefix, D


def _windows(prefix: np.ndarray, D: int, n: int, lo: int, hi: int):
    """S<=, S<, counts<=, counts< for the rows lo..hi-1 of n indices.

    S<= sums the window |j-i| <= D and S< the window |j-i| < D, both
    clipped at the ends; ``prefix`` and ``D`` come from _prefix.
    """
    s_le = prefix[2 * D + 1 + lo : 2 * D + 1 + hi] - prefix[lo:hi]
    s_lt = prefix[2 * D + lo : 2 * D + hi] - prefix[1 + lo : 1 + hi]
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
