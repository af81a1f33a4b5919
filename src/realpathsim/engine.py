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

* ``index_smeared``, a banded kernel for the index distances.  An index
  kernel only falls with the gap, so it is a non-negative sum of step
  windows (``kernel_windows``): step is the windows D-1 and D, exp_index
  one window per radius until exp(-d) is 0.0.  The sums are weighted
  sums of window sums and counts from one padded prefix sum, which
  serves every narrower kernel; ``index_tiles`` yields them a tile of
  rows at a time.  Between beams a prefix is 2-periodic, and a row whose
  windows read only such entries has the bits of the row two before it:
  ``CompactPrefix`` holds such a prefix without its n entries, and its
  ``rows`` method gives the rows a radius must compute; ``CompactRows``
  holds a sweep cell's rows and their total with np.sum's bits over
  all n, and ``distinct_rows`` gives a family's distinct rows and their
  repeats, which the screen model multiplies over its three families.  The
  kernel works in the amplitudes' dtype: real amplitudes (a zero-phase
  toy model) keep the prefix, tiles and sums in float64, with the bits
  complex128 gives.
* ``dense_smeared``, a dense route for the geometric distances.  It
  streams cache-sized tiles of rows, from an (N, N) distance matrix or
  from a ``GridPathSource`` that computes the negated distances of
  gridded paths tile by tile, exponentiates each tile into a reused
  complex tile and reduces it there, once per amplitude vector, into the
  smeared sums and the shared denominators, on the calling thread.  Fed
  from grid paths, it never holds anything of size N x N.

The engine takes resolved inputs only: the step rim convention rides on
the DistanceSpec, and a weight is a per-path vector or None, resolved by
the model module that defines it; it enters only through
distribution_from_sums and weighted_probabilities.  Distances given as
Python callables are not accepted: build the matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distances import DistanceSpec, GridPathSource
from .errors import AllZeroProbability, EmptyEnsemble, ModelTooLarge
from .paths import PathEnsemble

_SUM_ATOL = 1e-9

# rows of exp(-d) one dense pass holds at once; any count gives the same
# bits (see _tile_edges).  Measured on 8 135 lattice paths (2-core host,
# OpenBLAS at one thread), a pass takes 0.16 to 0.18 s from 16 to 128 rows
_TILE_ROWS = 64

# rows of index_tiles computed at once, sized to stay in cache; any
# value gives the same bits
_BAND_TILE = 1 << 15

# numpy's pairwise float64 sum adds a run of at most this many entries
# with 8 accumulators and splits a longer one (CompactRows.sum)
_PAIRWISE_BLOCK = 128

# most window rows (paths x kernel radii) a banded pass admits; time, not
# memory, bounds it: about 25 s at the 4.7 to 5.2 ns per row and radius
# exp_index took on 10^6 paths at D = 50 and 16 384 at D = 10^7 (one core
# of a 2-core host); the n x n matrix admitted at most 16 384 x 16 385
BANDED_BOUND = 5 * 10**9

# prefix entries a CompactPrefix window first takes past its span, doubled
# until it settles; any value gives the same bits
_SETTLE_CHUNK = 64

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
        check_probabilities(self.probs)

    @property
    def n_paths(self) -> int:
        return int(self.probs.size)


def check_probabilities(probs):
    """Raise ValueError unless probs are non-negative and sum to 1 within _SUM_ATOL.

    ``probs`` is an array, totalled by np.sum, or CompactRows, whose rows
    outside its ranges repeat rows inside them, totalled by
    CompactRows.total: each value times how often it repeats, not
    np.sum's bits, which only C (CompactRows.sum) needs.  The order of
    summation moves the total by far less than _SUM_ATOL.
    """
    compact = isinstance(probs, CompactRows)
    if any(np.any(values < 0) for values in (probs.values if compact else [probs])):
        raise ValueError("negative probability")
    total = probs.total() if compact else float(np.sum(probs))
    if not abs(total - 1.0) <= _SUM_ATOL:  # a NaN sum fails too
        raise ValueError(f"probabilities sum to {total}, not 1")


def smeared_components(ensemble: PathEnsemble, distance) -> tuple[np.ndarray, np.ndarray]:
    """Per-path smeared amplitude and smearing volume (denominator).

    ``distance`` is a DistanceSpec of an index distance, which takes the
    banded route (kernel_windows refuses the others), a dense (N, N)
    matrix with np.inf allowed, or a GridPathSource over the N paths.
    Anything else raises TypeError.
    """
    amps = ensemble.amplitudes
    if isinstance(distance, DistanceSpec):
        windows = kernel_windows(distance, amps.size)
        return index_smeared(prefix_sum(amps, windows.radii[-1]), windows)
    (smeared,), denom = dense_smeared([amps], distance)
    return smeared, denom


def _tile_edges(n: int, rows: int) -> list[int]:
    """Row edges of dense_smeared's tiles over n rows: ``rows`` apart.

    A lone last row joins the tile before it: numpy computes a 1-row
    E @ amps by a dot call that sums in another order than the matrix-
    vector product of a taller tile, and would change that row's bits.
    Only n = 1 takes a 1-row product.
    """
    edges = [*range(0, n, rows), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def dense_smeared(
    amplitudes: Sequence[np.ndarray], distance
) -> tuple[list[np.ndarray], np.ndarray]:
    """Smeared sums of each amplitude vector and their shared denominators.

    ``distance`` is an (N, N) matrix (np.inf allowed) or a GridPathSource
    over N paths.  Rows are taken one tile at a time (_tile_edges) and
    exponentiated into the real part of a reused complex tile, which
    every amplitude vector then multiplies; the denominators are the
    tile's row sums.
    """
    n = amplitudes[0].size
    if isinstance(distance, GridPathSource) and distance.n == n:
        neg_rows = distance.neg_rows
    elif isinstance(distance, np.ndarray) and distance.shape == (n, n):
        def neg_rows(lo, hi):
            return np.negative(distance[lo:hi])
    else:
        raise TypeError(
            f"distance must be an ({n}, {n}) array or a GridPathSource over {n} paths"
        )

    smeared = [np.empty(n, dtype=np.complex128) for _ in amplitudes]
    denom = np.empty(n, dtype=float)

    edges = _tile_edges(n, _TILE_ROWS)
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
    is the difference of two entries.  prefix_sum holds every k in
    [-pad, n + pad]; CompactPrefix.window a shorter range, with a smaller
    or negative origin.
    """

    sums: np.ndarray
    origin: int
    n: int


class Windows(NamedTuple):
    """An index kernel k(g) = sum of weights[m] over radii[m] >= g, radii ascending."""

    radii: Sequence[int]
    weights: Sequence[float]


def kernel_windows(distance: DistanceSpec, n: int) -> Windows:
    """The step windows of an index distance's kernel over n paths.

    step is the windows D-1 and D with weights 1 - w and w, w the rim
    weight (1/2, or 2 at the literal rim).  exp_index, whose kernel
    k(g) = exp(-exp(g/D)) only falls with g, is the radii 0, 1, ..., R
    with c_r = k(r) - k(r+1), taken through expm1 so that the difference
    does not cancel, and c_R = k(R).  R = min(ceil(D ln 746), n): past
    D ln 746 the kernel is 0.0 in float64, and past n - 1 no two paths
    are apart.  Raises ValueError off the index distances, and
    ModelTooLarge, before any weight, past BANDED_BOUND window rows.
    """
    if not distance.is_index_based:
        raise ValueError(f"{distance.name} is not an index distance")
    D = distance.D
    step = distance.name == "step"
    radii = (D - 1, D) if step else range(min(math.ceil(D * math.log(746.0)), n) + 1)
    if n * len(radii) > BANDED_BOUND:
        raise ModelTooLarge(f"{n} paths under {distance.name} with D={D} take "
                            f"{n * len(radii):.3g} window rows, above {BANDED_BOUND:.0e}")
    if step:
        half = 2.0 if distance.literal_log_half else 0.5  # exp(-log 2) at D
        return Windows(radii, (1 - half, half))
    grow = np.exp(np.arange(len(radii), dtype=float) / D)  # exp(r/D), as the matrix had
    k = np.exp(-grow)
    # k(r) - k(r+1) = -k(r) expm1(-(exp((r+1)/D) - exp(r/D)))
    weights = -k * np.expm1(-grow * math.expm1(1.0 / D))
    weights[-1] = k[-1]
    return Windows(radii, weights.tolist())


def index_smeared(prefix: Prefix, windows: Windows, lo=0, hi=None):
    """The banded kernel over rows lo..hi-1: the tiles of index_tiles, copied into arrays."""
    hi = prefix.n if hi is None else hi
    smeared = np.empty(hi - lo, dtype=prefix.sums.dtype)
    denom = np.empty(hi - lo, dtype=float)
    for rows, tile_smeared, tile_denom in index_tiles(prefix, windows, lo, hi):
        out = slice(rows.start - lo, rows.stop - lo)
        smeared[out], denom[out] = tile_smeared, tile_denom
    return smeared, denom


def index_tiles(prefix: Prefix, windows: Windows, lo=0, hi=None):
    """Yield (rows, smeared, denom) of the banded kernel, one tile at a time.

    ``prefix`` is prefix_sum padded by at least windows.radii[-1], or holds
    the entries rows lo..hi-1 read (CompactPrefix.window).
    ``rows`` is a slice of at most _BAND_TILE rows; each radius's window
    sums, in a reused buffer, and counts are scaled in place and added in
    cache into two tile buffers.  Those buffers are reused by the next
    tile: use or copy a tile before asking for the next.  Every row takes
    the same operations in the same order whatever the tiling, so the bits
    do not depend on it.
    """
    radii, weights = windows
    hi = prefix.n if hi is None else hi
    # whole tiles, however few rows are asked: buffers of one size keep a
    # sweep cell's many short ranges from fragmenting the heap (m2_sweep
    # peak RSS 62.5 MiB, against 67.5 sized to the rows; 2-core host)
    window = np.empty(_BAND_TILE, dtype=prefix.sums.dtype)
    smeared = np.empty(_BAND_TILE, dtype=prefix.sums.dtype)
    denom = np.empty(_BAND_TILE, dtype=float)
    for t in range(lo, hi, _BAND_TILE):
        u = min(t + _BAND_TILE, hi)
        out_smeared, out_denom = smeared[: u - t], denom[: u - t]
        for m, (r, c) in enumerate(zip(radii, weights)):
            for term, out in zip(_windows(prefix, r, t, u, window[: u - t]), (out_smeared, out_denom)):
                if m == 0:
                    np.multiply(term, c, out=out)
                else:
                    term *= c
                    out += term
        yield slice(t, u), out_smeared, out_denom


def prefix_sum(amps: np.ndarray, pad: int) -> Prefix:
    """Prefix sum of amps padded by ``pad`` entries each side, pad clipped to n.

    The left pad holds P(0) = 0 and the right pad copies P(n), so the
    windows of every radius r <= pad (any radius past n already covers
    every index) read it without bounds checks: one prefix serves them
    all, with the bits a prefix padded by r itself would give.
    """
    n = amps.size
    pad = min(pad, n)
    sums = np.zeros(n + 2 * pad + 1, dtype=np.result_type(amps, 0.0))
    np.cumsum(amps, out=sums[pad + 1 : pad + 1 + n])
    sums[pad + 1 + n :] = sums[pad + n]
    return Prefix(sums, pad, n)


class CompactRows:
    """n rows held as computed ranges and the 2-periodic stretches between them.

    ``ranges`` are ascending disjoint (start, values) pairs, the first
    starting at row 0: values holds rows start..start+len(values)-1.
    Every row outside the ranges equals the row two before it, as
    CompactPrefix.rows gives them, so the stretch after a range repeats
    its last two values; a range a stretch follows holds at least two.
    Two totals: ``sum`` has np.sum's bits over the n rows, by walking
    numpy's pairwise tree, and serves C; ``total`` multiplies each
    stretch's values by their repeats, and serves check_probabilities.
    """

    def __init__(self, n: int, ranges):
        self.n = n
        self.values = [values for _, values in ranges]
        # range k is rows [edges[2k], edges[2k+1]), the stretch after it
        # [edges[2k+1], edges[2k+2])
        self.edges = [edge for start, values in ranges for edge in (start, start + values.size)] + [n]
        stretches = zip(self.edges[1::2], self.edges[2::2], self.values)
        if self.edges[0] != 0 or any(b > a and values.size < 2 for a, b, values in stretches):
            raise ValueError("ranges must start at row 0, and hold two rows before a stretch")

    def take(self, lo: int, hi: int, out=None) -> np.ndarray:
        """Rows lo..hi-1, into ``out`` when given, else as a new array."""
        out = np.empty(hi - lo, dtype=self.values[0].dtype) if out is None else out
        edges = self.edges
        j = bisect.bisect_right(edges, lo) - 1
        while j + 1 < len(edges) and edges[j] < hi:
            k, stretch = divmod(j, 2)
            a, b = max(lo, edges[j]), min(hi, edges[j + 1])
            if a < b and stretch:
                pair = self.values[k][-2:]
                p = (a - edges[j]) % 2  # row a repeats pair[p]
                out[a - lo : b - lo : 2], out[a - lo + 1 : b - lo : 2] = pair[p], pair[1 - p]
            elif a < b:
                out[a - lo : b - lo] = self.values[k][a - edges[j] : b - edges[j]]
            j += 1
        return out

    def sum(self) -> float:
        """np.sum of the n rows, with its bits, from the ranges alone.

        np.sum adds float64 by numpy's pairwise sum: a tree whose leaves
        are runs of at most _PAIRWISE_BLOCK entries and which splits a
        longer run at half its length rounded down to a multiple of 8.  A
        subtree inside one range is np.add.reduce of its slice.  One
        inside a stretch depends only on the stretch, the parity of its
        first row and its length, and is taken once.  One across an edge
        is split further, down to a leaf from take.  np.add.reduce adds
        each subtree to 0.0, as np.sum adds the whole tree: that only
        turns a -0.0 sum into +0.0, on which no sum of nonzero terms
        depends.
        """
        edges, memo = self.edges, {}

        def tree(lo, n):
            j = bisect.bisect_right(edges, lo) - 1
            inside = lo + n <= edges[j + 1]
            if inside and j % 2 == 0:
                start = edges[j]
                return float(np.add.reduce(self.values[j // 2][lo - start : lo - start + n]))
            key = (j, (lo - edges[j]) % 2, n) if inside else None
            if key in memo:
                return memo[key]
            if n <= _PAIRWISE_BLOCK:
                total = float(np.add.reduce(self.take(lo, lo + n)))
            else:
                half = n // 2 - n // 2 % 8
                total = tree(lo, half) + tree(lo + half, n - half)
            if inside:
                memo[key] = total
            return total

        return tree(0, self.n)

    def total(self) -> float:
        """The sum of the n rows, each distinct value times its repeats: not np.sum's bits.

        np.add.reduce of each range, plus each stretch's two values times
        how often each repeats: in a stretch of length L the first row
        repeats values[-2], so it counts (L+1)//2 times and values[-1]
        L//2 times.  A value repeated 0 times is not added, so that an
        inf there does not make the total NaN.
        """
        total = 0.0
        for values, a, b in zip(self.values, self.edges[1::2], self.edges[2::2]):
            total += float(np.add.reduce(values))
            if b > a:
                total += float(values[-2]) * ((b - a + 1) // 2)
            if b > a + 1:
                total += float(values[-1]) * ((b - a) // 2)
        return total


class CompactPrefix:
    """The prefix sums P(0..n) of n amplitudes that repeat with period 2 between a few spans.

    ``amplitudes(a, b)`` gives amplitudes a..b-1 (0-based), all of one
    dtype; ``spans`` are ascending disjoint (a, b) of them, and between
    two spans, before the first and after the last, amplitude j equals
    amplitude j-2.  np.cumsum adds in sequence, so once P(e) equals
    P(e-2) in its bits past a span, every later entry repeats the one
    two before it up to the next span: P(e+1) = fl(P(e) + a) =
    fl(P(e-2) + a) = P(e-1).  The entries are held as explicit windows,
    one from just before each span to where it settles so (spans whose
    windows would meet share one), and the 2-periodic stretches between
    them, as CompactRows of n+1 entries.  Each window is np.cumsum from
    the exact entry before it (the first from P(0) = 0, as prefix_sum
    takes it), extended _SETTLE_CHUNK entries past its span and doubled
    until it settles or reaches n, so the bits are prefix_sum's however
    long settling takes.  ``breaks`` are the k where P(k+2) differs from
    P(k) in an int64 view (-0.0 differs from +0.0, a NaN equals only its
    own bits), all inside the windows.  ``window`` materializes what
    some rows' windows read.
    """

    def __init__(self, n: int, amplitudes, spans):
        self.n = n
        ranges, breaks = [], []
        spans = iter(spans)
        span = next(spans, None)
        start, done = 0, 0  # the window starts at P(start), past the span ending at done
        sums = np.zeros(1, dtype=np.result_type(amplitudes(0, 0), 0.0))
        step = _SETTLE_CHUNK
        while True:
            last = start + sums.size - 1  # sums holds P(start..last)
            # the next window would start just before the next span; this
            # one settles before it, or takes that span in
            nxt = n + 1 if span is None else span[0] - 1
            bits = sums.view(np.int64).reshape(sums.size, -1)
            same = (bits[2:] == bits[:-2]).all(axis=1)  # P(start+t+2) == P(start+t)
            lo, hi = done + 2 - start, min(last, nxt - 1) - start
            settled = np.flatnonzero(same[lo - 2 : hi - 1]) + lo if lo <= hi else ()
            if len(settled):
                end = start + int(settled[0])
            elif span is not None and last >= nxt - 1:
                done, span = span[1], next(spans, None)
                continue
            elif last == n:
                end = n
            else:
                stop = min(n, max(last, done) + step)
                step *= 2
                run = amplitudes(last, stop)
                if last == 0:  # np.cumsum's own first entry, P(1) = a[0]
                    run = np.cumsum(run, dtype=sums.dtype)
                else:
                    run = np.cumsum(np.concatenate([sums[-1:], run]))[1:]
                sums = np.concatenate([sums, run])
                continue
            sums = sums[: end - start + 1]
            ranges.append((start, sums))
            breaks.append(np.flatnonzero(~same[: end - start - 1]) + start)
            if span is None:
                break
            # P(nxt) repeats P(end) or P(end-1), by parity
            start, done, step = nxt, span[1], _SETTLE_CHUNK
            sums = sums[[-1 - (nxt - end) % 2]]
            span = next(spans, None)
        self.entries = CompactRows(n + 1, ranges)
        self.breaks = np.concatenate(breaks)

    def window(self, lo: int, hi: int, radius: int) -> Prefix:
        """P(k) for k in [lo - r, hi + r], r = min(radius, n), with a local origin.

        What windows of radius <= ``radius`` over rows lo..hi-1 read,
        with prefix_sum's bits and its pads: P(0) = 0 left of 0 and
        copies of P(n) right of n.
        """
        n, r = self.n, min(radius, self.n)
        origin = r - lo  # out[origin + k] = P(k)
        out = np.zeros(hi - lo + 2 * r + 1, dtype=self.entries.values[0].dtype)
        a, b = max(lo - r, 0), min(hi + r, n)
        self.entries.take(a, b + 1, out=out[origin + a : origin + b + 1])
        out[origin + b + 1 :] = out[origin + b]  # the right pad copies P(n)
        return Prefix(out, origin, n)

    def rows(self, radius: int) -> list[tuple[int, int]]:
        """The row ranges a banded pass of widest ``radius`` must compute.

        Row i reads P(i+r+1) and P(i-r) for every r <= R = min(radius,
        n); with no break in [i-R-2, i+R-1] and its windows and row
        i-2's unclipped, it takes the operations of row i-2 on the same
        bits, for any index kernel and dtype.  The result lists the
        disjoint ascending (lo, hi) that cover the rows some break
        reaches and the clipped [0, R+2) and [n-R-2, n); every row
        between two ranges equals the row two before it.
        """
        n, R = self.n, min(radius, self.n)
        # clipped into the edge ranges, so that lo and hi both ascend
        lo = np.clip(np.concatenate([[0], self.breaks - R + 1, [n - R - 2]]), 0, max(n - R - 2, 0))
        hi = np.clip(np.concatenate([[R + 2], self.breaks + R + 3, [n]]), min(R + 2, n), n)
        starts = np.flatnonzero(np.append(True, lo[1:] > hi[:-1]))
        return list(zip(lo[starts].tolist(), hi[np.append(starts[1:], lo.size) - 1].tolist()))


def distinct_rows(prefix: CompactPrefix, windows: Windows):
    """The distinct rows of a banded pass over a compact prefix, and how many of the n each is.

    A row is its window sum and count at each radius: CompactPrefix.rows
    gives the rows to compute, and a stretch repeats the last two before
    it by parity.  Grouped by bits (-0.0 differs from +0.0), it returns the
    (U, radii) sums and counts, and the int64 repeats.
    """
    n, R = prefix.n, windows.radii[-1]
    ranges = prefix.rows(R)
    sums, counts, repeats = [], [], []
    for (lo, hi), (nxt, _) in zip(ranges, [*ranges[1:], (n, n)]):
        window = prefix.window(lo, hi, R)
        s, c = zip(*(_windows(window, r, lo, hi) for r in windows.radii))
        sums.append(np.stack(s, axis=1))
        counts.append(np.stack([np.broadcast_to(k, hi - lo) for k in c], axis=1))
        repeats.append(np.ones(hi - lo, dtype=np.int64))
        if nxt > hi:  # the stretch [hi, nxt) starts by repeating row hi - 2
            repeats[-1][-2:] += ((nxt - hi + 1) // 2, (nxt - hi) // 2)
    sums, counts = np.concatenate(sums), np.concatenate(counts)
    bits = np.concatenate([sums.view(np.int64), counts.view(np.int64)], axis=1)
    _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    total = np.bincount(inverse.ravel(), np.concatenate(repeats))  # exact: below 2^53
    return sums[first], counts[first], total.astype(np.int64)


def _windows(prefix: Prefix, r: int, lo: int, hi: int, out=None):
    """Sums and counts of the windows |j-i| <= r in [0, n) of rows lo..hi-1.

    r is clipped to n = prefix.n first; the rows read P(k) for k in
    [lo - r, hi + r], which a prefix_sum padded by pad >= r holds for every
    row.  The sums go to ``out`` when given.  A count is 2r+1 less the
    r - i indices its window loses below 0 and the i - (n-1-r) it loses
    past n-1: whole numbers, so exact.  When no window of the rows is
    clipped, the counts are the one float 2r+1.
    """
    sums, o, n = prefix
    r = min(r, n)
    s = np.subtract(sums[o + lo + r + 1 : o + hi + r + 1], sums[o + lo - r : o + hi - r], out=out)
    if r <= lo and hi <= n - r:
        return s, 2.0 * r + 1
    counts = np.full(hi - lo, 2.0 * r + 1)
    if lo < r:
        counts[: min(r, hi) - lo] -= np.arange(r - lo, r - min(r, hi), -1.0)
    if hi > n - r:
        a = max(n - r, lo)
        counts[a - lo :] -= np.arange(a - (n - 1 - r), hi - (n - 1 - r), 1.0)
    return s, counts


def weighted_probabilities(
    smeared: np.ndarray, denom: np.ndarray, weights: np.ndarray | None = None, out=None
) -> np.ndarray:
    """w * |smeared|^2 / denom per path (0 where denom is 0), without C.

    ``weights`` is a resolved per-path vector, or None for the plain
    postulate.  The result goes to ``out`` when given, else to a fresh
    array.
    """
    # in place on one array, with the bits of the expression
    # np.where(denom > 0, np.abs(smeared) ** 2 / denom, 0.0)
    unnorm = np.abs(smeared, out=out)
    unnorm **= 2
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(unnorm, denom, out=unnorm)
    unnorm[~(denom > 0)] = 0.0
    if weights is not None:
        np.multiply(weights, unnorm, out=unnorm)
    return unnorm


def visibility(p_plus: float, p_minus: float) -> float:
    """Interference visibility |P+ - P-| / (P+ + P-) of two masses, 0 when both are 0."""
    return abs(p_plus - p_minus) / (p_plus + p_minus) if p_plus + p_minus else 0.0


def norm_constant(total: float) -> float:
    """C = 1 / total, the total of the unnormalized probabilities.

    Raises AllZeroProbability unless total > 0 (a NaN total fails too):
    when every weighted smeared amplitude vanishes, the postulate defines
    no distribution.
    """
    if not total > 0.0:
        raise AllZeroProbability(f"the path probability weights sum to {total}, not above 0")
    return 1.0 / total


def distribution_from_sums(
    smeared: np.ndarray, denom: np.ndarray, weights: np.ndarray | None = None
) -> PathDistribution:
    """Normalized distribution: weighted_probabilities times C = norm_constant of their total."""
    unnorm = weighted_probabilities(smeared, denom, weights)
    C = norm_constant(float(np.sum(unnorm)))
    unnorm *= C
    return PathDistribution(probs=unnorm, norm_constant=C, smeared=smeared, denom=denom)


def unnormalized_probabilities(
    ensemble: PathEnsemble, distance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unnormalized probs, smeared, denom) without the constant C."""
    smeared, denom = smeared_components(ensemble, distance)
    return weighted_probabilities(smeared, denom), smeared, denom


def path_probabilities(ensemble: PathEnsemble, distance) -> PathDistribution:
    """Conditioned per-path distribution for one ensemble (endpoints fixed)."""
    return distribution_from_sums(*smeared_components(ensemble, distance))


def final_state_probabilities(
    ensembles: Sequence[PathEnsemble], distance
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
    dist = path_probabilities(union, distance)
    by_endpoint: dict[str, float] = {}
    offset = 0
    for e in ensembles:
        block = slice(offset, offset + e.n_paths)
        by_endpoint[e.endpoint_tag] = by_endpoint.get(e.endpoint_tag, 0.0) + float(
            np.sum(dist.probs[block])
        )
        offset += e.n_paths
    return by_endpoint, dist
