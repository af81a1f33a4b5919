"""Independent reference implementations used only by the tests.

Deliberately naive: pure Python loops, no numpy, no shared code with the
package's evaluation routes, so that agreement is meaningful.  The
exceptions run at the sizes the banded route runs at: the sliding-window
reference uses numpy vector adds, and the untiled banded kernel and the
two-pass toy sweep cell keep the plain forms the package's tiled kernel
and one-build cell must reproduce bit for bit; the 512-row block dense
pass keeps the form whose bits the tiled dense route must reproduce; the
recursive lattice walk gives the depth-first order the vectorized
enumeration must keep, and row_messages computes the transfer route's
messages over every row at every step, the bits the messages over the
walks' distinct chains must keep, and tube_smeared, numpy over a sample
of rows, gives each row's smeared sums by one forward pass over the
whole time, with no middle split, at T=10.  The screen model's
materializer and block_distance_matrix build numpy arrays for the dense
engine to read; the materializer's distance tables come from
step_distance_table, not from the package's distance code.

The per-pair Galilean layer lives here too: SpacetimePath, the free
action and its amplitude, make_indexed_ensemble, and galilean_distance,
the pair-by-pair definition GridPathSource's streamed rows are checked
against.  So does the composite-path layer: CompositePath, compose and
the product/sequence composition rules define the max-of-steps distance
the screen model evaluates from its families' distinct rows.  Those rows
are held to full_family_rows (the full-length prefix's windows grouped by
np.unique), and the masses to exact_screen_masses: for zero phases it
places the +-1 amplitudes by the sign rules alone, takes window sums from
int64 prefix sums and sums Fractions over the distinct row triples, so
nothing in it rounds, however many paths a family holds.
exact_toy_sweep_cell does the same for a toy sweep cell of any phases at
any N: window sums as the partial run at each end plus a count per region
times its value, summed by math.fsum, over the O(regions * D) rows whose
windows neither lie inside one run nor cover all N.

The per-index closed forms m1_closed_form and m2_closed_form (one
ClosedFormValue per index) are the reference the package's array forms
must match in status and in every bit of every value.  So is the scalar
Minkowski layer, one quadratic object per segment pair and one branch
object per envelope candidate on small numpy vectors: scalar_classify,
scalar_d1 and scalar_d2, which the package's array forms must match bit
for bit.
"""

import bisect
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from realpathsim.distances import DistanceSpec, GridPathSource, admit_matrix
from realpathsim.engine import (
    PathDistribution,
    Prefix,
    _windows,
    prefix_sum,
    smeared_components,
    weighted_probabilities,
)
from realpathsim.errors import (
    EmptyEnsemble,
    EndpointMismatch,
    ModelTooLarge,
    NoPaths,
    PreconditionViolation,
    RealPathError,
)
from realpathsim.lattice import LatticeSpec
from realpathsim.minkowski import CausalClass, MinkowskiPath, proper_time
from realpathsim.paths import PathEnsemble, _require_unit_modulus
from realpathsim.toymodels import M1Spec, M2Spec, M3Spec, build_model, m2_case_premises


def brute_force_unnormalized(amplitudes, dmat, weights=None):
    """Per-path unnormalized probability by a naive triple loop.

    weight(P_i) * |sum_j A_j e^{-d(i,j)}|^2 / sum_j e^{-d(i,j)}
    """
    n = len(amplitudes)
    out = []
    for i in range(n):
        smeared = 0j
        volume = 0.0
        for j in range(n):
            d = dmat[i][j]
            w = 0.0 if d == math.inf else math.exp(-d)
            smeared += complex(amplitudes[j]) * w
            volume += w
        wi = 1.0 if weights is None else float(weights[i])
        if volume > 0.0:
            out.append(wi * abs(smeared) ** 2 / volume)
        else:
            out.append(0.0)
    return out


def brute_force_probabilities(amplitudes, dmat, weights=None):
    unnorm = brute_force_unnormalized(amplitudes, dmat, weights)
    total = sum(unnorm)
    if total <= 0.0:
        raise ZeroDivisionError("no probability mass")
    return [u / total for u in unnorm]


def sliding_window_smeared(amplitudes, D, rim=0.5):
    """Step-distance smeared sums by direct summation, O(N*D), no prefix sums.

    Adds each offset 1..D from both sides, one vector add per offset and
    side; the offset D carries the rim weight.  Offsets of N or more pair
    no indices and are skipped.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    smeared = amps.copy()
    denom = np.ones(amps.size)
    for k in range(1, min(D, amps.size - 1) + 1):
        w = rim if k == D else 1.0
        smeared[k:] += w * amps[:-k]
        smeared[:-k] += w * amps[k:]
        denom[k:] += w
        denom[:-k] += w
    return smeared, denom


def untiled_banded_smeared(components, D, half=0.5):
    """The banded kernel over whole windows, no row tiles.

    Per component: one padded prefix sum, both window sums as differences
    of two of its slices, window counts from the clipped formula on every
    index; then half * (x_c S<=_c) + (1 - half) * (x_c S<_c), and the
    same with counts.
    """
    def windows(amps):
        n = amps.size
        r = min(D, n)
        prefix = np.zeros(n + 2 * r + 1, dtype=np.result_type(amps, 0.0))
        prefix[r + 1 : r + 1 + n] = np.cumsum(amps)
        prefix[r + 1 + n :] = prefix[r + n]
        i = np.arange(n)

        def counts(k):
            return (np.minimum(i, k) + np.minimum(n - 1 - i, k) + 1).astype(float)

        return (
            prefix[2 * r + 1 : 2 * r + 1 + n] - prefix[:n],
            prefix[2 * r : 2 * r + n] - prefix[1 : n + 1],
            counts(r),
            counts(r - 1),
        )

    s_le, s_lt, n_le, n_lt = zip(*(windows(np.asarray(a)) for a in components))
    outer = functools.partial(functools.reduce, np.multiply.outer)
    return (
        outer(s_le) * half + outer(s_lt) * (1 - half),
        outer(n_le) * half + outer(n_lt) * (1 - half),
    )


def block_dense_smeared(amplitudes, distance):
    """The dense pass over 512-row blocks of exp(-d), 32-row tiles inside.

    Each tile of negated distances is exponentiated in place, summed into
    the denominators and copied into the real part of one complex block
    of 512 rows; every amplitude vector multiplies the whole block.  A
    last block of one row takes a 1-row product.
    """
    n = amplitudes[0].size
    if isinstance(distance, GridPathSource):
        neg_rows = distance.neg_rows
    else:
        def neg_rows(lo, hi):
            return np.negative(distance[lo:hi])

    smeared = [np.empty(n, dtype=np.complex128) for _ in amplitudes]
    denom = np.empty(n, dtype=float)
    E = np.zeros((min(n, 512), n), dtype=np.complex128)
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        for t in range(lo, hi, 32):
            u = min(t + 32, hi)
            tile = neg_rows(t, u)
            np.exp(tile, out=tile)
            denom[t:u] = tile.sum(axis=1)
            E.real[t - lo : u - lo] = tile
        for out, amps in zip(smeared, amplitudes):
            out[lo:hi] = E[: hi - lo] @ amps
    return smeared, denom


def dfs_lattice_paths(spec):
    """All site sequences of a LatticeSpec by a recursive depth-first walk.

    Each step tries the sites x-h..x+h in increasing order, clipped to the
    extent and to those from which the end site stays reachable; rows come
    out in the order the walk completes them.
    """
    T, X, h = spec.steps, spec.extent, spec.hop
    out = []
    prefix = [spec.start]

    def walk(x, k):
        if k == T:
            out.append(tuple(prefix))
            return
        reach = h * (T - k - 1)
        for nxt in range(max(x - h, -X, spec.end - reach),
                         min(x + h, X, spec.end + reach) + 1):
            prefix.append(nxt)
            walk(nxt, k + 1)
            prefix.pop()

    walk(spec.start, 0)
    if not out:
        raise NoPaths("no admissible path (extent too tight)")
    return np.asarray(out, dtype=int)


def _row_decay(c, gap):
    with np.errstate(over="ignore"):
        return np.exp(-c * gap)


def row_messages(rows, bounds, hop, dtype, terms, last_site):
    """The transfer route's messages, one row of work per row of ``rows`` at every step.

    ``rows`` (m, L+1) are site sequences sharing their first site, and
    the result is (m, radii, sites): what lattice._messages gives for the
    walk that grows exactly these rows.  Each step multiplies all m rows'
    messages by the hop kernel (velocity_l1: the rows of each step value
    by that value's kernel), then applies each row's tube or site factor
    at its own site, skipping the last column's unless ``last_site``.
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
            out = np.empty((m, sites.size), dtype=dtype)
            values, which = np.unique(rows[:, k] - rows[:, k - 1], return_inverse=True)
            for j, v in enumerate(values):
                pick = which.ravel() == j
                out[pick] = msg[pick] @ (kernel * _row_decay(edge_c, np.abs(delta - v)))
            msg = out
        lo, hi = bounds[k]
        if k < L or last_site:
            gap = np.abs(sites - rows[:, k, None])
            view = msg.reshape(m, radii.size, -1)
            if site_c is not None:
                view *= _row_decay(site_c[k], gap)[:, None, :]
            elif radii[0] < sites.size - 1:
                view *= gap[:, None, :] <= radii[:, None]
    return msg.reshape(m, radii.size, -1)


def tube_smeared(spec, rows, distance, scale, phase):
    """(smeared sums, denominators) of the lattice paths ``rows`` by one forward pass each.

    For each row P: sum_Q A(Q) exp(-scale d(P, Q)) and sum_Q exp(-scale
    d(P, Q)) over every path Q of the spec, A(Q) = exp(-i S(Q)) turned by
    exp(-i phase) where Q's site at the middle time (T+1)//2 is >= 1, the
    upper-arm phase plate.  A vector over the sites -X..X runs from the
    start site to the end site with P held fixed: the hop kernel
    exp(-i m dx^2 / 2) per step (the unit kernel for the denominators)
    times the distance factor of that time or step,
    - max variants: a tube mask |x - P_t| <= r at every time, one pass per
      radius r = 0..2X, so that exp(-s D) is sum_r e^(-s r) times the
      paths of D = max_t |Q_t - P_t| exactly r (s = scale, times the mass
      for mass_max_sep);
    - L1 variants: exp(-c_t |x - P_t|) at time t, c_t the trapezoid weight
      of the unit time grid times the scale (over T for l1_time_average,
      times the mass for mass_l1);
    - velocity_l1: exp(-scale |dx - dP_t|) on each hop of step t.
    It splits nothing at the middle, reads no walk and places no path:
    transfer_amplitude's recursion with a factor per path.
    """
    T, X, h, m = spec.steps, spec.extent, spec.hop, spec.mass
    rows = np.asarray(rows)
    sites = np.arange(-X, X + 1)
    step = sites - sites[:, None]  # from site y (row) to site x (column)
    near = np.abs(step) <= h
    hops = [(near.astype(float), None),
            (np.where(near, np.exp(-0.5j * m * np.where(near, step, 0) ** 2), 0), phase)]
    name = distance.name
    radii = np.arange(2 * X + 1) if name in ("max_sep", "mass_max_sep") else np.array([2 * X])
    site_c = np.full(T + 1, float(scale))
    site_c[[0, -1]] *= 0.5
    if name == "l1_time_average":
        site_c /= T
    if name == "mass_l1":
        site_c *= m
    out = []
    for kernel, plate in hops:
        psi = np.zeros((rows.shape[0], radii.size, sites.size), dtype=kernel.dtype)
        psi[:, :, spec.start + X] = 1.0
        # velocity_l1: the kernel of each step value dP in -h..h
        moves = kernel * _row_decay(float(scale), np.abs(step - np.arange(-h, h + 1)[:, None, None]))
        for t in range(1, T + 1):
            if name == "velocity_l1":
                psi = psi @ moves[rows[:, t] - rows[:, t - 1] + h]
            else:
                psi = (psi.reshape(-1, sites.size) @ kernel).reshape(psi.shape)
            gap = np.abs(sites - rows[:, t, None])
            if name in ("max_sep", "mass_max_sep"):
                psi *= gap[:, None, :] <= radii[:, None]
            elif name != "velocity_l1":
                psi *= _row_decay(site_c[t], gap)[:, None, :]
            if plate is not None and t == (T + 1) // 2:
                psi *= np.where(sites >= 1, np.exp(-1j * plate), 1.0)
        inside = psi[:, :, spec.end + X]  # the paths within each tube
        if name in ("max_sep", "mass_max_sep"):
            s = scale * m if name == "mass_max_sep" else scale
            out.append(np.diff(inside, axis=1, prepend=0) @ _row_decay(float(s), radii))
        else:
            out.append(inside[:, 0])
    denom, sums = out
    return sums, denom


def flip_last_theta(spec):
    """The toy spec with its last region's phase turned by pi."""
    if isinstance(spec, M1Spec):
        return M3Spec(N=spec.N, regions=((spec.M, spec.K, math.pi),))
    if isinstance(spec, M2Spec):
        return M2Spec(
            N=spec.N, M0=spec.M0, K0=spec.K0, M1=spec.M1, K1=spec.K1,
            theta0=spec.theta0, theta1=spec.theta1 + math.pi,
        )
    regions = list(spec.regions)
    M, K, th = regions[-1]
    regions[-1] = (M, K, th + math.pi)
    return M3Spec(N=spec.N, regions=tuple(regions))


def full_prefix(spec, pad) -> Prefix:
    """prefix_sum over the spec's N built amplitudes, padded by ``pad``."""
    return prefix_sum(build_model(spec).amplitudes, pad)


def scanned_rows(prefix: Prefix):
    """CompactPrefix.rows from a scan of every entry of a full padded prefix.

    The breaks are the k where P(k+2) differs from P(k) in an int64 view,
    pads included; rows(radius) covers the rows within R+2 of a break and
    the clipped [0, R+2) and [n-R-2, n), R = min(radius, n).
    """
    bits = prefix.sums.view(np.int64).reshape(prefix.sums.size, -1)
    breaks = np.flatnonzero((bits[2:] != bits[:-2]).any(axis=1)) - prefix.origin
    n = prefix.n

    def rows(radius):
        R = min(radius, n)
        lo = np.clip(np.r_[0, breaks - R + 1, n - R - 2], 0, max(n - R - 2, 0))
        hi = np.clip(np.r_[R + 2, breaks + R + 3, n], min(R + 2, n), n)
        starts = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
        return list(zip(lo[starts].tolist(), hi[np.r_[starts[1:] - 1, -1]].tolist()))

    return rows


def two_pass_toy_experiment(spec, dspec):
    """(visibility, block mass, distribution) of a toy sweep cell, the long way.

    Two full builds, the spec's own phases and flip_last_theta(spec), each
    smeared over all N paths (untiled banded kernel for the step
    distance, the engine's dense route otherwise); the masses are taken
    on the beam block widened by D on both sides.
    """
    if isinstance(spec, M1Spec):
        first, last = spec.M, spec.M + spec.K
    elif isinstance(spec, M2Spec):
        first, last = spec.M0, spec.M1 + spec.K1
    else:
        first, last = spec.block_range
    block = slice(max(1, first - dspec.D) - 1, min(spec.N, last + dspec.D))

    def sums(s):
        amps = build_model(s).amplitudes
        if dspec.name == "step":
            half = 2.0 if dspec.literal_log_half else 0.5
            return untiled_banded_smeared([amps], dspec.D, half)
        return smeared_components(PathEnsemble(amps), dspec)

    def unnormalized(smeared, denom):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denom > 0, np.abs(smeared) ** 2 / denom, 0.0)

    smeared, denom = sums(flip_last_theta(spec))
    p_minus = float(np.sum(unnormalized(smeared[block], denom[block])))
    smeared, denom = sums(spec)
    p_plus = float(np.sum(unnormalized(smeared[block], denom[block])))
    total = p_plus + p_minus
    vis = abs(p_plus - p_minus) / total if total > 0 else 0.0
    unnorm = unnormalized(smeared, denom)
    C = 1.0 / float(np.sum(unnorm))
    dist = PathDistribution(probs=unnorm * C, norm_constant=C, smeared=smeared, denom=denom)
    return vis, float(np.sum(dist.probs[block])), dist


def _toy_segments(spec, flip_last=False) -> tuple[list, list]:
    """(segments, values): the runs and regions of a toy spec over i = 1..N, in order.

    A run is (start, end, rule, None), its amplitudes (-1)^(i - rule):
    rule 1 up to the first region, M + K after region (M, K).  Region k
    is (M, M + K, None, k), each of its amplitudes values[k] =
    exp(-i theta_k) as a Python complex; with ``flip_last`` the last
    region's is exp(-i (theta + pi)), the float beam_sweep's flipped
    setting holds (theta + pi rounds, so at theta = 1e16 this is no turn
    by pi).  At theta = 0 it is -1: the package's value differs from
    that only by the rounding of pi, an imaginary part of 1.2e-16 that
    adds at most about 1e-32 times a row's count squared to its |s|^2,
    but that would give two far-apart zero-phase beams an exact
    visibility of about 1e-33 where the package gives 0.
    """
    m3 = spec.as_m3()
    segments, values, start, rule = [], [], 1, 1
    for M, K, theta in m3.regions:
        values.append(complex(np.exp(-1j * theta)))
        segments += [(start, M - 1, rule, None), (M, M + K, None, len(values) - 1)]
        start, rule = M + K + 1, M + K
    if flip_last:
        theta = m3.regions[-1][2]
        values[-1] = complex(np.exp(-1j * (theta + np.pi))) if theta else -1.0
    return segments + [(start, m3.N, rule, None)], values


def _window_terms(segments, a, b):
    """(whole, counts, regions) of the windows a..b (1-based, inclusive arrays): exact.

    A window's amplitude sum is whole + sum_j counts[:, j] values[regions[j]]
    over the region segments among ``segments``: whole is the partial run
    at each end, the sign at the overlap's first index when the overlap
    is odd and 0 when it is even (so a whole run, of even length, adds
    0), and counts[:, j] the indices of region regions[j] inside the
    window.
    """
    whole, counts, regions = np.zeros(a.size, dtype=np.int64), [], []
    for start, end, rule, k in segments:
        x = np.maximum(a, start)
        count = np.maximum(np.minimum(b, end) - x + 1, 0)
        if k is None:
            whole += np.where(count % 2 == 1, np.where((x - rule) % 2 == 0, 1, -1), 0)
        else:
            counts.append(count)
            regions.append(k)
    return whole, np.array(counts, dtype=np.int64).reshape(len(regions), a.size).T, regions


# rows _exact_mass takes at once, each block reading only the segments its
# windows reach; any count gives the same Fraction
_EXACT_ROWS = 256


def _exact_mass(segments, values, N, D, rim, rows, repeats) -> Fraction:
    """The sum of repeats * |s|^2 / c over the 1-based rows under the step distance.

    The kernel is 1 out to D-1 and the rim weight p/q at D, so with S^r
    and N^r the sum and count of the window |j - i| <= r clipped to
    [1, N], s = ((q-p) S^{D-1} + p S^D) / q and c = ((q-p) N^{D-1} + p N^D) / q.
    q s is an integer plus an integer count times each region value
    (_window_terms); math.fsum adds its real and imaginary parts, each
    product rounded once, so a part with integer terms (every part of
    a zero-phase row) is exact.  |q s|^2 / (q * q c) is then exact: the
    numerators are summed per denominator, then over their least common
    multiple.  The rows go in ascending blocks of _EXACT_ROWS, each over
    the segments its windows reach, so that many regions cost no more
    than a few.
    """
    p, q = rim.as_integer_ratio()
    order = np.argsort(rows)
    rows, repeats = np.asarray(rows, dtype=np.int64)[order], [repeats[i] for i in order]
    starts, ends = [seg[0] for seg in segments], [seg[1] for seg in segments]
    by_denominator: dict = {}
    for lo in range(0, rows.size, _EXACT_ROWS):
        block = rows[lo : lo + _EXACT_ROWS]
        reach = segments[bisect.bisect_left(ends, block[0] - D)
                         : bisect.bisect_right(starts, block[-1] + D)]
        whole, counts, c = 0, 0, 0
        for r, weight in ((D - 1, q - p), (D, p)):
            a, b = np.maximum(block - r, 1), np.minimum(block + r, N)
            w, n, regions = _window_terms(reach, a, b)
            whole, counts, c = whole + weight * w, counts + weight * n, c + weight * (b - a + 1)
        v = np.array([values[k] for k in regions], dtype=complex)
        re = [math.fsum(t) for t in np.column_stack([whole, counts * v.real]).tolist()]
        im = [math.fsum(t) for t in (counts * v.imag).tolist()]
        for n, x, y, u in zip(repeats[lo : lo + _EXACT_ROWS], re, im, c.tolist()):
            (x, d), (y, e) = x.as_integer_ratio(), y.as_integer_ratio()
            f = max(d, e)  # both powers of two
            den = q * u * f * f
            by_denominator[den] = by_denominator.get(den, 0) + n * ((x * (f // d)) ** 2
                                                                   + (y * (f // e)) ** 2)
    common = math.lcm(*by_denominator)
    return Fraction(sum(num * (common // den) for den, num in by_denominator.items()), common)


def exact_toy_sweep_cell(spec, dspec):
    """(visibility, block mass, C) of a toy sweep cell under the step distance, as Fractions, at any N.

    The amplitudes are placed by the parity rules and the region values
    (_toy_segments), the flipped setting's last region at exp(-i (theta
    + pi)).  Each row's |s|^2 / c comes from integer window sums and
    region counts (_exact_mass), exact but for the rounding of each
    count times a phased value and of the fsum of those.  Two kinds of
    row ranges take one value each, and one row stands for each: a row
    whose radius-D window lies unclipped inside one run sees an odd
    alternating stretch at both radii, and a row whose windows at both
    radii are clipped at both ends sees all N amplitudes.  The sums run
    over the other rows: O(regions * D) of them, and fewer than N.
    Nothing here reads a prefix sum or the package's run grammar.
    """
    m3 = spec.as_m3()
    N, D = m3.N, dspec.D
    rim = 2.0 if dspec.literal_log_half else 0.5
    first, last = m3.block_range
    b0, b1 = max(1, first - D), min(N, last + D)
    own, values = _toy_segments(spec)
    uniform = [(start + D, end - D) for start, end, _, k in own
               if k is None and end - start >= 2 * D]
    if N - D + 1 <= D:  # windows clipped at both ends, as long as D - 1 >= max(i - 1, N - i)
        uniform = [(max(N - D + 1, 1), min(D, N))]
    edges = [1, *(e for lo, hi in uniform for e in (lo, hi + 1)), N + 1]
    explicit = [i for a, b in zip(edges[::2], edges[1::2]) for i in range(a, b)]

    def mass(segments, values, block):
        rows = [i for i in explicit if b0 <= i <= b1] if block else explicit
        repeats = [max(min(hi, b1) - max(lo, b0) + 1, 0) if block else hi - lo + 1
                   for lo, hi in uniform]
        return _exact_mass(segments, values, N, D, rim, rows + [lo for lo, _ in uniform],
                           [1] * len(rows) + repeats)

    total, plus = mass(own, values, False), mass(own, values, True)
    minus = mass(*_toy_segments(spec, flip_last=True), True)
    vis = abs(plus - minus) / (plus + minus) if plus + minus else Fraction(0)
    return vis, plus / total, 1 / total


def distribution_csv_rows(dist):
    """Rows of the distribution CSV formatted one value at a time."""
    lines = [f"# norm_constant = {float(dist.norm_constant):.17g}"]
    lines.append("index,prob,smeared_re,smeared_im,denom")
    for i in range(dist.n_paths):
        values = (dist.probs[i], dist.smeared[i].real, dist.smeared[i].imag, dist.denom[i])
        lines.append(",".join([str(i + 1)] + [f"{float(x):.17g}" for x in values]))
    return "\n".join(lines) + "\n"



def distribution_json_dumps(dist):
    """The distribution JSON built as one dict per row and written by json.dumps."""
    rows = [
        {
            "index": i + 1,
            "prob": float(dist.probs[i]),
            "smeared_re": float(dist.smeared[i].real),
            "smeared_im": float(dist.smeared[i].imag),
            "denom": float(dist.denom[i]),
        }
        for i in range(dist.n_paths)
    ]
    return json.dumps({"norm_constant": float(dist.norm_constant), "paths": rows}) + "\n"


def ratio_csv_rows(rows):
    """The screen-model ratio CSV formatted one value at a time."""
    lines = ["j,k,direct_ratio,quantum_ratio,rel_err"]
    for r in rows:
        values = (r["direct_ratio"], r["quantum_ratio"], r["rel_err"])
        lines.append(",".join([str(r["j"]), str(r["k"])] + [f"{float(x):.17g}" for x in values]))
    return "\n".join(lines) + "\n"

LOG2 = math.log(2.0)


def index_distance_matrix(spec: DistanceSpec, n: int, rows=None) -> np.ndarray:
    """Dense (n, n) matrix of an index distance over labels 1..n, or its ``rows``.

    The dense reference the banded route is checked against: every gap
    taken pair by pair, exp(|i-j|/D) with no cut-off.  ``rows``, 0-based
    row indices, builds only those rows of the matrix.

    Raises ModelTooLarge, before allocating anything of size n x n, when
    the whole matrix would exceed MAX_MATRIX_BYTES.
    """
    if not spec.is_index_based:
        raise ValueError(f"{spec.name} is not an index distance")
    if rows is None:
        admit_matrix(n)
    # built in place from float gaps: one n x n float array, and for step
    # at most two boolean masks beside it, 1.25 matrices at the peak
    labels = np.arange(n, dtype=float)
    d = np.subtract.outer(labels if rows is None else labels[rows], labels)
    np.abs(d, out=d)
    if spec.name == "step":
        rim = d == spec.D
        np.copyto(d, np.inf, where=d > spec.D)
        np.copyto(d, 0.0, where=d < spec.D)
        np.copyto(d, -LOG2 if spec.literal_log_half else LOG2, where=rim)
        return d
    d /= spec.D
    # past n/D of about 709 exp overflows to inf, whose exp(-inf) is the
    # exact 0 the postulate needs
    with np.errstate(over="ignore"):
        return np.exp(d, out=d)


def step_distance(i, j, D, literal_log_half=False):
    """Window step distance on indices: 0 below D, log 2 at D, inf beyond."""
    gap = abs(i - j)
    if gap < D:
        return 0.0
    if gap > D:
        return math.inf
    return -math.log(2.0) if literal_log_half else math.log(2.0)


def step_distance_table(n, D, at_exactly=math.log(2.0)):
    """Dense step-distance table as plain lists."""
    table = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            gap = abs(i - j)
            row.append(0.0 if gap < D else (math.inf if gap > D else at_exactly))
        table.append(row)
    return table


def grid_max_separation(xs_p, xs_q):
    """max_t |x_P - x_Q| for two same-grid scalar paths."""
    return max(abs(a - b) for a, b in zip(xs_p, xs_q))


def trapezoid_l1(xs_p, xs_q, ts):
    total = 0.0
    for k in range(len(ts) - 1):
        g0 = abs(xs_p[k] - xs_q[k])
        g1 = abs(xs_p[k + 1] - xs_q[k + 1])
        total += 0.5 * (g0 + g1) * (ts[k + 1] - ts[k])
    return total


def dense_interval_max(events_p, events_q, samples=400):
    """Grid-search lower bound for d1 (converges from below)."""
    def points(events):
        pts = []
        for k in range(len(events) - 1):
            a, b = events[k], events[k + 1]
            for s in range(samples + 1):
                u = s / samples
                pts.append([a[c] + u * (b[c] - a[c]) for c in range(len(a))])
        return pts

    best = -math.inf
    qpts = points(events_q)
    for p in points(events_p):
        for q in qpts:
            space = sum((p[c] - q[c]) ** 2 for c in range(len(p) - 1))
            best = max(best, space - (p[-1] - q[-1]) ** 2)
    return best


# -- the per-pair Galilean layer: paths, actions and distances -----------------

class DegenerateSegment(RealPathError):
    """A path segment has non-positive duration."""


class IncompatibleGrids(RealPathError):
    """Two paths have non-overlapping time ranges."""


_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_ENDPOINT_ATOL = 1e-9

# Construction inputs get a looser gate, then are renormalized onto the
# unit circle so the stored invariant is the tight one.
UNIT_MODULUS_INPUT_ATOL = 1e-9


def exp_index_distance(i: int, j: int, D: int) -> float:
    """Smooth index distance exp(|i-j|/D)."""
    return math.exp(abs(i - j) / D)


def weight(d: float) -> float:
    """Smearing weight exp(-d); +inf maps to exactly 0."""
    if d == math.inf:
        return 0.0
    return math.exp(-d)


def make_indexed_ensemble(
    amplitudes: Sequence[complex], endpoint_tag: str = "B"
) -> PathEnsemble:
    """Build an ensemble from a list of unit-modulus amplitudes.

    Entries must be of modulus 1 within 1e-9; they are projected exactly
    onto the unit circle before storage.  Raises EmptyEnsemble or
    NonUnitAmplitude (reporting the first offending 1-based index).
    """
    amps = np.asarray(list(amplitudes), dtype=np.complex128)
    if amps.size == 0:
        raise EmptyEnsemble("no amplitudes given")
    _require_unit_modulus(amps, UNIT_MODULUS_INPUT_ATOL)
    return PathEnsemble(amps / np.abs(amps), endpoint_tag=endpoint_tag)


@dataclass(frozen=True)
class SpacetimePath:
    """Polyline (x(t), t) with non-decreasing t; x may be 1-d or a vector.

    ``events`` has shape (n_events, ndim+1); the last column is t and the
    leading columns are spatial coordinates.
    """

    events: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        if ev.ndim == 1:
            ev = ev.reshape(1, -1)
        if ev.ndim != 2 or ev.shape[0] < 1 or ev.shape[1] < 2:
            raise ValueError("events must be an (n, ndim+1) array with n >= 1")
        if np.any(np.diff(ev[:, -1]) < 0):
            raise ValueError("times must be non-decreasing along the path")
        object.__setattr__(self, "events", ev)

    @property
    def times(self) -> np.ndarray:
        return self.events[:, -1]

    @property
    def positions(self) -> np.ndarray:
        return self.events[:, :-1]

    @property
    def start(self) -> np.ndarray:
        return self.events[0]

    @property
    def end(self) -> np.ndarray:
        return self.events[-1]

    def time_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def position_at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation of position at times t (within the span)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cols = [
            np.interp(t, self.times, self.positions[:, k])
            for k in range(self.positions.shape[1])
        ]
        return np.stack(cols, axis=-1)


def free_action(path: SpacetimePath, mass: float | None = None) -> float:
    """Discrete free-particle action S = sum_segments m (dx)^2 / (2 dt).

    Endpoint kinetic discretization on the polyline's own segments; the
    matching amplitude is exp(-i S).  Raises DegenerateSegment if any
    segment has dt <= 0.
    """
    if mass is None:
        mass = path.mass
    if path.events.shape[0] < 2:
        raise DegenerateSegment("action needs at least two events")
    dt = np.diff(path.times)
    if np.any(dt <= 0):
        raise DegenerateSegment("segment with non-positive duration")
    dx2 = np.sum(np.diff(path.positions, axis=0) ** 2, axis=1)
    return float(np.sum(mass * dx2 / (2.0 * dt)))


def amplitude_for(path: SpacetimePath, mass: float | None = None) -> complex:
    """exp(-i S) for the discrete free action."""
    return complex(np.exp(-1j * free_action(path, mass)))


def site_path(spec: LatticeSpec, sites_row: np.ndarray) -> SpacetimePath:
    """One enumerated row as a SpacetimePath (unit time grid)."""
    t = np.arange(sites_row.size, dtype=float)
    return SpacetimePath(np.column_stack([sites_row.astype(float), t]), mass=spec.mass)


@dataclass(frozen=True)
class ClosedFormValue:
    """Predicted unnormalized probability at one index, or a gap marker.

    status is one of "covered", "boundary", "uncovered"; value is None
    exactly when status == "uncovered".
    """

    status: str
    value: float | None = None


_UNCOVERED = ClosedFormValue("uncovered")


def m1_closed_form(i: int, spec: M1Spec, D: int) -> ClosedFormValue:
    """Piecewise regime prediction for M1 with the step distance.

    Exact (not asymptotic) wherever a strict range applies, which needs
    M > 2D+1 and N-M-K > 2D+1.
    """
    N, M, K = spec.N, spec.M, spec.K
    if not (M > 2 * D + 1):
        raise PreconditionViolation(f"need M > 2D+1, got M={M}, D={D}")
    if not (N - M - K > 2 * D + 1):
        raise PreconditionViolation(f"need N-M-K > 2D+1, got {N - M - K}, D={D}")
    if not (1 <= i <= N):
        raise PreconditionViolation(f"index {i} outside 1..{N}")

    inv2D = 1.0 / (2.0 * D)
    # boundary artefacts from the clipped window at either end
    if 1 <= i <= D:
        return ClosedFormValue("boundary", 0.25 / (i + D - 0.5))
    if N + 1 - D <= i <= N:
        return ClosedFormValue("boundary", 0.25 / ((N + 1 - i) + D - 0.5))

    if 2 * D > K:
        if D + 1 < i < M - D or M + K + D < i < N - (D + 1):
            return ClosedFormValue("covered", 0.0)
        if M + K - D < i < M + D:
            return ClosedFormValue("covered", inv2D * K**2)
        if M < i + D < M + K:
            return ClosedFormValue("covered", inv2D * (i + D - M) ** 2)
        if M < i - D < M + K:
            return ClosedFormValue("covered", inv2D * (M + K - i + D) ** 2)
    else:
        if D + 1 <= i < M - D or M + K + D < i <= N - (D + 1):
            return ClosedFormValue("covered", 0.0)
        if M + D < i < M + K - D:
            return ClosedFormValue("covered", 2.0 * D)
        if i - D < M < i + D:
            return ClosedFormValue("covered", inv2D * (i + D - M) ** 2)
        if i - D < M + K < i + D:
            return ClosedFormValue("covered", inv2D * (M + K - i + D) ** 2)
    return _UNCOVERED


def m2_case_premises(spec: M2Spec, D: int, case: str):
    """Raise PreconditionViolation unless the stated M2 case applies."""
    N, M0, K0, M1, K1 = spec.N, spec.M0, spec.K0, spec.M1, spec.K1
    if case not in ("i", "ii"):
        raise PreconditionViolation(f"case must be 'i' or 'ii', got {case!r}")
    if not (M0 > 2 * D + 1):
        raise PreconditionViolation(f"need M0 > 2D+1, got M0={M0}, D={D}")
    if not (N - M1 - K1 > 2 * D + 1):
        raise PreconditionViolation(f"need N-M1-K1 > 2D+1, got {N - M1 - K1}, D={D}")
    if case == "i":
        if not (2 * D > M1 + K1 - M0):
            raise PreconditionViolation(
                "case (i) needs the window to span both beams: 2D > M1+K1-M0"
            )
    else:
        if not (2 * D + 1 < M1 - M0 - K0):
            raise PreconditionViolation(
                "case (ii) needs d-distant beams: 2D+1 < M1-M0-K0"
            )


def m2_closed_form(i: int, spec: M2Spec, D: int, case: str) -> ClosedFormValue:
    """Two-beam regime prediction (unnormalized, tolerance ~1 in amplitude).

    Case (i), beams d-close: one interference plateau
    |(K0+1)e^{-i th0} + (K1+1)e^{-i th1}|^2 / 2D where the window spans
    both beams.  Case (ii), beams d-distant: an interference-free plateau
    (K_b+1)^2 / 2D around each beam b.
    """
    m2_case_premises(spec, D, case)
    N, M0, K0, M1, K1 = spec.N, spec.M0, spec.K0, spec.M1, spec.K1
    if not (1 <= i <= N):
        raise PreconditionViolation(f"index {i} outside 1..{N}")
    if i - D < 1 or i + D > N:
        return _UNCOVERED  # clipped windows are boundary artefacts
    inv2D = 1.0 / (2.0 * D)
    if case == "i":
        if i - D < M0 and i + D > M1 + K1:
            both = (K0 + 1) * np.exp(-1j * spec.theta0) + (K1 + 1) * np.exp(
                -1j * spec.theta1
            )
            return ClosedFormValue("covered", inv2D * abs(both) ** 2)
        return _UNCOVERED
    if i - D < M0 and i + D > M0 + K0:
        return ClosedFormValue("covered", inv2D * (K0 + 1) ** 2)
    if i - D < M1 and i + D > M1 + K1:
        return ClosedFormValue("covered", inv2D * (K1 + 1) ** 2)
    return _UNCOVERED


def m2_tolerance(spec: M2Spec) -> float:
    """Relative tolerance 3/(min K + 1) for closed-form comparisons."""
    return 3.0 / (min(spec.K0, spec.K1) + 1)


def amplitude_total(ensemble: PathEnsemble) -> complex:
    return complex(np.sum(ensemble.amplitudes))


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
    m = P.mass

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


# -- composite paths and their distance rules ---------------------------------

class TimeMismatch(RealPathError):
    """Composite components do not line up in time."""


class StructureMismatch(RealPathError):
    """Two composites differ in kind, arity, or component spans."""


class TooManyComponents(RealPathError):
    """Permutation symmetrization is limited to small products."""


_SPAN_ATOL = 1e-9


@dataclass(frozen=True)
class CompositePath:
    """Product (kind='product') or sequence (kind='sequence') of paths."""

    kind: str
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in ("product", "sequence"):
            raise ValueError(f"unknown composite kind {self.kind!r}")
        object.__setattr__(self, "components", tuple(self.components))

    def time_span(self):
        spans = [_span_of(c) for c in self.components]
        if any(s is None for s in spans):
            return None
        if self.kind == "product":
            return spans[0]
        return spans[0][0], spans[-1][1]


def _span_of(component):
    if isinstance(component, (SpacetimePath, CompositePath)):
        return component.time_span()
    return None


def compose(kind, components):
    """Build a CompositePath, validating component time spans when known.

    Product components must span identical time intervals; sequence
    components must abut (end of one = start of next).  Components without
    a time span (abstract labels) skip the check.
    """
    comps = list(components)
    if not comps:
        raise TimeMismatch("composite needs at least one component")
    spans = [_span_of(c) for c in comps]
    if all(s is not None for s in spans):
        if kind == "product":
            t0, t1 = spans[0]
            for s in spans[1:]:
                if abs(s[0] - t0) > _SPAN_ATOL or abs(s[1] - t1) > _SPAN_ATOL:
                    raise TimeMismatch(f"product components span {spans[0]} vs {s}")
        elif kind == "sequence":
            for a, b in zip(spans, spans[1:]):
                if abs(a[1] - b[0]) > _SPAN_ATOL:
                    raise TimeMismatch(
                        f"sequence gap: component ends at {a[1]}, next starts at {b[0]}"
                    )
    return CompositePath(kind, tuple(comps))


PRODUCT_RULES = ("max", "sum", "average", "geometric_mean")
SEQUENCE_RULES = ("max",)

MAX_SYMMETRIZE_COMPONENTS = 8


@dataclass(frozen=True)
class CompositionRule:
    """How component distances combine: products under one of
    PRODUCT_RULES, sequences under max."""

    product_rule: str = "max"
    sequence_rule: str = "max"

    def __post_init__(self):
        if self.product_rule not in PRODUCT_RULES:
            raise ValueError(f"unknown product rule {self.product_rule!r}")
        if self.sequence_rule not in SEQUENCE_RULES:
            raise ValueError(f"unknown sequence rule {self.sequence_rule!r}")


def _reduce(rule, values):
    """One composition rule over component distances.

    Extended-real conventions (limits of the finite formulas): inf is
    absorbing in sum and max; an average over a set containing inf is
    inf; a geometric mean containing inf is inf, otherwise containing a
    0 it is 0 (inf wins the indeterminate mixed case).
    """
    if rule == "max":
        return max(values)
    if rule == "sum":
        return sum(values)
    if rule == "average":
        return sum(values) / len(values)
    if any(v == math.inf for v in values):
        return math.inf
    if any(v == 0.0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def composite_distance(P, Q, rule, base):
    """Recursive composite distance; ``base`` evaluates leaf pairs.

    P and Q must have identical composite structure: same kind, same
    arity, and matching component time spans where spans are known.
    """
    p_comp = isinstance(P, CompositePath)
    if p_comp != isinstance(Q, CompositePath):
        raise StructureMismatch("composite paired with a leaf")
    if not p_comp:
        return float(base(P, Q))
    if P.kind != Q.kind:
        raise StructureMismatch(f"kind {P.kind} vs {Q.kind}")
    if len(P.components) != len(Q.components):
        raise StructureMismatch(f"arity {len(P.components)} vs {len(Q.components)}")
    for p, q in zip(P.components, Q.components):
        sp, sq = _span_of(p), _span_of(q)
        if sp is not None and sq is not None:
            if abs(sp[0] - sq[0]) > _SPAN_ATOL or abs(sp[1] - sq[1]) > _SPAN_ATOL:
                raise StructureMismatch(f"component spans {sp} vs {sq}")
    parts = [composite_distance(p, q, rule, base) for p, q in zip(P.components, Q.components)]
    return _reduce(rule.product_rule if P.kind == "product" else rule.sequence_rule, parts)


def symmetrized_distance(P, Q, rule, base):
    """min over permutations rho of composite_distance(P, rho(Q)).

    Only defined for products of n <= 8 components of one particle
    species; enumeration is exhaustive since a min of a max/geometric
    composition is not a linear assignment problem.
    """
    if not (isinstance(P, CompositePath) and isinstance(Q, CompositePath)):
        raise StructureMismatch("symmetrized distance needs composite products")
    if P.kind != "product" or Q.kind != "product":
        raise StructureMismatch("symmetrized distance is for products only")
    n = len(P.components)
    if n != len(Q.components):
        raise StructureMismatch(f"arity {n} vs {len(Q.components)}")
    if n > MAX_SYMMETRIZE_COMPONENTS:
        raise TooManyComponents(f"n={n} > {MAX_SYMMETRIZE_COMPONENTS}")
    return min(
        composite_distance(
            P, CompositePath("product", tuple(Q.components[k] for k in perm)), rule, base
        )
        for perm in permutations(range(n))
    )


# -- dense inputs for the engine's union and composite checks ----------------

def block_distance_matrix(sizes, within, across=math.inf):
    """Union distance matrix from per-group (n_g, n_g) matrices.

    Pairs in different groups get the constant ``across`` (default:
    infinitely distant, the disjoint-endpoint-families case).
    """
    n = int(sum(sizes))
    out = np.full((n, n), float(across))
    offset = 0
    for size, dist in zip(sizes, within):
        out[offset : offset + size, offset : offset + size] = dist
        offset += size
    return out


def screen_components(spec, j) -> list[np.ndarray]:
    """Particle, pre-impact screen and post-absorption amplitudes of screen endpoint j."""
    return [
        build_model(spec.endpoints[j]).amplitudes,
        build_model(spec.screen_before).amplitudes,
        build_model(M1Spec(N=spec.n_after, M=spec.anchors[j], K=spec.k_after)).amplitudes,
    ]


def composite_unnormalized(spec, j):
    """Unnormalized probability of every composite path of screen endpoint j.

    Shape (N_j, N', N''), from the untiled banded K=3 kernel at the spec's D.
    """
    smeared, denom = untiled_banded_smeared(screen_components(spec, j), spec.D)
    return weighted_probabilities(smeared, denom)


def full_family_rows(amps, D):
    """(sums, counts, repeats) of a family's distinct rows under the step distance, the long way.

    prefix_sum over all n amplitudes, its windows at D-1 and D on every
    row, then np.unique of the rows' bits with counts.
    """
    n = amps.size
    sums, counts = zip(*(_windows(prefix_sum(amps, D), r, 0, n) for r in (D - 1, D)))
    sums = np.stack(sums, axis=1)
    counts = np.stack([np.broadcast_to(c, n) for c in counts], axis=1)
    bits = np.concatenate([sums.view(np.int64), counts.view(np.int64)], axis=1)
    _, first, repeats = np.unique(bits, axis=0, return_index=True, return_counts=True)
    return sums[first], counts[first], repeats


def _zero_phase_signs(spec) -> np.ndarray:
    """The amplitudes of a zero-phase M1/M3 spec as int64, placed by the sign rules alone.

    (-1)^(i-1) up to the first region, +1 in each region (M..M+K), and
    (-1)^(i-M-K) in the run after region (M, K), over i = 1..N.
    """
    m3 = spec.as_m3()
    i = np.arange(1, m3.N + 1)
    signs = np.where((i - 1) % 2 == 0, 1, -1)
    for M, K, theta in m3.regions:
        if theta != 0:
            raise ValueError("the exact oracle takes zero phases only")
        signs[M - 1 :] = np.where((i[M - 1 :] - M - K) % 2 == 0, 1, -1)
        signs[M - 1 : M + K] = 1
    return signs


def _exact_family_rows(spec, D):
    """Distinct (S^{D-1}, S^D, N^{D-1}, N^D) of a zero-phase family, with counts, as ints.

    Window sums are differences of an int64 prefix sum over the clipped
    window [max(0, i - r), min(n - 1, i + r)], so every one is exact.
    """
    signs = _zero_phase_signs(spec)
    n = signs.size
    prefix = np.concatenate([[0], np.cumsum(signs)])
    i = np.arange(n)
    columns = []
    for r in (D - 1, D):
        lo, hi = np.maximum(i - r, 0), np.minimum(i + r, n - 1) + 1
        columns.append((prefix[hi] - prefix[lo], hi - lo))
    (s_lt, n_lt), (s_le, n_le) = columns
    keys = np.stack([s_lt, s_le, n_lt, n_le])
    keys = keys[:, np.lexsort(keys[::-1])]  # equal rows adjacent
    starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    return list(zip(keys[:, starts].T.tolist(), np.diff(np.r_[starts, n]).tolist()))


def exact_screen_masses(spec) -> list:
    """Each endpoint's mass of a zero-phase screen model, as an exact Fraction.

    At the rim weight 1/2 a composite row's smeared sum is (A + B) / 2 and
    its volume (C + E) / 2, with A and B the products of the families'
    window sums at D-1 and D and C and E those of their counts, so its
    probability is (A + B)^2 / (2 (C + E)).  The mass sums that over the
    distinct triples of family rows, times the rows each stands for, in
    integers over each distinct denominator.
    """
    D = spec.D
    screen = _exact_family_rows(spec.screen_before, D)
    masses = []
    for p, a in zip(spec.endpoints, spec.anchors):
        particle = _exact_family_rows(p, D)
        after = _exact_family_rows(M1Spec(N=spec.n_after, M=a, K=spec.k_after), D)
        by_denominator: dict = {}
        for (s1, t1, c1, e1), n1 in particle:
            for (s2, t2, c2, e2), n2 in screen:
                for (s3, t3, c3, e3), n3 in after:
                    den = 2 * (c1 * c2 * c3 + e1 * e2 * e3)
                    num = n1 * n2 * n3 * (s1 * s2 * s3 + t1 * t2 * t3) ** 2
                    by_denominator[den] = by_denominator.get(den, 0) + num
        masses.append(sum((Fraction(num, den) for den, num in by_denominator.items()), Fraction(0)))
    return masses


def materialize_composite_ensemble(spec, cross_distance=math.inf, max_paths=200_000):
    """Explicit screen-model composite ensemble for small specs.

    Returns (ensemble, labels, distance_matrix) where labels[r] =
    (j, i, k, m) 0-based: endpoint, particle, pre-impact and
    post-absorption screen index.  The matrix applies the max rule to the
    three components' step_distance_table entries, with
    ``cross_distance`` between particle paths of different endpoints
    (default: infinitely distant).
    """
    total = spec.total_paths()
    if total > max_paths:
        raise ModelTooLarge(f"{total} paths too many to materialize")
    amps, labels = [], []
    for j, pspec in enumerate(spec.endpoints):
        amps_p, amps_s, amps_a = screen_components(spec, j)
        amps.append(np.multiply.outer(np.multiply.outer(amps_p, amps_s), amps_a).ravel())
        idx = np.indices((pspec.N, amps_s.size, amps_a.size)).reshape(3, -1)
        labels.append(np.vstack([np.full(idx.shape[1], j), idx]).T)
    labels = np.concatenate(labels)
    n_particle = max(p.N for p in spec.endpoints)
    sizes = (n_particle, spec.screen_before.N, spec.n_after)
    tables = [np.array(step_distance_table(n, spec.D)) for n in sizes]
    d_p, d_s, d_a = (t[c[:, None], c[None, :]] for t, c in zip(tables, labels[:, 1:].T))
    d_p[labels[:, 0][:, None] != labels[:, 0][None, :]] = cross_distance
    dmat = np.maximum(d_p, np.maximum(d_s, d_a))
    return PathEnsemble(np.concatenate(amps)), labels, dmat


# -- the scalar Minkowski layer: one quadratic object per segment pair ---------
#
# classify, d1 and d2 one segment pair (and one envelope branch) at a time.

_ATOL = 1e-12


def _eta(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear Minkowski form, broadcasting over leading axes."""
    return np.sum(u[..., :-1] * v[..., :-1], axis=-1) - u[..., -1] * v[..., -1]


def _segment_causal(vec: np.ndarray) -> bool:
    return _eta(vec, vec) <= _ATOL and vec[-1] >= -_ATOL


def _segment_anti_causal(vec: np.ndarray) -> bool:
    return _eta(vec, vec) <= _ATOL and vec[-1] < -_ATOL


def _clip_box_by_halfplane(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Vertices of {(s,t) in [0,1]^2 : a*s + b*t + c <= 0}, CCW order."""
    poly = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    out: list[tuple[float, float]] = []
    for k in range(len(poly)):
        p, q = poly[k], poly[(k + 1) % len(poly)]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            lam = fp / (fp - fq)
            out.append((p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1])))
    return out


class _PairQuadratic:
    """interval(q(t) - p(s)) for p on segment (a, a+e), q on (c, c+f)."""

    def __init__(self, a, e, c, f):
        self.w0 = c - a
        self.e = e
        self.f = f
        self.Ae = float(_eta(e, e))
        self.Af = float(_eta(f, f))
        self.G = float(_eta(e, f))
        self.Be = float(_eta(self.w0, e))
        self.Bf = float(_eta(self.w0, f))
        self.C = float(_eta(self.w0, self.w0))

    def value(self, s: float, t: float) -> float:
        return (
            self.C
            + 2.0 * t * self.Bf
            - 2.0 * s * self.Be
            + t * t * self.Af
            + s * s * self.Ae
            - 2.0 * s * t * self.G
        )

    def dt_value(self, s: float, t: float) -> float:
        """Time component of q(t) - p(s)."""
        return float(self.w0[-1] + t * self.f[-1] - s * self.e[-1])

    def _edge_candidates(self, vertices) -> list[tuple[float, float]]:
        """Interior stationary points of the quadratic on polygon edges."""
        pts: list[tuple[float, float]] = []
        m = len(vertices)
        for k in range(m):
            (s0, t0), (s1, t1) = vertices[k], vertices[(k + 1) % m]
            ds, dt = s1 - s0, t1 - t0
            # F(alpha) along the edge: quadratic with second derivative 2*aa
            aa = self.Ae * ds * ds + self.Af * dt * dt - 2.0 * self.G * ds * dt
            bb = (
                -2.0 * self.Be * ds
                + 2.0 * self.Bf * dt
                + 2.0 * self.Ae * s0 * ds
                + 2.0 * self.Af * t0 * dt
                - 2.0 * self.G * (s0 * dt + t0 * ds)
            )
            if abs(aa) > _ATOL:
                alpha = -bb / (2.0 * aa)
                if 0.0 < alpha < 1.0:
                    pts.append((s0 + alpha * ds, t0 + alpha * dt))
        return pts

    def _interior_candidate(self) -> tuple[float, float] | None:
        det = self.Ae * self.Af - self.G * self.G
        if abs(det) < _ATOL:
            return None
        s = (self.Be * self.Af - self.Bf * self.G) / det
        t = (self.Be * self.G - self.Bf * self.Ae) / det
        if 0.0 < s < 1.0 and 0.0 < t < 1.0:
            return (s, t)
        return None

    def max_on_box(self) -> float:
        box = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cands = list(box) + self._edge_candidates(box)
        inner = self._interior_candidate()
        if inner is not None:
            cands.append(inner)
        vals = [self.value(s, t) for s, t in cands]
        return max(vals)

    def min_on_past_region(self) -> tuple[float, float]:
        """(min interval, dt at that minimizer) over the dt <= 0 region.

        Region: box cut by dt_value(s, t) <= 0, which is affine in (s, t).
        Returns (inf, inf) when the region is empty.
        """
        a = -self.e[-1]
        b = self.f[-1]
        c = self.w0[-1]
        poly = _clip_box_by_halfplane(a, b, c)
        if len(poly) < 1:
            return math.inf, math.inf
        cands = list(poly) + self._edge_candidates(poly)
        inner = self._interior_candidate()
        if inner is not None:
            s, t = inner
            if a * s + b * t + c <= 0.0:
                cands.append(inner)
        best, best_dt = math.inf, math.inf
        for s, t in cands:
            v = self.value(s, t)
            if v < best - _ATOL or (
                v < best + _ATOL and self.dt_value(s, t) < best_dt
            ):
                best, best_dt = v, self.dt_value(s, t)
        return best, best_dt


def _pair_quadratics(P: MinkowskiPath, Q: MinkowskiPath):
    ep, eq = P.events, Q.events
    for i in range(P.n_segments):
        for j in range(Q.n_segments):
            yield _PairQuadratic(
                ep[i], ep[i + 1] - ep[i], eq[j], eq[j + 1] - eq[j]
            )


def scalar_classify(path: MinkowskiPath) -> CausalClass:
    """causal / non_causal / anti_causal, one segment pair at a time."""
    segs = path.segments
    if all(_segment_causal(v) for v in segs):
        return CausalClass.CAUSAL
    # any segment heading into the past cone settles it
    if any(_segment_anti_causal(v) for v in segs):
        return CausalClass.ANTI_CAUSAL
    ev = path.events
    n = path.n_segments
    for i in range(n):
        for j in range(i + 1, n):
            quad = _PairQuadratic(
                ev[i], ev[i + 1] - ev[i], ev[j], ev[j + 1] - ev[j]
            )
            fmin, dt_at = quad.min_on_past_region()
            if fmin < -_ATOL:
                return CausalClass.ANTI_CAUSAL
            if fmin <= _ATOL and dt_at < -_ATOL:
                return CausalClass.ANTI_CAUSAL
    return CausalClass.NON_CAUSAL


def scalar_d1(P: MinkowskiPath, Q: MinkowskiPath) -> float:
    """d1's value (no argument checks), one segment pair at a time."""
    best = max(q.max_on_box() for q in _pair_quadratics(P, Q))
    scale = 1.0 + max(
        float(np.max(np.sum(P.events**2, axis=1))),
        float(np.max(np.sum(Q.events**2, axis=1))),
    )
    if 0.0 < best < 1e-13 * scale:
        return 0.0
    return max(best, 0.0)


class _Branch:
    """One candidate quadratic A u^2 + B u + C, valid on [lo, hi]."""

    __slots__ = ("A", "B", "C", "lo", "hi")

    def __init__(self, A, B, C, lo=0.0, hi=1.0):
        self.A, self.B, self.C = float(A), float(B), float(C)
        self.lo, self.hi = float(lo), float(hi)

    def value(self, u: float) -> float:
        return (self.A * u + self.B) * u + self.C

    def integral(self, u0: float, u1: float) -> float:
        return (
            self.A * (u1**3 - u0**3) / 3.0
            + self.B * (u1**2 - u0**2) / 2.0
            + self.C * (u1 - u0)
        )


def _envelope_branches(a: np.ndarray, e: np.ndarray, Q: MinkowskiPath):
    """Candidate quadratics whose upper envelope is max_q interval(p(u) - q).

    For the point p(u) = a + u e against a Q segment (c, c+f), the
    interval is quadratic in (u, t); its max over t in [0,1] is one of
    the endpoint quadratics (always valid) or the interior stationary
    value (a quadratic in u, valid where 0 < t*(u) < 1, only when the
    t-direction is concave, i.e. f is timelike).
    """
    branches: list[_Branch] = []
    Aee = float(_eta(e, e))
    eq = Q.events
    for j in range(Q.n_segments):
        c, f = eq[j], eq[j + 1] - eq[j]
        for endpoint in (c, c + f):
            U = a - endpoint
            branches.append(_Branch(Aee, 2.0 * float(_eta(U, e)), float(_eta(U, U))))
        Aff = float(_eta(f, f))
        if Aff < -_ATOL:
            U = a - c
            BUf = float(_eta(U, f))
            G = float(_eta(e, f))
            A = Aee - G * G / Aff
            B = 2.0 * float(_eta(U, e)) - 2.0 * BUf * G / Aff
            C = float(_eta(U, U)) - BUf * BUf / Aff
            window = _t_star_window(BUf, G, Aff)
            if window is not None:
                lo, hi = max(0.0, window[0]), min(1.0, window[1])
                if lo < hi:
                    branches.append(_Branch(A, B, C, lo, hi))
    return branches


def _t_star_window(BUf: float, G: float, Aff: float):
    """u-interval where the stationary t*(u) = (BUf + u G)/Aff is in (0,1).

    With Aff < 0 that is equivalent to Aff < BUf + u G < 0.
    """
    if abs(G) <= _ATOL:
        return (-math.inf, math.inf) if (Aff < BUf < 0.0) else None
    a0 = (Aff - BUf) / G
    a1 = -BUf / G
    return (a0, a1) if G > 0 else (a1, a0)


def _integrate_envelope(branches: list[_Branch]) -> float:
    """Exact integral over [0,1] of the upper envelope of the branches.

    Every pairwise crossing and every validity endpoint is a breakpoint,
    so within each sub-interval one branch dominates and integrates in
    closed form; the result is exact up to roundoff and needs no
    sampling refinement.
    """
    cuts = {0.0, 1.0}
    for b in branches:
        if 0.0 < b.lo < 1.0:
            cuts.add(b.lo)
        if 0.0 < b.hi < 1.0:
            cuts.add(b.hi)
    n = len(branches)
    for i in range(n):
        bi = branches[i]
        for j in range(i + 1, n):
            bj = branches[j]
            da, db, dc = bi.A - bj.A, bi.B - bj.B, bi.C - bj.C
            if abs(da) > _ATOL:
                disc = db * db - 4.0 * da * dc
                if disc > 0.0:
                    r = math.sqrt(disc)
                    for root in ((-db - r) / (2 * da), (-db + r) / (2 * da)):
                        if 0.0 < root < 1.0:
                            cuts.add(root)
            elif abs(db) > _ATOL:
                root = -dc / db
                if 0.0 < root < 1.0:
                    cuts.add(root)
    grid = sorted(cuts)
    total = 0.0
    for u0, u1 in zip(grid, grid[1:]):
        um = 0.5 * (u0 + u1)
        active = None
        best = -math.inf
        for b in branches:
            if b.lo <= um <= b.hi:
                v = b.value(um)
                if v > best:
                    best, active = v, b
        total += active.integral(u0, u1)
    return total


def scalar_segment_integral(a: np.ndarray, e: np.ndarray, Q: MinkowskiPath) -> float:
    """integral_0^1 max_q interval(a + u e - q) du, exact."""
    return _integrate_envelope(_envelope_branches(a, e, Q))


def scalar_d2(P: MinkowskiPath, Q: MinkowskiPath, variant: str = "plain") -> float:
    """d2's value (no argument checks), one P segment and branch at a time."""
    if variant == "symmetrized":
        return 0.5 * (scalar_d2(P, Q, "prime") + scalar_d2(Q, P, "prime"))
    total = 0.0
    ev = P.events
    for i in range(P.n_segments):
        vec = ev[i + 1] - ev[i]
        if variant == "prime" and not _segment_causal(vec):
            continue
        dtau = proper_time(vec)
        if dtau == 0.0:
            continue
        total += dtau * scalar_segment_integral(ev[i], vec, Q)
    return total
