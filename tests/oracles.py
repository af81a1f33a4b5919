"""Independent reference implementations used only by the tests.

Deliberately naive: pure Python loops, no numpy, no shared code with the
package's evaluation routes, so that agreement is meaningful.  The one
exception is the sliding-window reference, which uses numpy vector adds
so it can run at the sizes the banded route runs at.
"""

import math

import numpy as np


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
