"""Independent reference implementations used only by the tests.

Deliberately naive: pure Python loops, no numpy, no shared code with the
package's evaluation routes, so that agreement is meaningful.  The
exceptions run at the sizes the banded route runs at: the sliding-window
reference uses numpy vector adds, and the untiled banded kernel and the
two-pass toy sweep cell keep the plain forms the package's tiled kernel
and one-build cell must reproduce bit for bit.
"""

import functools
import math

import numpy as np

from realpathsim.engine import PathDistribution, smeared_components
from realpathsim.paths import PathEnsemble
from realpathsim.toymodels import M1Spec, M2Spec, M3Spec, build_model


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


def distribution_csv_rows(dist):
    """Rows of the distribution CSV formatted one value at a time."""
    lines = [f"# norm_constant = {float(dist.norm_constant):.17g}"]
    lines.append("index,prob,smeared_re,smeared_im,denom")
    for i in range(dist.n_paths):
        values = (dist.probs[i], dist.smeared[i].real, dist.smeared[i].imag, dist.denom[i])
        lines.append(",".join([str(i + 1)] + [f"{float(x):.17g}" for x in values]))
    return "\n".join(lines) + "\n"


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
