"""Independent reference implementations used only by the tests.

Deliberately naive: pure Python loops, no numpy, no shared code with the
package's evaluation routes, so that agreement is meaningful.  The
exceptions run at the sizes the banded route runs at: the sliding-window
reference uses numpy vector adds, and the untiled banded kernel and the
two-pass toy sweep cell keep the plain forms the package's tiled kernel
and one-build cell must reproduce bit for bit.  The screen model's
materializer and block_distance_matrix build numpy arrays for the dense
engine to read; the materializer's distance tables come from
step_distance_table, not from the package's distance code.

The composite-path layer lives here too: CompositePath, compose and the
product/sequence composition rules define the max-of-steps distance the
banded K=3 kernel evaluates for the screen model.
"""

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from realpathsim.engine import (
    PathDistribution,
    banded_smeared,
    smeared_components,
    weighted_probabilities,
)
from realpathsim.errors import ModelTooLarge, RealPathError
from realpathsim.paths import PathEnsemble, SpacetimePath
from realpathsim.screen import _components
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


def composite_unnormalized(spec, j):
    """Unnormalized probability of every composite path of screen endpoint j.

    Shape (N_j, N', N''), from the banded K=3 kernel at the spec's D.
    """
    smeared, denom = banded_smeared(_components(spec, j), spec.D)
    return weighted_probabilities(smeared, denom)


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
        amps_p, amps_s, amps_a = _components(spec, j)
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
