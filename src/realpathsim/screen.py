"""Interferometry with a screen: composite particle x screen ensembles.

The full history of one detection runs from emission (t=0) to well after
impact (t=T_f): a particle path to endpoint B_j in product with a
pre-impact screen path, followed in sequence by a post-absorption screen
path whose constant-phase block sits at an impact anchor M''_j:

    (particle path  x  screen path)  then  post-absorption screen path.

Component families are indexed ensembles: each endpoint j has its own
multi-beam particle family (disjoint index spaces across endpoints, so
the cross-endpoint particle distance defaults to infinity), the
pre-impact screen family is one shared single-block pattern, and the
post-absorption family is a shared index space whose block position
depends on the impact endpoint.  The block width K'' is one constant
for all endpoints; letting it vary would let post-impact screen
dynamics retroactively shift detection probabilities.

The composite distance is the max of component step distances, the
windows D-1 and D with weights w_r = 1/2.  A composite row's smeared
amplitude, sum_r w_r prod_c S_c^r(i_c), and volume, sum_r w_r prod_c
N_c^r(i_c), depend only on each family's window sums S and counts N.
So an endpoint's mass is the sum of n1 n2 n3 |s|^2 / c over the triples
of each family's distinct rows (``engine.distinct_rows``), each of n_c
rows, whatever the number of composite paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import DistanceSpec
from .engine import CompactPrefix, distinct_rows, kernel_windows, weighted_probabilities
from .errors import ModelTooLarge, SpecViolation, integer
from .toymodels import M1Spec, M3Spec, build_grammar


@dataclass(frozen=True)
class ScreenSpec:
    """Parameters of the screen model.

    ``endpoints`` maps each impact point B_j to its particle-path family
    (an M3Spec); ``screen_before`` is the shared pre-impact screen family
    (M1Spec); the post-absorption family has ``n_after`` paths with a
    constant block of width ``k_after``+1 anchored at ``anchors[j]``.
    """

    D: int
    endpoints: tuple[M3Spec, ...]
    screen_before: M1Spec
    n_after: int
    k_after: int
    anchors: tuple

    def __post_init__(self):
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        object.__setattr__(self, "anchors", tuple(integer(a, "an anchor") for a in self.anchors))
        if len(self.endpoints) < 1:
            raise SpecViolation("need at least one endpoint")
        if len(self.anchors) != len(self.endpoints):
            raise SpecViolation("one impact anchor per endpoint required")
        if self.D < 1:
            raise SpecViolation("D must be a positive integer")
        # each anchor block must be a valid single-region pattern;
        # this enforces the parity conditions per endpoint
        for a in self.anchors:
            M1Spec(N=self.n_after, M=a, K=self.k_after)

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoints)

    def total_paths(self) -> int:
        n_before = self.screen_before.N
        return sum(e.N * n_before * self.n_after for e in self.endpoints)

    def validate_separations(self):
        """Ordering chain keeping impact records mutually d-distant."""
        D, K = self.D, self.k_after
        gap = 2 * D + 1
        if not gap < self.anchors[0]:
            raise SpecViolation("need 2D+1 < first impact anchor")
        for a, b in zip(self.anchors, self.anchors[1:]):
            if not b > a + K + gap:
                raise SpecViolation(f"impact anchors {a}, {b} closer than K''+2D+1")
        if not self.anchors[-1] + K + gap < self.n_after:
            raise SpecViolation("last impact anchor too close to the end")


# distinct row triples a model admits, no more than its paths: about the
# 25 s of BANDED_BOUND at 22 to 31 ns a triple (one core of a 2-core host)
MAX_DISTINCT_TRIPLES = 10**9


def _triples(a, b, c):  # a_i b_j c_k as an (i, j, k) array, multiplied in that order
    return np.multiply.outer(np.multiply.outer(a, b), c)


def _mass(families, weights) -> float:
    """Sum of n1 n2 n3 |s|^2 / c over the distinct row triples of three distinct_rows.

    s and c are the window sums and counts weighted by radius and
    multiplied over the families, as the composite's rows take them.
    """
    (s1, c1, n1), (s2, c2, n2), (s3, c3, n3) = families
    block = max(1, (1 << 15) // (n2.size * n3.size))  # about 2^15 triples at once, in cache
    masses = []
    for t in range(0, n1.size, block):
        u = slice(t, t + block)
        s = sum(w * _triples(s1[u, m], s2[:, m], s3[:, m]) for m, w in enumerate(weights))
        c = sum(w * _triples(c1[u, m], c2[:, m], c3[:, m]) for m, w in enumerate(weights))
        n = _triples(*(x.astype(float) for x in (n1[u], n2, n3)))
        masses.append(float(np.sum(n * weighted_probabilities(s, c))))
    return math.fsum(masses)


@dataclass
class ScreenResult:
    """Per-endpoint unnormalized masses and quantum values."""

    totals: dict
    quantum: dict

    def ratio_rows(self) -> list[dict]:
        """All ordered endpoint pairs with direct and quantum ratios.

        A zero direct denominator is flagged (degenerate) rather than
        raised; the ratio is reported as inf.
        """
        qz = sum(self.quantum.values()) or 1.0
        tz = sum(self.totals.values()) or 1.0
        rows = []
        for j in self.totals:
            for k in self.totals:
                if j == k:
                    continue
                degenerate = self.totals[k] == 0.0
                direct = math.inf if degenerate else self.totals[j] / self.totals[k]
                quantum = (
                    math.inf if self.quantum[k] == 0.0 else self.quantum[j] / self.quantum[k]
                )
                if math.isinf(quantum) or quantum == 0.0 or math.isinf(direct):
                    rel = math.nan
                else:
                    rel = abs(direct - quantum) / quantum
                rows.append(
                    {
                        "j": j,
                        "k": k,
                        "direct_ratio": direct,
                        "quantum_ratio": quantum,
                        "rel_err": rel,
                        "degenerate": degenerate,
                        "direct_prob_j": self.totals[j] / tz,
                        "quantum_prob_j": self.quantum[j] / qz,
                    }
                )
        return rows


def evaluate_screen_model(spec: ScreenSpec) -> ScreenResult:
    """Endpoint detection masses, each family admitted before any is built."""
    spec.validate_separations()
    endpoints = [(p, spec.screen_before, M1Spec(N=spec.n_after, M=a, K=spec.k_after))
                 for p, a in zip(spec.endpoints, spec.anchors)]
    windows = {f: kernel_windows(DistanceSpec("step", D=spec.D), f.N) for fs in endpoints for f in fs}
    rows = {}
    for f, w in windows.items():
        grammar = build_grammar(f)
        rows[f] = distinct_rows(CompactPrefix(f.N, grammar.amplitudes, grammar.spans), w)
    triples = sum(math.prod(rows[f][2].size for f in fs) for fs in endpoints)
    if triples > MAX_DISTINCT_TRIPLES:  # before any triple is formed
        raise ModelTooLarge(f"{triples} distinct row triples exceed {MAX_DISTINCT_TRIPLES:.0e}")
    weights = windows[spec.screen_before].weights
    return ScreenResult(totals={j: _mass([rows[f] for f in fs], weights) for j, fs in enumerate(endpoints)},
                        quantum={j: abs(p.beam_sum) ** 2 for j, p in enumerate(spec.endpoints)})
