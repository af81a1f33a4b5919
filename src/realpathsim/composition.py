"""Distance composition rules for product and sequence composites.

A composite path distance is built recursively from component distances:
products (simultaneous subsystems) combine under max, sum, average, or
geometric mean; sequences (temporal concatenation) combine under max.
For indistinguishable components the symmetrized distance minimizes over
all permutations of one side's components.

Extended-real conventions (limits of the finite formulas): inf is
absorbing in sum and max; an average over a set containing inf is inf;
a geometric mean containing inf is inf, otherwise containing a 0 it is
0 (inf wins the indeterminate mixed case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from .errors import StructureMismatch, TooManyComponents
from .paths import _SPAN_ATOL, CompositePath, _span_of

PRODUCT_RULES = ("max", "sum", "average", "geometric_mean")
SEQUENCE_RULES = ("max",)

MAX_SYMMETRIZE_COMPONENTS = 8


@dataclass(frozen=True)
class CompositionRule:
    product_rule: str = "max"
    sequence_rule: str = "max"
    symmetrize: bool = False

    def __post_init__(self):
        if self.product_rule not in PRODUCT_RULES:
            raise ValueError(f"unknown product rule {self.product_rule!r}")
        if self.sequence_rule not in SEQUENCE_RULES:
            raise ValueError(f"unknown sequence rule {self.sequence_rule!r}")

    @classmethod
    def from_dict(cls, data: dict | None) -> "CompositionRule":
        if not data:
            return cls()
        return cls(
            product_rule=data.get("product", "max"),
            sequence_rule=data.get("sequence", "max"),
            symmetrize=bool(data.get("symmetrize", False)),
        )

    def to_dict(self) -> dict:
        return {
            "product": self.product_rule,
            "sequence": self.sequence_rule,
            "symmetrize": self.symmetrize,
        }


def _reduce(rule: str, values: list[float]) -> float:
    if rule == "max":
        return max(values)
    if rule == "sum":
        return sum(values)
    if rule == "average":
        return sum(values) / len(values)
    # geometric mean with extended-real conventions
    if any(v == math.inf for v in values):
        return math.inf
    if any(v == 0.0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def composite_distance(P, Q, rule: CompositionRule, base: Callable) -> float:
    """Recursive composite distance; ``base`` evaluates leaf pairs.

    P and Q must have identical composite structure: same kind, same
    arity, and matching component time spans where spans are known.
    """
    p_comp = isinstance(P, CompositePath)
    q_comp = isinstance(Q, CompositePath)
    if p_comp != q_comp:
        raise StructureMismatch("composite paired with a leaf")
    if not p_comp:
        return float(base(P, Q))
    if P.kind != Q.kind:
        raise StructureMismatch(f"kind {P.kind} vs {Q.kind}")
    if len(P.components) != len(Q.components):
        raise StructureMismatch(
            f"arity {len(P.components)} vs {len(Q.components)}"
        )
    for p, q in zip(P.components, Q.components):
        sp, sq = _span_of(p), _span_of(q)
        if sp is not None and sq is not None:
            if abs(sp[0] - sq[0]) > _SPAN_ATOL or abs(sp[1] - sq[1]) > _SPAN_ATOL:
                raise StructureMismatch(f"component spans {sp} vs {sq}")
    parts = [
        composite_distance(p, q, rule, base)
        for p, q in zip(P.components, Q.components)
    ]
    if P.kind == "product":
        return _reduce(rule.product_rule, parts)
    return _reduce(rule.sequence_rule, parts)


def symmetrized_distance(P, Q, rule: CompositionRule, base: Callable) -> float:
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
    best = math.inf
    for perm in permutations(range(n)):
        permuted = CompositePath("product", tuple(Q.components[k] for k in perm))
        d = composite_distance(P, permuted, rule, base)
        if d < best:
            best = d
    return best
