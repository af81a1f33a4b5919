"""Composite-path distance rules and permutation symmetrization."""

import math
from itertools import permutations

import numpy as np
import pytest

from oracles import (
    CompositePath,
    CompositionRule,
    SpacetimePath,
    StructureMismatch,
    TooManyComponents,
    composite_distance,
    compose,
    galilean_distance,
    symmetrized_distance,
)


def table_base(table):
    return lambda a, b: table[(a, b)]


def pair(d0, d1):
    """Two-component products with fixed component distances d0, d1."""
    P = CompositePath("product", ("p0", "p1"))
    Q = CompositePath("product", ("q0", "q1"))
    table = {("p0", "q0"): d0, ("p1", "q1"): d1}
    return P, Q, table_base(table)


def test_product_rules_forced_arithmetic():
    P, Q, base = pair(3.0, 5.0)
    vals = {
        "max": 5.0,
        "sum": 8.0,
        "average": 4.0,
        "geometric_mean": math.sqrt(15.0),
    }
    for rule, expected in vals.items():
        got = composite_distance(P, Q, CompositionRule(product_rule=rule), base)
        assert got == pytest.approx(expected)


def test_zero_components_give_zero_under_max():
    P, Q, base = pair(0.0, 0.0)
    assert composite_distance(P, Q, CompositionRule(), base) == 0.0


def test_nested_product_then_sequence():
    inner_p = CompositePath("product", ("p1", "p2"))
    inner_q = CompositePath("product", ("q1", "q2"))
    P = CompositePath("sequence", (inner_p, "p3"))
    Q = CompositePath("sequence", (inner_q, "q3"))
    base = table_base({("p1", "q1"): 1.0, ("p2", "q2"): 2.0, ("p3", "q3"): 4.0})
    assert composite_distance(P, Q, CompositionRule(), base) == 4.0


def test_extended_real_conventions():
    P, Q, base = pair(math.inf, 2.0)
    assert composite_distance(P, Q, CompositionRule("max"), base) == math.inf
    assert composite_distance(P, Q, CompositionRule("sum"), base) == math.inf
    assert composite_distance(P, Q, CompositionRule("average"), base) == math.inf
    assert composite_distance(P, Q, CompositionRule("geometric_mean"), base) == math.inf
    P0, Q0, base0 = pair(0.0, 2.0)
    assert composite_distance(P0, Q0, CompositionRule("geometric_mean"), base0) == 0.0


def test_structure_mismatch():
    P = CompositePath("product", ("a", "b"))
    Q = CompositePath("sequence", ("c", "d"))
    with pytest.raises(StructureMismatch):
        composite_distance(P, Q, CompositionRule(), lambda a, b: 0.0)
    Q2 = CompositePath("product", ("c",))
    with pytest.raises(StructureMismatch):
        composite_distance(P, Q2, CompositionRule(), lambda a, b: 0.0)
    with pytest.raises(StructureMismatch):
        composite_distance(P, "leaf", CompositionRule(), lambda a, b: 0.0)


def test_component_span_mismatch():
    short = SpacetimePath([[0.0, 0.0], [0.0, 1.0]])
    long = SpacetimePath([[0.0, 0.0], [0.0, 2.0]])
    P = CompositePath("product", (short,))
    Q = CompositePath("product", (long,))
    with pytest.raises(StructureMismatch):
        composite_distance(P, Q, CompositionRule(), lambda a, b: 0.0)


def test_symmetrized_single_component_equals_plain():
    P = CompositePath("product", ("a",))
    Q = CompositePath("product", ("b",))
    base = table_base({("a", "b"): 3.5})
    rule = CompositionRule()
    assert symmetrized_distance(P, Q, rule, base) == composite_distance(P, Q, rule, base)


def test_symmetrized_swap_example():
    # P = (a, b) vs Q = (b, a): the swap permutation aligns equal species
    P = CompositePath("product", ("a", "b"))
    Q = CompositePath("product", ("b", "a"))
    table = {
        ("a", "b"): 7.0, ("b", "a"): 7.0,
        ("a", "a"): 0.0, ("b", "b"): 0.0,
    }
    assert symmetrized_distance(P, Q, CompositionRule(), table_base(table)) == 0.0
    Q_same = CompositePath("product", ("a", "b"))
    assert symmetrized_distance(P, Q_same, CompositionRule(), table_base(table)) == 0.0


def test_symmetrized_invariant_under_permutations():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        labels_p = [f"p{k}" for k in range(n)]
        labels_q = [f"q{k}" for k in range(n)]
        table = {
            (a, b): float(rng.uniform(0, 5))
            for a in labels_p
            for b in labels_q
        }
        base = table_base(table)
        P = CompositePath("product", tuple(labels_p))
        rule = CompositionRule(product_rule="sum")
        ref = symmetrized_distance(
            P, CompositePath("product", tuple(labels_q)), rule, base
        )
        for perm in permutations(range(n)):
            Qp = CompositePath("product", tuple(labels_q[k] for k in perm))
            assert symmetrized_distance(P, Qp, rule, base) == pytest.approx(ref)
            assert symmetrized_distance(P, Qp, rule, base) <= composite_distance(
                P, Qp, rule, base
            )


def test_symmetrize_component_budget():
    P = CompositePath("product", tuple(range(9)))
    Q = CompositePath("product", tuple(range(9)))
    with pytest.raises(TooManyComponents):
        symmetrized_distance(P, Q, CompositionRule(), lambda a, b: 0.0)


def test_rule_serialization():
    with pytest.raises(ValueError):
        CompositionRule(product_rule="median")
    with pytest.raises(ValueError):
        CompositionRule(sequence_rule="sum")


def test_real_spacetime_composites_through_compose():
    a1 = SpacetimePath([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    a2 = SpacetimePath([[0.0, 0.0], [-1.0, 1.0], [0.0, 2.0]])
    b1 = SpacetimePath([[0.0, 2.0], [0.0, 3.0]])
    P = compose("sequence", [compose("product", [a1, a2]), b1])
    Q = compose("sequence", [compose("product", [a2, a1]), b1])
    from realpathsim.distances import DistanceSpec

    base = lambda p, q: galilean_distance(p, q, DistanceSpec("max_sep"))
    d = composite_distance(P, Q, CompositionRule(), base)
    assert d == pytest.approx(2.0)  # max gap between the mirrored legs
