import json
from fractions import Fraction

import pytest
from conftest import zero_point
from hypothesis import given, settings
from hypothesis import strategies as hst

from quiverstab.catalog import get_entry, tautological_point
from quiverstab.points import (
    PointError,
    RepresentationPoint,
    TorusElement,
    evaluate_path,
    satisfies_relations,
    torus_act,
    vanishing_pattern,
)
from quiverstab.quiver import Path


P2 = get_entry("p2")

nonzero_rationals = hst.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(lambda f: f != 0)
rationals = hst.fractions(min_value=-20, max_value=20, max_denominator=12)


def p2_point(v12, v23):
    values = {}
    for k, x in zip(("a21_1", "a21_2", "a21_3"), v12):
        values[k] = x
    for k, x in zip(("a32_1", "a32_2", "a32_3"), v23):
        values[k] = x
    return RepresentationPoint.for_quiver(P2.quiver, values)


class TestEvaluatePath:
    def test_empty_path_is_one(self):
        p = p2_point((1, 2, 0), (2, 4, 0))
        assert evaluate_path(p, Path(2)) == 1

    def test_two_arrow_product(self):
        p = p2_point((2, 0, 0), (3, 0, 0))
        path = Path(3, (P2.quiver.arrow("a32_1"), P2.quiver.arrow("a21_1")))
        assert evaluate_path(p, path) == 6

    def test_y_then_x(self):
        p = p2_point((1, 2, 0), (2, 4, 0))
        path = Path(3, (P2.quiver.arrow("a32_2"), P2.quiver.arrow("a21_1")))
        assert evaluate_path(p, path) == 4

    def test_missing_value(self):
        p = RepresentationPoint.from_mapping({"a21_1": 1})
        with pytest.raises(PointError):
            evaluate_path(p, Path(3, (P2.quiver.arrow("a32_1"), P2.quiver.arrow("a21_1"))))


class TestSatisfiesRelations:
    def test_parallel_vectors_pass(self):
        assert satisfies_relations(P2.quiver, p2_point((1, 2, 0), (2, 4, 0)))

    def test_non_parallel_fail(self):
        assert not satisfies_relations(P2.quiver, p2_point((1, 0, 0), (0, 1, 0)))

    def test_zero_point_passes(self):
        assert satisfies_relations(P2.quiver, zero_point(P2.quiver))


class TestTorusAction:
    def test_identity(self):
        p = p2_point((1, 2, 3), (4, 5, 6))
        g = TorusElement((1, 1, 1))
        assert torus_act(P2.quiver, p, g) == p

    def test_global_scalar_acts_trivially(self):
        p = p2_point((1, 2, 3), (4, 5, 6))
        g = TorusElement((7, 7, 7))
        assert torus_act(P2.quiver, p, g) == p

    def test_scaling_per_arrow(self):
        p = p2_point((2, 2, 2), (4, 4, 4))
        g = TorusElement((1, 2, 1))
        acted = torus_act(P2.quiver, p, g)
        # arrow 2 -> 1 housing a_12 scales by t_1 / t_2; arrow 3 -> 2 by t_2 / t_3
        assert acted.value("a21_1") == 1
        assert acted.value("a32_1") == 8

    def test_zero_entry_rejected(self):
        with pytest.raises(PointError):
            TorusElement((1, 0, 1))

    def test_rank_mismatch(self):
        with pytest.raises(PointError, match="torus element rank 2 != n = 3"):
            torus_act(P2.quiver, p2_point((1, 2, 3), (4, 5, 6)), TorusElement((1, 2)))

    @given(
        v=hst.tuples(*[rationals] * 6),
        g=hst.tuples(*[nonzero_rationals] * 3),
        h=hst.tuples(*[nonzero_rationals] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_action_law(self, v, g, h):
        p = p2_point(v[:3], v[3:])
        gh = TorusElement(tuple(a * b for a, b in zip(g, h)))
        assert torus_act(P2.quiver, p, gh) == torus_act(
            P2.quiver, torus_act(P2.quiver, p, TorusElement(h)), TorusElement(g)
        )

    @given(
        v=hst.tuples(*[rationals] * 6),
        g=hst.tuples(*[nonzero_rationals] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_relation_preservation_and_vanishing(self, v, g):
        p = p2_point(v[:3], v[3:])
        acted = torus_act(P2.quiver, p, TorusElement(g))
        assert satisfies_relations(P2.quiver, p) == satisfies_relations(P2.quiver, acted)
        assert vanishing_pattern(p) == vanishing_pattern(acted)


class TestVanishingPattern:
    def test_zero_point(self):
        p = zero_point(P2.quiver)
        assert vanishing_pattern(p) == {a.id for a in P2.quiver.arrows}

    def test_tautological_at_unit_point(self):
        p = tautological_point(P2, [1, 0, 0])
        assert vanishing_pattern(p) == {"a21_2", "a21_3", "a32_2", "a32_3"}

    def test_generic_point_empty(self):
        p = p2_point((1, 2, 3), (4, 5, 6))
        assert vanishing_pattern(p) == frozenset()


class TestPointIO:
    def test_round_trip(self):
        # a point file holds each value as a string, as str() writes it
        p = p2_point((Fraction(1, 2), 2, 0), (1, 4, Fraction(-7, 3)))
        text = json.dumps({k: str(v) for k, v in p.values})
        assert RepresentationPoint.for_quiver(P2.quiver, json.loads(text)) == p

    def test_fraction_strings(self):
        p = RepresentationPoint.from_mapping({"a": "3/4", "b": "-2"})
        assert p.value("a") == Fraction(3, 4)
        assert p.value("b") == -2

    def test_floats_rejected(self):
        with pytest.raises(PointError):
            RepresentationPoint.from_mapping({"a": 0.5})
        with pytest.raises(PointError):
            RepresentationPoint((("a", 0.5),))
        with pytest.raises(PointError):
            TorusElement((1, True))

    def test_for_quiver_requires_every_arrow(self):
        with pytest.raises(PointError):
            RepresentationPoint.for_quiver(P2.quiver, {"a21_1": 1})
