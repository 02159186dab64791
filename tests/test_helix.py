import random
from fractions import Fraction

import pytest
from conftest import zero_weights

from quiverstab.catalog import get_entry, sample_geometric_point, tautological_point
from quiverstab.helix import (
    check_prop41_degrees,
    e_chi_degree,
    extend_spiral,
    is_chain,
    theorem43_character,
)
from quiverstab.points import RepresentationPoint, satisfies_relations
from quiverstab.quiver import (
    Arrow,
    DomainError,
    Quiver,
    QuiverError,
    arrow_degree,
    grading_certificate,
)
from quiverstab.stability import Character, WeightMatrix, character_from_weights

P2 = get_entry("p2")


class TestIsChain:
    def test_catalog_chains(self):
        assert is_chain(P2.quiver)
        assert is_chain(get_entry("pn(3)").quiver)

    def test_f1_is_not_a_chain(self):
        assert not is_chain(get_entry("f1").quiver)

    def test_extension_is_not_a_chain(self):
        assert not is_chain(get_entry("p2-helix").quiver)


class TestExtendSpiral:
    def test_p2_plus_three(self):
        q = extend_spiral(P2.quiver, 3, labels=("x0", "x1", "x2"))
        assert len(q.arrows) == 9
        added = [a for a in q.arrows if a.weight == 1]
        assert [a.id for a in added] == ["h1", "h2", "h3"]
        assert all(a.source == 1 and a.target == 3 for a in added)
        assert all(arrow_degree(q, a) == 1 for a in q.arrows)
        assert grading_certificate(q).passed

    def test_matches_catalog_entry(self):
        assert extend_spiral(P2.quiver, 3, labels=("x0", "x1", "x2")) == get_entry(
            "p2-helix"
        ).quiver

    def test_two_node_extension(self):
        base = Quiver(n=2, arrows=(Arrow("a21_1", 2, 1),))
        q = extend_spiral(base, 1)
        h = q.arrow("h1")
        assert (h.source, h.target, h.weight) == (1, 2, 1)
        assert arrow_degree(q, h) == 1

    def test_non_chain_rejected(self):
        with pytest.raises(DomainError):
            extend_spiral(get_entry("f1").quiver, 1)

    @pytest.mark.parametrize("added_dim,labels", [(0, None), (2, ("x0",)), (1, ("x*",))])
    def test_bad_arguments_are_checked_before_the_chain(self, added_dim, labels):
        with pytest.raises(QuiverError) as info:
            extend_spiral(get_entry("f1").quiver, added_dim, labels=labels)
        assert not isinstance(info.value, DomainError)

    def test_gg_not_carried(self):
        q = extend_spiral(P2.quiver, 3, labels=("x0", "x1", "x2"))
        assert q.gg is None

    def test_unlabeled_extension_keeps_relations(self):
        q = extend_spiral(P2.quiver, 2)
        assert q.relations == P2.quiver.relations

    def test_added_dim_at_least_one(self):
        with pytest.raises(QuiverError, match="added_dim must be at least 1"):
            extend_spiral(P2.quiver, 0)

    def test_label_count_mismatch(self):
        with pytest.raises(QuiverError):
            extend_spiral(P2.quiver, 3, labels=("x0",))


class TestTheorem43Character:
    def test_zero_matrix(self):
        m = zero_weights(3)
        assert theorem43_character(m).chi == (-1, 0, 1)

    def test_p2_m12(self):
        m = WeightMatrix.from_entries(3, {(1, 2): 1})
        assert theorem43_character(m).chi == (-2, 1, 1)

    def test_p1xp1_spiral_weights(self):
        m = WeightMatrix.from_entries(4, {(1, 2): 1, (1, 3): 1})
        assert theorem43_character(m).chi == (-3, 1, 1, 1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_nodes(self, n):
        with pytest.raises(ValueError):
            theorem43_character(zero_weights(n))

    def test_equals_incremented_weight_character(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 5)
            entries = {
                (i, j): rng.randint(0, 3)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            }
            m = WeightMatrix.from_entries(n, entries)
            shifted = WeightMatrix.from_entries(n, {**entries, (1, n): entries[(1, n)] + 1})
            assert theorem43_character(m) == character_from_weights(shifted)


class TestEChiDegree:
    def test_p2(self):
        assert e_chi_degree(Character((-2, 1, 1)), P2.quiver.pic) == (3,)

    def test_f1(self):
        f1 = get_entry("f1")
        assert e_chi_degree(Character((-1, -1, 1, 1)), f1.quiver.pic) == (3, -1)

    def test_zero_character(self):
        assert e_chi_degree(Character((0, 0)), ((0, 0), (1, 1))) == (0, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            e_chi_degree(Character((-1, 1)), ((0,), (1,), (2,)))

    def test_mixed_ranks(self):
        with pytest.raises(ValueError, match="mixed ranks"):
            e_chi_degree(Character((-1, 0, 1)), ((0,), (1, 0), (2,)))


class TestDegreeCheck:
    def test_p2_m12_consistent(self):
        m = WeightMatrix.from_entries(3, {(1, 2): 1})
        check = check_prop41_degrees(P2.quiver, m)
        assert check.consistent
        assert check.left == check.right == (1,)

    def test_p2_m23_consistent(self):
        m = WeightMatrix.from_entries(3, {(2, 3): 1})
        assert check_prop41_degrees(P2.quiver, m)

    def test_p2_m12_twice_inconsistent(self):
        m = WeightMatrix.from_entries(3, {(1, 2): 2})
        check = check_prop41_degrees(P2.quiver, m)
        assert not check.consistent
        assert check.left != check.right

    def test_spiral_chain(self):
        entry = get_entry("p1xp1-spiral")
        # pic(E_1) - pic(E_4) - K = (0,0) - (2,1) + (2,2) = (0,1) = pic(E_3) - pic(E_2)
        m = WeightMatrix.from_entries(4, {(2, 3): 1})
        check = check_prop41_degrees(entry.quiver, m)
        assert check.consistent
        assert check.left == check.right == (0, 1)

    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral", "pn(3)"])
    def test_left_is_the_weighted_pic_sum(self, name):
        q = get_entry(name).quiver
        rng = random.Random(name)
        for _ in range(100):
            entries = {
                (i, j): rng.choice([0, 0, 1, 2])
                for i in range(1, q.n + 1)
                for j in range(1, q.n + 1)
                if i != j
            }
            left = [0] * len(q.canonical)
            for (i, j), w in entries.items():
                for k in range(len(left)):
                    left[k] += w * (q.pic[j - 1][k] - q.pic[i - 1][k])
            check = check_prop41_degrees(q, WeightMatrix.from_entries(q.n, entries))
            assert check.left == tuple(left)

    def test_missing_pic_data(self):
        q = Quiver(n=2, arrows=(Arrow("a", 2, 1),))
        with pytest.raises(QuiverError):
            check_prop41_degrees(q, zero_weights(2))

    def test_weight_matrix_size_mismatch(self):
        with pytest.raises(ValueError, match="weight matrix size 2 != n = 3"):
            check_prop41_degrees(P2.quiver, zero_weights(2))


class TestProjectionToBase:
    def test_restriction_satisfies_base_relations(self):
        # forgetting the weight-1 arrows of a total-space point leaves a
        # representation of the base chain
        helix = get_entry("p2-helix")
        rng = random.Random(37)
        for _ in range(20):
            cox, lam = sample_geometric_point(helix, rng)
            p = tautological_point(helix, cox, lam)
            base_vals = {
                a.id: p.value(a.id) for a in P2.quiver.arrows
            }
            base_point = RepresentationPoint.for_quiver(P2.quiver, base_vals)
            assert satisfies_relations(P2.quiver, base_point)
