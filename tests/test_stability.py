import random
from fractions import Fraction

import pytest

from quiverstab.catalog import get_entry, sample_cox_values, tautological_point
from quiverstab.points import RepresentationPoint, TorusElement, torus_act
from quiverstab.quiver import Arrow, Quiver, QuiverError
from quiverstab.stability import (
    Character,
    EnumerationCapError,
    SupportFamily,
    WeightMatrix,
    certify_good,
    certify_great,
    character_from_weights,
    stability_cone,
    stability_report,
    subrep_supports,
    supports_from_generators,
)

P2 = get_entry("p2")
F1 = get_entry("f1")


def p2_point(v12, v23):
    values = dict(zip(("a21_1", "a21_2", "a21_3"), v12))
    values.update(zip(("a32_1", "a32_2", "a32_3"), v23))
    return RepresentationPoint.for_quiver(P2.quiver, values)


def random_point(q, rng, zero_prob=0.3):
    values = {}
    for a in q.arrows:
        if rng.random() < zero_prob:
            values[a.id] = 0
        else:
            v = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            values[a.id] = -v if rng.random() < 0.5 else v
    return RepresentationPoint.for_quiver(q, values)


def random_character(n, rng):
    chi = [rng.randint(-3, 3) for _ in range(n - 1)]
    chi.append(-sum(chi))
    return Character(tuple(chi))


class TestCharacter:
    def test_sum_constraint(self):
        with pytest.raises(ValueError):
            Character((1, 1, 1))

    @pytest.mark.parametrize("chi", [(0.5, -0.5), (1.0, -1), (True, -1), ("1", -1)])
    def test_entries_are_integers(self, chi):
        with pytest.raises(ValueError):
            Character(chi)

    def test_zero_nodes_rejected(self):
        # every quiver has n >= 1, so an empty character matches none
        with pytest.raises(ValueError, match="at least one node"):
            Character(())


class TestWeightMatrix:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(((0, -1), (0, 0)))

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(((1, 0), (0, 0)))

    @pytest.mark.parametrize("m", [((0, 1.9), (True, 0)), ((0, 1.0), (0, 0)), ((0, "1"), (0, 0))])
    def test_entries_are_integers(self, m):
        with pytest.raises(ValueError):
            WeightMatrix(m)

    @pytest.mark.parametrize("entry", [(0, 1), (4, 1), (1, 0), (1, 4), (-1, 2)])
    def test_from_entries_rejects_an_index_outside_1_to_n(self, entry):
        # (0, 1) would index rows[-1], the last row, and (4, 1) past the end
        with pytest.raises(ValueError, match=rf"weight entry \({entry[0]}, {entry[1]}\)"):
            WeightMatrix.from_entries(3, {entry: 2})

    @pytest.mark.parametrize("entry", [(True, 2), (1.5, 1), (1, "2")])
    def test_from_entries_indices_are_integers(self, entry):
        with pytest.raises(ValueError):
            WeightMatrix.from_entries(3, {entry: 2})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WeightMatrix(()),
            lambda: WeightMatrix.zero(0),
            lambda: WeightMatrix.from_entries(0, {}),
        ],
        ids=["constructor", "zero", "from_entries"],
    )
    def test_zero_nodes_rejected(self, build):
        with pytest.raises(ValueError, match="at least one node"):
            build()


class TestSubrepSupports:
    def test_generic_p2_point(self):
        p = p2_point((1, 1, 1), (1, 1, 1))
        fam = subrep_supports(P2.quiver, p)
        assert fam.supports == {
            frozenset(),
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({1, 2, 3}),
        }

    def test_zero_point_all_subsets(self):
        fam = subrep_supports(P2.quiver, RepresentationPoint.zero(P2.quiver))
        assert len(fam.supports) == 8

    def test_first_level_zero(self):
        with pytest.warns(UserWarning):
            # a_12 = 0, a_23 != 0 violates no relation but triggers no warning;
            # build a genuinely non-relational point to check the warning too
            subrep_supports(P2.quiver, p2_point((1, 0, 0), (0, 1, 0)))
        fam = subrep_supports(P2.quiver, p2_point((0, 0, 0), (1, 0, 0)))
        assert fam.supports == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
        }

    def test_capacity_error(self):
        q = Quiver(n=21, arrows=tuple(Arrow(f"a{j}", j, j - 1) for j in range(2, 22)))
        p = RepresentationPoint.zero(q)
        with pytest.raises(EnumerationCapError):
            subrep_supports(q, p)
        with pytest.raises(EnumerationCapError):
            stability_report(q, p, Character((-1,) + (0,) * 19 + (1,)))

    def test_family_contains_extremes(self):
        with pytest.raises(ValueError):
            SupportFamily(2, frozenset({frozenset()}))

    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "p1xp1-spiral"])
    def test_generator_oracle_equivalence(self, name):
        q = get_entry(name).quiver
        rng = random.Random(7)
        for _ in range(40):
            p = random_point(q, rng)
            brute = subrep_supports(q, p, warn=False)
            generated = supports_from_generators(q, p)
            assert brute == generated

    def test_union_intersection_closure(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_point(F1.quiver, rng)
            fam = subrep_supports(F1.quiver, p, warn=False).supports
            for s in fam:
                for t in fam:
                    assert s | t in fam
                    assert s & t in fam


@pytest.mark.filterwarnings("ignore:point does not satisfy")
class TestStability:
    def test_trivial_character_always_semistable(self):
        rng = random.Random(11)
        zero = Character((0, 0, 0))
        for _ in range(25):
            p = random_point(P2.quiver, rng)
            assert stability_report(P2.quiver, p, zero).semistable

    def test_p2_unit_point_stable(self):
        p = p2_point((1, 0, 0), (1, 0, 0))
        chi = Character((-1, 0, 1))
        report = stability_report(P2.quiver, p, chi)
        assert report.semistable
        assert report.stable

    def test_zero_character_never_stable_with_proper_support(self):
        p = p2_point((1, 0, 0), (1, 0, 0))
        assert not stability_report(P2.quiver, p, Character((0, 0, 0))).stable

    def test_zero_point_unstable(self):
        p = RepresentationPoint.zero(P2.quiver)
        chi = Character((-1, 0, 1))
        report = stability_report(P2.quiver, p, chi)
        assert not report.semistable
        assert report.violating_support is not None
        assert chi.of_subset(report.violating_support) > 0

    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "p2-helix"])
    def test_report_against_generator_family(self, name):
        # The report's verdicts and witness, recomputed on the generator oracle.
        q = get_entry(name).quiver
        rng = random.Random(name)
        for _ in range(40):
            p = random_point(q, rng)
            chi = random_character(q.n, rng)
            proper = supports_from_generators(q, p).proper()
            positive = [tuple(sorted(s)) for s in proper if chi.of_subset(s) > 0]
            report = stability_report(q, p, chi)
            assert report.semistable == (not positive)
            assert report.stable == all(chi.of_subset(s) < 0 for s in proper)
            assert report.violating_support == (positive[0] if positive else None)

    def test_stable_implies_semistable(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_point(P2.quiver, rng)
            chi = random_character(3, rng)
            report = stability_report(P2.quiver, p, chi)
            if report.stable:
                assert report.semistable

    def test_torus_invariance_of_verdicts(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_point(F1.quiver, rng)
            chi = random_character(4, rng)
            g = TorusElement.of(
                *[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
            )
            acted = torus_act(F1.quiver, p, g)
            before = stability_report(F1.quiver, p, chi)
            after = stability_report(F1.quiver, acted, chi)
            assert (before.semistable, before.stable) == (after.semistable, after.stable)

    def test_f1_tautological_points_stable(self):
        chi = Character((-1, -1, 1, 1))
        rng = random.Random(19)
        for _ in range(50):
            cox = sample_cox_values(F1, rng)
            p = tautological_point(F1, cox)
            assert stability_report(F1.quiver, p, chi).stable


class TestCharacterFromWeights:
    def test_f1_example(self):
        m = WeightMatrix.from_entries(4, {(1, 4): 1, (2, 3): 1})
        assert character_from_weights(m).chi == (-1, -1, 1, 1)

    def test_zero(self):
        assert character_from_weights(WeightMatrix.zero(3)).chi == (0, 0, 0)

    def test_p2_m13(self):
        m = WeightMatrix.from_entries(3, {(1, 3): 1})
        assert character_from_weights(m).chi == (-1, 0, 1)

    def test_always_sums_to_zero(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            entries = {
                (i, j): rng.randint(0, 4)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            }
            chi = character_from_weights(WeightMatrix.from_entries(n, entries))
            assert sum(chi.chi) == 0


class TestCertificates:
    def test_f1_good(self):
        m = WeightMatrix.from_entries(4, {(1, 4): 1, (2, 3): 1})
        assert certify_good(F1.quiver, m).certified

    def test_f1_bad_weight_witness(self):
        m = WeightMatrix.from_entries(4, {(1, 2): 1})
        cert = certify_good(F1.quiver, m)
        assert not cert.certified
        assert cert.witness == (1, 2)

    def test_zero_matrix_good(self):
        assert certify_good(F1.quiver, WeightMatrix.zero(4)).certified

    def test_f1_great(self):
        m = WeightMatrix.from_entries(4, {(1, 4): 1, (2, 3): 1})
        assert certify_great(F1.quiver, m).certified

    def test_p2_simple_helix_m13(self):
        m = WeightMatrix.from_entries(3, {(1, 3): 1})
        assert certify_great(P2.quiver, m).certified

    def test_zero_matrix_not_great(self):
        cert = certify_great(P2.quiver, WeightMatrix.zero(3))
        assert not cert.certified
        assert cert.unreachable_pair is not None

    def test_p2_helix_iff_m1n(self):
        # on the simple-helix chain, sufficiency holds exactly when m[1][n] > 0
        for entries, expected in [
            ({(1, 3): 1}, True),
            ({(1, 2): 1}, False),
            ({(2, 3): 1}, False),
            ({(1, 3): 2, (1, 2): 1}, True),
        ]:
            m = WeightMatrix.from_entries(3, entries)
            assert certify_great(P2.quiver, m).certified == expected

    def test_gg_required(self):
        q = get_entry("p2-helix").quiver  # gg not carried to the total space
        with pytest.raises(QuiverError):
            certify_good(q, WeightMatrix.zero(3))

    def test_certified_good_implies_sampled_semistability(self):
        rng = random.Random(29)
        for name in ("p2", "f1", "p1xp1"):
            entry = get_entry(name)
            n = entry.quiver.n
            candidates = [
                WeightMatrix.from_entries(n, {(i, j): 1})
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            ]
            for m in candidates:
                good = certify_good(entry.quiver, m)
                great = certify_great(entry.quiver, m)
                if not good.certified:
                    continue
                chi = character_from_weights(m)
                for _ in range(10):
                    p = tautological_point(entry, sample_cox_values(entry, rng))
                    report = stability_report(entry.quiver, p, chi)
                    assert report.semistable
                    if great.certified:
                        assert report.stable


def great_by_closure(q, m):
    """Oracle: (certified, good witness, unreachable pair) from a Warshall
    transitive closure of the mixed move graph, whose forward moves keep the
    explicit check that Hom(E_i, E_j) has a path."""
    n = q.n
    nodes = range(1, n + 1)
    bad = [(i, j) for i in nodes for j in nodes if m.entry(i, j) > 0 and not q.gg[i - 1][j - 1]]
    if bad:
        return False, bad[0], None
    reach = {(u, v): u == v for u in nodes for v in nodes}
    for i in nodes:
        for j in nodes:
            if i != j and q.gg[i - 1][j - 1] and q.has_path(j, i):
                reach[j, i] = True
            if i != j and m.entry(i, j) > 0:
                reach[i, j] = True
    for k in nodes:
        for u in nodes:
            for v in nodes:
                reach[u, v] = reach[u, v] or (reach[u, k] and reach[k, v])
    unreachable = [(u, v) for u in nodes for v in nodes if not reach[u, v]]
    return not unreachable, None, unreachable[0] if unreachable else None


class TestCertifyGreatOracle:
    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "pn(3)", "pn(4)"])
    def test_against_transitive_closure(self, name):
        q = get_entry(name).quiver
        assert q.gg is not None
        rng = random.Random(47)
        outcomes = set()
        for _ in range(150):
            density = rng.choice([0.1, 0.3, 0.6])
            m = WeightMatrix.from_entries(
                q.n,
                {
                    (i, j): 1
                    for i in range(1, q.n + 1)
                    for j in range(1, q.n + 1)
                    if i != j and rng.random() < density
                },
            )
            cert = certify_great(q, m)
            got = (cert.certified, cert.good.witness, cert.unreachable_pair)
            assert got == great_by_closure(q, m)
            outcomes.add((cert.certified, cert.good.certified))
        # certified, good but not great, and not good all occur
        assert outcomes == {(True, True), (False, True), (False, False)}


class TestStabilityCone:
    def test_only_equality_for_trivial_family(self):
        fam = SupportFamily(2, frozenset({frozenset(), frozenset({1, 2})}))
        cone = stability_cone(fam)
        assert cone.inequalities == ()
        assert cone.equality == (1, 1)

    def test_p2_generic_family(self):
        p = p2_point((1, 1, 1), (1, 1, 1))
        cone = stability_cone(subrep_supports(P2.quiver, p))
        assert cone.inequalities == ((1, 0, 0), (1, 1, 0))

    def test_zero_point_two_nodes(self):
        from quiverstab.quiver import Arrow, Quiver

        q = Quiver(n=2, arrows=(Arrow("a", 2, 1),))
        p = RepresentationPoint.zero(q)
        cone = stability_cone(subrep_supports(q, p))
        assert cone.inequalities == ((0, 1), (1, 0))
        assert cone.equality == (1, 1)
