import random
from fractions import Fraction

import pytest
from conftest import enumerate_paths

from quiverstab.catalog import (
    _SPECS,
    IrrelevantLocusError,
    UnknownEntryError,
    _build,
    _check_hom_dimensions,
    _pn,
    _weight_zero_quiver,
    canonical_geometric_form,
    check_irrelevant_locus,
    entry_description,
    entry_names,
    get_entry,
    monomials_of_degree,
    sample_cox_values,
    sample_geometric_point,
    tautological_point,
)
from quiverstab.points import satisfies_relations, vanishing_pattern
from quiverstab.quiver import (
    QuiverError,
    grading_certificate,
    monomial_key,
    path_fibers,
)

ALL_NAMES = ["p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral", "pn(3)"]


class TestEntries:
    def test_p2_structure(self):
        e = get_entry("p2")
        q = e.quiver
        assert q.n == 3
        assert len(q.arrows) == 6
        assert len(q.relations) == 3
        assert q.pic == ((0,), (1,), (2,))
        assert q.canonical == (-3,)
        assert e.var_names == ("x0", "x1", "x2")

    def test_f1_arrow_counts(self):
        q = get_entry("f1").quiver
        counts = {}
        for a in q.arrows:
            counts[(a.source, a.target)] = counts.get((a.source, a.target), 0) + 1
        assert counts == {(2, 1): 1, (3, 1): 1, (3, 2): 2, (4, 3): 3}
        assert len(q.relations) == 3

    def test_f1_gg_false_only_at_12(self):
        q = get_entry("f1").quiver
        false_pairs = {
            (i, j)
            for i in range(1, 5)
            for j in range(1, 5)
            if i != j and not q.gg[i - 1][j - 1]
        }
        assert false_pairs == {(1, 2)} | {
            (i, j) for i in range(1, 5) for j in range(1, 5) if i > j
        }

    def test_p1xp1_picard_degrees(self):
        q = get_entry("p1xp1").quiver
        assert q.pic == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert q.canonical == (-2, -2)
        assert len(q.relations) == 4

    @pytest.mark.parametrize(
        "name,count",
        [("p2-helix", 9), ("p1xp1-spiral", 8), ("pn(3)", 12), ("pn(4)", 30)],
    )
    def test_relation_counts(self, name, count):
        assert len(get_entry(name).quiver.relations) == count

    def test_pn_generalizes_p2(self):
        e3 = get_entry("pn(3)")
        assert e3.quiver.n == 4
        assert len(e3.quiver.arrows) == 12
        assert get_entry("pn(2)").quiver == get_entry("p2").quiver

    def test_total_space_entries_have_fibers(self):
        for name in ALL_NAMES:
            assert get_entry(name).fiber == (name in ("p2-helix", "p1xp1-spiral"))

    def test_all_entries_pass_grading(self):
        for name in ALL_NAMES:
            assert grading_certificate(get_entry(name).quiver).passed

    def test_unknown_name(self):
        with pytest.raises(UnknownEntryError):
            get_entry("p3xp3")
        with pytest.raises(UnknownEntryError):
            get_entry("pn(0)")

    def test_entry_names_listed(self):
        names = entry_names()
        assert "f1" in names and "pn(k)" in names

    def test_listed_descriptions_match_entries(self):
        for name in entry_names():
            if name != "pn(k)":
                assert entry_description(name) == get_entry(name).description


def hom_check_by_node_pairs(name, q, variables):
    """Oracle: the Hom-dimension check with one enumerate_paths walk per
    ordered node pair, each counting the distinct label products."""
    degrees = [d for _, d in variables]
    for j in range(1, q.n + 1):
        for i in range(1, q.n + 1):
            if i == j:
                continue
            paths = [p for p in enumerate_paths(q, j, i, q.n) if len(p) >= 1]
            if not paths:
                continue
            products = {monomial_key(p.label_exponents()) for p in paths}
            target = tuple(q.pic[j - 1][k] - q.pic[i - 1][k] for k in range(len(q.canonical)))
            expected = len(monomials_of_degree(degrees, target))
            if len(products) != expected:
                raise QuiverError(
                    f"{name}: paths {j}->{i} span {len(products)} monomials, "
                    f"Hom dimension is {expected}"
                )


def _dropping_one_arrow(spec):
    """Each spec that drops one weight-zero arrow from ``spec``."""
    for at, (s, t, labels) in enumerate(spec.levels):
        for k in range(len(labels)):
            level = (s, t, labels[:k] + labels[k + 1 :])
            yield spec.replace(levels=spec.levels[:at] + (level,) + spec.levels[at + 1 :])


def _verdict(check, *args):
    try:
        check(*args)
    except QuiverError as exc:
        return str(exc)
    return "passes"


WEIGHT_ZERO_SPECS = {**_SPECS, **{f"pn({k})": _pn(k) for k in range(1, 5)}}


class TestHomDimensions:
    @pytest.mark.parametrize("name", sorted(WEIGHT_ZERO_SPECS))
    def test_same_verdicts_as_node_pair_walks(self, name):
        spec = WEIGHT_ZERO_SPECS[name]
        verdicts = []
        for variant in (spec, *_dropping_one_arrow(spec)):
            q = _weight_zero_quiver(variant)
            got = _verdict(_check_hom_dimensions, name, q, path_fibers(q), variant.variables)
            assert got == _verdict(hom_check_by_node_pairs, name, q, variant.variables)
            verdicts.append(got)
        # the entry itself passes, and some arrow is needed for the full Hom space
        assert verdicts[0] == "passes"
        assert any(v != "passes" for v in verdicts[1:])

    def test_f1_without_an_arrow_fails(self):
        spec = _SPECS["f1"]
        levels = spec.levels[:-1] + ((4, 3, ("t4", "t1*t2")),)
        message = "f1: paths 4->1 span 5 monomials, Hom dimension is 6"
        with pytest.raises(QuiverError, match=message):
            _build("f1", spec.replace(levels=levels))


class TestMonomialsOfDegree:
    def test_projective_line(self):
        assert len(monomials_of_degree([(1,), (1,)], (2,))) == 3

    def test_p2_cubics(self):
        assert len(monomials_of_degree([(1,), (1,), (1,)], (3,))) == 10

    def test_f1_hom_dimension(self):
        degrees = [(1, -1), (0, 1), (1, -1), (1, 0)]
        assert len(monomials_of_degree(degrees, (2, 0))) == 6
        assert len(monomials_of_degree(degrees, (2, -1))) == 5
        assert len(monomials_of_degree(degrees, (0, 1))) == 1

    def test_empty_when_unreachable(self):
        assert monomials_of_degree([(1,)], (-1,)) == []

    def test_degree_zero_monomial_rejected(self):
        with pytest.raises(ValueError):
            monomials_of_degree([(1, 0), (-1, 0), (0, 1)], (0, 1))

    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "pn(3)", "pn(4)"])
    def test_matches_box_search_on_hom_targets(self, name):
        entry = get_entry(name)
        q = entry.quiver
        degrees = [d for _, d in entry.cox_variables]
        targets = {
            tuple(a - b for a, b in zip(q.pic[j - 1], q.pic[i - 1]))
            for j in range(1, q.n + 1)
            for i in range(1, q.n + 1)
            if i != j and any(len(p) >= 1 for p in enumerate_paths(q, j, i, q.n))
        }
        assert targets
        for target in targets:
            assert monomials_of_degree(degrees, target) == box_search(degrees, target)


def box_search(var_degrees, target):
    """Oracle: every exponent vector in the box [0, cap]^k, pruned only when all
    variable degrees are non-negative."""
    cap = 3 * (1 + sum(abs(t) for t in target))
    positive = all(all(c >= 0 for c in d) for d in var_degrees)
    out = []

    def recurse(idx, exps, remaining):
        if positive and any(c < 0 for c in remaining):
            return
        if idx == len(var_degrees):
            if all(c == 0 for c in remaining):
                out.append(exps)
            return
        d = var_degrees[idx]
        for e in range(cap + 1):
            recurse(idx + 1, exps + (e,), tuple(r - e * c for r, c in zip(remaining, d)))
            if positive and any(c > 0 for c in d) and any(
                r - (e + 1) * c < 0 for r, c in zip(remaining, d)
            ):
                break

    recurse(0, (), target)
    return out


class TestTautologicalPoint:
    def test_p2_unit_point(self):
        p = tautological_point(get_entry("p2"), [1, 0, 0])
        assert vanishing_pattern(p) == {"a21_2", "a21_3", "a32_2", "a32_3"}
        assert p.value("a21_1") == 1

    def test_p2_generic_point(self):
        p = tautological_point(get_entry("p2"), [1, 2, 3])
        assert p.value("a21_2") == 2
        assert p.value("a32_3") == 3

    def test_f1_composite_labels(self):
        p = tautological_point(get_entry("f1"), {"t1": 2, "t2": 3, "t3": 5, "t4": 7})
        assert p.value("a31_1") == 7  # t4
        assert p.value("a43_2") == 6  # t1 * t2
        assert p.value("a43_3") == 15  # t3 * t2

    def test_helix_zero_fiber(self):
        p = tautological_point(get_entry("p2-helix"), [1, 2, 3], 0)
        assert p.value("h1") == p.value("h2") == p.value("h3") == 0
        assert p.value("a21_2") == 2

    def test_helix_fiber_scaling(self):
        p = tautological_point(get_entry("p2-helix"), [1, 2, 3], Fraction(5, 4))
        assert p.value("h2") == 2 * Fraction(5, 4)

    def test_fiber_required_and_forbidden(self):
        with pytest.raises(ValueError):
            tautological_point(get_entry("p2-helix"), [1, 2, 3])
        with pytest.raises(ValueError):
            tautological_point(get_entry("p2"), [1, 2, 3], 1)

    def test_irrelevant_locus_rejected(self):
        with pytest.raises(IrrelevantLocusError):
            tautological_point(get_entry("p2"), [0, 0, 0])
        with pytest.raises(IrrelevantLocusError):
            tautological_point(get_entry("f1"), {"t1": 0, "t2": 1, "t3": 0, "t4": 1})
        with pytest.raises(IrrelevantLocusError):
            tautological_point(get_entry("p1xp1"), [1, 1, 0, 0])

    def test_partial_vanishing_allowed(self):
        p = tautological_point(get_entry("f1"), {"t1": 0, "t2": 1, "t3": 1, "t4": 1})
        assert satisfies_relations(get_entry("f1").quiver, p)

    def test_wrong_coordinate_count(self):
        with pytest.raises(ValueError):
            tautological_point(get_entry("p2"), [1, 2])

    @pytest.mark.parametrize(
        "name,cox,fiber",
        [
            ("p2", [0.1, True, 1], None),
            ("p2", [1, True, 1], None),
            ("p2", {"x0": 1, "x1": 2, "x2": 0.5}, None),
            ("p2", [1, "1/0", 1], None),
            ("p2-helix", [1, 2, 3], 0.5),
            ("p2-helix", [1, 2, 3], True),
        ],
    )
    def test_coordinates_are_exact(self, name, cox, fiber):
        with pytest.raises(ValueError):
            tautological_point(get_entry(name), cox, fiber)
        if fiber is not None:
            with pytest.raises(ValueError):
                canonical_geometric_form(get_entry(name), cox, fiber)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_relations_always_satisfied(self, name):
        entry = get_entry(name)
        rng = random.Random(41)
        for _ in range(25):
            if entry.fiber:
                cox, lam = sample_geometric_point(entry, rng)
                p = tautological_point(entry, cox, lam)
            else:
                p = tautological_point(entry, sample_cox_values(entry, rng))
            assert satisfies_relations(entry.quiver, p)

    def test_cox_rescaling_preserves_vanishing(self):
        entry = get_entry("f1")
        rng = random.Random(43)
        for _ in range(20):
            cox = sample_cox_values(entry, rng)
            scaled = [
                v * Fraction(3, 2) ** d[0] * Fraction(-5) ** d[1]
                for v, (_, d) in zip(cox, entry.cox_variables)
            ]
            p = tautological_point(entry, cox)
            ps = tautological_point(entry, scaled)
            assert vanishing_pattern(p) == vanishing_pattern(ps)


class TestSampling:
    def test_geometric_points_nonzero(self):
        entry = get_entry("p2-helix")
        rng = random.Random(47)
        for _ in range(30):
            cox, lam = sample_geometric_point(entry, rng)
            assert all(v != 0 for v in cox)
            assert lam != 0

    def test_cox_values_avoid_irrelevant_locus(self):
        entry = get_entry("p1xp1")
        rng = random.Random(53)
        for _ in range(60):
            vals = sample_cox_values(entry, rng, zero_prob=0.5)
            check_irrelevant_locus(entry, dict(zip(entry.var_names, vals)))

    def test_seeded_reproducibility(self):
        entry = get_entry("f1")
        a = [sample_cox_values(entry, random.Random(59)) for _ in range(5)]
        b = [sample_cox_values(entry, random.Random(59)) for _ in range(5)]
        assert a == b


class TestCanonicalGeometricForm:
    def test_p2_helix_pivot_normalization(self):
        entry = get_entry("p2-helix")
        cox, fiber = canonical_geometric_form(entry, [2, 4, 6], 5)
        assert cox == (1, 2, 3)
        # the fiber coordinate scales by the canonical degree of the pivot
        assert fiber == 5 * Fraction(2) ** 3

    def test_scaling_invariance(self):
        entry = get_entry("p1xp1-spiral")
        rng = random.Random(61)
        for _ in range(20):
            cox, lam = sample_geometric_point(entry, rng)
            s, t = _random_pair(rng)
            scaled_cox = [
                v * s ** d[0] * t ** d[1]
                for v, (_, d) in zip(cox, entry.cox_variables)
            ]
            scaled_lam = lam * s ** entry.quiver.canonical[0] * t ** entry.quiver.canonical[1]
            assert canonical_geometric_form(entry, cox, lam) == (
                canonical_geometric_form(entry, scaled_cox, scaled_lam)
            )

    def test_scaled_points_share_invariants(self):
        from quiverstab.invariants import enumerate_cycles, invariant_vector

        entry = get_entry("p2-helix")
        cycles = enumerate_cycles(entry.quiver, 3)
        p1 = tautological_point(entry, [1, 2, 3], 5)
        p2 = tautological_point(entry, [2, 4, 6], Fraction(5, 8))
        assert canonical_geometric_form(entry, [1, 2, 3], 5) == (
            canonical_geometric_form(entry, [2, 4, 6], Fraction(5, 8))
        )
        assert invariant_vector(cycles, p1) == invariant_vector(cycles, p2)


def _random_pair(rng):
    return (
        Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        Fraction(rng.randint(1, 9), rng.randint(1, 9)),
    )
