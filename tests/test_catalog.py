import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from conftest import enumerate_paths

from quiverstab.catalog import (
    _SPECS,
    PN_SECTION_LIMIT,
    IrrelevantLocusError,
    UnknownEntryError,
    _build,
    _check_hom_dimensions,
    _pn,
    _pn_sections,
    _sections,
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
    DomainError,
    QuiverError,
    grading_certificate,
    monomial_key,
    parse_monomial,
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
        # Hom(E_1, E_2) = O(D) has a section, t2, but it vanishes on the cone {t1, t2}
        assert _sections(_SPECS["f1"])[2, 1] == [(0, 1, 0, 0)]
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

    def test_spellings_of_one_entry_share_it(self):
        assert get_entry("pn(2)") is get_entry("p2")
        assert get_entry("pn(03)") is get_entry("pn(3)")

    def test_total_space_entries_have_fibers(self):
        for name in ALL_NAMES:
            assert get_entry(name).fiber == (name in ("p2-helix", "p1xp1-spiral"))

    def test_all_entries_pass_grading(self):
        for name in ALL_NAMES:
            assert grading_certificate(get_entry(name).quiver).passed

    def test_unknown_name(self):
        for name in ("p3xp3", "pn(0)"):
            with pytest.raises(UnknownEntryError) as info:
                get_entry(name)
            assert isinstance(info.value, ValueError)
            assert str(info.value) == (
                f"unknown entry {name!r}; built-ins are "
                "p2, f1, p1xp1, p2-helix, p1xp1-spiral, pn(k)"
            )

    @pytest.mark.parametrize("name", ["pn(3)\n", "pn(\u0663)", "pn(3", "pn(-3)"])
    def test_pn_size_is_ascii_digits(self, name):
        with pytest.raises(UnknownEntryError, match="^unknown entry"):
            get_entry(name)

    def test_template_name_gives_a_size(self):
        with pytest.raises(UnknownEntryError) as info:
            get_entry("pn(k)")
        assert str(info.value) == "'pn(k)' is a template, not an entry; give a size, e.g. pn(3)"

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_pn_section_count_is_its_forward_sections(self, dim):
        sections = _sections(_pn(dim))
        assert _pn_sections(dim) == sum(len(v) for (j, i), v in sections.items() if j > i)

    def test_pn_section_limit_admits_pn8_only(self):
        assert _pn_sections(8) == 43_749 <= PN_SECTION_LIMIT < _pn_sections(9) == 167_950

    @pytest.mark.parametrize("name", ["pn(9)", "pn(12)", "pn(012)", "pn(30)", "pn(" + "9" * 99 + ")"])
    def test_large_pn_is_refused_before_building(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"built {name}")

        monkeypatch.setattr("quiverstab.catalog._build", refuse)
        with pytest.raises(DomainError, match=r"forward sections, more than the limit of 50,000$"):
            get_entry(name)

    def test_pn7_builds(self):
        q = get_entry("pn(7)").quiver
        assert (q.n, len(q.relations)) == (8, 168)

    def test_entry_names_listed(self):
        names = entry_names()
        assert "f1" in names and "pn(k)" in names

    def test_listed_descriptions_match_entries(self):
        for name in entry_names():
            if name != "pn(k)":
                assert entry_description(name) == get_entry(name).description


def hom_check_by_node_pairs(name, q, variables):
    """Oracle: the distinct label products of the paths between each
    ordered pair of nodes, one enumerate_paths walk per pair, span the
    whole Hom space; a pair with no path counts zero.  The build checks
    only the backward pairs, since the forward ones hold by construction."""
    degrees = [d for _, d in variables]
    for j in range(1, q.n + 1):
        for i in range(1, q.n + 1):
            if i == j:
                continue
            paths = [p for p in enumerate_paths(q, j, i, q.n) if len(p) >= 1]
            products = {monomial_key(p.label_exponents()) for p in paths}
            target = tuple(q.pic[j - 1][k] - q.pic[i - 1][k] for k in range(len(q.canonical)))
            expected = len(monomials_of_degree(degrees, target))
            if len(products) != expected:
                raise QuiverError(
                    f"{name}: paths {j}->{i} span {len(products)} monomials, "
                    f"Hom dimension is {expected}"
                )


def _dropping_one_arrow(q):
    """Each quiver that drops one arrow from ``q``."""
    for k in range(len(q.arrows)):
        yield q.replace(arrows=q.arrows[:k] + q.arrows[k + 1 :])


def _dropping_one_level(q):
    """Each quiver that drops all the arrows from one node to another of
    ``q``, and its gg table, which may name a pair left without paths."""
    for level in sorted({(a.source, a.target) for a in q.arrows}):
        arrows = tuple(a for a in q.arrows if (a.source, a.target) != level)
        yield q.replace(arrows=arrows, gg=None)


def _verdict(check, *args):
    try:
        check(*args)
    except QuiverError as exc:
        return str(exc)
    return "passes"


WEIGHT_ZERO_SPECS = {**_SPECS, **{f"pn({k})": _pn(k) for k in range(1, 5)}}


def _weight_zero(name):
    """The derived weight-zero quiver of a spec, and its sections per node pair."""
    spec = WEIGHT_ZERO_SPECS[name]
    sections = _sections(spec)
    return _weight_zero_quiver(spec, sections), sections


def _random_specs(base, count, box, seed):
    """Specs on the Cox data of ``base`` with ``count`` random collections
    of 2-4 distinct Picard degrees in ``box``, each list drawn once."""
    rng = random.Random(seed)
    spec = _SPECS[base]
    degrees = list(product(box, repeat=len(spec.cox_variables[0][1])))
    seen = set()
    while len(seen) < count:
        pic = tuple(rng.sample(degrees, rng.randint(2, 4)))
        if pic not in seen:
            seen.add(pic)
            yield spec.replace(pic=pic)


class TestHomDimensions:
    """The build checks only that no Hom runs backward.  The forward Homs
    are spanned by path products by construction (see
    ``_check_hom_dimensions``), and the node-pair walks confirm it here."""

    @pytest.mark.parametrize("name", sorted(WEIGHT_ZERO_SPECS))
    def test_same_verdicts_as_node_pair_walks(self, name):
        q, sections = _weight_zero(name)
        variables = WEIGHT_ZERO_SPECS[name].cox_variables
        assert _verdict(_check_hom_dimensions, name, sections) == "passes"
        assert _verdict(hom_check_by_node_pairs, name, q, variables) == "passes"
        # self-test of the oracle: some arrow is needed for the full Hom
        # space, and every level is, since without it some pair has fewer
        # paths than Homs
        def verdicts(variants):
            return [_verdict(hom_check_by_node_pairs, name, v, variables) for v in variants]

        assert any(v != "passes" for v in verdicts(_dropping_one_arrow(q)))
        assert all(v != "passes" for v in verdicts(_dropping_one_level(q)))

    @pytest.mark.parametrize(
        "base,box",
        [("p2", range(5)), ("f1", range(-1, 3)), ("p1xp1", range(3))],
        ids=["p2", "f1", "p1xp1"],
    )
    def test_forward_homs_are_spanned_on_random_collections(self, base, box):
        verdicts = Counter()
        for spec in _random_specs(base, 70, box, seed=17):
            sections = _sections(spec)
            verdict = _verdict(_check_hom_dimensions, base, sections)
            if verdict == "passes":
                q = _weight_zero_quiver(spec, sections)
                hom_check_by_node_pairs(base, q, spec.cox_variables)
            verdicts[verdict == "passes"] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10

    def test_backward_hom_fails_the_build(self):
        spec = _pn(2).replace(pic=((0,), (2,), (1,)))
        message = r"^p2: Hom\(E_3, E_2\) has dimension 3, expected 0 since 2 < 3$"
        with pytest.raises(QuiverError, match=message):
            _build("p2", spec)

    def test_f1_without_an_arrow_fails(self):
        q, _ = _weight_zero("f1")
        q = q.replace(arrows=tuple(a for a in q.arrows if a.id != "a43_3"))
        message = "f1: paths 4->1 span 5 monomials, Hom dimension is 6"
        with pytest.raises(QuiverError, match=message):
            hom_check_by_node_pairs("f1", q, _SPECS["f1"].cox_variables)

    def test_p1xp1_spiral_without_a_level_fails(self):
        # Hom(O(1,0), O(1,1)) = O(0,1) has two sections, and no path is left from 3 to 1
        q, _ = _weight_zero("p1xp1-spiral")
        arrows = tuple(a for a in q.arrows if (a.source, a.target) != (3, 2))
        q = q.replace(arrows=arrows, gg=None)
        message = "p1xp1-spiral: paths 3->1 span 0 monomials, Hom dimension is 4"
        with pytest.raises(QuiverError, match=message):
            hom_check_by_node_pairs("p1xp1-spiral", q, _SPECS["p1xp1-spiral"].cox_variables)


def _written_pn(dim):
    n = dim + 1
    xs = tuple(f"x{k}" for k in range(n))
    return tuple((s, s - 1, xs) for s in range(n, 1, -1)), (), (-n,)


# Oracle: the quivers as the catalog once wrote them out by hand, per entry
# the levels (source, target, labels), the spiral labels and the canonical class.
WRITTEN = {
    "p2": _written_pn(2),
    "f1": (
        (
            (2, 1, ("t2",)),
            (3, 1, ("t4",)),
            (3, 2, ("t1", "t3")),
            (4, 3, ("t4", "t1*t2", "t3*t2")),
        ),
        (),
        (-3, 1),
    ),
    "p1xp1": (
        ((2, 1, ("y1", "y2")), (3, 1, ("x1", "x2")), (4, 2, ("x1", "x2")), (4, 3, ("y1", "y2"))),
        (),
        (-2, -2),
    ),
    "p2-helix": (_written_pn(2)[0], ("x0", "x1", "x2"), (-3,)),
    "p1xp1-spiral": (
        ((2, 1, ("x1", "x2")), (3, 2, ("y1", "y2")), (4, 3, ("x1", "x2"))),
        ("y1", "y2"),
        (-2, -2),
    ),
    **{f"pn({k})": _written_pn(k) for k in range(1, 7)},
}


def _written_pn_gg(dim):
    return {(i, j) for i in range(1, dim + 2) for j in range(i + 1, dim + 2)}


# Oracle: the gg tables as the catalog once wrote them out by hand, per entry
# the pairs (i, j) of distinct nodes with Hom(E_i, E_j) generated by global sections.
WRITTEN_GG = {
    "p2": _written_pn_gg(2),
    # Hom(E_1, E_2) = O(D) has a section, t2, but it vanishes on the cone {t1, t2}
    "f1": {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)},
    "p1xp1": {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)},
    **{f"pn({k})": _written_pn_gg(k) for k in range(1, 7)},
}


def label_degree_errors(q, variables):
    """Oracle: the arrows whose label is not a monomial of degree
    pic(source) - pic(target) minus weight times the canonical class."""
    degree = dict(variables)
    rank = len(q.canonical)
    errors = []
    for a in q.arrows:
        got = tuple(
            sum(e * degree[var][k] for var, e in a.label_exponents().items()) for k in range(rank)
        )
        expected = tuple(
            q.pic[a.source - 1][k] - q.pic[a.target - 1][k] - a.weight * q.canonical[k]
            for k in range(rank)
        )
        if got != expected:
            errors.append(f"{a.id}: label degree {got} != {expected}")
    return errors


class TestDerivedQuivers:
    @pytest.mark.parametrize("name", list(WRITTEN))
    def test_matches_the_written_quiver(self, name):
        levels, spiral, canonical = WRITTEN[name]
        q = get_entry(name).quiver
        written = Counter(
            (s, t, monomial_key(parse_monomial(label)))
            for s, t, labels in levels
            for label in labels
        )
        got = Counter(
            (a.source, a.target, monomial_key(a.label_exponents()))
            for a in q.arrows
            if a.weight == 0
        )
        assert got == written
        assert tuple(a.label for a in q.arrows if a.weight == 1) == spiral
        assert q.canonical == canonical

    @pytest.mark.parametrize("name", list(WRITTEN))
    def test_labels_have_their_degrees(self, name):
        entry = get_entry(name)
        assert label_degree_errors(entry.quiver, entry.cox_variables) == []

    @pytest.mark.parametrize("name", list(WRITTEN))
    def test_arrows_in_id_order(self, name):
        ids = [a.id for a in get_entry(name).quiver.arrows]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("name", list(WRITTEN_GG))
    def test_gg_matches_the_written_table(self, name):
        gg = get_entry(name).quiver.gg
        nodes = range(1, len(gg) + 1)
        assert all(gg[i - 1][i - 1] for i in nodes)
        assert {(i, j) for i in nodes for j in nodes if i != j and gg[i - 1][j - 1]} == (
            WRITTEN_GG[name]
        )

    def test_oracle_sees_a_label_of_the_wrong_degree(self):
        entry = get_entry("p2")
        q = entry.quiver
        bad = q.arrows[0].replace(label="x0*x1")
        q = q.replace(arrows=(bad,) + q.arrows[1:], relations=())
        assert label_degree_errors(q, entry.cox_variables) == ["a21_1: label degree (2,) != (1,)"]


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
        p = tautological_point(get_entry("f1"), [2, 3, 5, 7])  # t1, t2, t3, t4
        assert p.value("a31_1") == 7  # t4
        assert p.value("a43_2") == 6  # t1 * t2
        assert p.value("a43_3") == 15  # t2 * t3

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
            tautological_point(get_entry("f1"), [0, 1, 0, 1])
        with pytest.raises(IrrelevantLocusError):
            tautological_point(get_entry("p1xp1"), [1, 1, 0, 0])

    def test_partial_vanishing_allowed(self):
        p = tautological_point(get_entry("f1"), [0, 1, 1, 1])
        assert satisfies_relations(get_entry("f1").quiver, p)

    def test_wrong_coordinate_count(self):
        with pytest.raises(ValueError):
            tautological_point(get_entry("p2"), [1, 2])

    @pytest.mark.parametrize("cox", ["123", {"x0": 1, "x1": 2, "x2": 3}], ids=["str", "dict"])
    def test_coordinates_are_a_list_or_tuple(self, cox):
        entry = get_entry("p2")
        with pytest.raises(ValueError, match=r"\(x0, x1, x2\) as a list or tuple"):
            tautological_point(entry, cox)
        with pytest.raises(ValueError, match=r"\(x0, x1, x2\) as a list or tuple"):
            canonical_geometric_form(entry, cox)

    @pytest.mark.parametrize(
        "name,cox,fiber",
        [
            ("p2", [0.1, True, 1], None),
            ("p2", [1, True, 1], None),
            ("p2", [1, 2, 0.5], None),
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
        zeros = 0
        for _ in range(200):
            vals = sample_cox_values(entry, rng)
            check_irrelevant_locus(entry, dict(zip(entry.var_names, vals)))
            zeros += vals.count(0)
        # about one coordinate in four is zero
        assert 100 < zeros < 300

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

    def test_no_unit_degree_pivot(self):
        # t4 = 0 is off the irrelevant locus but leaves torus factor 1 no pivot
        with pytest.raises(ValueError, match="f1: no unit-degree pivot for torus factor 1"):
            canonical_geometric_form(get_entry("f1"), [1, 1, 1, 0])

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
