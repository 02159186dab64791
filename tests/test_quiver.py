import random
from fractions import Fraction

import pytest
from conftest import enumerate_paths

from quiverstab.catalog import get_entry, sample_cox_values, tautological_point
from quiverstab.invariants import enumerate_cycles
from quiverstab.points import RepresentationPoint, satisfies_relations
from quiverstab.quiver import (
    Arrow,
    Path,
    Quiver,
    QuiverError,
    Relation,
    arrow_degree,
    derive_binomial_relations,
    grading_certificate,
    monomial_key,
    parse_monomial,
    path_fibers,
    as_fraction,
    as_int,
    quiver_from_json,
    quiver_to_json,
)


def chain3():
    return get_entry("p2").quiver


class TestMonomials:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x", {"x": 1}),
            ("x*y", {"x": 1, "y": 1}),
            ("t1^2*t2", {"t1": 2, "t2": 1}),
            ("1", {}),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_monomial(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(QuiverError):
            parse_monomial("x+y")


class TestArrowDegree:
    def test_adjacent_arrow(self):
        q = chain3()
        # source i+1, target i, weight 0 -> degree 1
        assert arrow_degree(q, q.arrow("a21_1")) == 1

    def test_added_helix_arrow(self):
        q = get_entry("p2-helix").quiver
        # source 1, target n, weight 1 -> 1 - n + n = 1
        assert arrow_degree(q, q.arrow("h1")) == 1

    def test_loop_with_weight(self):
        loop = Arrow("l", 2, 2, weight=2)
        q = Quiver(n=3, arrows=(loop,))
        assert arrow_degree(q, loop) == 6

    def test_foreign_arrow_rejected(self):
        q = chain3()
        with pytest.raises(QuiverError):
            arrow_degree(q, Arrow("nope", 1, 2))


class TestGradingCertificate:
    def test_catalog_chain_passes(self):
        assert grading_certificate(chain3()).passed

    def test_forward_arrow_fails_with_witness(self):
        bad = Arrow("b", 1, 2)
        q = Quiver(n=3, arrows=(bad,))
        cert = grading_certificate(q)
        assert not cert.passed
        assert cert.witness == bad
        assert arrow_degree(q, bad) == -1

    def test_empty_quiver_passes(self):
        assert grading_certificate(Quiver(n=2, arrows=())).passed

    def test_pass_iff_min_degree_positive(self):
        for q in (chain3(), get_entry("p2-helix").quiver):
            degrees = [arrow_degree(q, a) for a in q.arrows]
            assert grading_certificate(q).passed == (min(degrees) > 0)


class TestEnumeratePaths:
    def test_counts_on_p2(self):
        q = chain3()
        assert len(enumerate_paths(q, 3, 1, 2)) == 9

    def test_empty_path_at_node(self):
        q = chain3()
        paths = enumerate_paths(q, 2, 2, 0)
        assert paths == [Path(2)]

    def test_no_forward_paths(self):
        q = chain3()
        assert enumerate_paths(q, 1, 3, 5) == []

    def test_deterministic_lexicographic(self):
        q = chain3()
        ids = [p.arrow_ids() for p in enumerate_paths(q, 3, 1, 2)]
        assert ids == sorted(ids)

    def test_node_out_of_range(self):
        with pytest.raises(QuiverError):
            enumerate_paths(chain3(), 0, 1, 1)

    def test_concatenation_injects(self):
        q = chain3()
        left = enumerate_paths(q, 3, 2, 1)
        right = enumerate_paths(q, 2, 1, 1)
        composites = {
            Path(3, p.arrows + r.arrows).arrow_ids()
            for p in left
            if len(p) == 1
            for r in right
            if len(r) == 1
        }
        length2 = {p.arrow_ids() for p in enumerate_paths(q, 3, 1, 2) if len(p) == 2}
        assert composites <= length2
        assert len(composites) == 9


class TestRelations:
    def test_admissibility_enforced(self):
        q = chain3()
        short = Path(2, (q.arrow("a21_1"),))
        with pytest.raises(QuiverError):
            Relation(((Fraction(1), short),))

    def test_mixed_endpoints_rejected(self):
        q = chain3()
        p1 = Path(3, (q.arrow("a32_1"), q.arrow("a21_1")))
        with pytest.raises(QuiverError):
            Relation(((Fraction(1), p1), (Fraction(1), Path(1))))

    def test_stored_relations_admissible(self):
        for name in ("p2", "f1", "p1xp1", "p2-helix"):
            q = get_entry(name).quiver
            for rel in q.relations:
                assert all(len(p) >= 2 for _, p in rel.terms)
                assert len({(p.source, p.target) for _, p in rel.terms}) == 1


class TestDeriveBinomialRelations:
    def test_p2_parallelism(self):
        q = chain3()
        rels = derive_binomial_relations(q)
        assert len(rels) == 3
        # each relation is a pair of two-arrow paths with equal label product
        for rel in rels:
            (c1, p1), (c2, p2) = rel.terms
            assert (c1, c2) == (Fraction(1), Fraction(-1))
            assert monomial_key(p1.label_exponents()) == monomial_key(p2.label_exponents())

    def test_no_coincidences_empty(self):
        arrows = (
            Arrow("a", 3, 2, label="u"),
            Arrow("b", 2, 1, label="v"),
        )
        q = Quiver(n=3, arrows=arrows)
        assert derive_binomial_relations(q) == []

    def test_p1xp1_commuting_squares(self):
        q = get_entry("p1xp1").quiver
        rels = derive_binomial_relations(q)
        assert len(rels) == 4
        for rel in rels:
            (c1, p1), (c2, p2) = rel.terms
            # one branch through node 2, one through node 3
            assert {p1.arrows[0].target, p2.arrows[0].target} == {2, 3}

    def test_missing_label_rejected(self):
        q = Quiver(n=2, arrows=(Arrow("a", 2, 1),))
        with pytest.raises(QuiverError):
            derive_binomial_relations(q)

    def test_swap_symmetry(self):
        rels = derive_binomial_relations(chain3())
        for rel in rels:
            (c1, p1), (c2, p2) = rel.terms
            assert c1 == -c2
            assert p1.arrow_ids() < p2.arrow_ids()

    def test_deterministic(self):
        a = derive_binomial_relations(chain3())
        b = derive_binomial_relations(chain3())
        assert a == b

    def test_f1_mixed_length_relations(self):
        # the composite-labeled arrow 3 -> 1 shortcuts the length-3 paths,
        # so equal-degree matching must pair paths of lengths 2 and 3
        q = get_entry("f1").quiver
        rels = derive_binomial_relations(q)
        lengths = {tuple(sorted(len(p) for _, p in rel.terms)) for rel in rels}
        assert (2, 3) in lengths


def default_max_degree(q: Quiver) -> int:
    return q.n if q.has_cycle() else sum(arrow_degree(q, a) for a in q.arrows)


def all_paths_fibers(q: Quiver, max_degree: int) -> dict[tuple, list[Path]]:
    """Oracle: every path of length >= 1 and degree <= max_degree, listed by
    one enumerate_paths walk per ordered node pair and grouped by endpoints,
    total weight and label product."""
    fibers: dict[tuple, list[Path]] = {}
    for src in range(1, q.n + 1):
        for dst in range(1, q.n + 1):
            for p in enumerate_paths(q, src, dst, max_degree):
                if len(p) < 1 or sum(arrow_degree(q, a) for a in p.arrows) > max_degree:
                    continue
                key = (src, dst, p.total_weight, monomial_key(p.label_exponents()))
                fibers.setdefault(key, []).append(p)
    return fibers


def all_pairs_relations(q: Quiver) -> list[Relation]:
    """Oracle: the difference of every pair of paths in a fiber, i.e. with
    equal endpoints, total weight and label product, and length >= 2."""
    return [
        Relation(((Fraction(1), p1), (Fraction(-1), p2)))
        for paths in all_paths_fibers(q, default_max_degree(q)).values()
        for i, p1 in enumerate(paths)
        for p2 in paths[i + 1 :]
        if len(p1) >= 2 and len(p2) >= 2
    ]


def _rational(rng, zero_prob):
    if rng.random() < zero_prob:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))


def _tautological(entry, rng):
    cox = sample_cox_values(entry, rng)
    fiber = _rational(rng, 0.25) if entry.fiber else None
    return tautological_point(entry, cox, fiber)


def _perturbed(entry, rng):
    """A tautological point with one arrow value changed."""
    values = dict(_tautological(entry, rng).as_dict())
    arrow = rng.choice(entry.quiver.arrows).id
    old = values[arrow]
    while values[arrow] == old:
        values[arrow] = _rational(rng, 0.3)
    return RepresentationPoint.for_quiver(entry.quiver, values)


def _random(entry, rng):
    values = {a.id: _rational(rng, 0.4) for a in entry.quiver.arrows}
    return RepresentationPoint.for_quiver(entry.quiver, values)


class TestMinimalRelations:
    """The fiber-component relations against the all-pairs oracle."""

    @pytest.mark.parametrize(
        "name,pairs,points",
        [
            ("p2", 3, 30),
            ("f1", 4, 30),
            ("p1xp1", 4, 30),
            ("p2-helix", 108, 30),
            ("p1xp1-spiral", 48, 30),
            ("pn(3)", 108, 15),
            ("pn(4)", 4080, 5),
        ],
    )
    def test_same_verdicts_as_all_pairs(self, name, pairs, points):
        entry = get_entry(name)
        q = entry.quiver
        oracle = q.replace(relations=tuple(all_pairs_relations(q)))
        assert len(oracle.relations) == pairs
        rng = random.Random(name)
        verdicts = {}
        for kind in (_tautological, _perturbed, _random):
            for _ in range(points):
                p = kind(entry, rng)
                got = satisfies_relations(q, p)
                assert got == satisfies_relations(oracle, p), (kind.__name__, p)
                verdicts.setdefault(kind.__name__, set()).add(got)
        assert verdicts["_tautological"] == {True}
        assert False in verdicts["_perturbed"]

    def test_shortcut_arrow_keeps_its_relation(self):
        # a.c and a.y.z share their first arrow, but c alone is a single arrow
        arrows = (
            Arrow("a", 4, 3, label="u"),
            Arrow("c", 3, 1, label="v*w"),
            Arrow("y", 3, 2, label="v"),
            Arrow("z", 2, 1, label="w"),
        )
        (rel,) = derive_binomial_relations(Quiver(n=4, arrows=arrows))
        assert [(c, p.arrow_ids()) for c, p in rel.terms] == [
            (1, ("a", "c")),
            (-1, ("a", "y", "z")),
        ]

    def test_parallel_arrows_keep_their_relation(self):
        arrows = (
            Arrow("a", 3, 2, label="u"),
            Arrow("b1", 2, 1, label="v"),
            Arrow("b2", 2, 1, label="v"),
        )
        (rel,) = derive_binomial_relations(Quiver(n=3, arrows=arrows))
        assert [(c, p.arrow_ids()) for c, p in rel.terms] == [
            (1, ("a", "b1")),
            (-1, ("a", "b2")),
        ]

    def test_f1_drops_a_multiple_of_a_shorter_relation(self):
        # a43_2.a32_2.a21_1 - a43_3.a32_1.a21_1 = (a43_2.a32_2 - a43_3.a32_1).a21_1
        q = get_entry("f1").quiver
        pairs = {tuple(p.arrow_ids() for _, p in rel.terms) for rel in q.relations}
        assert (("a43_2", "a32_2"), ("a43_3", "a32_1")) in pairs
        assert (("a43_2", "a32_2", "a21_1"), ("a43_3", "a32_1", "a21_1")) not in pairs


class TestPathFibers:
    @pytest.mark.parametrize("name", ["p2-helix", "pn(3)"])
    @pytest.mark.parametrize("max_degree", [None, 2])
    def test_matches_all_paths_grouping(self, name, max_degree):
        q = get_entry(name).quiver
        oracle = all_paths_fibers(q, max_degree or default_max_degree(q))
        fibers = path_fibers(q, max_degree)
        assert list(fibers) == sorted(oracle, key=str)
        for key, paths in fibers.items():
            assert [p.arrow_ids() for p in paths] == sorted(p.arrow_ids() for p in oracle[key])


class TestCostFollowsArrows:
    """Walks start only at arrow sources, so a declared n of a million with
    two arrows costs a handful of outgoing-arrow lookups, not one per node."""

    @pytest.mark.parametrize(
        "walk",
        [derive_binomial_relations, lambda q: enumerate_cycles(q, 4)],
        ids=["derive_binomial_relations", "enumerate_cycles"],
    )
    def test_outgoing_calls(self, monkeypatch, walk):
        n = 10**6
        q = Quiver(
            n=n, arrows=(Arrow("a", 1, n, weight=1, label="x"), Arrow("b", n, 1, label="y"))
        )
        calls = []
        outgoing = Quiver.outgoing

        def counted(self, node):
            calls.append(node)
            return outgoing(self, node)

        monkeypatch.setattr(Quiver, "outgoing", counted)
        walk(q)
        assert 0 < len(calls) <= 10


def bfs_has_path(q, src, dst):
    """Oracle: a breadth-first search over the arrow list on every call."""
    frontier = [a.target for a in q.arrows if a.source == src]
    seen: set[int] = set()
    while frontier:
        v = frontier.pop()
        if v == dst:
            return True
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(a.target for a in q.arrows if a.source == v)
    return False


def sorted_outgoing(q, node):
    """Oracle: the arrows out of a node, sorted by id on every call."""
    return sorted((a for a in q.arrows if a.source == node), key=lambda a: a.id)


def _random_quiver(rng):
    n = rng.randint(1, 7)
    count = rng.randint(0, 12)
    # ids a0..a11 sort as strings, so a10 comes before a2
    arrows = [Arrow(f"a{k}", rng.randint(1, n), rng.randint(1, n)) for k in range(count)]
    rng.shuffle(arrows)
    return Quiver(n=n, arrows=tuple(arrows))


class TestIndices:
    """The indices built at construction against scans of the arrow list."""

    @staticmethod
    def _check(q):
        for a in q.arrows:
            assert q.arrow(a.id) is a
        for v in range(q.n + 2):  # nodes 0 and n + 1 are out of range
            assert list(q.outgoing(v)) == sorted_outgoing(q, v)
            for w in range(q.n + 2):
                assert q.has_path(v, w) == bfs_has_path(q, v, w)
        assert q.has_cycle() == any(bfs_has_path(q, v, v) for v in range(1, q.n + 1))

    @pytest.mark.parametrize(
        "name", ["p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral", "pn(3)", "pn(4)"]
    )
    def test_catalog_entry(self, name):
        self._check(get_entry(name).quiver)

    def test_random_quivers(self):
        rng = random.Random(41)
        for _ in range(300):
            self._check(_random_quiver(rng))

    def test_unknown_arrow(self):
        with pytest.raises(QuiverError):
            chain3().arrow("nope")

    def test_labels_parsed_at_construction(self):
        with pytest.raises(QuiverError):
            Arrow("a", 2, 1, label="x+y")
        q = get_entry("f1").quiver
        path = Path(4, (q.arrow("a43_2"), q.arrow("a32_1")))
        assert path.label_exponents() == {"t1": 2, "t2": 1}


class TestQuiverValidation:
    def test_endpoint_out_of_range(self):
        with pytest.raises(QuiverError):
            Quiver(n=2, arrows=(Arrow("a", 1, 3),))

    def test_duplicate_ids(self):
        with pytest.raises(QuiverError):
            Quiver(n=2, arrows=(Arrow("a", 2, 1), Arrow("a", 2, 1)))

    def test_gg_without_hom_rejected(self):
        # gg[1][2] claims Hom(E_1, E_2) != 0 but there is no path 2 -> 1
        gg = ((True, True), (False, True))
        with pytest.raises(QuiverError):
            Quiver(n=2, arrows=(Arrow("a", 1, 2),), gg=gg)

    def test_negative_weight_rejected(self):
        with pytest.raises(QuiverError):
            Arrow("a", 2, 1, weight=-1)

    @pytest.mark.parametrize("field", ["source", "target", "weight"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_arrow_numbers_are_integers(self, field, value):
        numbers = {"source": 2, "target": 1, "weight": 0, field: value}
        with pytest.raises(ValueError):
            Arrow("x", **numbers)

    @pytest.mark.parametrize("arrow_id", [None, 7, ("a",)])
    def test_arrow_id_is_a_string(self, arrow_id):
        with pytest.raises(TypeError):
            Arrow(arrow_id, 2, 1)

    def test_arrow_label_is_a_string(self):
        with pytest.raises(TypeError):
            Arrow("x", 2, 1, label=5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 2.0),
            ("n", True),
            ("gg", ((True, "no"), (False, True))),
            ("gg", ((True, 1), (False, True))),
            ("pic", ((0,), (0.5,))),
            ("canonical", (True,)),
        ],
    )
    def test_quiver_numbers_are_exact(self, field, value):
        data = {"n": 2, "arrows": (Arrow("a", 2, 1),), "pic": ((0,), (1,)), "canonical": (-2,)}
        data[field] = value
        with pytest.raises(ValueError):
            Quiver(**data)

    @pytest.mark.parametrize("coeff", [0.5, True, "1/0", "x", None])
    def test_relation_coefficients_are_rational(self, coeff):
        q = chain3()
        paths = enumerate_paths(q, 3, 1, 2)
        with pytest.raises(ValueError):
            Relation(((coeff, paths[0]), (-1, paths[1])))


class TestNumberRules:
    @pytest.mark.parametrize("x", [0, -7, 10**30])
    def test_as_int_accepts_integers(self, x):
        assert as_int(x) == x

    @pytest.mark.parametrize("x", [1.0, True, False, "1", None, [1], Fraction(1)])
    def test_as_int_rejects_everything_else(self, x):
        with pytest.raises(ValueError):
            as_int(x)

    @pytest.mark.parametrize(
        "x,expected",
        [(3, 3), (Fraction(-3, 4), Fraction(-3, 4)), ("-3/4", Fraction(-3, 4)), ("2", 2)],
    )
    def test_as_fraction_accepts_exact_values(self, x, expected):
        assert as_fraction(x) == expected

    @pytest.mark.parametrize("x", [0.1, True, "1/0", "x", "nan", None, [1], {"1": 2}])
    def test_as_fraction_raises_only_value_error(self, x):
        with pytest.raises(ValueError):
            as_fraction(x)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral"])
    def test_round_trip_identity(self, name):
        q = get_entry(name).quiver
        assert quiver_from_json(quiver_to_json(q)) == q

    def test_round_trip_is_byte_stable(self):
        q = get_entry("f1").quiver
        text = quiver_to_json(q)
        assert quiver_to_json(quiver_from_json(text)) == text

    def test_malformed_json(self):
        with pytest.raises(QuiverError):
            quiver_from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(QuiverError):
            quiver_from_json('{"arrows": []}')

    @pytest.mark.parametrize("arrow_id", ["null", "7"])
    def test_arrow_ids_are_not_coerced(self, arrow_id):
        text = f'{{"n": 2, "arrows": [{{"id": {arrow_id}, "source": 2, "target": 1}}]}}'
        with pytest.raises(QuiverError, match=r"arrows\[0\]: arrow id"):
            quiver_from_json(text)
