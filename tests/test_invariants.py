import random
import sys
from fractions import Fraction

import pytest
from conftest import enumerate_paths, zero_point

from quiverstab.catalog import (
    canonical_geometric_form,
    get_entry,
    sample_geometric_point,
    tautological_point,
)
from quiverstab.invariants import (
    SeparationReport,
    enumerate_cycles,
    invariant_vector,
    separation_experiment,
)
from quiverstab.points import RepresentationPoint, TorusElement, evaluate_path, torus_act
from quiverstab.quiver import Arrow, Path, Quiver, QuiverError

HELIX = get_entry("p2-helix")


def closed_walk(*arrows: Arrow) -> Path:
    walk = Path(arrows[0].source, arrows)
    assert walk.target == walk.base
    return walk


def rotations(c: Path) -> list[Path]:
    return [closed_walk(*c.arrows[i:], *c.arrows[:i]) for i in range(len(c))]


def least_rotation(ids: tuple[str, ...]) -> int:
    """Oracle: where the least rotation of an id sequence starts, found by
    comparing every rotation."""
    return min(range(len(ids)), key=lambda i: ids[i:] + ids[:i])


def cycles_by_rotation_dedup(q: Quiver, max_len: int) -> list[Path]:
    """Oracle: every closed path from every node, each reduced to its least
    rotation by arrow ids, with the repeats of a rotation class dropped."""
    cycles = {}
    for start in range(1, q.n + 1):
        for p in enumerate_paths(q, start, start, max_len):
            ids = p.arrow_ids()
            if ids:
                k = least_rotation(ids)
                cycles.setdefault(ids[k:] + ids[:k], p.arrows[k:] + p.arrows[:k])
    return [closed_walk(*cycles[ids]) for ids in sorted(cycles, key=lambda ids: (len(ids), ids))]


def random_looped_quiver(rng: random.Random) -> Quiver:
    """At most 4 nodes and 6 arrows, among them a loop and two parallel
    arrows; ids are drawn so that their string order (a10 < a2) differs
    from the order the arrows are made in."""
    n = rng.randint(1, 4)
    loop = rng.randint(1, n)
    source, target = rng.randint(1, n), rng.randint(1, n)
    ends = [(loop, loop), (source, target), (source, target)]
    ends += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
    ids = rng.sample([f"a{k}" for k in range(12)], len(ends))
    return Quiver(n=n, arrows=tuple(Arrow(i, s, t) for i, (s, t) in zip(ids, ends)))


def path_product_separation(entry, samples: int, max_len: int, seed: int) -> SeparationReport:
    """The oracle: the same sampled pairs, each point built as a
    tautological point and compared walk by walk on path products."""
    cycles = enumerate_cycles(entry.quiver, max_len)
    rng = random.Random(seed)
    separated = 0
    pairs = 0
    collisions = []
    while pairs < samples:
        cox1, lam1 = sample_geometric_point(entry, rng)
        cox2, lam2 = sample_geometric_point(entry, rng)
        if canonical_geometric_form(entry, cox1, lam1) == canonical_geometric_form(entry, cox2, lam2):
            continue
        pairs += 1
        p1 = tautological_point(entry, cox1, lam1)
        p2 = tautological_point(entry, cox2, lam2)
        if invariant_vector(cycles, p1) != invariant_vector(cycles, p2):
            separated += 1
        else:
            collisions.append(
                {
                    "first": {"cox": [str(v) for v in cox1], "fiber": str(lam1)},
                    "second": {"cox": [str(v) for v in cox2], "fiber": str(lam2)},
                }
            )
    return SeparationReport(len(cycles), pairs, separated, tuple(collisions))


class TestEnumerateCycles:
    def test_acyclic_chain_has_none(self):
        assert enumerate_cycles(get_entry("p2").quiver, 6) == []

    def test_p2_helix_length3(self):
        cycles = enumerate_cycles(HELIX.quiver, 3)
        assert len(cycles) == 27
        assert all(len(c) == 3 for c in cycles)

    def test_two_node_cycle(self):
        q = Quiver(n=2, arrows=(Arrow("a", 2, 1), Arrow("b", 1, 2, weight=1)))
        cycles = enumerate_cycles(q, 2)
        assert len(cycles) == 1
        assert len(cycles[0]) == 2

    def test_rotation_deduplication(self):
        cycles = enumerate_cycles(HELIX.quiver, 3)
        canon = {c.arrow_ids() for c in cycles}
        for c in cycles:
            for rot in rotations(c):
                ids = rot.arrow_ids()
                k = least_rotation(ids)
                assert ids[k:] + ids[:k] in canon

    def test_min_length_one(self):
        with pytest.raises(QuiverError):
            enumerate_cycles(HELIX.quiver, 0)

    @pytest.mark.parametrize("name", ["p2-helix", "p1xp1-spiral"])
    def test_catalog_against_rotation_dedup(self, name):
        q = get_entry(name).quiver
        for max_len in range(1, 2 * q.n + 1):
            cycles = enumerate_cycles(q, max_len)
            assert cycles == cycles_by_rotation_dedup(q, max_len)
            assert all(c.target == c.base for c in cycles)

    def test_loops_and_parallel_arrows_against_rotation_dedup(self):
        rng = random.Random(43)
        for _ in range(200):
            q = random_looped_quiver(rng)
            expected = cycles_by_rotation_dedup(q, 5)
            for max_len in range(1, 6):
                cycles = enumerate_cycles(q, max_len)
                assert cycles == [c for c in expected if len(c) <= max_len]
                assert all(c.target == c.base for c in cycles)
                assert any(len(c) == 1 for c in cycles)  # the loop

    def test_walk_length_is_not_bound_by_the_recursion_limit(self):
        q = Quiver(n=1, arrows=(Arrow("a", 1, 1),))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            cycles = enumerate_cycles(q, 500)
        finally:
            sys.setrecursionlimit(limit)
        assert [len(c) for c in cycles] == list(range(1, 501))

    def test_deterministic_order(self):
        a = [c.arrow_ids() for c in enumerate_cycles(HELIX.quiver, 6)]
        b = [c.arrow_ids() for c in enumerate_cycles(HELIX.quiver, 6)]
        assert a == b


class TestEvaluateInvariant:
    def cycle(self):
        q = HELIX.quiver
        return closed_walk(q.arrow("h1"), q.arrow("a32_1"), q.arrow("a21_1"))

    def test_zero_point(self):
        p = zero_point(HELIX.quiver)
        assert evaluate_path(p, self.cycle()) == 0

    def test_reciprocal_values(self):
        q = Quiver(n=2, arrows=(Arrow("a", 2, 1), Arrow("b", 1, 2, weight=1)))
        c = closed_walk(q.arrow("a"), q.arrow("b"))
        p = RepresentationPoint.for_quiver(q, {"a": 2, "b": Fraction(1, 2)})
        assert evaluate_path(p, c) == 1

    def test_tautological_cycle_value(self):
        # x-arrow twice around both levels, then the added arrow carrying lambda
        p = tautological_point(HELIX, [1, 2, 3], 5)
        assert evaluate_path(p, self.cycle()) == 5

    def test_rotation_invariance(self):
        p = tautological_point(HELIX, [1, 2, 3], Fraction(7, 2))
        c = self.cycle()
        values = {evaluate_path(p, r) for r in rotations(c)}
        assert len(values) == 1

    def test_torus_invariance_exact(self):
        rng = random.Random(5)
        cycles = enumerate_cycles(HELIX.quiver, 6)
        for _ in range(15):
            cox, lam = sample_geometric_point(HELIX, rng)
            p = tautological_point(HELIX, cox, lam)
            g = TorusElement(
                [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            )
            acted = torus_act(HELIX.quiver, p, g)
            assert invariant_vector(cycles, p) == invariant_vector(cycles, acted)

    def test_concatenation_multiplies(self):
        # with one-dimensional nodes, the trace map is a ring homomorphism
        p = tautological_point(HELIX, [1, 2, 3], 5)
        q = HELIX.quiver
        c1 = closed_walk(q.arrow("h1"), q.arrow("a32_1"), q.arrow("a21_1"))
        c2 = closed_walk(q.arrow("h2"), q.arrow("a32_2"), q.arrow("a21_2"))
        joined = closed_walk(*c1.arrows, *c2.arrows)
        assert evaluate_path(p, joined) == evaluate_path(p, c1) * evaluate_path(p, c2)


class TestSeparationExperiment:
    def test_p2_helix_full_separation(self):
        report = separation_experiment(HELIX, samples=40, max_len=3, seed=2)
        assert report.pairs == 40
        assert report.separated == 40
        assert report.collisions == ()

    def test_identical_points_never_separated(self):
        cycles = enumerate_cycles(HELIX.quiver, 3)
        p = tautological_point(HELIX, [1, 2, 3], 5)
        assert invariant_vector(cycles, p) == invariant_vector(cycles, p)

    def test_fiber_scaling_separated(self):
        cycles = enumerate_cycles(HELIX.quiver, 3)
        p1 = tautological_point(HELIX, [1, 2, 3], 5)
        p2 = tautological_point(HELIX, [1, 2, 3], 7)
        assert invariant_vector(cycles, p1) != invariant_vector(cycles, p2)

    def test_pairs_differing_in_fiber_alone_are_separated(self, monkeypatch):
        draws = iter([((1, 2, 3), 5), ((1, 2, 3), 7)] * 4)
        monkeypatch.setattr(
            "quiverstab.catalog.sample_geometric_point", lambda entry, rng: next(draws)
        )
        report = separation_experiment(HELIX, samples=4, max_len=3, seed=0)
        assert (report.pairs, report.separated) == (4, 4)

    def test_requires_fiber_entry(self):
        with pytest.raises(ValueError):
            separation_experiment(get_entry("p2"), samples=2, max_len=3, seed=0)

    def test_seeded_determinism(self):
        a = separation_experiment(HELIX, samples=15, max_len=3, seed=9)
        b = separation_experiment(HELIX, samples=15, max_len=3, seed=9)
        assert a == b

    def test_p1xp1_spiral_runs(self):
        entry = get_entry("p1xp1-spiral")
        report = separation_experiment(entry, samples=10, max_len=4, seed=3)
        assert report.pairs == 10
        assert report.separated + len(report.collisions) == 10

    # max_len 3 gives p1xp1-spiral no closed walk, so every pair collides there
    @pytest.mark.parametrize(
        "name,max_len",
        [("p2-helix", 3), ("p2-helix", 6), ("p1xp1-spiral", 3), ("p1xp1-spiral", 8)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_path_products(self, name, max_len, seed):
        entry = get_entry(name)
        report = separation_experiment(entry, samples=12, max_len=max_len, seed=seed)
        assert report == path_product_separation(entry, 12, max_len, seed)
