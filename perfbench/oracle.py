"""Output checks that run outside the timed region.

They accept any correct answer, so they survive changes of algorithm: a
verdict is compared with the support family built by
``stability.supports_from_generators``; a violating support is accepted when
it is closed under the nonzero arrows and has ``chi_S > 0``, whichever one
the program picks.  Relation lists, ``supports_count``, cycle counts and the
choice of witness are never compared.
"""

from __future__ import annotations

from fractions import Fraction

from quiverstab import stability as st


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


def path_product(values: dict, arrow_ids) -> Fraction:
    out = Fraction(1)
    for a in arrow_ids:
        out *= values[a]
    return out


def relations_hold(q, values: dict) -> bool:
    """Every relation vanishes at the point, evaluated here, not by ``points``."""
    return all(
        sum(c * path_product(values, p.arrow_ids()) for c, p in rel.terms) == 0
        for rel in q.relations
    )


def tautological_values(entry, cox, fiber) -> dict:
    """Each arrow's label evaluated at the coordinates, times fiber ** weight."""
    coords = dict(zip(entry.var_names, cox))
    out = {}
    for a in entry.quiver.arrows:
        v = Fraction(fiber) ** a.weight if a.weight else Fraction(1)
        for var, e in a.label_exponents().items():
            v *= coords[var] ** e
        out[a.id] = v
    return out


def leaves(q, values: dict, subset) -> bool:
    """True when some nonzero arrow leaves ``subset``."""
    return any(
        values[a.id] != 0 and a.source in subset and a.target not in subset
        for a in q.arrows
    )


class Supports:
    """The support family of a point, built from reachability generators."""

    def __init__(self, q, p):
        self.q, self.values = q, dict(p.values)
        self.family = st.supports_from_generators(q, p).supports
        full = frozenset(range(1, q.n + 1))
        self.proper = [s for s in self.family if s and s != full]

    def check_verdict(self, chi, semistable: bool, stable: bool, violating):
        want_semi = all(chi.of_subset(s) <= 0 for s in self.proper)
        want_stable = want_semi and all(chi.of_subset(s) < 0 for s in self.proper)
        expect(semistable == want_semi, f"semistable {semistable}, expected {want_semi}")
        expect(stable == want_stable, f"stable {stable}, expected {want_stable}")
        if want_semi:
            expect(violating is None, f"violating support {violating} on a semistable point")
            return
        expect(violating is not None, "unstable verdict without a violating support")
        s = frozenset(violating)
        expect(not leaves(self.q, self.values, s), f"witness {sorted(s)} is not a support")
        expect(chi.of_subset(s) > 0, f"witness {sorted(s)} has chi_S <= 0")

    def check_family(self, supports):
        got = {frozenset(s) for s in supports}
        expect(got == set(self.family), f"{len(got)} supports, expected {len(self.family)}")

    def check_cone(self, inequalities):
        n = self.q.n
        rows = {tuple(1 if i in s else 0 for i in range(1, n + 1)) for s in self.proper}
        expect({tuple(v) for v in inequalities} == rows, "cone inequalities differ")

    def counts(self) -> dict:
        """Support density of the input, computed here rather than timed."""
        return {"stability.supports_found": len(self.family), "stability.subsets": 2**self.q.n}


def check_torus(q, p, g, moved):
    """``torus_act`` scales the arrow j -> i by g_i / g_j."""
    before, after = dict(p.values), dict(moved.values)
    for a in q.arrows:
        want = before[a.id] * g.t[a.target - 1] / g.t[a.source - 1]
        expect(after[a.id] == want, f"torus_act gives {after[a.id]} on {a.id}, expected {want}")


def cycle_values(cycles, values: dict) -> tuple:
    return tuple(path_product(values, c) for c in cycles)


def check_separation(entry, report: dict, pairs: int, cycles):
    """Pair count adds up, and each reported collision really is one.

    ``cycles`` are arrow-id tuples of every closed walk up to the length cap;
    equal values on them is what a collision means."""
    expect(report["pairs"] == pairs, f"{report['pairs']} pairs, asked for {pairs}")
    collisions = report["collisions"]
    expect(report["separated"] + len(collisions) == pairs, "separated + collisions != pairs")
    for c in collisions:
        a, b = (
            tautological_values(entry, [Fraction(x) for x in c[k]["cox"]], Fraction(c[k]["fiber"]))
            for k in ("first", "second")
        )
        expect(
            cycle_values(cycles, a) == cycle_values(cycles, b),
            "a reported collision is separated by the cycle invariants",
        )


def check_closed_walks(q, walks, max_len: int):
    """Each listed walk is closed, composes, fits the cap and is listed once up to rotation."""
    by_id = {a.id: a for a in q.arrows}
    seen = set()
    for ids in walks:
        arrows = [by_id[i] for i in ids]
        expect(0 < len(arrows) <= max_len, f"walk {ids} breaks the length cap {max_len}")
        expect(
            all(a.target == b.source for a, b in zip(arrows, arrows[1:] + arrows[:1])),
            f"walk {ids} is not closed",
        )
        key = min(tuple(ids[k:] + ids[:k]) for k in range(len(ids)))
        expect(key not in seen, f"walk {ids} listed twice")
        seen.add(key)
