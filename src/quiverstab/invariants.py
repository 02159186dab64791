"""Torus-invariant cycle functions and the generic-separation experiment.

With the all-ones dimension vector, the trace of a closed walk is just the
product of the arrow scalars along it; these products are invariant under
the torus action because the factors t_i / t_j cancel around any closed
walk.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .points import RepresentationPoint, evaluate_path
from .quiver import Arrow, Path, Quiver, QuiverError, Record


class CycleMonomial(Record):
    """A closed walk, stored as its lexicographically least rotation."""

    _fields = ("arrows",)

    def __init__(self, arrows: tuple[Arrow, ...]):
        arrows = tuple(arrows)
        if not arrows:
            raise QuiverError("cycle must be nonempty")
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError("cycle arrows do not compose")
        if arrows[-1].target != arrows[0].source:
            raise QuiverError("walk does not close up")
        self.__dict__.update(arrows=arrows)

    @property
    def base(self) -> int:
        return self.arrows[0].source

    def __len__(self) -> int:
        return len(self.arrows)

    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows)

    def canonical(self) -> "CycleMonomial":
        ids = self.arrow_ids()
        k = min(range(len(ids)), key=lambda i: ids[i:] + ids[:i])
        return CycleMonomial(self.arrows[k:] + self.arrows[:k])

    def as_path(self) -> Path:
        return Path(self.base, self.arrows)


def enumerate_cycles(q: Quiver, max_len: int) -> list[CycleMonomial]:
    """All closed walks of length <= max_len, one per rotation class.

    Representatives are the lexicographically least rotations (by arrow id),
    returned sorted by length and then by id sequence.  A least rotation
    starts at its least arrow, so walks start from each arrow and continue
    only through arrows with no smaller id; a closed walk is kept when it is
    its own least rotation.
    """
    if max_len < 1:
        raise QuiverError("max_len must be at least 1")
    cycles: list[CycleMonomial] = []
    # a stack, not recursion, so a long max_len cannot exhaust the interpreter's stack
    walks = [(a,) for a in q.arrows]
    while walks:
        arrows = walks.pop()
        first, last = arrows[0], arrows[-1]
        if last.target == first.source:
            cycle = CycleMonomial(arrows)
            if cycle.canonical() == cycle:
                cycles.append(cycle)
        if len(arrows) < max_len:
            walks.extend(arrows + (a,) for a in q.outgoing(last.target) if a.id >= first.id)
    return sorted(cycles, key=lambda c: (len(c), c.arrow_ids()))


def evaluate_invariant(c: CycleMonomial, p: RepresentationPoint) -> Fraction:
    """Product of arrow values around the walk."""
    return evaluate_path(p, c.as_path())


def invariant_vector(
    cycles: list[CycleMonomial], p: RepresentationPoint
) -> tuple[Fraction, ...]:
    return tuple(evaluate_invariant(c, p) for c in cycles)


# ---------------------------------------------------------------------------
# separation experiment
# ---------------------------------------------------------------------------


def _tautological_functions(cycles: list[CycleMonomial]):
    """The distinct functions the cycles give on tautological points, each
    as (label exponents, total weight): there a closed walk's value is
    ``cox ** exponents * fiber ** weight``, so two such points agree on
    every walk iff they agree on these."""
    functions = set()
    for c in cycles:
        path = c.as_path()
        functions.add((tuple(sorted(path.label_exponents().items())), path.total_weight))
    return sorted(functions)


def _tautological_values(functions, names, cox, fiber) -> tuple[Fraction, ...]:
    coords = dict(zip(names, cox))
    values = []
    for exponents, weight in functions:
        v = fiber**weight
        for var, e in exponents:
            v *= coords[var] ** e
        values.append(v)
    return tuple(values)


class SeparationReport(Record):
    _fields = ("cycles", "pairs", "separated", "collisions")

    def __init__(self, cycles: int, pairs: int, separated: int, collisions: tuple[dict, ...]):
        self.__dict__.update(
            cycles=cycles, pairs=pairs, separated=separated, collisions=collisions
        )

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.separated, self.pairs) if self.pairs else Fraction(0)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "pairs": self.pairs,
            "separated": self.separated,
            "collisions": list(self.collisions),
        }


def separation_experiment(
    entry, samples: int, max_len: int, seed: int
) -> SeparationReport:
    """Sample pairs of distinct points of a total-space catalog entry and
    count how many are separated by cycle invariants up to max_len.

    Collisions are reported, never dismissed: generic separation promises a
    dense open set, not every pair.  Points are compared on the distinct
    functions the walks give on tautological points, not walk by walk;
    ``cycles`` in the report still counts walks.
    """
    from . import catalog  # deferred: catalog builds on this module's siblings

    if not entry.fiber:
        raise ValueError(f"entry {entry.name!r} has no fiber data")
    cycles = enumerate_cycles(entry.quiver, max_len)
    functions = _tautological_functions(cycles)
    rng = random.Random(seed)
    separated = 0
    pairs = 0
    collisions: list[dict] = []
    while pairs < samples:
        cox1, lam1 = catalog.sample_geometric_point(entry, rng)
        cox2, lam2 = catalog.sample_geometric_point(entry, rng)
        if catalog.canonical_geometric_form(entry, cox1, lam1) == (
            catalog.canonical_geometric_form(entry, cox2, lam2)
        ):
            continue
        pairs += 1
        if _tautological_values(functions, entry.var_names, cox1, lam1) != (
            _tautological_values(functions, entry.var_names, cox2, lam2)
        ):
            separated += 1
        else:
            collisions.append(
                {
                    "first": {"cox": [str(v) for v in cox1], "fiber": str(lam1)},
                    "second": {"cox": [str(v) for v in cox2], "fiber": str(lam2)},
                }
            )
    return SeparationReport(len(cycles), pairs, separated, tuple(collisions))
