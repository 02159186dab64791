"""Torus-invariant cycle functions and the generic-separation experiment.

With the all-ones dimension vector, the trace of a closed walk is just the
product of the arrow scalars along it; these products are invariant under
the torus action because the factors t_i / t_j cancel around any closed
walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .points import RepresentationPoint, evaluate_path
from .quiver import Arrow, Path, Quiver, QuiverError, enumerate_paths


@dataclass(frozen=True)
class CycleMonomial:
    """A closed walk, stored as its lexicographically least rotation."""

    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        arrows = tuple(self.arrows)
        if not arrows:
            raise QuiverError("cycle must be nonempty")
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError("cycle arrows do not compose")
        if arrows[-1].target != arrows[0].source:
            raise QuiverError("walk does not close up")
        object.__setattr__(self, "arrows", arrows)

    @property
    def base(self) -> int:
        return self.arrows[0].source

    def __len__(self) -> int:
        return len(self.arrows)

    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows)

    def rotations(self) -> list["CycleMonomial"]:
        k = len(self.arrows)
        return [CycleMonomial(self.arrows[i:] + self.arrows[:i]) for i in range(k)]

    def canonical(self) -> "CycleMonomial":
        ids = self.arrow_ids()
        k = min(range(len(ids)), key=lambda i: ids[i:] + ids[:i])
        return CycleMonomial(self.arrows[k:] + self.arrows[:k])

    def as_path(self) -> Path:
        return Path(self.base, self.arrows)


def enumerate_cycles(q: Quiver, max_len: int) -> list[CycleMonomial]:
    """All closed walks of length <= max_len, one per rotation class.

    Representatives are the lexicographically least rotations (by arrow id),
    returned sorted by length and then by id sequence.
    """
    if max_len < 1:
        raise QuiverError("max_len must be at least 1")
    cycles: dict[tuple[str, ...], CycleMonomial] = {}
    for start in q.sources():
        for p in enumerate_paths(q, start, start, max_len):
            if p.arrows:
                cycle = CycleMonomial(p.arrows).canonical()
                cycles.setdefault(cycle.arrow_ids(), cycle)
    return sorted(cycles.values(), key=lambda c: (len(c), c.arrow_ids()))


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


@dataclass(frozen=True)
class SeparationReport:
    cycles: int
    pairs: int
    separated: int
    collisions: tuple[dict, ...]

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
    dense open set, not every pair.
    """
    from . import catalog  # deferred: catalog builds on this module's siblings

    if not entry.fiber:
        raise ValueError(f"entry {entry.name!r} has no fiber data")
    cycles = enumerate_cycles(entry.quiver, max_len)
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
        p1 = catalog.tautological_point(entry, cox1, lam1)
        p2 = catalog.tautological_point(entry, cox2, lam2)
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
