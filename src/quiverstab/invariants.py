"""Torus-invariant cycle functions and the generic-separation experiment.

A closed walk is a ``Path`` whose target is its base.  With the all-ones
dimension vector, the trace of a closed walk is just the product of the
arrow scalars along it, ``evaluate_path``; these products are invariant
under the torus action because the factors t_i / t_j cancel around any
closed walk.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .points import RepresentationPoint, evaluate_path
from .quiver import Path, Quiver, QuiverError, Record, monomial_key


def enumerate_cycles(q: Quiver, max_len: int) -> list[Path]:
    """All closed walks of length <= max_len, one per rotation class, each
    a ``Path`` whose target is its base.

    Representatives are the lexicographically least rotations (by arrow id),
    returned sorted by length and then by id sequence.  Each walk carries
    the period ``p`` of Duval's necklace test.  An arrow with a smaller id
    than the one ``p`` places back would make a prefix of no least rotation,
    so it is never added; a larger one makes ``p`` the new length.  A closed
    walk is its own least rotation iff ``p`` divides its length, a test in
    constant time.
    """
    if max_len < 1:
        raise QuiverError("max_len must be at least 1")
    cycles: list[Path] = []
    # a stack, not recursion, so a long max_len cannot exhaust the interpreter's stack
    walks = [((a,), 1) for a in q.arrows]
    while walks:
        arrows, period = walks.pop()
        length = len(arrows)
        if arrows[-1].target == arrows[0].source and length % period == 0:
            cycles.append(Path(arrows[0].source, arrows))
        if length < max_len:
            back = arrows[length - period].id
            walks.extend(
                (arrows + (a,), period if a.id == back else length + 1)
                for a in q.outgoing(arrows[-1].target)
                if a.id >= back
            )
    return sorted(cycles, key=lambda c: (len(c), c.arrow_ids()))


def invariant_vector(cycles: list[Path], p: RepresentationPoint) -> tuple[Fraction, ...]:
    """The value of each closed walk at the point, the product of the arrow
    values around it."""
    return tuple(evaluate_path(p, c) for c in cycles)


# ---------------------------------------------------------------------------
# separation experiment
# ---------------------------------------------------------------------------


def _tautological_functions(cycles: list[Path]):
    """The distinct functions the cycles give on tautological points, each
    as (label exponents, total weight): there a closed walk's value is
    ``cox ** exponents * fiber ** weight``, so two such points agree on
    every walk iff they agree on these."""
    return sorted({(monomial_key(c.label_exponents()), c.total_weight) for c in cycles})


class SeparationReport(Record):
    _fields = ("cycles", "pairs", "separated", "collisions")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.separated, self.pairs) if self.pairs else Fraction(0)


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

    def values(cox, fiber) -> tuple[Fraction, ...]:
        coords = dict(zip(entry.var_names, cox))
        return tuple(catalog._monomial_value(coords, e, w, fiber) for e, w in functions)

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
        if values(cox1, lam1) != values(cox2, lam2):
            separated += 1
        else:
            collisions.append(
                {
                    "first": {"cox": [str(v) for v in cox1], "fiber": str(lam1)},
                    "second": {"cox": [str(v) for v in cox2], "fiber": str(lam2)},
                }
            )
    return SeparationReport(len(cycles), pairs, separated, tuple(collisions))
