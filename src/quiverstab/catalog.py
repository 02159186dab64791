"""Built-in example datasets: quivers of line-bundle collections on toric
surfaces and projective spaces, with homogeneous-coordinate labels and
tautological-point constructors.

An entry is its Cox data: Cox variables with their degrees, the Picard
degrees of the collection and the irrelevant locus.  Its quiver of
sections, gg table, canonical class and spiral labels are derived from the
Cox data, and at build time no Hom may run backward, from a later node of
the collection to an earlier one.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import le
from typing import TYPE_CHECKING, Mapping, Sequence

from .quiver import (
    Arrow,
    DomainError,
    Quiver,
    QuiverError,
    Record,
    as_fraction,
    derive_binomial_relations,
)

if TYPE_CHECKING:
    from .points import RepresentationPoint


class UnknownEntryError(KeyError):
    """No catalog entry with the requested name."""


class IrrelevantLocusError(DomainError):
    """Coordinates land on the irrelevant locus of the toric variety."""


class CatalogEntry(Record):
    _fields = ("name", "quiver", "cox_variables", "forbidden_vanishing", "fiber", "description")
    _defaults = {"fiber": False, "description": ""}

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.cox_variables)


# ---------------------------------------------------------------------------
# Hom dimensions
# ---------------------------------------------------------------------------


_PERCEPTRON_STEPS = 1000


def _positive_functional(var_degrees: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """An integer vector w with w . d > 0 for every variable degree d.

    Found by perceptron updates: add any degree that w fails to make
    positive.  When some w exists the updates end after finitely many steps
    (Novikoff 1962); when none exists, some nonconstant monomial has degree
    zero, and a degree can have infinitely many monomials.
    """
    rank = len(var_degrees[0])
    w = (0,) * rank
    for _ in range(_PERCEPTRON_STEPS):
        bad = next((d for d in var_degrees if _dot(w, d) <= 0), None)
        if bad is None:
            return w
        w = tuple(x + y for x, y in zip(w, bad))
    raise ValueError(f"no positive grading found for variable degrees {list(var_degrees)}")


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def monomials_of_degree(
    var_degrees: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Exponent vectors of monomials with the given multidegree, in
    lexicographic order.

    A functional w positive on every variable degree bounds each exponent:
    ``e_k * (w . d_k) <= w . (what is left of the target)``.  The last
    exponent is solved for directly.
    """
    w = _positive_functional(var_degrees)
    weights = [_dot(w, d) for d in var_degrees]
    last = len(var_degrees) - 1
    out = []

    def recurse(idx: int, exps: tuple[int, ...], remaining: tuple[int, ...]):
        budget = _dot(w, remaining)
        d = var_degrees[idx]
        if idx == last:
            e = budget // weights[idx]
            if e >= 0 and all(r == e * c for r, c in zip(remaining, d)):
                out.append(exps + (e,))
            return
        for e in range(budget // weights[idx] + 1):
            recurse(idx + 1, exps + (e,), tuple(r - e * c for r, c in zip(remaining, d)))

    recurse(0, (), tuple(target))
    return out


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


class _Spec(Record):
    """The Cox data of one entry, from which the builder derives its quiver.

    ``variables`` pairs each Cox variable with its multidegree, ``pic``
    lists the Picard degrees of the collection and ``forbidden`` the
    irrelevant locus; ``fiber`` marks an entry on the total space of the
    canonical bundle.  The gg table is derived, not given.
    """

    _fields = ("description", "variables", "pic", "forbidden", "fiber")
    _defaults = {"fiber": False}


def _pn(dim: int) -> _Spec:
    """O, O(1), ..., O(dim) on P^dim; the simple-helix chain quiver."""
    n = dim + 1
    xs = tuple(f"x{k}" for k in range(n))
    return _Spec(
        description=f"O..O({dim}) on P^{dim}",
        variables=tuple((x, (1,)) for x in xs),
        pic=tuple((k,) for k in range(n)),
        forbidden=(frozenset(xs),),
    )


_P1XP1_VARIABLES = (("x1", (1, 0)), ("x2", (1, 0)), ("y1", (0, 1)), ("y2", (0, 1)))
_P1XP1_FORBIDDEN = (frozenset({"x1", "x2"}), frozenset({"y1", "y2"}))

# Listed names in order; listing the catalog builds nothing.
_SPECS = {
    "p2": _pn(2),
    # O, O(D), O(H), O(2H) on the Hirzebruch surface F1, in the (H, D) basis;
    # only Hom(E_1, E_2) = O(D) fails to be generated by global sections
    "f1": _Spec(
        description="O, O(D), O(H), O(2H) on the blow-up of P^2 at a point",
        variables=(("t1", (1, -1)), ("t2", (0, 1)), ("t3", (1, -1)), ("t4", (1, 0))),
        pic=((0, 0), (0, 1), (1, 0), (2, 0)),
        forbidden=(frozenset({"t1", "t3"}), frozenset({"t2", "t4"})),
    ),
    "p1xp1": _Spec(
        description="O, O(0,1), O(1,0), O(1,1) on P^1 x P^1",
        variables=_P1XP1_VARIABLES,
        pic=((0, 0), (0, 1), (1, 0), (1, 1)),
        forbidden=_P1XP1_FORBIDDEN,
    ),
    "p2-helix": _pn(2).replace(
        description="helix extension of the P^2 chain on tot(K)", fiber=True
    ),
    "p1xp1-spiral": _Spec(
        description="spiral extension of O, O(1,0), O(1,1), O(2,1) on tot(K)",
        variables=_P1XP1_VARIABLES,
        pic=((0, 0), (1, 0), (1, 1), (2, 1)),
        forbidden=_P1XP1_FORBIDDEN,
        fiber=True,
    ),
}
_PN_DESCRIPTION = "O..O(k) on P^k, any k >= 1"
# Listed names that stand for a family of entries, each with a buildable instance.
TEMPLATES = {"pn(k)": "pn(3)"}
_PN_RE = re.compile(r"pn\((\d+)\)$")


def _sections(spec: _Spec) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """``(j, i)`` -> the exponent vectors of the monomials of degree
    pic(E_j) - pic(E_i), a basis of Hom(E_i, E_j), for all nodes i != j."""
    degrees = [d for _, d in spec.variables]
    return {
        (j, i): monomials_of_degree(degrees, tuple(a - b for a, b in zip(pic_j, pic_i)))
        for j, pic_j in enumerate(spec.pic, 1)
        for i, pic_i in enumerate(spec.pic, 1)
        if i != j
    }


def _labels(spec: _Spec, monomials: Sequence[tuple[int, ...]]) -> list[str]:
    """Monomials by total degree, then by exponent vector descending, each
    written in variable order as ``v`` or ``v^e`` joined by ``*``."""
    names = [v for v, _ in spec.variables]
    return [
        "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        for exps in sorted(sorted(monomials, reverse=True), key=sum)
    ]


def _weight_zero_quiver(spec: _Spec, sections) -> Quiver:
    """The quiver of sections: for nodes ``t < s``, the arrows ``s -> t``
    are the sections of pic(E_s) - pic(E_t) that no label of an arrow
    ``k -> t`` with ``t < k < s`` divides, i.e. that factor through no node
    between them; taking ``s`` upward derives those arrows first.  The
    canonical class is minus the sum of the Cox degrees.

    ``Hom(E_i, E_j)`` is gg iff, whichever variable of each irrelevant-locus
    set is dropped, some section has exponent 0 on every variable left: each
    set left spans a cone of the fan, and every maximal cone is one of them
    (Cox-Little-Schenck, *Toric Varieties*, ch. 6)."""
    nodes = range(1, len(spec.pic) + 1)
    into: dict[int, list[tuple[int, ...]]] = {t: [] for t in nodes}
    arrows = []
    for s in nodes[1:]:
        for t in range(1, s):
            level = sections[s, t]
            for d in into[t]:
                level = [e for e in level if not all(map(le, d, e))]
            into[t] += level
            labels = enumerate(_labels(spec, level), 1)
            arrows += (Arrow(f"a{s}{t}_{k}", s, t, label=label) for k, label in labels)
    names = [v for v, _ in spec.variables]
    faces = [[k for k, v in enumerate(names) if v not in h] for h in product(*spec.forbidden)]

    def generated(j: int, i: int) -> bool:
        return all(any(not any(e[k] for k in f) for e in sections[j, i]) for f in faces)

    gg = tuple(tuple(i == j or generated(j, i) for j in nodes) for i in nodes)
    canonical = tuple(-sum(col) for col in zip(*(d for _, d in spec.variables)))
    return Quiver(len(nodes), tuple(arrows), (), gg, spec.pic, canonical)


def _check_hom_dimensions(name: str, sections) -> None:
    """No Hom runs backward: for nodes ``j < i``, pic(E_j) - pic(E_i) has
    no section.

    The forward Homs need no check, since the distinct path products from
    ``s`` to ``t`` span every section of pic(E_s) - pic(E_t) by
    construction, by induction on ``s - t``.  A section that some label
    ``d`` of an arrow ``k -> t`` divides is that arrow composed with a
    section of pic(E_s) - pic(E_k), a path product from ``s`` to ``k``;
    any other section is itself an arrow ``s -> t``.  Two nodes with equal
    Picard degrees would break this, as the constant section is no label,
    but they give a backward Hom of dimension 1."""
    for (j, i), monomials in sections.items():
        if j < i and monomials:
            raise QuiverError(
                f"{name}: Hom(E_{i}, E_{j}) has dimension {len(monomials)}, "
                f"expected 0 since {j} < {i}"
            )


def _build(name: str, spec: _Spec) -> CatalogEntry:
    """The entry of a spec: its weight-zero quiver with derived relations,
    or that quiver spiral-extended by every monomial of the spiral degree.
    One list of sections per node pair feeds the backward Hom check, the
    arrows and the gg table."""
    sections = _sections(spec)
    _check_hom_dimensions(name, sections)
    base = _weight_zero_quiver(spec, sections)
    if not spec.fiber:
        q = base.replace(relations=tuple(derive_binomial_relations(base)))
    else:
        from .helix import extend_spiral, spiral_degree

        degree = spiral_degree(base.pic, base.canonical)
        labels = _labels(spec, monomials_of_degree([d for _, d in spec.variables], degree))
        q = extend_spiral(base, len(labels), labels=labels)
    return CatalogEntry(
        name=name,
        quiver=q,
        cox_variables=spec.variables,
        forbidden_vanishing=spec.forbidden,
        fiber=spec.fiber,
        description=spec.description,
    )


def entry_names() -> list[str]:
    return [*_SPECS, *TEMPLATES]


def entry_description(name: str) -> str:
    """The description of a listed entry name, without building the entry."""
    return _PN_DESCRIPTION if name in TEMPLATES else _SPECS[name].description


@lru_cache(maxsize=None)
def get_entry(name: str) -> CatalogEntry:
    if name in _SPECS:
        return _build(name, _SPECS[name])
    m = _PN_RE.match(name)
    if m is None or int(m.group(1)) < 1:
        raise UnknownEntryError(name)
    dim = int(m.group(1))
    canonical = "p2" if dim == 2 else f"pn({dim})"
    if name != canonical:  # the cache keys on the spelling: "pn(2)" must not build p2 again
        return get_entry(canonical)
    return _build(canonical, _pn(dim))


# ---------------------------------------------------------------------------
# tautological points
# ---------------------------------------------------------------------------


def _coerce_cox(entry: CatalogEntry, cox_values) -> dict[str, Fraction]:
    """Coordinates by variable name, given as a list or tuple in
    ``var_names`` order; values follow ``as_fraction``."""
    names = entry.var_names
    expected = f"expected {len(names)} coordinates ({', '.join(names)})"
    if not isinstance(cox_values, (list, tuple)):
        raise ValueError(f"{expected} as a list or tuple, got {type(cox_values).__name__}")
    if len(cox_values) != len(names):
        raise ValueError(f"{expected}, got {len(cox_values)}")
    return {name: as_fraction(v) for name, v in zip(names, cox_values)}


def check_irrelevant_locus(entry: CatalogEntry, vals: Mapping[str, Fraction]):
    for forbidden in entry.forbidden_vanishing:
        if all(vals[v] == 0 for v in forbidden):
            raise IrrelevantLocusError(
                f"{entry.name}: coordinates {sorted(forbidden)} may not vanish simultaneously"
            )


def tautological_point(
    entry: CatalogEntry, cox_values, fiber_value=None
) -> RepresentationPoint:
    """Evaluate every arrow label at the given homogeneous coordinates.

    Weight-r arrows pick up an extra factor fiber_value ** r; the fiber value
    is required exactly for total-space entries.  Coordinates and the fiber
    value follow ``as_fraction``.
    """
    from .points import RepresentationPoint

    vals = _coerce_cox(entry, cox_values)
    check_irrelevant_locus(entry, vals)
    if entry.fiber and fiber_value is None:
        raise ValueError(f"{entry.name}: a fiber value is required")
    if not entry.fiber and fiber_value is not None:
        raise ValueError(f"{entry.name}: entry has no fiber coordinate")
    fiber = as_fraction(fiber_value) if fiber_value is not None else None
    out = {
        a.id: _monomial_value(vals, a.label_exponents().items(), a.weight, fiber)
        for a in entry.quiver.arrows
    }
    return RepresentationPoint.for_quiver(entry.quiver, out)


def _monomial_value(coords, exponents, weight: int, fiber) -> Fraction:
    """``prod(coords[var] ** e for var, e in exponents) * fiber ** weight``."""
    v = Fraction(1)
    for var, e in exponents:
        v *= coords[var] ** e
    if weight:
        v *= fiber**weight
    return v


# ---------------------------------------------------------------------------
# sampling and canonical forms
# ---------------------------------------------------------------------------


def _random_nonzero(rng: random.Random) -> Fraction:
    v = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return -v if rng.random() < 0.5 else v


def sample_geometric_point(entry: CatalogEntry, rng: random.Random):
    """A generic point: all coordinates (and the fiber value, if any) nonzero."""
    cox = tuple(_random_nonzero(rng) for _ in entry.cox_variables)
    fiber = _random_nonzero(rng) if entry.fiber else None
    return cox, fiber


def sample_cox_values(entry: CatalogEntry, rng: random.Random):
    """Random coordinates, each zero with probability 1/4, resampled off the
    irrelevant locus."""
    while True:
        vals = tuple(
            Fraction(0) if rng.random() < 0.25 else _random_nonzero(rng)
            for _ in entry.cox_variables
        )
        try:
            check_irrelevant_locus(entry, dict(zip(entry.var_names, vals)))
        except IrrelevantLocusError:
            continue
        return vals


def canonical_geometric_form(entry: CatalogEntry, cox_values, fiber_value=None):
    """Scale coordinates by the Cox torus into a canonical representative.

    Needs, for each torus factor, a nonzero pivot variable of unit degree;
    the catalog's total-space entries all provide one off the irrelevant
    locus.
    """
    vals = _coerce_cox(entry, cox_values)
    check_irrelevant_locus(entry, vals)
    rank = len(entry.cox_variables[0][1])
    scales = []
    for g in range(rank):
        unit = tuple(1 if k == g else 0 for k in range(rank))
        pivot = next(
            (v for v, d in entry.cox_variables if d == unit and vals[v] != 0), None
        )
        if pivot is None:
            raise ValueError(
                f"{entry.name}: no unit-degree pivot for torus factor {g + 1}"
            )
        scales.append(1 / vals[pivot])
    out = []
    for v, d in entry.cox_variables:
        scaled = vals[v]
        for g in range(rank):
            scaled *= scales[g] ** d[g]
        out.append(scaled)
    fiber = None
    if fiber_value is not None:
        fiber = as_fraction(fiber_value)
        canonical = entry.quiver.canonical
        for g in range(rank):
            fiber *= scales[g] ** canonical[g]
    return tuple(out), fiber
