"""Built-in example datasets: quivers of line-bundle collections on toric
surfaces and projective spaces, with homogeneous-coordinate labels and
tautological-point constructors.

Entry data (arrow multiplicities, gg tables, Picard degrees, anticanonical
classes) is fixed input, validated at build time against the monomial labels:
every label must be a monomial of degree pic(source) - pic(target) minus
weight times the canonical class, and the distinct path products between two
nodes must span a space of the full Hom dimension.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .helix import extend_spiral
from .points import RepresentationPoint
from .quiver import (
    Arrow,
    Quiver,
    QuiverError,
    as_fraction,
    derive_binomial_relations,
    enumerate_paths,
    grading_certificate,
    monomial_key,
)


class UnknownEntryError(KeyError):
    """No catalog entry with the requested name."""


class IrrelevantLocusError(ValueError):
    """Coordinates land on the irrelevant locus of the toric variety."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    quiver: Quiver
    cox_variables: tuple[tuple[str, tuple[int, ...]], ...]
    forbidden_vanishing: tuple[frozenset[str], ...]
    fiber: bool = False
    description: str = ""

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.cox_variables)

    def var_degree(self, name: str) -> tuple[int, ...]:
        for v, d in self.cox_variables:
            if v == name:
                return d
        raise KeyError(name)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _level_arrows(source: int, target: int, labels: Sequence[str], weight: int = 0):
    return [
        Arrow(id=f"a{source}{target}_{k + 1}", source=source, target=target, weight=weight, label=lab)
        for k, lab in enumerate(labels)
    ]


def _with_derived_relations(q: Quiver) -> Quiver:
    from dataclasses import replace

    return replace(q, relations=tuple(derive_binomial_relations(q)))


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


def _validate_entry(entry: CatalogEntry):
    q = entry.quiver
    cert = grading_certificate(q)
    if not cert:
        raise QuiverError(f"{entry.name}: grading fails at arrow {cert.witness.id}")
    if q.pic is None or q.canonical is None:
        raise QuiverError(f"{entry.name}: entries must carry pic and canonical data")
    rank = len(q.canonical)
    for a in q.arrows:
        exps = a.label_exponents()
        deg = [0] * rank
        for var, e in exps.items():
            d = entry.var_degree(var)
            for k in range(rank):
                deg[k] += e * d[k]
        expected = tuple(
            q.pic[a.source - 1][k] - q.pic[a.target - 1][k] - a.weight * q.canonical[k]
            for k in range(rank)
        )
        if tuple(deg) != expected:
            raise QuiverError(
                f"{entry.name}: arrow {a.id} label degree {tuple(deg)} != {expected}"
            )


def _check_hom_dimensions(entry: CatalogEntry):
    """Distinct path products between nodes must exhaust the Hom space.

    Only meaningful for the weight-zero base entries; the count of monomials
    of degree pic(E_j) - pic(E_i) is the dimension of Hom(E_i, E_j)."""
    q = entry.quiver
    degrees = [d for _, d in entry.cox_variables]
    for j in range(1, q.n + 1):
        for i in range(1, q.n + 1):
            if i == j:
                continue
            paths = [p for p in enumerate_paths(q, j, i, q.n) if len(p) >= 1]
            if not paths:
                continue
            products = {monomial_key(p.label_exponents()) for p in paths}
            target = tuple(
                q.pic[j - 1][k] - q.pic[i - 1][k] for k in range(len(q.canonical))
            )
            expected = len(monomials_of_degree(degrees, target))
            if len(products) != expected:
                raise QuiverError(
                    f"{entry.name}: paths {j}->{i} span {len(products)} monomials, "
                    f"Hom dimension is {expected}"
                )


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

# Listed names and their descriptions; listing the catalog builds nothing.
_DESCRIPTIONS = {
    "p2": "O..O(2) on P^2",
    "f1": "O, O(D), O(H), O(2H) on the blow-up of P^2 at a point",
    "p1xp1": "O, O(0,1), O(1,0), O(1,1) on P^1 x P^1",
    "p2-helix": "helix extension of the P^2 chain on tot(K)",
    "p1xp1-spiral": "spiral extension of O, O(1,0), O(1,1), O(2,1) on tot(K)",
    "pn(k)": "O..O(k) on P^k, any k >= 1",
}


def _projective_space_entry(dim: int) -> CatalogEntry:
    """O, O(1), ..., O(dim) on P^dim; the simple-helix chain quiver."""
    n = dim + 1
    variables = tuple((f"x{k}", (1,)) for k in range(n))
    labels = [v for v, _ in variables]
    arrows = []
    for level in range(n, 1, -1):
        arrows.extend(_level_arrows(level, level - 1, labels))
    gg = tuple(tuple(i <= j for j in range(1, n + 1)) for i in range(1, n + 1))
    q = Quiver(
        n=n,
        arrows=tuple(arrows),
        gg=gg,
        pic=tuple((k,) for k in range(n)),
        canonical=(-n,),
    )
    name = "p2" if dim == 2 else f"pn({dim})"
    entry = CatalogEntry(
        name=name,
        quiver=_with_derived_relations(q),
        cox_variables=variables,
        forbidden_vanishing=(frozenset(labels),),
        description=f"O..O({dim}) on P^{dim}",
    )
    _validate_entry(entry)
    _check_hom_dimensions(entry)
    return entry


def _f1_entry() -> CatalogEntry:
    """O, O(D), O(H), O(2H) on the Hirzebruch surface F1, in the (H, D) basis."""
    variables = (
        ("t1", (1, -1)),
        ("t2", (0, 1)),
        ("t3", (1, -1)),
        ("t4", (1, 0)),
    )
    arrows = (
        _level_arrows(2, 1, ["t2"])
        + _level_arrows(3, 1, ["t4"])
        + _level_arrows(3, 2, ["t1", "t3"])
        + _level_arrows(4, 3, ["t4", "t1*t2", "t3*t2"])
    )
    # only Hom(E_1, E_2) = O(D) fails to be generated by global sections
    gg_true = {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    gg = tuple(
        tuple(i == j or (i, j) in gg_true for j in range(1, 5)) for i in range(1, 5)
    )
    q = Quiver(
        n=4,
        arrows=tuple(arrows),
        gg=gg,
        pic=((0, 0), (0, 1), (1, 0), (2, 0)),
        canonical=(-3, 1),
    )
    entry = CatalogEntry(
        name="f1",
        quiver=_with_derived_relations(q),
        cox_variables=variables,
        forbidden_vanishing=(frozenset({"t1", "t3"}), frozenset({"t2", "t4"})),
        description=_DESCRIPTIONS["f1"],
    )
    _validate_entry(entry)
    _check_hom_dimensions(entry)
    return entry


def _p1xp1_entry() -> CatalogEntry:
    """O, O(0,1), O(1,0), O(1,1) on P^1 x P^1."""
    variables = (
        ("x1", (1, 0)),
        ("x2", (1, 0)),
        ("y1", (0, 1)),
        ("y2", (0, 1)),
    )
    arrows = (
        _level_arrows(2, 1, ["y1", "y2"])
        + _level_arrows(3, 1, ["x1", "x2"])
        + _level_arrows(4, 2, ["x1", "x2"])
        + _level_arrows(4, 3, ["y1", "y2"])
    )
    gg_true = {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
    gg = tuple(
        tuple(i == j or (i, j) in gg_true for j in range(1, 5)) for i in range(1, 5)
    )
    q = Quiver(
        n=4,
        arrows=tuple(arrows),
        gg=gg,
        pic=((0, 0), (0, 1), (1, 0), (1, 1)),
        canonical=(-2, -2),
    )
    entry = CatalogEntry(
        name="p1xp1",
        quiver=_with_derived_relations(q),
        cox_variables=variables,
        forbidden_vanishing=(frozenset({"x1", "x2"}), frozenset({"y1", "y2"})),
        description=_DESCRIPTIONS["p1xp1"],
    )
    _validate_entry(entry)
    _check_hom_dimensions(entry)
    return entry


def _p2_helix_entry() -> CatalogEntry:
    """The P^2 chain extended by three weight-1 arrows over the total space of
    the canonical bundle; points carry a fiber coordinate."""
    base = _projective_space_entry(2)
    extended = extend_spiral(base.quiver, 3, labels=["x0", "x1", "x2"])
    entry = CatalogEntry(
        name="p2-helix",
        quiver=extended,
        cox_variables=base.cox_variables,
        forbidden_vanishing=base.forbidden_vanishing,
        fiber=True,
        description=_DESCRIPTIONS["p2-helix"],
    )
    _validate_entry(entry)
    return entry


def _p1xp1_spiral_entry() -> CatalogEntry:
    """The chain O, O(1,0), O(1,1), O(2,1) on P^1 x P^1 extended to the spiral
    quiver on the total space of the canonical bundle O(-2,-2)."""
    variables = (
        ("x1", (1, 0)),
        ("x2", (1, 0)),
        ("y1", (0, 1)),
        ("y2", (0, 1)),
    )
    arrows = (
        _level_arrows(2, 1, ["x1", "x2"])
        + _level_arrows(3, 2, ["y1", "y2"])
        + _level_arrows(4, 3, ["x1", "x2"])
    )
    q = Quiver(
        n=4,
        arrows=tuple(arrows),
        pic=((0, 0), (1, 0), (1, 1), (2, 1)),
        canonical=(-2, -2),
    )
    extended = extend_spiral(q, 2, labels=["y1", "y2"])
    entry = CatalogEntry(
        name="p1xp1-spiral",
        quiver=extended,
        cox_variables=variables,
        forbidden_vanishing=(frozenset({"x1", "x2"}), frozenset({"y1", "y2"})),
        fiber=True,
        description=_DESCRIPTIONS["p1xp1-spiral"],
    )
    _validate_entry(entry)
    return entry


_PN_RE = re.compile(r"pn\((\d+)\)$")


def entry_names() -> list[str]:
    return list(_DESCRIPTIONS)


def entry_description(name: str) -> str:
    """The description of a listed entry name, without building the entry."""
    return _DESCRIPTIONS[name]


@lru_cache(maxsize=None)
def get_entry(name: str) -> CatalogEntry:
    if name == "p2":
        return _projective_space_entry(2)
    if name == "f1":
        return _f1_entry()
    if name == "p1xp1":
        return _p1xp1_entry()
    if name == "p2-helix":
        return _p2_helix_entry()
    if name == "p1xp1-spiral":
        return _p1xp1_spiral_entry()
    m = _PN_RE.match(name)
    if m:
        dim = int(m.group(1))
        if dim < 1:
            raise UnknownEntryError(name)
        return _projective_space_entry(dim)
    raise UnknownEntryError(name)


# ---------------------------------------------------------------------------
# tautological points
# ---------------------------------------------------------------------------


def _coerce_cox(entry: CatalogEntry, cox_values) -> dict[str, Fraction]:
    """Coordinates by variable name; values follow ``as_fraction``."""
    names = entry.var_names
    if isinstance(cox_values, Mapping):
        vals = {str(k): as_fraction(v) for k, v in cox_values.items()}
    else:
        seq = list(cox_values)
        if len(seq) != len(names):
            raise ValueError(
                f"expected {len(names)} coordinates ({', '.join(names)}), got {len(seq)}"
            )
        vals = {name: as_fraction(v) for name, v in zip(names, seq)}
    if set(vals) != set(names):
        raise ValueError(f"coordinates must be exactly {names}")
    return vals


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
    vals = _coerce_cox(entry, cox_values)
    check_irrelevant_locus(entry, vals)
    if entry.fiber and fiber_value is None:
        raise ValueError(f"{entry.name}: a fiber value is required")
    if not entry.fiber and fiber_value is not None:
        raise ValueError(f"{entry.name}: entry has no fiber coordinate")
    fiber = as_fraction(fiber_value) if fiber_value is not None else None
    out = {}
    for a in entry.quiver.arrows:
        v = Fraction(1)
        for var, e in a.label_exponents().items():
            v *= vals[var] ** e
        if a.weight:
            v *= fiber ** a.weight
        out[a.id] = v
    return RepresentationPoint.for_quiver(entry.quiver, out)


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


def sample_cox_values(
    entry: CatalogEntry, rng: random.Random, zero_prob: float = 0.25
):
    """Random coordinates that may vanish, resampled off the irrelevant locus."""
    while True:
        vals = tuple(
            Fraction(0) if rng.random() < zero_prob else _random_nonzero(rng)
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
