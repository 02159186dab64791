"""Representation points with all-ones dimension vector, and the torus action.

Every arrow carries a single exact rational scalar.  Zero testing is
semantically load-bearing (stability hinges on exact vanishing), so values
are `fractions.Fraction` throughout and floats are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .quiver import Path, Quiver, Record, as_fraction


class PointError(ValueError):
    """Representation-point data is inconsistent with the ambient quiver."""


def _as_fraction(x) -> Fraction:
    try:
        return as_fraction(x)
    except ValueError as exc:
        raise PointError(f"bad value: {exc}") from None


class RepresentationPoint(Record):
    """An assignment of an exact rational scalar to every arrow id; values
    follow ``as_fraction``.  ``_by_id`` indexes them by arrow id."""

    _fields = ("values",)

    def __init__(self, values: tuple[tuple[str, Fraction], ...]):
        values = tuple((k, _as_fraction(v)) for k, v in values)
        self.__dict__.update(values=values, _by_id=dict(values))

    @classmethod
    def from_mapping(cls, values: Mapping[str, object]) -> "RepresentationPoint":
        return cls(tuple(sorted(values.items())))

    @classmethod
    def for_quiver(cls, q: Quiver, values: Mapping[str, object]) -> "RepresentationPoint":
        missing = {a.id for a in q.arrows} - set(values)
        if missing:
            raise PointError(f"missing values for arrows {sorted(missing)}")
        extra = set(values) - {a.id for a in q.arrows}
        if extra:
            raise PointError(f"values for unknown arrows {sorted(extra)}")
        return cls.from_mapping(values)

    @classmethod
    def zero(cls, q: Quiver) -> "RepresentationPoint":
        return cls.for_quiver(q, {a.id: 0 for a in q.arrows})

    def as_dict(self) -> Mapping[str, Fraction]:
        """The values by arrow id, read-only."""
        return MappingProxyType(self._by_id)

    def value(self, arrow_id: str) -> Fraction:
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise PointError(f"no value for arrow {arrow_id!r}") from None


class TorusElement(Record):
    """An n-tuple of nonzero rationals, considered modulo global scaling."""

    _fields = ("t",)

    def __init__(self, t: tuple[Fraction, ...]):
        t = tuple(_as_fraction(s) for s in t)
        self.__dict__.update(t=t)
        if any(s == 0 for s in t):
            raise PointError("torus element entries must be nonzero")

    @classmethod
    def of(cls, *scalars) -> "TorusElement":
        return cls(scalars)


def evaluate_path(p: RepresentationPoint, path: Path) -> Fraction:
    """Product of arrow values along a path; the empty path evaluates to 1."""
    out = Fraction(1)
    for a in path.arrows:
        out *= p.value(a.id)
    return out


def satisfies_relations(q: Quiver, p: RepresentationPoint) -> bool:
    """True iff every relation of the quiver vanishes at the point."""
    for rel in q.relations:
        total = Fraction(0)
        for coeff, path in rel.terms:
            total += coeff * evaluate_path(p, path)
        if total != 0:
            return False
    return True


def torus_act(q: Quiver, p: RepresentationPoint, g: TorusElement) -> RepresentationPoint:
    """Act by (g_1,...,g_n): the arrow j -> i housing a_ij is scaled by g_i / g_j."""
    if len(g.t) != q.n:
        raise PointError(f"torus element rank {len(g.t)} != n = {q.n}")
    vals = p.as_dict()
    out = {}
    for a in q.arrows:
        try:
            v = vals[a.id]
        except KeyError:
            raise PointError(f"missing value for arrow {a.id!r}") from None
        out[a.id] = v * g.t[a.target - 1] / g.t[a.source - 1]
    return RepresentationPoint.from_mapping(out)


def vanishing_pattern(p: RepresentationPoint) -> frozenset[str]:
    """The set of arrow ids with exactly-zero value."""
    return frozenset(k for k, v in p.values if v == 0)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def point_to_dict(p: RepresentationPoint) -> dict:
    return {"values": {k: str(v) for k, v in p.values}}


def point_from_dict(data: Mapping) -> RepresentationPoint:
    """Values follow ``as_fraction``: integers or rational strings like
    ``"-3/4"``."""
    try:
        values = {str(k): v for k, v in data["values"].items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise PointError(f"malformed point description: {exc!r}") from exc
    return RepresentationPoint.from_mapping(values)


def point_to_json(p: RepresentationPoint) -> str:
    return json.dumps(point_to_dict(p), indent=2)


def point_from_json(text: str) -> RepresentationPoint:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PointError(f"invalid JSON: {exc}") from exc
    return point_from_dict(data)
