"""Quivers with graded, monomial-labeled arrows and admissible relations.

Conventions used throughout the package:

* Nodes are indexed ``1..n``.
* An arrow from node ``j`` to node ``i`` is the combinatorial shadow of a
  basis element of ``Hom(E_i, E_j)`` dual; composition of arrows follows
  travel order, i.e. a path lists its arrows from the path's source onward.
* Each arrow carries a non-negative integer ``weight`` (the fiber-scaling
  eigenvalue) and optionally a monomial ``label`` in named homogeneous
  coordinates.  The degree of an arrow is ``source - target + n * weight``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, TypeVar


class QuiverError(ValueError):
    """Quiver data violates a structural invariant."""


# ---------------------------------------------------------------------------
# monomial labels
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text: str) -> dict[str, int]:
    """Parse a label like ``"x"``, ``"x*y"`` or ``"t1^2*t2"`` into an exponent map."""
    exps: dict[str, int] = {}
    if text in ("", "1"):
        return exps
    for term in text.split("*"):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise QuiverError(f"malformed monomial term {term!r}")
        var, exp = m.group(1), int(m.group(2) or "1")
        exps[var] = exps.get(var, 0) + exp
    return exps


def monomial_key(exps: Mapping[str, int]) -> tuple:
    """Hashable canonical form of an exponent map."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


# ---------------------------------------------------------------------------
# exact numbers
# ---------------------------------------------------------------------------


def _as_bool(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"{x!r} is not a boolean")
    return x


def as_int(x) -> int:
    """An exact integer: a Python or JSON integer, never a boolean or float.

    Every malformed value raises ValueError.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{x!r} is not an integer")
    return x


def as_fraction(x) -> Fraction:
    """An exact rational from an integer, a Fraction or a string like ``"-3/4"``.

    Floats are inexact and a JSON ``true`` is no number; they and every
    other malformed value raise ValueError.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValueError(f"{x!r} is not exact; use an integer or a string like '3/4'")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{x!r} is not a rational: {exc}") from None


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's immutable value types.

    ``_fields`` names a type's fields in constructor order.  Equality, the
    hash and the repr read those fields, and ``replace`` passes them back to
    the constructor.  Constructors fill ``self.__dict__`` directly, since
    setting or deleting an attribute raises.  Any other attribute is an
    index built at construction, left out of equality, the hash and the
    repr.  Instances have a plain ``__dict__``, which pickle restores
    without calling ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with some fields changed; the constructor checks it again."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})


class Arrow(Record):
    """An arrow; ``source``, ``target`` and ``weight`` follow ``as_int``.
    The label is parsed once, into ``_exponents``."""

    _fields = ("id", "source", "target", "weight", "label")

    def __init__(
        self, id: str, source: int, target: int, weight: int = 0, label: str | None = None
    ):
        if not isinstance(id, str):
            raise TypeError(f"arrow id {id!r} is not a string")
        as_int(source)
        as_int(target)
        if as_int(weight) < 0:
            raise QuiverError(f"arrow {id}: negative weight {weight}")
        if not isinstance(label, (str, type(None))):
            raise TypeError(f"arrow {id}: label {label!r} is not a string")
        exps = parse_monomial(label) if label is not None else None
        self.__dict__.update(
            id=id, source=source, target=target, weight=weight, label=label, _exponents=exps
        )

    def label_exponents(self) -> Mapping[str, int]:
        """The parsed label, read-only."""
        if self._exponents is None:
            raise QuiverError(f"arrow {self.id} has no monomial label")
        return MappingProxyType(self._exponents)


class Path(Record):
    """A path in a quiver: a base node plus a (possibly empty) arrow list.

    Arrows are listed in travel order, so consecutive arrows satisfy
    ``arrows[k].target == arrows[k + 1].source``.
    """

    _fields = ("base", "arrows")

    def __init__(self, base: int, arrows: tuple[Arrow, ...] = ()):
        arrows = tuple(arrows)
        if arrows:
            if arrows[0].source != base:
                raise QuiverError("path base does not match first arrow source")
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise QuiverError(
                        f"arrows {a.id} and {b.id} do not compose head-to-tail"
                    )
        self.__dict__.update(base=base, arrows=arrows)

    @property
    def source(self) -> int:
        return self.base

    @property
    def target(self) -> int:
        return self.arrows[-1].target if self.arrows else self.base

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def total_weight(self) -> int:
        return sum(a.weight for a in self.arrows)

    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows)

    def label_exponents(self) -> dict[str, int]:
        """Product of the arrow labels along the path."""
        exps: dict[str, int] = {}
        for a in self.arrows:
            for var, e in a.label_exponents().items():
                exps[var] = exps.get(var, 0) + e
        return exps


class Relation(Record):
    """A rational linear combination of paths sharing source and target;
    coefficients follow ``as_fraction``.

    Admissibility requires every path to have length at least two and at
    least one coefficient to be nonzero.
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, Path], ...]):
        terms = tuple((as_fraction(c), p) for c, p in terms)
        self.__dict__.update(terms=terms)
        if not terms:
            raise QuiverError("relation has no terms")
        if all(c == 0 for c, _ in terms):
            raise QuiverError("relation has no nonzero coefficient")
        src = terms[0][1].source
        tgt = terms[0][1].target
        for _, p in terms:
            if p.source != src or p.target != tgt:
                raise QuiverError("relation paths do not share endpoints")
            if len(p) < 2:
                raise QuiverError("relation contains a path of length < 2")

    @property
    def source(self) -> int:
        return self.terms[0][1].source

    @property
    def target(self) -> int:
        return self.terms[0][1].target


_N = TypeVar("_N", bound=Hashable)


def _reachable(successors: Callable[[_N], Iterable[_N]], start: _N) -> frozenset[_N]:
    """The nodes reachable from ``start`` along at least one edge, where
    ``successors(v)`` lists the heads of the edges out of ``v``; ``start``
    is among them only on a cycle."""
    seen: set[_N] = set()
    frontier = [start]
    while frontier:
        for w in successors(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


class Quiver(Record):
    """A quiver with relations, plus the bookkeeping data the stability and
    helix operations rely on.

    ``gg[i-1][j-1]`` records whether the sheaf ``Hom(E_i, E_j)`` is generated
    by global sections; it is supplied data, not computed.  ``pic`` holds the
    Picard-lattice degree of each bundle and ``canonical`` the degree of the
    canonical bundle, when known.

    Construction indexes the arrows once: by id, by source in id order, and
    by the nodes each source reaches along a path of length >= 1.  Only
    arrow sources get entries, so the cost follows the arrows, not ``n``.

    ``n``, ``pic`` and ``canonical`` follow ``as_int``; ``gg`` entries must
    be booleans.
    """

    _fields = ("n", "arrows", "relations", "gg", "pic", "canonical")

    def __init__(
        self,
        n: int,
        arrows: tuple[Arrow, ...],
        relations: tuple[Relation, ...] = (),
        gg: tuple[tuple[bool, ...], ...] | None = None,
        pic: tuple[tuple[int, ...], ...] | None = None,
        canonical: tuple[int, ...] | None = None,
    ):
        arrows = tuple(arrows)
        relations = tuple(relations)
        as_int(n)
        if gg is not None:
            gg = tuple(tuple(map(_as_bool, row)) for row in gg)
        if pic is not None:
            pic = tuple(tuple(map(as_int, v)) for v in pic)
        if canonical is not None:
            canonical = tuple(map(as_int, canonical))
        self.__dict__.update(
            n=n, arrows=arrows, relations=relations, gg=gg, pic=pic, canonical=canonical
        )
        self._index()
        self._validate()

    def _index(self):
        if self.n < 1:
            raise QuiverError("quiver needs at least one node")
        by_id: dict[str, Arrow] = {}
        out: dict[int, list[Arrow]] = {}
        for a in sorted(self.arrows, key=lambda a: a.id):
            if not (1 <= a.source <= self.n and 1 <= a.target <= self.n):
                raise QuiverError(f"arrow {a.id} endpoint out of range 1..{self.n}")
            if a.id in by_id:
                raise QuiverError(f"duplicate arrow id {a.id}")
            by_id[a.id] = a
            out.setdefault(a.source, []).append(a)
        out = {v: tuple(out[v]) for v in sorted(out)}
        reach = {v: _reachable(lambda u: [a.target for a in out.get(u, ())], v) for v in out}
        self.__dict__.update(_by_id=by_id, _out=out, _reach=reach)

    def _validate(self):
        for rel in self.relations:
            for _, p in rel.terms:
                for a in p.arrows:
                    if self._by_id.get(a.id) != a:
                        raise QuiverError(f"relation uses arrow {a.id} not in quiver")
        if self.gg is not None:
            if len(self.gg) != self.n or any(len(row) != self.n for row in self.gg):
                raise QuiverError("gg table must be n x n")
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    if i != j and self.gg[i - 1][j - 1] and not self.has_path(j, i):
                        raise QuiverError(
                            f"gg[{i}][{j}] set but Hom(E_{i},E_{j}) has no paths"
                        )
        if self.pic is not None:
            if len(self.pic) != self.n:
                raise QuiverError("pic must list one degree per node")
            ranks = {len(v) for v in self.pic}
            if len(ranks) > 1:
                raise QuiverError("pic degrees have mixed ranks")
            if self.canonical is not None and len(self.canonical) not in ranks:
                raise QuiverError("canonical degree rank mismatch")

    # -- lookups ------------------------------------------------------------

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise QuiverError(f"no arrow with id {arrow_id!r}") from None

    def sources(self) -> tuple[int, ...]:
        """Nodes with at least one outgoing arrow, ascending."""
        return tuple(self._out)

    def outgoing(self, node: int) -> tuple[Arrow, ...]:
        """Arrows with source ``node``, in id order."""
        return self._out.get(node, ())

    def has_path(self, src: int, dst: int) -> bool:
        """True iff a path of length >= 1 from src to dst exists."""
        return dst in self._reach.get(src, ())

    def has_cycle(self) -> bool:
        return any(v in reach for v, reach in self._reach.items())

    def globally_generated(self, i: int, j: int) -> bool:
        if self.gg is None:
            raise QuiverError("quiver has no gg table")
        return self.gg[i - 1][j - 1]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def arrow_degree(q: Quiver, a: Arrow) -> int:
    """Degree of an arrow: source - target + n * weight."""
    if q._by_id.get(a.id) != a:
        raise QuiverError(f"arrow {a.id!r} does not belong to this quiver")
    return a.source - a.target + q.n * a.weight


class GradingCertificate(Record):
    _fields = ("passed", "witness")

    def __init__(self, passed: bool, witness: Arrow | None = None):
        self.__dict__.update(passed=passed, witness=witness)

    def __bool__(self) -> bool:
        return self.passed


def grading_certificate(q: Quiver) -> GradingCertificate:
    """Check that every arrow has strictly positive degree.

    When this holds, the degree-zero part of the path algebra is spanned by
    the length-zero paths; the first offending arrow (in id order) is
    returned as a witness otherwise.
    """
    for a in sorted(q.arrows, key=lambda a: a.id):
        if arrow_degree(q, a) <= 0:
            return GradingCertificate(False, a)
    return GradingCertificate(True)


def path_fibers(q: Quiver, max_degree: int | None = None) -> dict[tuple, list[Path]]:
    """Paths of length >= 1, grouped into fibers by source, target, total
    weight and label product.

    Paths in one fiber compose to the same map of sheaves.  Keys are
    ``(source, target, total weight, monomial_key of the label product)``,
    in ``str`` order; each fiber is sorted by arrow ids.  Walks start only
    at arrow sources.

    ``max_degree`` bounds the walk by total path-algebra degree.  On acyclic
    quivers the default explores all paths; on cyclic quivers it defaults to
    ``n``, which covers one trip around the added helix arrows.
    """
    for a in q.arrows:
        if a.label is None:
            raise QuiverError(f"arrow {a.id} is missing a label")
    cert = grading_certificate(q)
    if not cert:
        raise QuiverError(
            f"path fibers need positive arrow degrees; {cert.witness.id} fails"
        )
    if max_degree is None:
        if q.has_cycle():
            max_degree = q.n
        else:
            max_degree = sum(arrow_degree(q, a) for a in q.arrows) or 1

    fibers: dict[tuple, list[Path]] = {}

    # positive degrees end every walk, even on cyclic quivers
    def walk(src: int, at: int, arrows: tuple[Arrow, ...], deg: int, weight: int, exps: dict):
        for a in q.outgoing(at):
            d = deg + arrow_degree(q, a)
            if d > max_degree:
                continue
            path = arrows + (a,)
            product = dict(exps)
            for var, e in a.label_exponents().items():
                product[var] = product.get(var, 0) + e
            key = (src, a.target, weight + a.weight, monomial_key(product))
            fibers.setdefault(key, []).append(Path(src, path))
            walk(src, a.target, path, d, weight + a.weight, product)

    for src in q.sources():
        walk(src, src, (), 0, 0, {})
    return {key: sorted(fibers[key], key=Path.arrow_ids) for key in sorted(fibers, key=str)}


def _component_leaders(paths: list[Path]) -> list[Path]:
    """The least path of each component of a fiber, in order.

    ``paths`` must be sorted.  Two paths of length >= 3 are joined when they
    share their first arrow or their last arrow.
    """
    parent = list(range(len(paths)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    anchors: dict[tuple[int, str], int] = {}
    for i, p in enumerate(paths):
        if len(p) < 3:
            continue
        for end in (0, -1):
            ri, rj = find(i), find(anchors.setdefault((end, p.arrows[end].id), i))
            # the smaller index stays the root, so each root is its component's least path
            parent[max(ri, rj)] = min(ri, rj)
    return [p for i, p in enumerate(paths) if find(i) == i]


def derive_binomial_relations(q: Quiver, max_degree: int | None = None) -> list[Relation]:
    """Binomial relations induced by coincidences of monomial label products.

    The paths of length >= 2 in a fiber of ``path_fibers`` (equal
    endpoints, total weight and label product) compose to the same map of
    sheaves.  Matching is by path-algebra degree (equivalently, by endpoints
    plus total weight) rather than by raw length, since a labeled composite
    arrow can shortcut a longer path.

    Two paths of length >= 3 in a fiber that share their first arrow ``a``
    differ by ``a`` times the difference of two paths in a fiber of lower
    degree, and likewise for a shared last arrow, so their relation follows
    from lower-degree ones.  Joining paths along shared end arrows splits
    each fiber into components; the relations are ``leader_0 - leader_k``,
    one per extra component, where ``leader_k`` is the least path (by arrow
    ids) of the k-th component.  They generate the same ideal as all
    pairwise differences.  Length-2 paths are never joined: removing the
    shared arrow leaves a single arrow, and a difference of single arrows is
    not a relation.

    ``max_degree`` bounds the search as in ``path_fibers``.
    """
    return fiber_relations(path_fibers(q, max_degree))


def fiber_relations(fibers: Mapping[tuple, list[Path]]) -> list[Relation]:
    """The relations of ``derive_binomial_relations``, from fibers already
    grouped by ``path_fibers``."""
    relations: list[Relation] = []
    for fiber in fibers.values():
        leaders = _component_leaders([p for p in fiber if len(p) >= 2])
        relations.extend(Relation(((1, leaders[0]), (-1, other))) for other in leaders[1:])
    return relations


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "n": q.n,
        "arrows": [
            {"id": a.id, "source": a.source, "target": a.target, "r": a.weight, "label": a.label}
            for a in q.arrows
        ],
        "relations": [
            {
                "terms": [
                    {"coeff": str(c), "path": list(p.arrow_ids())}
                    for c, p in rel.terms
                ]
            }
            for rel in q.relations
        ],
        "gg": [list(row) for row in q.gg] if q.gg is not None else None,
        "pic": [list(v) for v in q.pic] if q.pic is not None else None,
        "canonical": list(q.canonical) if q.canonical is not None else None,
    }


def _malformed(exc: Exception, where: str = "") -> QuiverError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return QuiverError(f"malformed quiver description: {where}{detail}")


def _arrow_from_dict(a: Mapping) -> Arrow:
    return Arrow(a["id"], a["source"], a["target"], a.get("r", 0), a.get("label"))


def _relation_from_dict(rel: Mapping, by_id: Mapping[str, Arrow]) -> Relation:
    terms = []
    for t in rel["terms"]:
        ids = t["path"]
        if not ids or not all(x in by_id for x in ids):
            raise ValueError(f"path {ids!r} is empty or names an arrow not in the quiver")
        arrows = [by_id[x] for x in ids]
        terms.append((t["coeff"], Path(arrows[0].source, arrows)))
    return Relation(tuple(terms))


def quiver_from_dict(data: Mapping) -> Quiver:
    """The quiver of a JSON description; the constructors check every number,
    and any malformed field raises QuiverError, naming the arrow or relation
    it sits in."""

    def read(items, where: str, build, *args):
        out = []
        for k, item in enumerate(items):
            try:
                out.append(build(item, *args))
            except (LookupError, TypeError, ValueError) as exc:
                raise _malformed(exc, f"{where}[{k}]: ") from exc
        return tuple(out)

    try:
        arrows = read(data["arrows"], "arrows", _arrow_from_dict)
        by_id = {a.id: a for a in arrows}
        return Quiver(
            n=data["n"],
            arrows=arrows,
            relations=read(data.get("relations") or (), "relations", _relation_from_dict, by_id),
            gg=data.get("gg"),
            pic=data.get("pic"),
            canonical=data.get("canonical"),
        )
    except QuiverError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise _malformed(exc) from exc


def quiver_to_json(q: Quiver) -> str:
    return json.dumps(quiver_to_dict(q), indent=2)


def quiver_from_json(text: str) -> Quiver:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverError(f"invalid JSON: {exc}") from exc
    return quiver_from_dict(data)
