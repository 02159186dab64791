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


class DomainError(ValueError):
    """Well-formed input that the mathematics rejects, such as coordinates on
    the irrelevant locus; any other ``ValueError`` marks malformed input."""


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
            raise QuiverError(f"malformed monomial {text!r:.40}: bad term {term!r:.40}")
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


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def as_int(x) -> int:
    """An exact integer: a Python or JSON integer, never a boolean or float.

    Every malformed value raises ValueError.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{x!r:.40} is not an integer")
    return x


def parse_int(text: str) -> int:
    """An integer as the command line reads one: an optional sign and ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r:.40} is not an integer")
    return int(text)


def as_fraction(x) -> Fraction:
    """An exact rational from an integer, a Fraction or a string like ``"-3/4"``
    or ``"0.5"``; floats, booleans and every other value raise ValueError.
    A string must match ``_RATIONAL``, ASCII only: no spaces, underscores or
    exponents (``Fraction`` would expand ``"1e999999999"``)."""
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"{x!r:.40} is not a rational; write it like '-3/4' or '0.5'")
    elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{x!r:.40} is not exact; use an integer or a string like '3/4'")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r:.40} is not a rational: zero denominator") from None
    except ValueError:  # past Python's limit on the digits of an integer string
        raise ValueError(f"{x!r:.40} is not a rational: too many digits") from None


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's immutable value types.

    ``_fields`` names a type's fields in constructor order.  Equality, the
    hash, the repr and ``to_dict`` read those fields, and ``replace`` passes
    them back to the constructor.  A type whose constructor only stores its fields
    inherits this one, which binds them as a signature would, with
    ``_defaults`` for the fields that may be left out; a type that checks or
    converts a field defines its own.  Constructors fill ``self.__dict__``
    directly, since setting or deleting an attribute raises.  Any other
    attribute is an index built at construction, left out of equality, the
    hash and the repr.  Instances have a plain ``__dict__``, which pickle
    restores without calling ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for field, value in kwargs.items():
            if field not in self._fields or field in values:
                why = "given twice" if field in values else "unknown"
                raise TypeError(f"{name}: field {field!r} is {why}")
            values[field] = value
        for field in self._fields:
            if field not in values:
                if field not in self._defaults:
                    raise TypeError(f"{name}: field {field!r} is missing")
                values[field] = self._defaults[field]
        self.__dict__.update(values)

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

    def to_dict(self) -> dict:
        """The fields by name; ``json.dumps`` writes a tuple field as a list."""
        return {f: getattr(self, f) for f in self._fields}

    def replace(self, **changes):
        """A copy with some fields changed; the constructor checks it again."""
        return type(self)(**{**self.to_dict(), **changes})


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
    by global sections (gg): the catalog derives it from the Cox data, and a
    quiver file states it.  ``pic`` holds the Picard-lattice degree of each
    bundle and ``canonical`` the degree of the canonical bundle, when known.

    Construction indexes the arrows once: by id and by source in id order.
    Only arrow sources get entries, so the cost follows the arrows, not ``n``.

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
        self.__dict__.update(_by_id=by_id, _out=out)

    def _reach(self, node: int) -> frozenset[int]:
        """The nodes reached from ``node`` along a path of length >= 1."""
        return _reachable(lambda u: [a.target for a in self.outgoing(u)], node)

    def _validate(self):
        for rel in self.relations:
            for _, p in rel.terms:
                for a in p.arrows:
                    if self._by_id.get(a.id) != a:
                        raise QuiverError(f"relation uses arrow {a.id} not in quiver")
        if self.gg is not None:
            if len(self.gg) != self.n or any(len(row) != self.n for row in self.gg):
                raise QuiverError("gg table must be n x n")
            for j in range(1, self.n + 1):
                column = [i for i in range(1, self.n + 1) if i != j and self.gg[i - 1][j - 1]]
                reach = self._reach(j) if column else ()
                for i in column:
                    if i not in reach:
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

    def outgoing(self, node: int) -> tuple[Arrow, ...]:
        """Arrows with source ``node``, in id order."""
        return self._out.get(node, ())

    def has_cycle(self) -> bool:
        """True iff some path of length >= 1 returns to its source."""
        return any(v in self._reach(v) for v in self._out)

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
    _defaults = {"witness": None}

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


def derive_binomial_relations(q: Quiver) -> list[Relation]:
    """Binomial relations induced by coincidences of monomial label products.

    Paths of length >= 1 with the same source, target, total weight and
    label product form a fiber and compose to the same map of sheaves;
    matching by degree rather than by length lets a labeled composite arrow
    shortcut a longer path.  A fiber, keyed by ``(source, target, total
    weight, monomial_key of the label product)``, keeps not its paths but
    the least one (arrow ids) of each realized (first, last) arrow pair.

    A key fixes its degree, ``source - target + n * weight``, so one heap
    pass takes the keys in increasing degree.  The paths of a fiber ending
    in ``b`` extend those of the fiber without ``b``, of lower degree, so a
    fiber is complete when its key comes up: the pass reads it and frees it
    then, and extends the key by the arrows out of its target.  Paths of one
    degree are never prefixes of each other, so the least path with ends
    ``(a, b)`` is the least one of the fiber without ``b`` starting with
    ``a``, then ``b``.  On a cyclic quiver the paths are bounded by total
    degree ``n``, one trip around the added helix arrows; on an acyclic one
    nothing is bounded.  The cost follows the keys, not the bound.

    Two paths of length >= 3 in a fiber that share their first arrow ``a``
    differ by ``a`` times the difference of two paths in a fiber of lower
    degree, and likewise for a shared last arrow, so their relation follows
    from lower-degree ones.  Joining the (first, last) pairs of such paths
    along shared end arrows splits each fiber into components; the
    relations are ``leader_0 - leader_k``, one per extra component, where
    ``leader_k`` is the least path (by arrow ids) of the k-th component.
    They generate the same ideal as all pairwise differences.  Length-2
    paths are never joined: removing the shared arrow leaves a single arrow,
    and a difference of single arrows is not a relation.  The relations
    come by fiber key in ``str`` order, then by leader.
    """
    import heapq  # deferred: only relation derivation loads it

    for a in q.arrows:
        if a.label is None:
            raise QuiverError(f"arrow {a.id} is missing a label")
    cert = grading_certificate(q)
    if not cert:
        raise QuiverError(f"path fibers need positive arrow degrees; {cert.witness.id} fails")
    max_degree = q.n if q.has_cycle() else float("inf")

    fibers: dict[tuple, dict[tuple[str, str], tuple[str, ...]]] = {}
    pending: list[tuple[int, tuple]] = []
    found: list[tuple[str, list[tuple[str, ...]]]] = []

    def add(key: tuple, ends: dict) -> None:
        degree = key[0] - key[1] + q.n * key[2]
        if degree > max_degree:
            return
        if key not in fibers:
            fibers[key] = {}
            heapq.heappush(pending, (degree, key))
        fibers[key].update(ends)

    def root(end: tuple[int, str]) -> tuple[int, str]:
        while end in parent:
            up = parent[end]
            parent[end] = end = parent.get(up, up)
        return end

    for a in q.arrows:
        key = (a.source, a.target, a.weight, monomial_key(a.label_exponents()))
        add(key, {(a.id, a.id): (a.id,)})
    while pending:
        key = heapq.heappop(pending)[1]
        ends = fibers.pop(key)
        least: dict[str, tuple[str, ...]] = {}
        parent: dict[tuple[int, str], tuple[int, str]] = {}
        for (first, last), ids in ends.items():
            if first not in least or ids < least[first]:
                least[first] = ids
            if len(ids) >= 3 and (r := root((0, first))) != (s := root((1, last))):
                parent[r] = s
        leaders: dict[tuple, tuple[str, ...]] = {}
        for (first, last), ids in ends.items():
            if len(ids) >= 2:
                component = root((0, first)) if len(ids) >= 3 else ids
                if component not in leaders or ids < leaders[component]:
                    leaders[component] = ids
        if len(leaders) >= 2:
            found.append((str(key), sorted(leaders.values())))
        src, at, weight, label = key
        for b in q.outgoing(at):
            product = dict(label)
            for var, e in b.label_exponents().items():
                product[var] = product.get(var, 0) + e
            add(
                (src, b.target, weight + b.weight, monomial_key(product)),
                {(first, b.id): ids + (b.id,) for first, ids in least.items()},
            )
    relations: list[Relation] = []
    for _, leaders in sorted(found):
        paths = [Path(q.arrow(p[0]).source, map(q.arrow, p)) for p in leaders]
        relations.extend(Relation(((1, paths[0]), (-1, p))) for p in paths[1:])
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
            raise ValueError(f"path {ids!r:.40} is empty or names an arrow not in the quiver")
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
