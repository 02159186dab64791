"""King's (semi)stability test, characters from weight matrices, and the
combinatorial good/great certificates.

A subset S of nodes is the support of a subrepresentation of a point exactly
when no nonzero arrow leaves S, i.e. there is no nonzero arrow with source in
S and target outside S.  A point is chi-semistable iff chi_S <= 0 for every
such support, and chi-stable iff equality holds only for the empty and full
supports.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable

from .quiver import Quiver, QuiverError, Record, _reachable, as_int

if TYPE_CHECKING:
    from .points import RepresentationPoint

ENUMERATION_CAP = 20


class EnumerationCapError(ValueError):
    """Subset enumeration was requested for more than ENUMERATION_CAP nodes."""


class Character(Record):
    """An integer weight vector chi on n >= 1 nodes with sum(chi) = 0;
    entries follow ``as_int``.  Every node dimension is 1, so the sum is
    unweighted."""

    _fields = ("chi",)

    def __init__(self, chi: tuple[int, ...]):
        chi = tuple(map(as_int, chi))
        self.__dict__.update(chi=chi)
        if not chi:
            raise ValueError("character needs at least one node")
        if sum(chi) != 0:
            raise ValueError(f"character {chi} does not satisfy sum(chi) = 0")

    @property
    def n(self) -> int:
        return len(self.chi)

    def of_subset(self, subset: Iterable[int]) -> int:
        """chi_S: the sum of chi over a node subset (1-indexed)."""
        return sum(self.chi[i - 1] for i in subset)


class WeightMatrix(Record):
    """An n x n matrix, n >= 1, of non-negative integers m[i][j] with zero
    diagonal, generating a character; entries follow ``as_int``."""

    _fields = ("m",)

    def __init__(self, m: tuple[tuple[int, ...], ...]):
        m = tuple(tuple(map(as_int, row)) for row in m)
        self.__dict__.update(m=m)
        n = len(m)
        if n == 0:
            raise ValueError("weight matrix needs at least one node")
        if any(len(row) != n for row in m):
            raise ValueError("weight matrix must be square")
        for i in range(n):
            if m[i][i] != 0:
                raise ValueError("weight matrix diagonal must vanish")
            for j in range(n):
                if m[i][j] < 0:
                    raise ValueError("weight matrix entries must be non-negative")

    @classmethod
    def zero(cls, n: int) -> "WeightMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @classmethod
    def from_entries(cls, n: int, entries: dict[tuple[int, int], int]) -> "WeightMatrix":
        """Build from 1-indexed {(i, j): m_ij} entries; indices follow
        ``as_int``, and one outside ``1..n`` raises ValueError."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in entries.items():
            if not (1 <= as_int(i) <= n and 1 <= as_int(j) <= n):
                raise ValueError(f"weight entry ({i}, {j}) is outside 1..{n}")
            rows[i - 1][j - 1] = v
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.m)

    def entry(self, i: int, j: int) -> int:
        return self.m[i - 1][j - 1]


class SupportFamily(Record):
    """The family of subrepresentation supports of a point."""

    _fields = ("n", "supports")

    def __init__(self, n: int, supports: frozenset[frozenset[int]]):
        supports = frozenset(frozenset(s) for s in supports)
        self.__dict__.update(n=n, supports=supports)
        full = frozenset(range(1, n + 1))
        if frozenset() not in supports or full not in supports:
            raise ValueError("support family must contain the empty and full sets")

    @property
    def full(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def proper(self) -> list[frozenset[int]]:
        """Supports other than the empty and full sets, in canonical order."""
        skip = {frozenset(), self.full}
        return sorted(
            (s for s in self.supports if s not in skip), key=lambda s: sorted(s)
        )

    def sorted_supports(self) -> list[frozenset[int]]:
        return sorted(self.supports, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def _nonzero_arrows(q: Quiver, p: RepresentationPoint):
    vals = p.as_dict()
    try:
        return [a for a in q.arrows if vals[a.id] != 0]
    except KeyError as exc:
        raise ValueError(f"point is missing a value for arrow {exc.args[0]!r}") from None


def subrep_supports(q: Quiver, p: RepresentationPoint, warn: bool = True) -> SupportFamily:
    """Exact support family via enumeration of all 2^n node subsets, for
    n <= ENUMERATION_CAP.

    With ``warn``, a point that violates the quiver relations triggers a
    warning.  ``stability_report`` passes ``warn=False``: the supports do
    not depend on the relations, and callers that care check them once.
    """
    if q.n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"subset enumeration over {q.n} nodes exceeds the cap of {ENUMERATION_CAP}"
        )
    if warn:
        from .points import satisfies_relations

        if not satisfies_relations(q, p):
            warnings.warn("point does not satisfy the quiver relations", stacklevel=2)
    nonzero = _nonzero_arrows(q, p)
    supports = []
    for bits in range(1 << q.n):
        s = frozenset(i + 1 for i in range(q.n) if bits >> i & 1)
        if all(not (a.source in s and a.target not in s) for a in nonzero):
            supports.append(s)
    return SupportFamily(q.n, frozenset(supports))


def supports_from_generators(q: Quiver, p: RepresentationPoint) -> SupportFamily:
    """Support family as the union-closure of the single-node generators.

    The generator of node v is the set of nodes reachable from v along
    nonzero arrows, the smallest support containing v; every support is a
    union of generators.  Independent of the 2^n enumeration; used as a
    cross-check oracle.
    """
    targets: dict[int, list[int]] = {v: [] for v in range(1, q.n + 1)}
    for a in _nonzero_arrows(q, p):
        targets[a.source].append(a.target)
    gens = [_reachable(targets.__getitem__, v) | {v} for v in targets]
    family = _reachable(lambda s: [s | g for g in gens], frozenset())
    return SupportFamily(q.n, family | {frozenset()})


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class StabilityReport(Record):
    _fields = ("semistable", "stable", "violating_support", "supports_count")

    def __init__(
        self,
        semistable: bool,
        stable: bool,
        violating_support: tuple[int, ...] | None,
        supports_count: int,
    ):
        self.__dict__.update(
            semistable=semistable,
            stable=stable,
            violating_support=violating_support,
            supports_count=supports_count,
        )

    def to_dict(self) -> dict:
        return {
            "semistable": self.semistable,
            "stable": self.stable,
            "violating_support": list(self.violating_support)
            if self.violating_support is not None
            else None,
            "supports_count": self.supports_count,
        }


def stability_report(q: Quiver, p: RepresentationPoint, chi: Character) -> StabilityReport:
    """King's test: the point is chi-semistable iff chi_S <= 0 on every
    support, and chi-stable iff chi_S < 0 on every proper one.

    The witness ``violating_support`` is the first proper support, in
    canonical order, with chi_S > 0.
    """
    if chi.n != q.n:
        raise ValueError(f"character length {chi.n} != n = {q.n}")
    fam = subrep_supports(q, p, warn=False)
    values = [(chi.of_subset(s), s) for s in fam.proper()]
    violating = next((tuple(sorted(s)) for v, s in values if v > 0), None)
    stable = all(v < 0 for v, _ in values)
    return StabilityReport(violating is None, stable, violating, len(fam.supports))


# ---------------------------------------------------------------------------
# characters from weights, certificates
# ---------------------------------------------------------------------------


def character_from_weights(m: WeightMatrix) -> Character:
    """chi_l = sum_i m[i][l] - sum_j m[l][j]; the result always sums to zero."""
    n = m.n
    chi = tuple(
        sum(m.m[i][l] for i in range(n)) - sum(m.m[l][j] for j in range(n))
        for l in range(n)
    )
    return Character(chi)


class GoodCertificate(Record):
    """Outcome of the global-generation certificate for a weight matrix.

    ``certified`` means every positive weight sits on a globally generated
    Hom sheaf, which makes the induced character good.  An uncertified
    outcome carries the first offending (i, j) pair; it is *not* a proof
    that the character fails to be good.
    """

    _fields = ("certified", "witness")

    def __init__(self, certified: bool, witness: tuple[int, int] | None = None):
        self.__dict__.update(certified=certified, witness=witness)

    def __bool__(self) -> bool:
        return self.certified


def certify_good(q: Quiver, m: WeightMatrix) -> GoodCertificate:
    if q.gg is None:
        raise QuiverError("good certificate needs the gg table")
    if m.n != q.n:
        raise ValueError(f"weight matrix size {m.n} != n = {q.n}")
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            if m.entry(i, j) > 0 and not q.globally_generated(i, j):
                return GoodCertificate(False, (i, j))
    return GoodCertificate(True)


class GreatCertificate(Record):
    _fields = ("certified", "good", "unreachable_pair")

    def __init__(
        self,
        certified: bool,
        good: GoodCertificate,
        unreachable_pair: tuple[int, int] | None = None,
    ):
        self.__dict__.update(certified=certified, good=good, unreachable_pair=unreachable_pair)

    def __bool__(self) -> bool:
        return self.certified


def certify_great(q: Quiver, m: WeightMatrix) -> GreatCertificate:
    """Sufficiency certificate: the good certificate plus strong connectivity
    of the mixed move graph.

    Moves run forward along j -> i whenever Hom(E_i, E_j) is nonzero and
    generated by global sections, and backward along i -> j whenever
    m[i][j] > 0.  Certification requires every ordered node pair to be
    connected by such moves.  A ``gg`` entry implies a nonzero Hom: the
    ``Quiver`` constructor rejects one with no path.
    """
    good = certify_good(q, m)
    if not good:
        return GreatCertificate(False, good)
    edges: dict[int, set[int]] = {v: set() for v in range(1, q.n + 1)}
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            if i == j:
                continue
            if q.globally_generated(i, j):
                edges[j].add(i)
            if m.entry(i, j) > 0:
                edges[i].add(j)
    for u in range(1, q.n + 1):
        seen = _reachable(edges.__getitem__, u) | {u}
        for v in range(1, q.n + 1):
            if v not in seen:
                return GreatCertificate(False, good, (u, v))
    return GreatCertificate(True, good)


# ---------------------------------------------------------------------------
# stability cone
# ---------------------------------------------------------------------------


class StabilityCone(Record):
    """King's inequalities in polyhedral form: vectors v with v . chi <= 0,
    together with the equality sum(chi) = 0."""

    _fields = ("n", "inequalities", "equality")

    def __init__(
        self, n: int, inequalities: tuple[tuple[int, ...], ...], equality: tuple[int, ...]
    ):
        self.__dict__.update(n=n, inequalities=inequalities, equality=equality)

    def to_dict(self) -> dict:
        return {
            "inequalities": [list(v) for v in self.inequalities],
            "equality": list(self.equality),
        }


def stability_cone(fam: SupportFamily) -> StabilityCone:
    """Inequalities chi_S <= 0 for the proper supports, deduplicated and sorted."""
    vectors = {
        tuple(1 if i in s else 0 for i in range(1, fam.n + 1)) for s in fam.proper()
    }
    return StabilityCone(
        n=fam.n,
        inequalities=tuple(sorted(vectors)),
        equality=(1,) * fam.n,
    )
