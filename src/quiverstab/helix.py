"""Spiral extension of chain quivers, canonical characters, and Picard-degree
bookkeeping for the line-bundle data attached to a catalog entry."""

from __future__ import annotations

from itertools import count, islice
from typing import Sequence

from .quiver import (
    Arrow,
    DomainError,
    Quiver,
    QuiverError,
    Record,
    derive_binomial_relations,
)

PicVector = tuple[int, ...]


def is_chain(q: Quiver) -> bool:
    """True iff all arrows run from node i+1 to node i with weight zero."""
    return all(a.weight == 0 and a.source == a.target + 1 for a in q.arrows)


def extend_spiral(q: Quiver, added_dim: int, labels: Sequence[str] | None = None) -> Quiver:
    """Extend a chain quiver by added_dim weight-1 arrows from node 1 to node n.

    The new arrows all have path-algebra degree 1 - n + n = 1, so the grading
    certificate survives the extension.  When every arrow of the extended
    quiver carries a label, the binomial relations are derived again for it.
    The added arrows take the first ids ``h1, h2, ...`` not already in use.
    Bad arguments or labels raise ``QuiverError``, checked before a
    non-chain quiver raises ``DomainError``.
    """
    if added_dim < 1:
        raise QuiverError("added_dim must be at least 1")
    if labels is not None and len(labels) != added_dim:
        raise QuiverError(f"expected {added_dim} labels, got {len(labels)}")
    used = {a.id for a in q.arrows}
    ids = islice((f"h{k}" for k in count(1) if f"h{k}" not in used), added_dim)
    added = tuple(
        Arrow(id_, 1, q.n, weight=1, label=None if labels is None else labels[k])
        for k, id_ in enumerate(ids)
    )
    if not is_chain(q):
        raise DomainError("spiral extension needs a chain quiver")
    extended = Quiver(
        n=q.n,
        arrows=q.arrows + added,
        relations=q.relations,
        gg=None,  # gg describes the base collection; not carried to the total space
        pic=q.pic,
        canonical=q.canonical,
    )
    if all(a.label is not None for a in extended.arrows):
        extended = extended.replace(relations=tuple(derive_binomial_relations(extended)))
    return extended


def theorem43_character(m: WeightMatrix) -> Character:
    """The canonical-polarization character: chi_m plus (-1, 0, ..., 0, 1).

    The shift needs two distinct end nodes, so n < 2 raises ``ValueError``.
    """
    from .stability import Character, character_from_weights

    if m.n < 2:
        raise ValueError(f"the spiral shift needs at least 2 nodes, not {m.n}")
    base = character_from_weights(m)
    shift = (-1,) + (0,) * (m.n - 2) + (1,)
    return Character(tuple(c + s for c, s in zip(base.chi, shift)))


def e_chi_degree(chi: Character, pic: Sequence[PicVector]) -> PicVector:
    """Picard degree of the character line bundle: sum of chi_i * pic(E_i)."""
    if len(pic) != chi.n:
        raise ValueError(f"{len(pic)} Picard degrees for an n = {chi.n} character")
    ranks = {len(v) for v in pic}
    if len(ranks) != 1:
        raise ValueError("Picard degrees have mixed ranks")
    rank = ranks.pop()
    out = [0] * rank
    for c, v in zip(chi.chi, pic):
        for k in range(rank):
            out[k] += c * v[k]
    return tuple(out)


class DegreeCheck(Record):
    """Degree-level consistency of a weight matrix with the spiral line bundle.

    This checks only the Picard-degree shadow of the required sheaf
    isomorphism (necessary, not sufficient); reports should label it as a
    degree-level check.
    """

    _fields = ("consistent", "left", "right")

    def __bool__(self) -> bool:
        return self.consistent


def check_prop41_degrees(q: Quiver, m: WeightMatrix) -> DegreeCheck:
    """Check sum_ij m[i][j] * (pic(E_j) - pic(E_i)) == pic(E_1) - pic(E_n) - canonical.

    The left side is ``e_chi_degree`` of the character of ``m``: the weight
    ``m[i][j]`` adds to chi_j and takes from chi_i.
    """
    from .stability import character_from_weights

    if q.pic is None or q.canonical is None:
        raise QuiverError("degree check needs pic and canonical data")
    if m.n != q.n:
        raise ValueError(f"weight matrix size {m.n} != n = {q.n}")
    left = e_chi_degree(character_from_weights(m), q.pic)
    right = tuple(
        q.pic[0][k] - q.pic[q.n - 1][k] - q.canonical[k] for k in range(len(q.canonical))
    )
    return DegreeCheck(left == right, left, right)
