"""Z/2 persistent homology: boundary-matrix reduction, (birth, death) simplex
pairs and persistence diagrams.

The reduction is the plain left-to-right column algorithm over Z/2 with sparse
columns stored as sorted position lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
    simplex_dim,
)

# A pair-set element: (birth intrinsic index, death intrinsic index) for a
# finite pair, or (birth, None) for an essential (never-dying) class.
Element = Tuple[int, Optional[int]]


@dataclass(frozen=True)
class PairSet:
    """(birth, death) simplex pairs plus unpaired (essential) births."""

    pairs: FrozenSet[Tuple[int, int]]
    essential: FrozenSet[int]

    def elements(self) -> FrozenSet[Element]:
        """Pairs with essential births encoded as (birth, None)."""
        return frozenset(self.pairs) | frozenset((b, None) for b in self.essential)

    def elements_of_degree(self, K: SimplicialComplex, q: int) -> FrozenSet[Element]:
        return frozenset(e for e in self.elements() if K.dim(e[0]) == q)

    def check(self, K: SimplicialComplex, idx: Optional[SimplexIndexing] = None) -> None:
        """Assert the structural invariants; raises ValidationError."""
        seen: Dict[int, str] = {}
        for b, d in self.pairs:
            for s, role in ((b, "birth"), (d, "death")):
                if s in seen:
                    raise ValidationError(f"simplex {s} used twice ({seen[s]}, {role})")
                seen[s] = role
            if K.dim(d) != K.dim(b) + 1:
                raise ValidationError(f"pair ({b}, {d}) dims {K.dim(b)}, {K.dim(d)}")
            if idx is not None and not idx.position[b] < idx.position[d]:
                raise ValidationError(f"pair ({b}, {d}) not ordered by indexing")
        for b in self.essential:
            if b in seen:
                raise ValidationError(f"essential simplex {b} also in a pair")
            seen[b] = "essential"
        if 2 * len(self.pairs) + len(self.essential) != K.n:
            raise ValidationError("2*|pairs| + |essential| != N")


def _xor_sorted(a: List[int], b: List[int]) -> List[int]:
    """Symmetric difference of two sorted row lists (Z/2 column addition)."""
    out: List[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i]); i += 1
        elif a[i] > b[j]:
            out.append(b[j]); j += 1
        else:
            i += 1; j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def reduce_pairs(K: SimplicialComplex, idx: SimplexIndexing) -> PairSet:
    """Standard column reduction of the Z/2 boundary matrix ordered by idx.

    Column j is paired with the row of its final lowest one; columns that
    reduce to zero are births, and births never killed are essential.
    """
    if idx.n != K.n:
        raise ValidationError("indexing size does not match complex")
    if not idx.is_compatible(K):
        raise ValidationError("indexing not compatible with the face order")
    n = K.n
    low_owner: Dict[int, int] = {}          # low row position -> column position
    reduced: Dict[int, List[int]] = {}      # column position -> sorted rows
    births: List[int] = []                  # positions of zero columns
    pairs: List[Tuple[int, int]] = []
    for j in range(n):
        col = sorted(idx.position[i] for i in K.facet_indices(idx.order[j]))
        while col:
            k = low_owner.get(col[-1])
            if k is None:
                break
            col = _xor_sorted(col, reduced[k])
        if col:
            low = col[-1]
            low_owner[low] = j
            reduced[j] = col
            pairs.append((idx.order[low], idx.order[j]))
        else:
            births.append(j)
    essential = frozenset(idx.order[j] for j in births if j not in low_owner)
    return PairSet(pairs=frozenset(pairs), essential=essential)


class PairCache(dict):
    """The pair sets of one complex, keyed by indexing. A pair set is reduced
    on its first lookup and kept."""

    def __init__(self, K: SimplicialComplex):
        super().__init__()
        self.K = K

    def __missing__(self, idx: SimplexIndexing) -> PairSet:
        pairs = self[idx] = reduce_pairs(self.K, idx)
        return pairs


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) points for one homology degree; an infinite
    death is stored as None. The diagonal is implicit and not stored."""

    degree: int
    points: Tuple[Tuple[object, Optional[object]], ...]

    @staticmethod
    def from_points(degree: int, pts: Sequence[Tuple[object, Optional[object]]]
                    ) -> "PersistenceDiagram":
        key = lambda p: (p[0], p[1] is None, 0 if p[1] is None else p[1])
        return PersistenceDiagram(degree, tuple(sorted(pts, key=key)))


def diagram(pairs: PairSet, K: SimplicialComplex, values: Sequence,
            q: int) -> PersistenceDiagram:
    """Degree-q persistence diagram: one point (f(b), f(d)) per degree-q pair
    and (f(b), None) per essential degree-q birth. Zero-persistence points
    are retained."""
    pts: List[Tuple[object, Optional[object]]] = []
    for b, d in pairs.pairs:
        if K.dim(b) == q:
            pts.append((values[b], values[d]))
    for b in pairs.essential:
        if K.dim(b) == q:
            pts.append((values[b], None))
    return PersistenceDiagram.from_points(q, pts)


def diagrams_by_degree(pairs: PairSet, K: SimplicialComplex,
                       values: Sequence) -> Dict[int, PersistenceDiagram]:
    top = max((simplex_dim(s) for s in K.simplices), default=0)
    return {q: diagram(pairs, K, values, q) for q in range(top + 1)}


def pairs_for_filtration(K: SimplicialComplex, values: Sequence) -> PairSet:
    """Convenience: reduce under the indexing induced by the values."""
    return reduce_pairs(K, induced_indexing(values, K))
