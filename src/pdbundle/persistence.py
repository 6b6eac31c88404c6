"""Z/2 persistent homology: boundary-matrix reduction, (birth, death) simplex
pairs and persistence diagrams.

The reduction is the plain left-to-right column algorithm over Z/2, kept as a
decomposition R = D·V (`Reduction`) that is updated in place when its order
changes (`Reduction.transpose_to`).
"""
from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    simplex_dim,
    simplex_id,
)

# A pair-set element: (birth intrinsic index, death intrinsic index) for a
# finite pair, or (birth, None) for an essential (never-dying) class.
Element = Tuple[int, Optional[int]]


class PairSet(frozenset):
    """A pair set: the frozenset of its elements, (birth, death) per finite
    pair and (birth, None) per essential (unpaired) birth. It equals, and
    hashes as, the plain frozenset of those elements."""

    __slots__ = ()

    @property
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(e for e in self if e[1] is not None)

    @property
    def essential(self) -> FrozenSet[int]:
        return frozenset(b for b, d in self if d is None)

    def elements_of_degree(self, K: SimplicialComplex, q: int) -> FrozenSet[Element]:
        return frozenset(e for e in self if K.dim(e[0]) == q)


def _relabel(bits: int, order: Sequence[int]) -> int:
    """The bitset over positions `bits` as a bitset over intrinsic ids."""
    out = 0
    while bits:
        one = bits & -bits
        out |= 1 << order[one.bit_length() - 1]
        bits ^= one
    return out


class Reduction:
    """A decomposition R = D·V over Z/2 of the boundary matrix D of K ordered
    by an indexing: R is reduced (no two nonzero columns share their lowest
    one) and V is upper triangular with unit diagonal. Column c of R with its
    lowest one in row r gives the pair (r, c); a zero column whose row is no
    column's lowest one gives an essential birth.

    Rows and columns are labelled by intrinsic simplex ids, and every column
    of R and V is an int bitset over those ids, so transposing two positions
    moves no entry. `low[c]` is the intrinsic id of the lowest one of column c
    under the current order (-1 for a zero column) and `owner[r]` the column
    whose lowest one is r (-1 if none). The indexing must put every face
    before its cofaces; the pass that builds the columns checks it, and
    raises ValidationError otherwise."""

    __slots__ = ("K", "dims", "order", "position", "R", "V", "low", "owner")

    def __init__(self, K: SimplicialComplex, idx: SimplexIndexing):
        if idx.n != K.n:
            raise ValidationError("indexing size does not match complex")
        n = K.n
        self.K = K
        self.dims = [K.dim(i) for i in range(n)]
        self.order = order = list(idx.order)
        self.position = position = list(idx.position)
        # standard left-to-right reduction on bitsets over positions
        pivot: Dict[int, int] = {}      # lowest position -> column position
        r_cols: List[int] = []
        v_cols: List[int] = []
        for j in range(n):
            col = 0
            for f in K.facet_indices(order[j]):
                col |= 1 << position[f]
            if col >> j:
                # a facet of the simplex at position j lies after it
                raise ValidationError("indexing not compatible with the face order")
            chain = 1 << j
            while col:
                p = col.bit_length() - 1
                k = pivot.get(p)
                if k is None:
                    pivot[p] = j
                    break
                col ^= r_cols[k]
                chain ^= v_cols[k]
            r_cols.append(col)
            v_cols.append(chain)
        self.R = [0] * n
        self.V = [0] * n
        for j, c in enumerate(order):
            self.R[c] = _relabel(r_cols[j], order)
            self.V[c] = _relabel(v_cols[j], order)
        self.low = [-1] * n
        self.owner = [-1] * n
        for p, j in pivot.items():
            self.low[order[j]] = order[p]
            self.owner[order[p]] = order[j]

    def copy(self) -> "Reduction":
        dup = object.__new__(type(self))
        dup.K, dup.dims = self.K, self.dims
        for name in ("order", "position", "R", "V", "low", "owner"):
            setattr(dup, name, list(getattr(self, name)))
        return dup

    def elements(self) -> PairSet:
        """The pair set of the current order, read off in one pass."""
        owner = self.owner
        return PairSet((r, c) if r >= 0 else (c, None)
                       for c, r in enumerate(self.low) if r >= 0 or owner[c] < 0)

    def transpose_to(self, idx1: SimplexIndexing) -> List[Tuple[int, int]]:
        """Transpose this reduction to the order of idx1 along the canonical
        schedule: repeatedly transpose the adjacent out-of-order pair with the
        smallest position index. Returns the (t, s) simplex pairs of the
        steps that changed the pair set, in schedule order, t being the
        simplex that moved ahead of s. Every intermediate order agrees with
        the start or idx1 on each simplex pair, so no step can violate the
        face order when both are compatible; when idx1 is not, this raises
        the error of the first step that would, and changes nothing.

        The schedule sorts like insertion: only the span between the longest
        common prefix and suffix of the two orders moves, and each simplex t
        of it in turn sinks past the simplices before it of higher idx1 rank,
        visited in descending rank. Of those steps only the ones between two
        simplices of t's dimension can touch R or V; the rest move positions
        only. So one pass over the span checks the face order and lists, per
        t, the simplices of its dimension that it passes, before anything
        changes. The replay then updates R and V along that list where V[t]
        holds s or both are positive (`_exchange`), and the order and
        positions are set once at the end."""
        order, position = self.order, self.position
        if idx1.n != len(order):
            raise ValidationError("indexings of different sizes")
        target, rank = idx1.order, idx1.position
        lo, hi = 0, len(order)
        while lo < hi and order[lo] == target[lo]:
            lo += 1
        if lo == hi:
            return []
        while order[hi - 1] == target[hi - 1]:
            hi -= 1
        K, dims, facet_table = self.K, self.dims, self.K.facet_table
        placed: Dict[int, List[int]] = defaultdict(list)  # sorted ranks by dim
        passes: List[Tuple[int, int, List[int]]] = []  # (i, t, ranks passed)
        for i in range(lo, hi):
            t = order[i]
            r = rank[t]
            for f in facet_table[t]:
                if rank[f] > r:
                    # the facets of t lie before it, and the step-by-step
                    # walk first stops at the one of highest rank
                    face = max(facet_table[t], key=rank.__getitem__)
                    raise ValidationError(
                        f"cannot transpose face {simplex_id(K.simplices[face])} "
                        f"past coface {simplex_id(K.simplices[t])}")
            ranks = placed[dims[t]]
            j = bisect(ranks, r)
            if j < len(ranks):
                passes.append((i, t, ranks[j:][::-1]))
            ranks.insert(j, r)
        low, V = self.low, self.V

        def earlier(x: int, y: int) -> bool:
            # the order at a step of the replay's t = order[i]: the
            # simplices ahead of i sorted by rank, the rest at their positions
            px, py = position[x], position[y]
            if px < i:
                return py > i or rank[x] < rank[y]
            return py > i and px < py

        swaps: List[Tuple[int, int]] = []
        for i, t, passed in passes:
            for q in passed:
                s = target[q]
                if ((V[t] >> s & 1 or low[s] < 0 and low[t] < 0)
                        and self._exchange(s, t, earlier)):
                    swaps.append((t, s))
        order[:] = target
        position[:] = rank
        return swaps

    def _exchange(self, s: int, t: int, earlier: Callable[[int, int], bool]
                  ) -> bool:
        """Update R and V for the simplex t moving just ahead of the simplex s
        of its dimension; `earlier(x, y)` tells whether simplex x now comes
        before simplex y. Returns whether the pair set changed."""
        R, V, low, owner = self.R, self.V, self.low, self.owner
        s_bit = 1 << s
        if low[s] < 0 and low[t] < 0:
            # case 1, both positive: clear V[s, t] (R's column s is zero); the
            # column l whose lowest one was t now ends in s if it holds s
            if V[t] & s_bit:
                V[t] ^= V[s]
            l = owner[t]
            if l < 0 or not R[l] & s_bit:
                return False
            c = owner[s]
            if c < 0:
                # s was essential: l now kills s and t lives forever
                low[l], owner[s], owner[t] = s, l, -1
                return True
            if earlier(c, l):
                R[l] ^= R[c]
                V[l] ^= V[c]
                return False
            R[c] ^= R[l]
            V[c] ^= V[l]
            low[c], low[l] = t, s
            owner[t], owner[s] = c, l
            return True
        if not V[t] & s_bit:
            # cases 2 to 4 without V[s, t]: R and V stay reduced and
            # triangular as they are
            return False
        if low[s] < 0:
            # case 4, s positive and t negative: R's column s is zero
            V[t] ^= V[s]
            return False
        # s negative: adding column s to column t clears V[s, t]
        R[t] ^= R[s]
        V[t] ^= V[s]
        ls, lt = low[s], low[t]
        if lt >= 0 and earlier(ls, lt):
            return False                          # case 2, lowest ones kept
        # case 2 with the lowest ones crossed, or case 3 (t positive): add
        # column t back into column s, so s and t trade columns' roles
        R[s] ^= R[t]
        V[s] ^= V[t]
        low[s], low[t] = lt, ls
        owner[ls] = t
        if lt >= 0:
            owner[lt] = s
        else:
            # case 3: the column l whose lowest one was t now ends in s
            l = owner[t]
            owner[t] = -1
            if l >= 0:
                low[l], owner[s] = s, l
        return True


def reduce_pairs(K: SimplicialComplex, idx: SimplexIndexing) -> PairSet:
    """The pair set of the boundary matrix ordered by idx, from a fresh
    reduction."""
    return Reduction(K, idx).elements()


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
    return PersistenceDiagram.from_points(
        q, [(values[b], None if d is None else values[d])
            for b, d in pairs if K.dim(b) == q])


def diagrams_by_degree(pairs: PairSet, K: SimplicialComplex,
                       values: Sequence) -> Dict[int, PersistenceDiagram]:
    top = max((simplex_dim(s) for s in K.simplices), default=0)
    return {q: diagram(pairs, K, values, q) for q in range(top + 1)}
