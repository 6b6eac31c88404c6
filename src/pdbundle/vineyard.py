"""Update bijections between pair sets under indexing changes, their canonical
composition, and vineyard extraction along sampled paths.

For a transposition of consecutive simplices the update bijection is either
the identity or the map that swaps the two simplices inside the pairs that
contain them. Which case applies is decided here from the pair sets under
both indexings, taken from a `PairCache`: the swap changes the pair set
whenever it differs from the identity on it, so the dichotomy is decidable
from the pair sets alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
    is_face,
    simplex_id,
)
from .persistence import Element, PairCache


@dataclass(frozen=True, eq=False)
class PairBijection:
    """A bijection between the elements of two pair sets (essential births are
    carried as (birth, None) elements)."""

    source: frozenset
    target: frozenset
    mapping: Dict[Element, Element]

    def __post_init__(self):
        if set(self.mapping.keys()) != set(self.source):
            raise ValidationError("bijection not total on the source pair set")
        if set(self.mapping.values()) != set(self.target):
            raise ValidationError("bijection not onto the target pair set")

    def __eq__(self, other):
        return (isinstance(other, PairBijection)
                and self.source == other.source
                and self.target == other.target
                and self.mapping == other.mapping)

    @staticmethod
    def identity(elements) -> "PairBijection":
        els = frozenset(elements)
        return PairBijection(els, els, {e: e for e in els})

    def __call__(self, e: Element) -> Element:
        return self.mapping[e]

    def inverse(self) -> "PairBijection":
        return PairBijection(self.target, self.source,
                             {v: k for k, v in self.mapping.items()})

    def then(self, other: "PairBijection") -> "PairBijection":
        if self.target != other.source:
            raise ValidationError("bijections not composable")
        return PairBijection(self.source, other.target,
                             {k: other.mapping[v] for k, v in self.mapping.items()})

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping.items())

    def restrict(self, elements) -> Dict[Element, Element]:
        """The mapping restricted to a subset of source elements."""
        return {e: self.mapping[e] for e in elements}


def _swap_element(e: Element, a: int, b: int) -> Element:
    sub = lambda x: b if x == a else (a if x == b else x)
    birth, death = e
    return (sub(birth), None if death is None else sub(death))


def transposition_update(pairs: PairCache, idx: SimplexIndexing, k: int
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Transpose positions k, k+1 of idx and return the updated indexing with
    the update bijection between the two pair sets of `pairs`.

    Rejects transpositions of a face past its coface (the result would not be
    a compatible indexing)."""
    if not 0 <= k < idx.n - 1:
        raise ValidationError(f"transposition position {k} out of range")
    K = pairs.K
    a, b = idx.order[k], idx.order[k + 1]
    if is_face(K.simplices[a], K.simplices[b]):
        raise ValidationError(
            f"cannot transpose face {simplex_id(K.simplices[a])} past coface "
            f"{simplex_id(K.simplices[b])}")
    idx2 = idx.transposed(k)
    src = pairs[idx].elements()
    tgt = pairs[idx2].elements()
    if src == tgt:
        return idx2, PairBijection.identity(src)
    mapping = {e: _swap_element(e, a, b) for e in src}
    bij = PairBijection(src, tgt, mapping)
    return idx2, bij


def apply_transpositions(pairs: PairCache, idx: SimplexIndexing,
                         positions: Sequence[int]
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Compose transposition updates along an explicit position sequence."""
    bij = PairBijection.identity(pairs[idx].elements())
    cur = idx
    for k in positions:
        cur, step = transposition_update(pairs, cur, k)
        bij = bij.then(step)
    return cur, bij


def canonical_transpositions(idx0: SimplexIndexing,
                             idx1: SimplexIndexing) -> List[int]:
    """Bubble-sort schedule from idx0 to idx1: repeatedly transpose the
    adjacent out-of-order pair with the smallest position index. Every
    intermediate order agrees with idx0 or idx1 on each simplex pair, so no
    step can violate the face order when both endpoints are compatible."""
    if idx0.n != idx1.n:
        raise ValidationError("indexings of different sizes")
    seq = list(idx0.order)
    rank = idx1.position
    moves: List[int] = []
    k = 0
    while k < len(seq) - 1:
        if rank[seq[k]] > rank[seq[k + 1]]:
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
            moves.append(k)
            k = max(k - 1, 0)
        else:
            k += 1
    return moves


def composed_bijection(pairs: PairCache, idx0: SimplexIndexing,
                       idx1: SimplexIndexing) -> PairBijection:
    """The update bijection along the canonical transposition sequence from
    idx0 to idx1. The result depends on the sequence in general; fixing the
    canonical one makes downstream constructions deterministic."""
    moves = canonical_transpositions(idx0, idx1)
    end, bij = apply_transpositions(pairs, idx0, moves)
    if end != idx1:
        raise ValidationError("canonical sequence failed to reach target indexing")
    return bij


# ---------------------------------------------------------------------------
# Vineyards along sampled paths.
# ---------------------------------------------------------------------------

@dataclass
class Vine:
    """One tracked pair across the samples of a path: parallel lists of the
    path parameter, the (birth, death) values, and the pair label at each
    sample. death is None at samples where the class is essential."""

    samples: List[Tuple[object, object, Optional[object]]]
    labels: List[Element]


def path_vineyard(K: SimplicialComplex, filtrations: Sequence[Sequence],
                  params: Optional[Sequence] = None
                  ) -> Tuple[List[Vine], PairBijection]:
    """Track every pair through the update bijections between consecutive
    samples. Returns the vines and the total composition from the first to the
    last sample (the loop permutation when the path is a loop).

    Consecutive samples should be close enough that the canonical bijection
    between them matches the crossing structure of the underlying path;
    event-exact crossing detection is out of scope."""
    if not filtrations:
        raise ValidationError("path_vineyard needs at least one filtration")
    if params is None:
        params = list(range(len(filtrations)))
    if len(params) != len(filtrations):
        raise ValidationError("params and filtrations differ in length")
    pairs = PairCache(K)
    indexings = [induced_indexing(f, K) for f in filtrations]
    first = pairs[indexings[0]].elements()
    total = PairBijection.identity(first)
    vines = {e: Vine(samples=[], labels=[]) for e in sorted(first)}
    current = {e: e for e in first}

    def record(t, values):
        for e0, e in current.items():
            b, d = e
            vines[e0].samples.append(
                (t, values[b], None if d is None else values[d]))
            vines[e0].labels.append(e)

    record(params[0], filtrations[0])
    for j in range(1, len(filtrations)):
        step = composed_bijection(pairs, indexings[j - 1], indexings[j])
        total = total.then(step)
        current = {e0: step(e) for e0, e in current.items()}
        record(params[j], filtrations[j])
    return [vines[e] for e in sorted(vines)], total
