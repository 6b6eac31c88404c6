"""Update bijections between pair sets under indexing changes, their canonical
composition, and vineyard extraction along sampled paths.

For a transposition of consecutive simplices the update bijection is either
the identity or the map that swaps the two simplices inside the pairs that
contain them: the swap applies exactly when the transposition changes the
pair set. Which case applies is read off a decomposition R = D·V
(`persistence.Reduction`) that is carried along the transpositions and
updated at each one with at most two column additions, never reduced again. A
walk starts from a copy of the reduction a `PairCache` holds for its first
indexing.

A path sample is integer: every simplex's value times one positive integer,
as a base triangle's affine table gives it. It is ordered, checked and
stored as integers; a vine's values become `Fraction`s only when read
through `Vine.samples`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    check_monotone,
)
from .persistence import Element, PairCache, Reduction


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


def _walk(red: Reduction, positions: Sequence[int]) -> PairBijection:
    """Transpose `red` in place at each of `positions` in turn and return the
    composed update bijection from its pair set before to its pair set after.
    Only the elements holding the two simplices of a step that changes the
    pair set are relabelled."""
    source = red.elements()
    image = {e: e for e in source}        # source element -> its current image
    holder: Dict[int, Element] = {}       # simplex -> source element holding it
    for e in source:
        for x in e:
            if x is not None:
                holder[x] = e
    order = red.order
    for k in positions:
        s, t = order[k], order[k + 1]
        if red.transpose(k):
            es, et = holder[s], holder[t]
            image[es] = _swap_element(image[es], s, t)
            image[et] = _swap_element(image[et], s, t)
            holder[s], holder[t] = et, es
    return PairBijection(source, red.elements(), image)


def transposition_update(pairs: PairCache, idx: SimplexIndexing, k: int
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Transpose positions k, k+1 of idx and return the updated indexing with
    the update bijection between the two pair sets.

    Rejects transpositions of a face past its coface (the result would not be
    a compatible indexing)."""
    return apply_transpositions(pairs, idx, [k])


def apply_transpositions(pairs: PairCache, idx: SimplexIndexing,
                         positions: Sequence[int]
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Compose transposition updates along an explicit position sequence."""
    red = pairs[idx].copy()
    bij = _walk(red, positions)
    return red.indexing(), bij


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
    # an empty schedule leaves the kept reduction as it is: no copy needed
    red = pairs[idx0].copy() if moves else pairs[idx0]
    bij = _walk(red, moves)
    if tuple(red.order) != idx1.order:
        raise ValidationError("canonical sequence failed to reach target indexing")
    return bij


# ---------------------------------------------------------------------------
# Vineyards along sampled paths.
# ---------------------------------------------------------------------------

# One path sample: every simplex's value times one positive integer D, and D.
Sample = Tuple[Sequence[int], int]


def rational_sample(values: Sequence) -> Sample:
    """Rational filtration values as a sample: their numerators over the
    least common positive denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass
class Vine:
    """One tracked pair across the samples of a path. labels[j] is the pair
    (birth, death) at sample j, whose values are read off values[j] at the
    path parameter params[j]; every vine of a path shares its params and
    values. death is None at samples where the class is essential."""

    params: Sequence
    values: Sequence[Sample]
    labels: List[Element]

    @property
    def samples(self) -> List[Tuple[object, Fraction, Optional[Fraction]]]:
        """(parameter, birth, death) at each sample, as exact Fractions."""
        return [(t, Fraction(nums[b], den),
                 None if d is None else Fraction(nums[d], den))
                for t, (nums, den), (b, d)
                in zip(self.params, self.values, self.labels)]


def path_vineyard(K: SimplicialComplex, samples: Sequence[Sample],
                  params: Optional[Sequence] = None
                  ) -> Tuple[List[Vine], PairBijection]:
    """Track every pair through the update bijections between consecutive
    samples. Returns the vines and the total composition from the first to the
    last sample (the loop permutation when the path is a loop).

    A sample is (numerators, D): every simplex's value times one positive
    integer D (`stratify.point_numerators` gives them at a base point,
    `rational_sample` from rational values). Its indexing is a stable sort
    of the simplices by numerator, the order `induced_indexing` gives the
    values, and a sample that is not a filtration on K raises
    ValidationError. The first sample is reduced once, and that reduction is
    carried through the rest.

    Consecutive samples should be close enough that the canonical bijection
    between them matches the crossing structure of the underlying path;
    event-exact crossing detection is out of scope."""
    if not samples:
        raise ValidationError("path_vineyard needs at least one filtration")
    params = list(range(len(samples)) if params is None else params)
    samples = list(samples)
    if len(params) != len(samples):
        raise ValidationError("params and filtrations differ in length")
    faces = [(j, i) for i in range(K.n) for j in K.facet_indices(i)]

    def indexing(nums: Sequence[int], den: int) -> SimplexIndexing:
        if den <= 0:
            raise ValidationError(f"sample denominator {den} is not positive")
        if len(nums) != K.n or any(nums[j] > nums[i] for j, i in faces):
            # raises on the first violation, worded as for rational values
            check_monotone(K, [Fraction(v, den) for v in nums])
        return SimplexIndexing(sorted(range(K.n), key=nums.__getitem__))

    prev = indexing(*samples[0])
    red = Reduction(K, prev)
    first = red.elements()
    total = PairBijection.identity(first)
    vines = [Vine(params, samples, [e]) for e in sorted(first)]
    for j in range(1, len(samples)):
        idx = indexing(*samples[j])
        step = _walk(red, canonical_transpositions(prev, idx))
        total = total.then(step)
        for vine in vines:
            vine.labels.append(step(vine.labels[-1]))
        prev = idx
    return vines, total
