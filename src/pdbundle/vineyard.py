"""Update bijections between pair sets under indexing changes, their canonical
composition, and vineyard extraction along sampled paths.

For a transposition of consecutive simplices the update bijection is either
the identity or the map that swaps the two simplices inside the pairs that
contain them: the swap applies exactly when the transposition changes the
pair set. Which case applies is read off a decomposition R = D·V
(`persistence.Reduction`) that is carried along the transpositions and
updated at each one with at most two column additions, never reduced again.

Every walk carries one relabelling: `image` maps each element of its first
pair set (a start element) to the element it has become, and `holder` maps
each simplex to the start element whose image holds it. A swap relabels the
two elements holding the swapped simplices, so the composed bijection is
read off `image` at any point of the walk, and none is composed step by
step. Transposing and relabelling are two steps: a reduction is transposed
and lists the steps that swapped, and `update_image` relabels a pair set
along that list, so a walk with no swap needs no relabelling.

Every walk between two indexings (`transposition_update`,
`composed_bijection`, `path_vineyard`) follows the canonical schedule in one
pass, `Reduction.transpose_to`: a transposition is the one-step schedule to
the order with its two positions swapped. That pass visits only the steps
between two simplices of one dimension: a step between two dimensions moves
positions and nothing else, so the order is set once at the end. The walks
take a reduction of their first indexing and transpose a copy of it;
`path_vineyard` carries one reduction and one relabelling through all its
samples, and a vine's label at a sample is the image of its first label.
Its cost follows the path's order changes: every sample is sorted once, and
only a sample whose order differs from the previous sample's is checked
monotone, indexed, walked to with `transpose_to` and read off the
relabelling; a sample of an unchanged order repeats the labels before it.

A path sample is integer: every simplex's value times one positive integer,
as a base triangle's affine table gives it. It is ordered, checked and
stored as integers; a vine's values become `Fraction`s only when read
through `Vine.samples`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (
    InvariantError,
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    check_monotone,
    value_order,
)
from .persistence import Element, Reduction


@dataclass(frozen=True)
class PairBijection:
    """A bijection between the elements of two pair sets (essential births are
    carried as (birth, None) elements)."""

    source: frozenset
    target: frozenset
    mapping: Dict[Element, Element]

    def __post_init__(self):
        if set(self.mapping.keys()) != set(self.source):
            raise ValidationError("bijection not total on the source pair set")
        _check_onto(self.mapping, self.target)

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping.items())


def _check_onto(image: Dict[Element, Element], target) -> None:
    # the images of a walk's start elements are its current pair set, or the
    # walk is wrong: a construction bug, not bad input
    if set(image.values()) != target:
        raise InvariantError("bijection not onto the target pair set")


def _swap_element(e: Element, a: int, b: int) -> Element:
    sub = lambda x: b if x == a else (a if x == b else x)
    birth, death = e
    return (sub(birth), None if death is None else sub(death))


def _start(source) -> Tuple[Dict[Element, Element], Dict[int, Element]]:
    """The walk state at the pair set `source`: `image` (start element ->
    current element), every element its own, and `holder` (simplex -> start
    element whose current element holds it)."""
    holder = {x: e for e in source for x in e if x is not None}
    return {e: e for e in source}, holder


def _relabel(image: Dict[Element, Element], holder: Dict[int, Element],
             swaps: Sequence[Tuple[int, int]]) -> None:
    """Relabel the walk state along `swaps`: at each, the two elements
    holding the swapped simplices trade them, and no other changes."""
    for s, t in swaps:
        es, et = holder[s], holder[t]
        image[es] = _swap_element(image[es], s, t)
        image[et] = _swap_element(image[et], s, t)
        holder[s], holder[t] = et, es


def update_image(source, swaps: Sequence[Tuple[int, int]]
                 ) -> Dict[Element, Element]:
    """The update bijection from the pair set `source` along a walk with
    these swaps (`Reduction.transpose_to`), as a mapping of source onto the
    pair set the walk reaches."""
    image, holder = _start(source)
    _relabel(image, holder, swaps)
    return image


def transposition_update(red: Reduction, k: int
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Transpose positions k, k+1 of the order of the reduction `red` and
    return the updated indexing with the update bijection between the two
    pair sets. `red` itself is not changed.

    Rejects transpositions of a face past its coface (the result would not be
    a compatible indexing)."""
    order = list(red.order)
    if not 0 <= k < len(order) - 1:
        raise ValidationError(f"transposition position {k} out of range")
    order[k], order[k + 1] = order[k + 1], order[k]
    idx = SimplexIndexing(order)
    return idx, composed_bijection(red, idx)


def composed_bijection(red: Reduction, idx1: SimplexIndexing) -> PairBijection:
    """The update bijection along the canonical transposition sequence from
    the order of the reduction `red` (not changed) to idx1. The result
    depends on the sequence in general; fixing the canonical one makes
    downstream constructions deterministic (`Reduction.transpose_to`)."""
    source = red.elements()
    reached = red.copy()
    swaps = reached.transpose_to(idx1)
    bij = PairBijection(source, reached.elements(), update_image(source, swaps))
    if tuple(reached.order) != idx1.order:
        raise InvariantError("canonical sequence failed to reach target indexing")
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
    """Track every pair through the canonical transpositions between
    consecutive samples. Returns the vines and the update bijection from the
    first to the last sample (the loop permutation when the path is a loop).

    A sample is (numerators, D): every simplex's value times one positive
    integer D (`stratify.point_numerators` gives them at a base point,
    `rational_sample` from rational values). Its indexing is a stable sort
    of the simplices by numerator, the order `induced_indexing` gives the
    values, and a sample that is not a filtration on K raises
    ValidationError. The first sample is reduced once, and that reduction and
    one relabelling of its elements are carried through the rest; only where
    the order changes is a sample checked and the reduction walked.

    Consecutive samples should be close enough that the canonical bijection
    between them matches the crossing structure of the underlying path;
    event-exact crossing detection is out of scope."""
    if not samples:
        raise ValidationError("path_vineyard needs at least one filtration")
    params = list(range(len(samples)) if params is None else params)
    samples = list(samples)
    if len(params) != len(samples):
        raise ValidationError("params and filtrations differ in length")

    def order_of(nums: Sequence[int], den: int) -> List[int]:
        if den <= 0:
            raise ValidationError(f"sample denominator {den} is not positive")
        if len(nums) != K.n:
            check_monotone(K, nums)   # raises on the length
        return value_order(nums)

    def checked(order: List[int], nums: Sequence[int], den: int
                ) -> SimplexIndexing:
        # K lists faces before cofaces, so a stable sort by value is a
        # filtration order exactly when the values are monotone: a sample
        # whose order equals one checked here is monotone without a check.
        if any(nums[j] > nums[i] for j, i in K.facet_pairs):
            # raises on the first violation, worded as for rational values
            check_monotone(K, [Fraction(v, den) for v in nums])
        return SimplexIndexing(order)

    prev = order_of(*samples[0])
    red = Reduction(K, checked(prev, *samples[0]))
    first = red.elements()
    target = first
    image, holder = _start(first)
    starts = sorted(first)
    # per run of consecutive samples of one order: its labels and its length
    labels, counts = [starts], [1]
    for nums, den in samples[1:]:
        order = order_of(nums, den)
        if order == prev:
            counts[-1] += 1
            continue
        _relabel(image, holder, red.transpose_to(checked(order, nums, den)))
        target = red.elements()
        _check_onto(image, target)
        labels.append([image[e] for e in starts])
        counts.append(1)
        prev = order
    vines = [Vine(params, samples, []) for _ in starts]
    for run, count in zip(labels, counts):
        for vine, label in zip(vines, run):
            vine.labels.extend(repeat(label, count))
    return vines, PairBijection(first, target, image)
