"""The step-by-step transposition update: the reference that
`Reduction.transpose_to` and `transposition_update` are tested against.

`transpose(red, k)` moves a `persistence.Reduction` one adjacent
transposition at a time, by the case analysis of Cohen-Steiner, Edelsbrunner
& Morozov, "Vines and vineyards by updating persistence in linear time"
(SoCG 2006), which it shares with the one pass (`Reduction._exchange`), with
its own range and face checks and its own bookkeeping of the order.
`apply_transpositions` walks a copy of a reduction along explicit positions
and relabels its pair set along the steps that swapped.
"""
from typing import List, Sequence, Tuple

from pdbundle.complexes import SimplexIndexing, ValidationError, simplex_id
from pdbundle.persistence import Reduction
from pdbundle.vineyard import PairBijection, update_image


def transpose(red: Reduction, k: int) -> bool:
    """Swap the simplices s, t at positions k, k+1 of `red` and update R and
    V with at most two column additions. Returns whether the pair set
    changed; when it did, s and t trade places inside the pairs that hold
    them.

    Rejects a face transposed past its coface (the result would not be a
    compatible indexing)."""
    order, position = red.order, red.position
    if not 0 <= k < len(order) - 1:
        raise ValidationError(f"transposition position {k} out of range")
    s, t = order[k], order[k + 1]
    ds, dt = red.dims[s], red.dims[t]
    # on a compatible order a face right before its coface is a facet:
    # a face of higher codimension has a face of its own in between
    if dt > ds and s in red.K.facet_indices(t):
        raise ValidationError(
            f"cannot transpose face {simplex_id(red.K.simplices[s])} past "
            f"coface {simplex_id(red.K.simplices[t])}")
    order[k], order[k + 1] = t, s
    position[s], position[t] = k + 1, k
    if ds != dt:
        # only simplices of one dimension share a row or a chain
        return False
    return red._exchange(s, t, lambda x, y: position[x] < position[y])


def swaps_along(red: Reduction, positions: Sequence[int]) -> List[Tuple[int, int]]:
    """Transpose `red` in place at each of `positions` in turn. Returns the
    (moved, passed) simplex pairs of the steps that changed the pair set."""
    order = red.order
    return [(order[k], order[k + 1]) for k in positions if transpose(red, k)]


def apply_transpositions(red: Reduction, positions: Sequence[int]
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    """Compose transposition updates along an explicit position sequence,
    from the order of the reduction `red`, which is not changed: the
    indexing reached and the update bijection."""
    source = red.elements()
    reached = red.copy()
    swaps = swaps_along(reached, positions)
    return (SimplexIndexing(reached.order),
            PairBijection(source, reached.elements(), update_image(source, swaps)))
