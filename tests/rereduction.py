"""Update bijections by re-reduction: the oracle of the differential tests in
test_vineyard.py and test_vineyard_cli.py.

Every transposition here reduces the boundary matrix afresh under the new
indexing and is a swap exactly when the pair set changed, the way pdbundle
decided it before it carried an R = D·V decomposition along the schedule. The
reduction is the column algorithm on sorted row lists and shares no code with
`pdbundle.persistence.Reduction`. The schedule is the plain bubble sort
(`bubble_schedule`), the oracle of `Reduction.transpose_to`; the bijection
type is pdbundle's own, but composing bijections is done here (`identity`,
`compose`), by none of pdbundle's code. `is_face` is the face test by vertex
sets, which the tests use to tell legal transpositions from illegal ones.
"""
from typing import Dict, List, Optional, Sequence, Tuple

from pdbundle.complexes import (
    Simplex,
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
)
from pdbundle.persistence import Element, PairSet
from pdbundle.serialize import canonical_dumps, mapping_to_json
from pdbundle.stratify import filtration_at
from pdbundle.vineyard import PairBijection


def is_face(tau: Simplex, sigma: Simplex) -> bool:
    """True iff tau is a proper face of sigma."""
    return tau != sigma and set(tau) < set(sigma)


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


def column_reduction_pairs(K: SimplicialComplex, idx: SimplexIndexing) -> PairSet:
    """Standard left-to-right column reduction of the boundary matrix ordered
    by idx, with columns as sorted lists of row positions."""
    low_owner: Dict[int, int] = {}
    reduced: Dict[int, List[int]] = {}
    births: List[int] = []
    pairs: List[Tuple[int, int]] = []
    for j in range(K.n):
        col = sorted(idx.position[i] for i in K.facet_indices(idx.order[j]))
        while col:
            k = low_owner.get(col[-1])
            if k is None:
                break
            col = _xor_sorted(col, reduced[k])
        if col:
            low_owner[col[-1]] = j
            reduced[j] = col
            pairs.append((idx.order[col[-1]], idx.order[j]))
        else:
            births.append(j)
    essential = [(idx.order[j], None) for j in births if j not in low_owner]
    return PairSet(pairs + essential)


class ReducedPairs(dict):
    """Pair sets of one complex by indexing, each from a fresh reduction."""

    def __init__(self, K: SimplicialComplex):
        super().__init__()
        self.K = K

    def __missing__(self, idx: SimplexIndexing) -> PairSet:
        pairs = self[idx] = column_reduction_pairs(self.K, idx)
        return pairs


def _swap_element(e: Element, a: int, b: int) -> Element:
    sub = lambda x: b if x == a else (a if x == b else x)
    return (sub(e[0]), None if e[1] is None else sub(e[1]))


def identity(elements) -> PairBijection:
    els = frozenset(elements)
    return PairBijection(els, els, {e: e for e in els})


def compose(first: PairBijection, second: PairBijection) -> PairBijection:
    """first, then second."""
    assert first.target == second.source, "bijections not composable"
    return PairBijection(first.source, second.target,
                         {k: second.mapping[v] for k, v in first.mapping.items()})


def bubble_schedule(idx0: SimplexIndexing, idx1: SimplexIndexing) -> List[int]:
    """The canonical schedule from idx0 to idx1 by its definition: repeatedly
    transpose the adjacent out-of-order pair with the smallest position
    index, scanning the whole order from the front."""
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


def transposed(idx: SimplexIndexing, k: int) -> SimplexIndexing:
    """The indexing with positions k, k+1 swapped."""
    order = list(idx.order)
    order[k], order[k + 1] = order[k + 1], order[k]
    return SimplexIndexing(order)


def transposition_update(pairs: ReducedPairs, idx: SimplexIndexing, k: int
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    K = pairs.K
    a, b = idx.order[k], idx.order[k + 1]
    if is_face(K.simplices[a], K.simplices[b]):
        raise ValidationError("cannot transpose a face past its coface")
    idx2 = transposed(idx, k)
    src, tgt = pairs[idx], pairs[idx2]
    if src == tgt:
        return idx2, identity(src)
    return idx2, PairBijection(src, tgt, {e: _swap_element(e, a, b) for e in src})


def apply_transpositions(pairs: ReducedPairs, idx: SimplexIndexing,
                         positions: Sequence[int]
                         ) -> Tuple[SimplexIndexing, PairBijection]:
    bij = identity(pairs[idx])
    for k in positions:
        idx, step = transposition_update(pairs, idx, k)
        bij = compose(bij, step)
    return idx, bij


def composed_bijection(pairs: ReducedPairs, idx0: SimplexIndexing,
                       idx1: SimplexIndexing) -> PairBijection:
    end, bij = apply_transpositions(pairs, idx0, bubble_schedule(idx0, idx1))
    assert end == idx1
    return bij


def path_vineyard(K: SimplicialComplex, filtrations: Sequence[Sequence]
                  ) -> Tuple[List[Tuple[list, list]], PairBijection]:
    """(samples, labels) of every vine, ordered by starting element, and the
    loop bijection, with the sample parameters 0, 1, 2, ..."""
    pairs = ReducedPairs(K)
    indexings = [induced_indexing(f, K) for f in filtrations]
    first = pairs[indexings[0]]
    total = identity(first)
    current = {e: e for e in first}
    vines: Dict[Element, Tuple[list, list]] = {e: ([], []) for e in first}

    def record(t, values):
        for e0, (b, d) in current.items():
            vines[e0][0].append((t, values[b], None if d is None else values[d]))
            vines[e0][1].append((b, d))

    record(0, filtrations[0])
    for j in range(1, len(filtrations)):
        step = composed_bijection(pairs, indexings[j - 1], indexings[j])
        total = compose(total, step)
        current = {e0: step.mapping[e] for e0, e in current.items()}
        record(j, filtrations[j])
    return [vines[e] for e in sorted(vines)], total


def vineyard_output(fib, points) -> Tuple[str, str]:
    """The CSV and the loop JSON of `pdbundle vineyard` along `points`, the
    way pdbundle computed them on `Fraction` values: `filtration_at` at each
    point, `induced_indexing`, this module's `path_vineyard`, and float() of
    every exact value in the CSV."""
    K = fib.complex
    filts = [filtration_at(fib, p) for p in points]
    vines, loop = path_vineyard(K, filts)
    lines = ["vine_id,t,birth,death"]
    for vid, (samples, _) in enumerate(vines):
        for t, b, d in samples:
            death = "inf" if d is None else repr(float(d))
            lines.append(f"{vid},{repr(float(t))},{repr(float(b))},{death}")
    loop_json = {
        "loop_permutation": mapping_to_json(K, loop.mapping),
        "nontrivial": any(k != v for k, v in loop.mapping.items()),
    }
    return "\n".join(lines) + "\n", canonical_dumps(loop_json)


def sheaf_morphisms(strat, pairs: ReducedPairs, degrees: Sequence[Optional[int]]
                    ) -> Dict[Optional[int], Dict[Tuple[int, int], Dict[Element, Element]]]:
    """Per degree of `degrees` (None for all degrees), the morphism on every
    face relation of a stratification, restricted to the face cell's stalk."""
    K = strat.fib.complex
    bijections = {(face, cell.id): composed_bijection(
                      pairs, strat.indexings[face], strat.indexings[cell.id])
                  for cell in strat.cells for face in strat.faces_of(cell.id)}

    def stalk(cid, degree):
        ps = pairs[strat.indexings[cid]]
        return ps if degree is None else ps.elements_of_degree(K, degree)

    return {degree: {edge: {e: bij.mapping[e] for e in stalk(edge[0], degree)}
                     for edge, bij in bijections.items()}
            for degree in degrees}
