"""Property tests of the R = D·V decomposition (persistence.Reduction) and its
step-by-step transposition update (stepwise.transpose), on random small
complexes, random compatible indexings and random legal transpositions;
every illegal one is rejected."""
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdbundle.complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
)
from pdbundle.persistence import Reduction, reduce_pairs

from conftest import random_complex, random_monotone_values
from rereduction import column_reduction_pairs, is_face
from stepwise import transpose


@st.composite
def indexed_complexes(draw):
    """A random complex on at most six vertices (a graph plus some of its
    triangles) with the indexing induced by random monotone values."""
    n = draw(st.integers(1, 6))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    present = set(edges)
    triangles = [t for t in combinations(range(n), 3)
                 if all(e in present for e in combinations(t, 2))
                 and draw(st.booleans())]
    K = SimplicialComplex([(v,) for v in range(n)] + edges + triangles)
    steps = draw(st.lists(st.integers(0, 2), min_size=K.n, max_size=K.n))
    values = []
    for i, step in enumerate(steps):
        values.append(step + max((values[j] for j in K.facet_indices(i)), default=0))
    return K, induced_indexing(values, K)


def check_decomposition(red: Reduction) -> None:
    """R = D·V, V upper triangular with unit diagonal in the current order,
    and low/owner are the lowest ones of R's columns."""
    K, pos = red.K, red.position
    for c in range(K.n):
        assert red.V[c] >> c & 1
        rows, chain = 0, red.V[c]
        for i in range(K.n):
            if chain >> i & 1:
                assert pos[i] <= pos[c]
                for f in K.facet_indices(i):
                    rows ^= 1 << f
        assert rows == red.R[c]
        ones = [i for i in range(K.n) if rows >> i & 1]
        low = max(ones, key=pos.__getitem__) if ones else -1
        assert red.low[c] == low
        if low >= 0:
            assert red.owner[low] == c
    assert all(red.low[c] == r for r, c in enumerate(red.owner) if c >= 0)


def cem06_case(red: Reduction, k: int):
    """The case of the transposition at k: 'dims' when the two simplices
    differ in dimension, else 1-4 by which of them is positive (a zero column
    of R) before the step, with whether V holds the earlier one in the later
    one's column."""
    s, t = red.order[k], red.order[k + 1]
    if red.dims[s] != red.dims[t]:
        return "dims"
    case = {(True, True): "1", (False, False): "2", (False, True): "3",
            (True, False): "4"}[(red.low[s] < 0, red.low[t] < 0)]
    return case, bool(red.V[t] >> s & 1)


def test_transposition_update_matches_fresh_reduction():
    seen = Counter()

    @settings(max_examples=300)
    @given(indexed_complexes(), st.randoms(use_true_random=False))
    def walk(case, rng):
        K, idx = case
        red = Reduction(K, idx)
        check_decomposition(red)
        for _ in range(60):
            legal = [k for k in range(K.n - 1)
                     if not is_face(K.simplices[red.order[k]],
                                    K.simplices[red.order[k + 1]])]
            order = list(red.order)
            for k in sorted(set(range(K.n - 1)) - set(legal)):
                with pytest.raises(ValidationError, match="cannot transpose face"):
                    transpose(red, k)
                assert red.order == order
            if not legal:
                return
            k = rng.choice(legal)
            kind = cem06_case(red, k)
            before = red.elements()
            swapped = transpose(red, k)
            after = red.elements()
            assert after == reduce_pairs(K, SimplexIndexing(red.order))
            assert swapped == (after != before)
            check_decomposition(red)
            seen[kind, swapped] += 1

    walk()
    cases = {(c, v) for c in "1234" for v in (False, True)}
    assert {kind for kind, _ in seen} == cases | {"dims"}
    assert {kind[0] for kind, swapped in seen if swapped} == {"1", "2", "3"}


@settings(max_examples=200)
@given(indexed_complexes())
def test_copy_is_independent(case):
    K, idx = case
    red = Reduction(K, idx)
    dup = red.copy()
    for k in range(K.n - 1):
        if not is_face(K.simplices[dup.order[k]], K.simplices[dup.order[k + 1]]):
            transpose(dup, k)
    assert SimplexIndexing(red.order) == idx
    assert red.elements() == reduce_pairs(K, idx)
    check_decomposition(red)


def test_reduce_pairs_matches_column_reduction_on_sorted_lists():
    rng = random.Random(15)
    for _ in range(300):
        K = random_complex(rng, max_vertices=6)
        idx = induced_indexing(random_monotone_values(rng, K), K)
        assert reduce_pairs(K, idx) == column_reduction_pairs(K, idx)
