import random
from fractions import Fraction

import pytest

from pdbundle.complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    check_monotone,
    facets,
    induced_indexing,
    monotonicity_violations,
    order_signature,
    simplex_id,
    value_order,
)

from conftest import A, B, C, D, mono_values, random_complex, random_monotone_values
from rereduction import transposed


def test_canonicalizes_vertex_lists():
    K = SimplicialComplex([[0], [2], [2, 0]])
    assert K.simplices == ((0,), (2,), (0, 2))


def test_rejects_duplicate_and_unclosed():
    with pytest.raises(ValidationError):
        SimplicialComplex([[0], [0]])
    with pytest.raises(ValidationError):
        SimplicialComplex([[0], [1], [0, 1], [0, 1, 2]])


def test_rejects_coface_before_face():
    with pytest.raises(ValidationError, match="listed after"):
        SimplicialComplex([[0], [1], [0, 1], [2], [0, 1, 2], [1, 2], [0, 2]])
    # same complex, faces first, is fine
    SimplicialComplex([[0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]])


def test_induced_indexing_trivial_cases():
    K1 = SimplicialComplex([[0]])
    assert induced_indexing([Fraction(3)], K1).order == (0,)
    K = SimplicialComplex([[0], [1], [0, 1]])
    # all equal values: intrinsic order wins
    assert induced_indexing([1, 1, 1], K).order == (0, 1, 2)


def test_induced_indexing_monodromy_example(mono_complex):
    # 0-valued simplices first in intrinsic order, then b, a, d, c
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    idx = induced_indexing(vals, mono_complex)
    assert idx.order == (0, 1, 2, 3, 4, 5, 6, B, A, D, C)


def test_induced_indexing_rejects_non_monotone():
    K = SimplicialComplex([[0], [1], [0, 1]])
    with pytest.raises(ValidationError, match="non-monotone"):
        induced_indexing([2, 0, 1], K)


def test_indexing_is_always_compatible():
    rng = random.Random(7)
    for _ in range(100):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        idx = induced_indexing(vals, K)
        assert all(idx.position[j] < idx.position[i] for j, i in K.facet_pairs)
        assert sorted(idx.order) == list(range(K.n))


def test_indexing_matches_lexicographic_sort_oracle():
    rng = random.Random(8)
    for _ in range(100):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        idx = induced_indexing(vals, K)
        oracle = [i for _, i in sorted((vals[i], i) for i in range(K.n))]
        assert list(idx.order) == oracle


def test_indexing_invariant_under_increasing_reparameterization():
    rng = random.Random(9)
    for _ in range(100):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        distinct = sorted(set(vals))
        # random strictly increasing map of the value set
        g, acc = {}, Fraction(rng.randint(-5, 5))
        for v in distinct:
            acc += Fraction(rng.randint(1, 9), rng.randint(1, 9))
            g[v] = acc
        assert induced_indexing(vals, K) == induced_indexing([g[v] for v in vals], K)
        assert order_signature(vals) == order_signature([g[v] for v in vals])


def test_simplex_indexing_validates_permutation():
    with pytest.raises(ValidationError):
        SimplexIndexing([0, 0, 1])
    idx = SimplexIndexing([2, 0, 1])
    assert idx.position == (1, 2, 0)
    assert transposed(idx, 0).order == (0, 2, 1)


@pytest.mark.parametrize("order", [[0, 0, 1], [0, -1, 2], [0, 1, 3]],
                         ids=["duplicate", "negative", "out-of-range"])
def test_simplex_indexing_rejects_non_permutations(order):
    with pytest.raises(ValidationError) as caught:
        SimplexIndexing(order)
    assert str(caught.value) == "indexing is not a permutation of 0..N-1"


def _per_simplex_violations(K, values, where=""):
    """Every face whose value exceeds its coface's, scanning each simplex's
    facets in listing order."""
    for i, s in enumerate(K.simplices):
        for f in facets(s):
            j = K.index_of[f]
            if values[j] > values[i]:
                yield (f"non-monotone{where}: f({simplex_id(f)}) = {values[j]} > "
                       f"{values[i]} = f({simplex_id(s)})")


def test_monotonicity_violations_match_per_simplex_scan():
    """Walking `K.facet_pairs` gives the messages, and their order, of a scan
    of each simplex's facets; `check_monotone` raises the first."""
    rng = random.Random(12)
    seen = 0
    for _ in range(200):
        K = random_complex(rng)
        values = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(K.n)]
        for where in (" at p", ""):
            got = list(monotonicity_violations(K, values, where))
            assert got == list(_per_simplex_violations(K, values, where))
        seen += len(got)
        if got:
            with pytest.raises(ValidationError) as caught:
                check_monotone(K, values)
            assert str(caught.value) == got[0]
        else:
            check_monotone(K, values)
    assert seen > 100


def test_value_order_breaks_ties_by_listing_order():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 12)
        ints = [rng.randint(-2, 3) for _ in range(n)]
        fracs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for values in (ints, fracs):
            assert value_order(values) == sorted(range(n), key=lambda i: (values[i], i))
