import math
import random
from fractions import Fraction

import pytest

from pdbundle.complexes import SimplicialComplex, ValidationError, induced_indexing
from pdbundle.persistence import PairCache, pairs_for_filtration, reduce_pairs
from pdbundle.vineyard import (
    apply_transpositions,
    canonical_transpositions,
    composed_bijection,
    path_vineyard,
    transposition_update,
)

from conftest import A, B, C, D, mono_values, random_complex, random_monotone_values


def circle_point(u):
    # exact binary quantization keeps the sign pattern of the compass points
    return (Fraction(math.cos(2 * math.pi * u + math.pi / 4)),
            Fraction(math.sin(2 * math.pi * u + math.pi / 4)))


def test_transposition_identity_case(mono_complex):
    # the tied edges 12 and 23 belong to different pairs and swapping them
    # leaves the pair set unchanged: identity bijection
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    idx = induced_indexing(vals, mono_complex)
    assert (idx.order[4], idx.order[5]) == (4, 5)
    idx2, bij = transposition_update(PairCache(mono_complex), idx, 4)
    assert idx2.order[4] == 5 and idx2.order[5] == 4
    assert bij.is_identity()


def test_transposition_swap_case(mono_complex):
    # crossing the negative x-axis from Q3 order to Q2 order transposes a, b:
    # {(a,d),(b,c)} matched by (a,d) -> (b,d), (b,c) -> (a,c)
    idx3 = induced_indexing(mono_values(Fraction(-1, 2), Fraction(-1, 2)), mono_complex)
    k = idx3.position[A]
    assert idx3.position[B] == k + 1
    idx2, bij = transposition_update(PairCache(mono_complex), idx3, k)
    assert bij.mapping[(A, D)] == (B, D)
    assert bij.mapping[(B, C)] == (A, C)
    # everything else fixed
    assert all(src == dst for src, dst in bij.mapping.items()
               if src not in {(A, D), (B, C)})


def test_transposition_rejects_face_coface(mono_complex):
    # at the origin the order ends ..., a, b, c, d; b = (0,2) is a face of
    # c = (0,1,2), so transposing them is rejected
    idx = induced_indexing(mono_values(0, 0), mono_complex)
    assert (idx.order[8], idx.order[9]) == (B, C)
    with pytest.raises(ValidationError, match="face"):
        transposition_update(PairCache(mono_complex), idx, 8)


def test_transposition_dichotomy_random():
    rng = random.Random(21)
    checked = 0
    for _ in range(120):
        K = random_complex(rng)
        if K.n < 2:
            continue
        vals = random_monotone_values(rng, K)
        idx = induced_indexing(vals, K)
        k = rng.randrange(K.n - 1)
        a, b = idx.order[k], idx.order[k + 1]
        if set(K.simplices[a]) < set(K.simplices[b]):
            continue
        idx2, bij = transposition_update(PairCache(K), idx, k)
        before = reduce_pairs(K, idx).elements()
        after = reduce_pairs(K, idx2).elements()
        if bij.is_identity():
            assert before == after
        else:
            sub = lambda x: b if x == a else (a if x == b else x)
            swapped = {(sub(p), None if q is None else sub(q)) for p, q in before}
            assert after == swapped
            assert {bij.mapping[e] for e in before} == after
        checked += 1
    assert checked > 60


def test_composed_identity_and_single_step(mono_complex):
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    idx = induced_indexing(vals, mono_complex)
    assert composed_bijection(PairCache(mono_complex), idx, idx).is_identity()
    idx3 = induced_indexing(mono_values(Fraction(-1, 2), Fraction(-1, 2)), mono_complex)
    k = idx3.position[A]
    idx2, one = transposition_update(PairCache(mono_complex), idx3, k)
    assert composed_bijection(PairCache(mono_complex), idx3, idx2).mapping == one.mapping


def test_composed_origin_to_q1_canonical(mono_complex):
    # two disjoint adjacent transpositions; the canonical schedule swaps the
    # pair at the smaller position (a, b) first, picking (a,d) -> (b,d)
    idx0 = induced_indexing(mono_values(0, 0), mono_complex)
    idx1 = induced_indexing(mono_values(Fraction(1, 2), Fraction(1, 2)), mono_complex)
    moves = canonical_transpositions(idx0, idx1)
    assert moves == [A, C]  # positions 7 and 9
    bij = composed_bijection(PairCache(mono_complex), idx0, idx1)
    assert bij.mapping[(A, D)] == (B, D)
    assert bij.mapping[(B, C)] == (A, C)


def test_sequence_dependence_nonuniqueness(mono_complex):
    # swapping (c, d) first yields the other of the two valid bijections
    idx0 = induced_indexing(mono_values(0, 0), mono_complex)
    _, other = apply_transpositions(PairCache(mono_complex), idx0, [C, A])
    bij = composed_bijection(PairCache(mono_complex), idx0,
                             induced_indexing(mono_values(Fraction(1, 2), Fraction(1, 2)),
                                              mono_complex))
    assert other.mapping != bij.mapping
    assert other.mapping[(A, D)] == (A, C)
    assert other.mapping[(B, C)] == (B, D)


def test_composed_roundtrip_along_reversed_sequence():
    # undoing the canonical transpositions in reverse order inverts the
    # bijection exactly; the canonical sequence of the reverse direction is a
    # different sequence and need not invert (composition is sequence-dependent)
    rng = random.Random(22)
    for _ in range(40):
        K = random_complex(rng)
        v0 = random_monotone_values(rng, K)
        v1 = random_monotone_values(rng, K)
        i0, i1 = induced_indexing(v0, K), induced_indexing(v1, K)
        moves = canonical_transpositions(i0, i1)
        end, fwd = apply_transpositions(PairCache(K), i0, moves)
        assert end == i1
        back_end, back = apply_transpositions(PairCache(K), i1, list(reversed(moves)))
        assert back_end == i0
        assert fwd.then(back).is_identity()


def test_path_vineyard_constant(mono_complex):
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    vines, loop = path_vineyard(mono_complex, [vals, vals, vals])
    assert loop.is_identity()
    for vine in vines:
        assert len(set(vine.labels)) == 1
        births = {b for _, b, _ in vine.samples}
        deaths = {d for _, _, d in vine.samples}
        assert len(births) == 1 and len(deaths) == 1


def test_path_vineyard_matches_fresh_reduction(mono_complex):
    rng = random.Random(23)
    filts = [mono_values(Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8))
             for _ in range(12)]
    vines, _ = path_vineyard(mono_complex, filts)
    for j, vals in enumerate(filts):
        fresh = pairs_for_filtration(mono_complex, vals).elements()
        tracked = {vine.labels[j] for vine in vines}
        assert tracked == fresh


def test_monodromy_circle_loop(mono_complex):
    filts = [mono_values(*circle_point(k / 8)) for k in range(9)]
    vines, loop = path_vineyard(mono_complex, filts)
    assert loop.mapping[(A, C)] == (B, D)
    assert loop.mapping[(B, D)] == (A, C)
    assert all(src == dst for src, dst in loop.mapping.items()
               if src not in {(A, C), (B, D)})
    # the two degree-1 vines exchange start and end values
    d1 = [v for v in vines if len(mono_complex.simplices[v.labels[0][0]]) == 2]
    assert {v.labels[0] for v in d1} == {(A, C), (B, D)}
    for v in d1:
        assert v.labels[-1] != v.labels[0]


def test_path_vineyard_empty_rejected(mono_complex):
    with pytest.raises(ValidationError):
        path_vineyard(mono_complex, [])
