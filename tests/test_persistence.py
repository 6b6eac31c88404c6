import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from pdbundle.complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
)
from pdbundle.persistence import PairSet, Reduction, diagram, reduce_pairs

from conftest import (
    A,
    B,
    C,
    D,
    deg1_pairs,
    mono_values,
    pairs_for_filtration,
    random_complex,
    random_monotone_values,
)
from rank_oracle import pairs_betti_count, persistent_betti, vietoris_rips


def check_pair_set(ps: PairSet, K: SimplicialComplex, idx=None) -> None:
    """The structural invariants of a pair set: every simplex is a birth, a
    death or essential, exactly once; a pair's death is one dimension above
    its birth and, under idx, after it."""
    seen = {}
    for b, d in ps.pairs:
        for s, role in ((b, "birth"), (d, "death")):
            assert s not in seen, f"simplex {s} used twice ({seen[s]}, {role})"
            seen[s] = role
        assert K.dim(d) == K.dim(b) + 1, f"pair ({b}, {d}) dims"
        assert idx is None or idx.position[b] < idx.position[d], (
            f"pair ({b}, {d}) not ordered by indexing")
    for b in ps.essential:
        assert b not in seen, f"essential simplex {b} also in a pair"
        seen[b] = "essential"
    assert 2 * len(ps.pairs) + len(ps.essential) == K.n


def test_single_vertex():
    K = SimplicialComplex([[0]])
    ps = reduce_pairs(K, induced_indexing([0], K))
    assert ps.pairs == frozenset() and ps.essential == frozenset({0})


def test_monodromy_quadrant_pairs(mono_complex):
    # Q1 representative (1/2, 1/2): degree-1 pairs {(a, c), (b, d)}
    ps = pairs_for_filtration(mono_complex, mono_values(Fraction(1, 2), Fraction(1, 2)))
    assert deg1_pairs(mono_complex, ps) == {(A, C), (B, D)}
    # Q3 representative (-1/2, -1/2): degree-1 pairs {(a, d), (b, c)}
    ps3 = pairs_for_filtration(mono_complex, mono_values(Fraction(-1, 2), Fraction(-1, 2)))
    assert deg1_pairs(mono_complex, ps3) == {(A, D), (B, C)}
    check_pair_set(ps, mono_complex)
    check_pair_set(ps3, mono_complex)


def test_reduce_rejects_incompatible_indexing():
    """On every order of a filled triangle, `Reduction` raises exactly when
    some face comes after one of its cofaces, with one message, whichever
    column the violation is in; an indexing of the wrong size is refused
    before any column is built."""
    K = SimplicialComplex([[0], [1], [0, 1]])
    with pytest.raises(ValidationError):
        reduce_pairs(K, SimplexIndexing([2, 0, 1]))
    K = SimplicialComplex([[0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]])
    rejected = 0
    for order in permutations(range(K.n)):
        idx = SimplexIndexing(order)
        if all(idx.position[j] < idx.position[i] for j, i in K.facet_pairs):
            check_pair_set(Reduction(K, idx).elements(), K, idx)
            continue
        rejected += 1
        with pytest.raises(ValidationError) as err:
            Reduction(K, idx)
        assert str(err.value) == "indexing not compatible with the face order"
    assert 0 < rejected < math.factorial(K.n)
    for order in ([0, 1], list(range(K.n + 1))):
        with pytest.raises(ValidationError) as err:
            Reduction(K, SimplexIndexing(order))
        assert str(err.value) == "indexing size does not match complex"


def test_diagram_examples(mono_complex):
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    ps = pairs_for_filtration(mono_complex, vals)
    dg = diagram(ps, mono_complex, vals, 1)
    assert set(dg.points) == {(Fraction(5, 2), Fraction(21, 2)),
                              (Fraction(3, 2), Fraction(19, 2))}
    # empty pair set -> empty diagram
    empty = PairSet()
    assert diagram(empty, mono_complex, vals, 1).points == ()
    # zero-persistence points are retained
    K = SimplicialComplex([[0], [1], [0, 1]])
    ps2 = pairs_for_filtration(K, [0, 1, 1])
    dg0 = diagram(ps2, K, [0, 1, 1], 0)
    assert (1, 1) in dg0.points and (0, None) in dg0.points


def test_pairset_structural_invariants_random():
    rng = random.Random(11)
    for _ in range(150):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        idx = induced_indexing(vals, K)
        check_pair_set(reduce_pairs(K, idx), K, idx)


def test_pairs_depend_only_on_simplex_order():
    # same simplex order => exactly the same pair set
    rng = random.Random(12)
    for _ in range(100):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        distinct = sorted(set(vals))
        g, acc = {}, Fraction(0)
        for v in distinct:
            acc += Fraction(rng.randint(1, 7), rng.randint(1, 7))
            g[v] = acc
        assert pairs_for_filtration(K, vals) == \
            pairs_for_filtration(K, [g[v] for v in vals])


def test_betti_trivial_and_circle():
    K = SimplicialComplex([[0]])
    assert persistent_betti(K, [1], 0, 0, 0) == 0  # below all values
    circle = SimplicialComplex([[0], [1], [2], [0, 1], [1, 2], [0, 2]])
    vals = [1] * 6
    assert persistent_betti(circle, vals, 1, 1, 1) == 1
    assert persistent_betti(circle, vals, 0, 1, 1) == 1
    with pytest.raises(ValidationError):
        persistent_betti(circle, vals, 0, 2, 1)


def test_betti_matches_pairs_on_rips():
    rng = random.Random(13)
    for _ in range(12):
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(rng.randint(3, 6))]
        K, vals = vietoris_rips(pts, 3)
        pairs = pairs_for_filtration(K, vals)
        thresholds = sorted(set(vals))
        for q in range(3):
            for i, r in enumerate(thresholds):
                for s in thresholds[i:]:
                    assert persistent_betti(K, vals, q, r, s) == \
                        pairs_betti_count(pairs, K, vals, q, r, s)


def test_betti_on_integer_filtration():
    # identity also exercised away from Rips values (many ties)
    rng = random.Random(14)
    for _ in range(25):
        K = random_complex(rng)
        vals = random_monotone_values(rng, K)
        pairs = pairs_for_filtration(K, vals)
        thresholds = sorted(set(vals))
        for q in range(3):
            for i, r in enumerate(thresholds):
                for s in thresholds[i:]:
                    assert persistent_betti(K, vals, q, r, s) == \
                        pairs_betti_count(pairs, K, vals, q, r, s)


def test_vietoris_rips_values():
    K, vals = vietoris_rips([(0, 0), (2, 0), (0, 2)], 2)
    byid = {K.simplices[i]: v for i, v in enumerate(vals)}
    assert byid[(0,)] == 0
    assert byid[(0, 1)] == 1.0
    assert byid[(0, 1, 2)] == pytest.approx(2 ** 0.5)
    # filtration is monotone
    from pdbundle.complexes import check_monotone
    check_monotone(K, vals)
