import random
from fractions import Fraction

import pytest

from pdbundle.complexes import SimplicialComplex, ValidationError, induced_indexing
from pdbundle.persistence import PairSet, diagram, reduce_pairs

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
    ps.check(mono_complex)
    ps3.check(mono_complex)


def test_reduce_rejects_incompatible_indexing():
    from pdbundle.complexes import SimplexIndexing
    K = SimplicialComplex([[0], [1], [0, 1]])
    with pytest.raises(ValidationError):
        reduce_pairs(K, SimplexIndexing([2, 0, 1]))


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
        reduce_pairs(K, idx).check(K, idx)


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
