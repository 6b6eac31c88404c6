import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdbundle.complexes import SimplicialComplex, ValidationError, induced_indexing
from pdbundle.generators import gen_image_fibration
from pdbundle.persistence import Reduction, reduce_pairs
from pdbundle.serialize import vines_to_csv
from pdbundle.sheaf import build_sheaf
from pdbundle.stratify import build_stratification, filtration_at, point_numerators
from pdbundle.vineyard import (
    composed_bijection,
    path_vineyard,
    rational_sample,
    transposition_update,
)

import rereduction
import stepwise
import vine_oracle
from conftest import (
    MESHES,
    A,
    B,
    C,
    D,
    mono_fibration,
    mono_values,
    pairs_for_filtration,
    random_complex,
    random_fibration,
    random_monotone_values,
    random_ppm,
)


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
    idx2, bij = transposition_update(Reduction(mono_complex, idx), 4)
    assert idx2.order[4] == 5 and idx2.order[5] == 4
    assert bij.is_identity()


def test_transposition_swap_case(mono_complex):
    # crossing the negative x-axis from Q3 order to Q2 order transposes a, b:
    # {(a,d),(b,c)} matched by (a,d) -> (b,d), (b,c) -> (a,c)
    idx3 = induced_indexing(mono_values(Fraction(-1, 2), Fraction(-1, 2)), mono_complex)
    k = idx3.position[A]
    assert idx3.position[B] == k + 1
    idx2, bij = transposition_update(Reduction(mono_complex, idx3), k)
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
        transposition_update(Reduction(mono_complex, idx), 8)


def _state(red: Reduction):
    return [list(x) for x in (red.order, red.position, red.R, red.V,
                              red.low, red.owner)]


def test_transposition_dichotomy_random():
    """At every position k, the out-of-range -1 and n-1 included,
    `transposition_update` gives the step-by-step reference's indexing and
    bijection, or raises its error, and leaves the reduction as it was. A
    legal transposition either keeps the pair set (identity) or swaps its
    two simplices inside the pairs that hold them."""
    rng = random.Random(21)
    complexes = checked = swapped = faces = 0
    for _ in range(120):
        K = random_complex(rng)
        if K.n < 2:
            continue
        complexes += 1
        idx = induced_indexing(random_monotone_values(rng, K), K)
        red = Reduction(K, idx)
        state = _state(red)
        before = reduce_pairs(K, idx)
        for k in range(-1, K.n):
            try:
                expected = stepwise.apply_transpositions(red, [k])
            except ValidationError as err:
                with pytest.raises(ValidationError) as got:
                    transposition_update(red, k)
                assert str(got.value) == str(err)
                if 0 <= k < K.n - 1:
                    assert str(err).startswith("cannot transpose face ")
                    faces += 1
                else:
                    assert str(err) == f"transposition position {k} out of range"
                assert _state(red) == state
                continue
            idx2, bij = transposition_update(red, k)
            assert _state(red) == state
            assert (idx2, bij) == expected
            a, b = idx.order[k], idx.order[k + 1]
            assert idx2.order[k:k + 2] == (b, a)
            after = reduce_pairs(K, idx2)
            if bij.is_identity():
                assert before == after
            else:
                sub = lambda x: b if x == a else (a if x == b else x)
                swapped_set = {(sub(p), None if q is None else sub(q))
                               for p, q in before}
                assert after == swapped_set
                assert {bij.mapping[e] for e in before} == after
                swapped += 1
            checked += 1
    assert complexes > 90 and checked > 450 and swapped > 150 and faces > 80


def test_composed_identity_and_single_step(mono_complex):
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    idx = induced_indexing(vals, mono_complex)
    assert composed_bijection(Reduction(mono_complex, idx), idx).is_identity()
    idx3 = induced_indexing(mono_values(Fraction(-1, 2), Fraction(-1, 2)), mono_complex)
    k = idx3.position[A]
    idx2, one = transposition_update(Reduction(mono_complex, idx3), k)
    assert composed_bijection(Reduction(mono_complex, idx3), idx2).mapping == one.mapping


def test_composed_origin_to_q1_canonical(mono_complex):
    # two disjoint adjacent transpositions; the canonical schedule swaps the
    # pair at the smaller position (a, b) first, picking (a,d) -> (b,d)
    idx0 = induced_indexing(mono_values(0, 0), mono_complex)
    idx1 = induced_indexing(mono_values(Fraction(1, 2), Fraction(1, 2)), mono_complex)
    moves = rereduction.bubble_schedule(idx0, idx1)
    assert moves == [A, C]  # positions 7 and 9
    bij = composed_bijection(Reduction(mono_complex, idx0), idx1)
    assert bij.mapping[(A, D)] == (B, D)
    assert bij.mapping[(B, C)] == (A, C)


def test_sequence_dependence_nonuniqueness(mono_complex):
    # swapping (c, d) first yields the other of the two valid bijections
    idx0 = induced_indexing(mono_values(0, 0), mono_complex)
    _, other = stepwise.apply_transpositions(Reduction(mono_complex, idx0), [C, A])
    bij = composed_bijection(Reduction(mono_complex, idx0),
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
        moves = rereduction.bubble_schedule(i0, i1)
        end, fwd = stepwise.apply_transpositions(Reduction(K, i0), moves)
        assert end == i1
        back_end, back = stepwise.apply_transpositions(Reduction(K, i1),
                                                       list(reversed(moves)))
        assert back_end == i0
        assert rereduction.compose(fwd, back).is_identity()


def test_path_vineyard_constant(mono_complex):
    vals = mono_values(Fraction(1, 2), Fraction(1, 2))
    vines, loop = path_vineyard(mono_complex, [rational_sample(vals)] * 3)
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
    vines, _ = path_vineyard(mono_complex, [rational_sample(f) for f in filts])
    for j, vals in enumerate(filts):
        fresh = pairs_for_filtration(mono_complex, vals)
        tracked = {vine.labels[j] for vine in vines}
        assert tracked == fresh


def test_monodromy_circle_loop(mono_complex):
    filts = [mono_values(*circle_point(k / 8)) for k in range(9)]
    vines, loop = path_vineyard(mono_complex, [rational_sample(f) for f in filts])
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


# ---------------------------------------------------------------------------
# Differential tests: the carried decomposition against re-reduction at every
# transposition (tests/rereduction.py).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def differential_strats():
    """Stratifications of random fibrations over every conftest mesh, random
    2x2 images, a random binary 3x3 image and the monodromy example, each
    with the oracle's pair sets (shared by the tests below)."""
    rng = random.Random(41)
    fibs = [random_fibration(rng, mesh_name=name)
            for _ in range(6) for name in sorted(MESHES)]
    fibs += [gen_image_fibration(random_ppm(rng, 2, 2, 15))[0] for _ in range(3)]
    fibs.append(gen_image_fibration(random_ppm(rng, 3, 3, 1))[0])
    fibs.append(mono_fibration())
    return [(build_stratification(fib), rereduction.ReducedPairs(fib.complex))
            for fib in fibs]


def test_build_sheaf_matches_rereduction(differential_strats):
    swapping = 0
    for strat, oracle in differential_strats:
        expected = rereduction.sheaf_morphisms(strat, oracle, (None, 1))
        for degree in (None, 1):
            assert build_sheaf(strat, degree).morphisms == expected[degree]
        swapping += any(x != y for phi in expected[None].values()
                        for x, y in phi.items())
    assert swapping > 5


def test_composed_bijection_matches_rereduction(differential_strats):
    # face to coface is compared through the sheaf morphisms above; here
    # coface to face, and random pairs of cells
    rng = random.Random(42)
    checked = 0
    for strat, oracle in differential_strats:
        idx = strat.indexings
        ends = [(cell.id, face) for cell in strat.cells
                for face in sorted(strat.faces_of(cell.id))]
        ends += [tuple(rng.sample(range(len(strat.cells)), 2))
                 for _ in range(min(8, len(strat.cells) // 2))]
        K = strat.fib.complex
        for c0, c1 in ends:
            assert composed_bijection(Reduction(K, idx[c0]), idx[c1]) == \
                rereduction.composed_bijection(oracle, idx[c0], idx[c1])
            checked += 1
    for _ in range(60):
        K = random_complex(rng, max_vertices=6)
        i0, i1 = (induced_indexing(random_monotone_values(rng, K), K)
                  for _ in range(2))
        assert composed_bijection(Reduction(K, i0), i1) == \
            rereduction.composed_bijection(rereduction.ReducedPairs(K), i0, i1)
    assert checked > 1000


def _closed_path(rng, strat, corners=4, steps=4):
    """Points along a closed polygon through the representatives of random
    cells; every base mesh here is convex, so the polygon stays inside."""
    reps = [strat.cell(c).rep for c in rng.sample(range(len(strat.cells)),
                                                  min(corners, len(strat.cells)))]
    points = []
    for a, b in zip(reps, reps[1:] + reps[:1]):
        points += [tuple(x + (y - x) * Fraction(j, steps) for x, y in zip(a, b))
                   for j in range(steps)]
    return points + points[:1]


def test_path_vineyard_matches_rereduction(differential_strats, mono_complex):
    """Integer samples as the CLI reads them off the triangle tables (and
    from rational values) against the oracle on `filtration_at` values."""
    rng = random.Random(43)
    families = []
    for strat, _ in differential_strats:
        path = _closed_path(rng, strat)
        families.append((strat.fib.complex,
                         [point_numerators(strat.fib, p) for p in path],
                         [filtration_at(strat.fib, p) for p in path]))
    filts = [mono_values(*circle_point(k / 16)) for k in range(17)]
    families.append((mono_complex, [rational_sample(f) for f in filts], filts))
    for K, samples, filts in families:
        vines, loop = path_vineyard(K, samples)
        oracle_vines, oracle_loop = rereduction.path_vineyard(K, filts)
        assert [(v.samples, v.labels) for v in vines] == oracle_vines
        assert loop == oracle_loop


HUGE = 10 ** 400    # a scale past which most values no longer fit a float


@st.composite
def vine_paths(draw):
    """A random complex and a sequence of samples of a few monotone bases,
    each moved by a positive scale and a shift over a random denominator, so
    orders repeat while values change. Ties are frequent, one path in three
    may scale samples by HUGE, past float range, and a sample that is
    non-monotone, of the wrong length or with a denominator <= 0 may sit at
    any position."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    K = random_complex(rng, max_vertices=5)
    while not K.facet_pairs:    # at least one edge, so that orders can move
        K = random_complex(rng, max_vertices=5)
    bases = [random_monotone_values(rng, K, max_step=2)
             for _ in range(draw(st.integers(1, 3)))]
    scales = [1, 2, 7] + [HUGE] * (draw(st.integers(0, 2)) == 0)
    samples = []
    for _ in range(draw(st.integers(1, 10))):
        scale = draw(st.sampled_from(scales))
        shift = draw(st.integers(-3, 3))
        samples.append(([scale * x + shift for x in draw(st.sampled_from(bases))],
                         draw(st.integers(1, 4))))
    bad = draw(st.sampled_from([None] * 4 + ["non-monotone", "short", "long",
                                             "denominator"]))
    if bad is not None:
        nums = list(draw(st.sampled_from(bases)))
        den = 1
        if bad == "non-monotone":
            j, i = draw(st.sampled_from(K.facet_pairs))
            nums[j] = nums[i] + draw(st.integers(1, 3))
        elif bad == "short":
            nums.pop()
        elif bad == "long":
            nums.append(0)
        else:
            den = draw(st.integers(-2, 0))
        samples.insert(draw(st.integers(0, len(samples))), (nums, den))
    params = draw(st.none() | st.just([Fraction(k, 3) for k in range(len(samples))]))
    return K, samples, params


def _vineyard_outcome(vineyard, to_csv, K, samples, params):
    """The vines, loop and CSV of a path, or the error that ended it."""
    try:
        vines, loop = vineyard(K, samples, params)
    except Exception as exc:
        return type(exc), str(exc)
    try:
        csv = to_csv(K, vines)
    except Exception as exc:
        csv = type(exc), str(exc)
    return ([(v.params, v.values, v.labels) for v in vines],
            (loop.source, loop.target, loop.mapping), csv)


@pytest.mark.parametrize("param,text", [
    (Fraction(10 ** 400), "1.0000000000000000e+400"),
    (Fraction(-10 ** 400, 3), "-3.3333333333333333e+399"),
    (10 ** 400, "1.0000000000000000e+400"),
])
def test_csv_param_too_large_for_a_float(param, text):
    """A path param past float range is a ValidationError naming the vine
    and the param, as in the per-row oracle, not an OverflowError."""
    K = SimplicialComplex([[0], [1], [0, 1]])
    vines, _ = path_vineyard(K, [([0, 0, 1], 1), ([0, 0, 2], 1)],
                             params=[Fraction(1, 2), param])
    want = f"vine 0: param {text} is too large for a float"
    for to_csv in (vines_to_csv, vine_oracle.vines_to_csv):
        with pytest.raises(ValidationError) as caught:
            to_csv(K, vines)
        assert str(caught.value) == want


@pytest.mark.parametrize("listing,samples,text", [
    # vine 0 is (vertex 0, edge): its birth fits, its death at t=1 does not
    ([[0], [1], [0, 1]], [([1, 0, 2], 1), ([1, 0, HUGE], 1)], "vine 0 at t=1.0"),
    # three essential vertices: vine 0 fits, and vine 1 overflows at t=1
    # before vine 2 does
    ([[0], [1], [2]], [([0, 1, 2], 1), ([0, HUGE, HUGE], 1)], "vine 1 at t=1.0"),
], ids=["death-after-birth", "later-vine"])
def test_csv_value_too_large_for_a_float(listing, samples, text):
    """The first value too large for a float, in row order and in a row the
    birth before the death, is the ValidationError of the per-row oracle."""
    K = SimplicialComplex(listing)
    vines, _ = path_vineyard(K, samples)
    want = f"{text}: value 1.0000000000000000e+400 is too large for a float"
    for to_csv in (vines_to_csv, vine_oracle.vines_to_csv):
        with pytest.raises(ValidationError) as caught:
            to_csv(K, vines)
        assert str(caught.value) == want


@settings(max_examples=300)
@given(vine_paths())
def test_path_vineyard_and_csv_match_per_sample_oracle(case):
    """Checking, indexing and walking only where a sample's order moves, and
    formatting each distinct value of a sample once, give the vines, labels,
    loop bijection and CSV bytes of the per-sample, per-row oracle, or the
    same error."""
    K, samples, params = case
    fast = _vineyard_outcome(path_vineyard, vines_to_csv, K, samples, params)
    slow = _vineyard_outcome(vine_oracle.path_vineyard, vine_oracle.vines_to_csv,
                             K, samples, params)
    assert fast == slow
