"""The pair-set walk over the face poset (`Stratification.cell_pairs`), the
one-pass canonical schedule it walks along (`Reduction.transpose_to`), and
the sheaf read off the same walk: its stalks against fresh reductions, the
one pass against `stepwise.transpose` at every step of the plain bubble
sort, every walk step against a fresh transposition, the walk over the
distinct cell orders with one step per order change, and the morphisms
that one pair of orders shares."""
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdbundle.complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
)
from pdbundle.generators import gen_image_fibration
from pdbundle.persistence import Reduction, reduce_pairs
from pdbundle.sheaf import build_sheaf
from pdbundle.stratify import Stratification, build_stratification, merge_cells

from conftest import (
    MESHES,
    mono_fibration,
    random_fibration,
    random_rational_fibration,
)
from rereduction import ReducedPairs, bubble_schedule, sheaf_morphisms
from stepwise import swaps_along
from test_cli import C9_3X3


def _monotone(K: SimplicialComplex, steps):
    values = []
    for i, step in enumerate(steps):
        values.append(step + max((values[j] for j in K.facet_indices(i)), default=0))
    return values


@st.composite
def compatible_pairs(draw):
    """A random complex on at most eight vertices and two compatible
    indexings of it. The second one's values change only some of the first
    one's steps, so the two orders often share a long prefix or suffix."""
    n = draw(st.integers(1, 8))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    present = set(edges)
    triangles = [t for t in combinations(range(n), 3)
                 if all(e in present for e in combinations(t, 2))
                 and draw(st.booleans())]
    K = SimplicialComplex([(v,) for v in range(n)] + edges + triangles)
    steps = draw(st.lists(st.integers(0, 3), min_size=K.n, max_size=K.n))
    changed = draw(st.dictionaries(st.integers(0, K.n - 1), st.integers(0, 3)))
    other = [changed.get(i, s) for i, s in enumerate(steps)]
    return (K, induced_indexing(_monotone(K, steps), K),
            induced_indexing(_monotone(K, other), K))


def _state(red: Reduction):
    return red.order, red.position, red.R, red.V, red.low, red.owner


def _stepwise(red: Reduction, idx1: SimplexIndexing):
    """Transpose red at each step of the plain bubble sort to idx1; the
    (moved, passed) simplex pairs of the steps that changed the pair set."""
    return swaps_along(red, bubble_schedule(SimplexIndexing(red.order), idx1))


@settings(max_examples=300)
@given(compatible_pairs())
def test_transpose_to_matches_stepwise_bubble_sort(case):
    K, i0, i1 = case
    for start, end in ((i0, i1), (i1, i0)):
        one_pass, stepwise = Reduction(K, start), Reduction(K, start)
        assert one_pass.transpose_to(end) == _stepwise(stepwise, end)
        assert _state(one_pass) == _state(stepwise)
        assert one_pass.order == list(end.order)


@st.composite
def incompatible_targets(draw):
    """A compatible indexing and a target that is not: a compatible order
    with one coface moved anywhere ahead of its facet of highest rank."""
    K, i0, i1 = draw(compatible_pairs())
    cofaces = [i for i in range(K.n) if K.facet_indices(i)]
    assume(cofaces)
    c = draw(st.sampled_from(cofaces))
    last = max(i1.position[f] for f in K.facet_indices(c))
    order = [x for x in i1.order if x != c]
    order.insert(draw(st.integers(0, last)), c)
    return K, i0, SimplexIndexing(order)


@settings(max_examples=200)
@given(incompatible_targets())
def test_transpose_to_rejects_incompatible_target_unchanged(case):
    """The one pass raises the error of the step-by-step walk's first
    rejected step, and leaves the reduction as it was."""
    K, i0, i1 = case
    red = Reduction(K, i0)
    before = tuple(list(x) for x in _state(red))
    with pytest.raises(ValidationError) as stepwise:
        _stepwise(red.copy(), i1)
    with pytest.raises(ValidationError) as one_pass:
        red.transpose_to(i1)
    assert str(one_pass.value) == str(stepwise.value)
    assert str(one_pass.value).startswith("cannot transpose face ")
    assert _state(red) == before


def _order_components(strat: Stratification) -> int:
    """The components of the graph whose vertices are the distinct cell
    orders, two of them joined when a face relation of codimension 1 joins
    cells of them; counted on the order tuples."""
    parent = {idx.order: idx.order for idx in strat.indexings.values()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for cid, faces in strat.faces.items():
        for face in faces:
            if strat.cell(cid).dim - strat.cell(face).dim == 1:
                parent[find(strat.indexings[face].order)] = find(
                    strat.indexings[cid].order)
    return sum(x == y for x, y in parent.items())


def _codim1_joined(strat: Stratification, a, b) -> bool:
    """Whether a face relation of codimension 1 joins a cell of order a and
    a cell of order b."""
    return any(
        strat.cell(cid).dim - strat.cell(face).dim == 1
        and {strat.indexings[face].order, strat.indexings[cid].order}
        == {a.order, b.order}
        for cid, faces in strat.faces.items() for face in faces)


def _count_reductions(monkeypatch) -> list:
    """Count `Reduction` constructions from here on."""
    made = []
    init = Reduction.__init__

    def counted(self, K, idx):
        made.append(idx)
        init(self, K, idx)

    monkeypatch.setattr(Reduction, "__init__", counted)
    return made


def _walk_cases():
    rng = random.Random(2024)
    fibs = []
    while len(fibs) < 20:    # the acceptance suite's 20 random fibrations
        fib = random_fibration(rng, max_vertices=4)
        if fib.complex.n <= 15:
            fibs.append(fib)
    strats = [build_stratification(fib) for fib in fibs]
    mono = build_stratification(mono_fibration())
    strats.append(mono)
    strats.append(merge_cells(mono))
    strats.append(build_stratification(random_rational_fibration(
        random.Random(72), mesh_name="fan", max_vertices=5)))
    strats.append(build_stratification(gen_image_fibration(C9_3X3)[0]))
    return strats


def test_walked_pair_sets_match_fresh_reductions(monkeypatch):
    """On the acceptance suite's 20 random fibrations, the monodromy example
    (eight triangles) and its merged cells, a rational fibration on the fan
    mesh and the 3×3 c9-formula image, every cell's walked pair set is the
    one a fresh reduction of its order gives, equal pair sets are one
    object, and the walk, along relations of codimension 1 only, reduces
    one order per component of the order graph and serves no face
    relation."""
    merged = 0
    for strat in _walk_cases():
        K = strat.fib.complex
        made = _count_reductions(monkeypatch)
        walked = [strat.cell_pairs(cell.id) for cell in strat.cells]
        assert len(made) == _order_components(strat)
        monkeypatch.undo()
        for a, b, _, _, relations in strat.walk():
            assert relations == []
            if a is not None:
                assert a is not b and _codim1_joined(strat, a, b)
        fresh = [reduce_pairs(K, strat.indexings[cell.id]) for cell in strat.cells]
        assert walked == fresh
        # equal pair sets are one object
        assert len({id(p) for p in walked}) == len(set(walked))
        merged += any(len(cell.pieces) > 1 for cell in strat.cells)
    assert merged


def test_coface_walk_steps_once_from_each_face_and_grows_the_same_tree():
    """With `cofaces`, on the same cases, every face relation is served by
    exactly one step, the one from its face's order to its coface's, and
    each directed order change is stepped at most once; a step that serves
    no relation is a tree step. The walk's roots and tree steps are those of
    the walk along relations of codimension 1, in the same order, which
    reaches every order exactly once: each non-root order by one tree step
    along a relation of codimension 1 from an order reached before it."""
    for strat in _walk_cases():
        idx = strat.indexings
        steps = [(a, b, relations)
                 for a, b, _, _, relations in strat.walk(cofaces=True)]
        served = Counter(r for _, _, relations in steps for r in relations)
        assert served == Counter(
            {(face, cid): 1 for cid, faces in strat.faces.items() for face in faces})
        for a, b, relations in steps:
            assert all(idx[face] is a and idx[cid] is b for face, cid in relations)
        changes = Counter((a.order, b.order) for a, b, _ in steps if a is not None)
        assert set(changes.values()) == {1}
        tree = [(a, b) for a, b, _, _, _ in strat.walk()]
        assert all(relations or (a, b) in tree for a, b, relations in steps)
        assert [s for s in steps if s[0] is None] == [
            (a, b, []) for a, b in tree if a is None]
        rest = iter((a, b) for a, b, _ in steps)
        assert all(step in rest for step in tree)    # a subsequence, in order
        reached = [b.order for _, b in tree]
        assert sorted(reached) == sorted({i.order for i in idx.values()})
        for k, (a, b) in enumerate(tree):
            if a is not None:
                assert a.order in reached[:k] and _codim1_joined(strat, a, b)


def _sheaf_case(case):
    return mono_fibration() if case == "monodromy" else gen_image_fibration(C9_3X3)[0]


@pytest.mark.parametrize("case", ["monodromy", "c9-3x3"])
def test_build_sheaf_reduces_one_order_per_component(monkeypatch, case):
    """`build_sheaf` reduces one order per component of the graph of the
    distinct cell orders joined along codimension-1 face relations, and its
    stalks are those of fresh reductions."""
    fib = _sheaf_case(case)
    K = fib.complex
    for degree in (None, 1):
        strat = build_stratification(fib)
        made = _count_reductions(monkeypatch)
        sheaf = build_sheaf(strat, degree)
        assert len(made) == _order_components(strat)
        monkeypatch.undo()
        for cell in strat.cells:
            pairs = reduce_pairs(K, strat.indexings[cell.id])
            assert sheaf.stalks[cell.id] == (
                pairs if degree is None
                else pairs.elements_of_degree(K, degree))


@pytest.mark.parametrize("case", ["monodromy", "c9-3x3"])
def test_identity_morphisms_share_one_dict_per_stalk(case):
    """Every identity morphism is the one identity dict of its stalk, that
    dict is the transport both ways along the edge, and the face relations
    between one pair of orders share one morphism object: a non-identity
    one belongs to that pair of orders alone and has one inverse object,
    the transport in the other direction."""
    strat = build_stratification(_sheaf_case(case))
    for degree in (None, 1):
        sheaf = build_sheaf(strat, degree)
        identities, by_orders, inverses = {}, {}, {}
        for (face, coface), phi in sheaf.morphisms.items():
            assert sheaf.transport[face][coface] is phi
            back = sheaf.transport[coface][face]
            orders = (strat.indexings[face].order, strat.indexings[coface].order)
            assert by_orders.setdefault(orders, phi) is phi
            if all(x == y for x, y in phi.items()):
                assert identities.setdefault(sheaf.stalks[face], phi) is phi
                assert back is phi
            else:
                assert back == {y: x for x, y in phi.items()}
                assert inverses.setdefault(id(phi), back) is back
        assert identities
        moved = [phi for phi in by_orders.values()
                 if any(x != y for x, y in phi.items())]
        assert len({id(phi) for phi in moved}) == len(moved) == len(inverses)
        assert len({id(phi) for phi in sheaf.morphisms.values()}) == (
            len(identities) + len(moved))


def _small_walk_cases():
    """Seeded random fibrations of at most five simplices, five on each
    conftest mesh: few orders, most of them shared by many cells."""
    rng = random.Random(26)
    strats = []
    for name in sorted(MESHES):
        for _ in range(5):
            fib = random_fibration(rng, mesh_name=name, max_vertices=3)
            while fib.complex.n > 5:
                fib = random_fibration(rng, mesh_name=name, max_vertices=3)
            strats.append(build_stratification(fib))
    return strats


def test_walk_steps_match_fresh_transpositions():
    """Every step of the coface walk yields the pair set and the swaps that
    a fresh reduction of its first order, transposed to its second, gives;
    a step inside one order swaps nothing. On the walk cases and on small
    random fibrations, whose cells share their orders, so that many steps
    serve several face relations."""
    repeated = 0
    for strat in _walk_cases() + _small_walk_cases():
        K = strat.fib.complex
        for a, b, pairs, swaps, relations in strat.walk(cofaces=True):
            if a is None:
                assert (pairs, swaps) == (reduce_pairs(K, b), [])
                continue
            red = Reduction(K, a)
            assert swaps == red.transpose_to(b)
            assert pairs == red.elements()
            if a is not b:
                repeated += len(relations) - 1
    assert repeated > 100


def test_walk_transposes_once_per_order_but_its_roots(monkeypatch):
    """The walk along relations of codimension 1 calls `transpose_to` once
    per distinct cell order, less one per component of the order graph."""
    transpose_to = Reduction.transpose_to
    for strat in _walk_cases() + _small_walk_cases():
        calls = []

        def counted(self, idx1):
            calls.append(idx1)
            return transpose_to(self, idx1)

        monkeypatch.setattr(Reduction, "transpose_to", counted)
        strat.cell_pairs(strat.cells[0].id)
        monkeypatch.undo()
        orders = {idx.order for idx in strat.indexings.values()}
        assert len(calls) == len(orders) - _order_components(strat)


def test_build_sheaf_transposes_each_order_change_once(monkeypatch):
    """`build_sheaf` calls `transpose_to` at most once per distinct (face
    order, coface order) change, and its morphisms are those that
    re-reduction at every step of the bubble sort gives."""
    transpose_to = Reduction.transpose_to
    shared = 0
    for strat in _walk_cases() + _small_walk_cases():
        expected = sheaf_morphisms(strat, ReducedPairs(strat.fib.complex), (None, 1))
        for degree in (None, 1):
            calls = Counter()

            def counted(self, idx1):
                calls[tuple(self.order), idx1.order] += 1
                return transpose_to(self, idx1)

            monkeypatch.setattr(Reduction, "transpose_to", counted)
            sheaf = build_sheaf(strat, degree)
            monkeypatch.undo()
            assert set(calls.values()) <= {1}
            assert sheaf.morphisms == expected[degree]
        shared += len(strat.faces) > len({id(idx) for idx in strat.indexings.values()})
    assert shared
