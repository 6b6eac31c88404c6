import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pdbundle.complexes import SimplicialComplex, ValidationError
from pdbundle.generators import gen_image_fibration
from pdbundle.geometry import (
    line_intersection,
    line_through,
    on_segment,
    point_in_convex,
    point_on_convex_boundary,
    segment_line_chord,
    segment_midpoint,
)
from pdbundle import stratify
from pdbundle.stratify import (
    BaseMesh,
    PLFibration,
    build_stratification,
    filtration_at,
    intersection_trace,
    merge_cells,
    sample_in_cell,
)

import cell_oracle
from cell_oracle import (
    order_constancy_check,
    rep_values,
    representative_point,
    simplify_loop,
    split_convex,
)

from conftest import (
    MESHES,
    A,
    B,
    C,
    D,
    deg1_pairs,
    mono_fibration,
    pairs_for_filtration,
    quadrant_of,
    random_fibration,
    random_ppm,
    random_rational_fibration,
)
from test_cli import C9_3X3

F = Fraction


def test_mesh_validation():
    with pytest.raises(ValidationError, match="degenerate"):
        BaseMesh([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])
    with pytest.raises(ValidationError, match="coincident"):
        BaseMesh([(0, 0), (0, 0), (0, 1)], [(0, 1, 2)])
    mesh = BaseMesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    # clockwise input is flipped to counterclockwise
    from pdbundle.geometry import orient
    assert orient(*mesh.corners(0)) > 0
    # T-junction: vertex (1,1) lies on the side (2,0)-(0,2) of triangle 0, so
    # (3/2, 1/2) would lie inside 1-cells of two triangles
    with pytest.raises(ValidationError, match="vertex 3 lies in triangle"):
        BaseMesh([(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)],
                 [(0, 1, 2), (1, 4, 3), (3, 4, 2)])
    # a vertex strictly inside another triangle
    with pytest.raises(ValidationError, match="vertex 3 lies in triangle"):
        BaseMesh([(0, 0), (4, 0), (0, 4), (1, 1)], [(0, 1, 2), (0, 1, 3)])
    # overlapping triangles whose edges cross, no vertex inside the other
    with pytest.raises(ValidationError, match="cross"):
        BaseMesh([(0, 0), (4, 0), (2, 4), (0, 3), (4, 3), (2, -1)],
                 [(0, 1, 2), (3, 4, 5)])
    # an unused vertex is not part of the mesh and may lie anywhere
    BaseMesh([(0, 0), (4, 0), (0, 4), (1, 1)], [(0, 1, 2)])
    # malformed entries: a vertex id that is not an int (a float, a string, a
    # bool), a vertex that is not a coordinate pair, a triangle that is not a
    # list of three ids
    corners = [(0, 0), (4, 0), (0, 4)]
    for vertices, triangles in ((corners, [(0, 1, 2.7)]),
                                (corners, [(0, 1, "x")]),
                                (corners, [(0, True, 2)]),
                                ([(0, 0), 5, (0, 4)], [(0, 1, 2)]),
                                ([(0, 0), ["0"], (0, 4)], [(0, 1, 2)]),
                                (corners, [5]),
                                (corners, [(0, 1)])):
        with pytest.raises(ValidationError, match="mesh (vertex|triangle)"):
            BaseMesh(vertices, triangles)


def test_fibration_rejects_non_monotone():
    K = SimplicialComplex([[0], [1], [0, 1]])
    mesh = BaseMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    with pytest.raises(ValidationError, match="non-monotone"):
        PLFibration(K, mesh, [[1, 1, 1], [0, 0, 0], [0, 2, 2]])


def test_trace_whole_triangle_and_empty(mono_fib):
    # two zero simplices agree identically
    tr = intersection_trace(mono_fib, 0, 1, 0)
    assert tr.kind == "whole_triangle"
    # a is strictly below c everywhere
    tr2 = intersection_trace(mono_fib, A, C, 0)
    assert tr2.kind == "empty"
    with pytest.raises(ValidationError):
        intersection_trace(mono_fib, A, A, 0)


def test_trace_monodromy_ab_segment(mono_fib):
    # f(a) - f(b) = 2y vanishes on the x-axis; triangle 0 has corners
    # (0,0), (1,0), (1,1) so the trace is the mesh edge y = 0
    tr = intersection_trace(mono_fib, A, B, 0)
    assert tr.kind == "segment"
    assert tr.segment == ((F(0), F(0)), (F(1), F(0)))
    # on triangle (0,(1,1),(0,1)) the x-axis only touches the origin corner
    tr2 = intersection_trace(mono_fib, A, B, 1)
    assert tr2.kind == "vertex_only"
    assert tr2.vertex == (F(0), F(0))


def test_trace_interior_crossing():
    # one triangle, two simplices whose difference changes sign inside
    K = SimplicialComplex([[0], [1]])
    mesh = BaseMesh([(0, 0), (4, 0), (0, 4)], [(0, 1, 2)])
    fib = PLFibration(K, mesh, [[0, 4, 0], [2, 2, 2]])
    tr = intersection_trace(fib, 0, 1, 0)
    assert tr.kind == "segment"
    (x1, y1), (x2, y2) = tr.segment
    # f(v0) - f(v1) = (x-coordinate affine) vanishes where interpolation hits 2
    assert {(x1, y1), (x2, y2)} == {(F(2), F(0)), (F(2), F(2))}


def test_constant_distinct_fibration_cells():
    K = SimplicialComplex([[0], [1], [0, 1]])
    mesh = BaseMesh([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 1, 2), (0, 2, 3)])
    fib = PLFibration(K, mesh, [[0] * 4, [1] * 4, [2] * 4])
    strat = build_stratification(fib)
    by_dim = {}
    for c in strat.cells:
        by_dim.setdefault(c.dim, []).append(c)
    assert len(by_dim[2]) == 2          # one per triangle
    assert len(by_dim[1]) == 5          # 4 sides + diagonal
    assert len(by_dim[0]) == 4
    # identical ordering everywhere
    idxs = {strat.indexings[c.id] for c in strat.cells}
    assert len(idxs) == 1


def test_single_crossing_one_triangle():
    K = SimplicialComplex([[0], [1]])
    mesh = BaseMesh([(0, 0), (4, 0), (0, 4)], [(0, 1, 2)])
    fib = PLFibration(K, mesh, [[0, 4, 0], [2, 2, 2]])
    strat = build_stratification(fib)
    twos = [c for c in strat.cells if c.dim == 2]
    ones = [c for c in strat.cells if c.dim == 1]
    zeros = [c for c in strat.cells if c.dim == 0]
    assert len(twos) == 2
    # 3 boundary sides split at the two chord endpoints -> 5, plus the chord
    assert len(ones) == 6
    assert len(zeros) == 5
    chord = next(c for c in ones
                 if all(p[0] == 2 for piece in c.pieces for p in piece))
    # face relations: the chord is a face of both 2-cells
    for two in twos:
        assert chord.id in strat.faces_of(two.id)
    # brute-force location oracle on a small grid
    for xn in range(0, 17):
        for yn in range(0, 17):
            x, y = F(xn, 4), F(yn, 4)
            if x + y > 4:
                continue
            cell = strat.locate((x, y))
            vals = filtration_at(fib, (x, y))
            want = 0 if vals[0] < vals[1] else (1 if vals[0] > vals[1] else None)
            got_vals = rep_values(strat, cell.id)
            got = (0 if got_vals[0] < got_vals[1]
                   else (1 if got_vals[0] > got_vals[1] else None))
            assert got == want


def test_representative_points():
    K = SimplicialComplex([[0]])
    mesh = BaseMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    fib = PLFibration(K, mesh, [[0, 0, 0]])
    strat = build_stratification(fib)
    reps = {c.dim: [] for c in strat.cells}
    for c in strat.cells:
        reps[c.dim].append(representative_point(c))
    assert (F(1, 3), F(1, 3)) in reps[2]
    assert (F(1, 2), F(0)) in reps[1]   # midpoint of the bottom side
    assert (F(0), F(0)) in reps[0]
    # every representative is inside its own cell
    for c in strat.cells:
        assert c.rep == representative_point(c)
        assert strat.locate(c.rep).id == c.id


def test_filtration_at_examples(mono_fib):
    # mesh vertex: stored values
    vals = filtration_at(mono_fib, (1, 0))
    assert vals[A] == 2 and vals[B] == 2 and vals[C] == 11 and vals[D] == 9
    # edge midpoint: average of endpoint values
    vals2 = filtration_at(mono_fib, (F(1, 2), F(1, 2)))
    assert (vals2[A], vals2[B], vals2[C], vals2[D]) == \
        (F(5, 2), F(3, 2), F(21, 2), F(19, 2))
    with pytest.raises(ValidationError, match="outside"):
        filtration_at(mono_fib, (3, 3))


def test_monodromy_stratification_cells(mono_fib, mono_strat):
    strat = mono_strat
    by_dim = {0: [], 1: [], 2: []}
    for c in strat.cells:
        by_dim[c.dim].append(c)
    assert (len(by_dim[2]), len(by_dim[1]), len(by_dim[0])) == (8, 16, 9)
    # quadrant 2-cells carry the pair sets of the figure
    K = mono_fib.complex
    expected = {"Q1": {(A, C), (B, D)}, "Q2": {(A, C), (B, D)},
                "Q4": {(A, C), (B, D)}, "Q3": {(A, D), (B, C)}}
    seen = set()
    for c in by_dim[2]:
        quad = quadrant_of(c.rep)
        pairs = deg1_pairs(K, pairs_for_filtration(K, rep_values(strat, c.id)))
        assert pairs == expected[quad]
        seen.add(quad)
    assert seen == {"Q1", "Q2", "Q3", "Q4"}
    # half-axis 1-cells and the origin 0-cell exist
    half_axes = [c for c in by_dim[1]
                 if all(p[0] == 0 or p[1] == 0 for piece in c.pieces for p in piece)]
    assert len(half_axes) == 4
    assert any(c.pieces == (((F(0), F(0)),),) for c in by_dim[0])


def test_order_constancy_on_monodromy(mono_fib, mono_strat):
    for c in mono_strat.cells:
        assert order_constancy_check(mono_fib, mono_strat, c.id, 10, seed=5) is None


def test_order_constancy_catches_merged_cells(mono_fib, mono_strat):
    # fixture: glue the two 2-cells adjacent to the positive x-axis into one
    # fake polygon spanning both sides of the a/b trace
    from pdbundle.stratify import Cell, Stratification
    fake = Cell(0, 2, (((F(1, 10), F(-1)), (F(1), F(-1)), (F(1), F(1)),
                        (F(1, 10), F(1))),),
                (F(1, 2), F(0)), (0,), (1, 0, 2), 0)
    strat2 = Stratification(mono_fib, [fake], {0: frozenset()})
    assert order_constancy_check(mono_fib, strat2, 0, 40, seed=6) is not None


def test_partition_oracle_random_points(mono_fib, mono_strat):
    rng = random.Random(31)
    K = mono_fib.complex
    for _ in range(300):
        t = rng.randrange(8)
        ws = [rng.randint(0, 10) for _ in range(3)]
        if sum(ws) == 0:
            ws[rng.randrange(3)] = 1
        corners = mono_fib.mesh.corners(t)
        tot = sum(ws)
        p = (sum(F(w) * c[0] for w, c in zip(ws, corners)) / tot,
             sum(F(w) * c[1] for w, c in zip(ws, corners)) / tot)
        cell = mono_strat.locate(p)
        assert pairs_for_filtration(K, filtration_at(mono_fib, p)) == \
            pairs_for_filtration(K, rep_values(mono_strat, cell.id))


def test_partition_is_disjoint(mono_fib, mono_strat):
    # a sample of points, each contained in exactly one cell
    rng = random.Random(32)
    from pdbundle.stratify import _point_in_piece
    for _ in range(60):
        cell = mono_strat.cells[rng.randrange(len(mono_strat.cells))]
        p = sample_in_cell(cell, rng)
        containing = [c.id for c in mono_strat.cells
                      if any(_point_in_piece(piece, p) for piece in c.pieces)]
        assert containing == [cell.id]


def test_axiom_of_frontier(mono_strat):
    # closure intersection (checked geometrically) implies a face relation
    strat = mono_strat
    for c in strat.cells:
        if c.dim != 2:
            continue
        loop = c.pieces[0]
        for other in strat.cells:
            if other.dim == 0:
                p = other.pieces[0][0]
                touches = point_on_convex_boundary(loop, p)
                assert touches == (other.id in strat.faces_of(c.id))
            elif other.dim == 1:
                a, b = other.pieces[0]
                mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                touches = (point_on_convex_boundary(loop, mid)
                           and point_on_convex_boundary(loop, a)
                           and point_on_convex_boundary(loop, b))
                assert touches == (other.id in strat.faces_of(c.id))


def test_face_poset_transitively_closed(mono_strat):
    strat = mono_strat
    for c in strat.cells:
        for f in strat.faces_of(c.id):
            for g in strat.faces_of(f):
                assert g in strat.faces_of(c.id)


def test_exactness_all_rational(mono_strat):
    for c in mono_strat.cells:
        for piece in c.pieces:
            for p in piece:
                assert isinstance(p[0], Fraction) and isinstance(p[1], Fraction)
        assert isinstance(c.rep[0], Fraction)


def test_merge_cells_monodromy(mono_fib, mono_strat):
    merged = merge_cells(mono_strat)
    by_dim = {0: 0, 1: 0, 2: 0}
    for c in merged.cells:
        by_dim[c.dim] += 1
    # quadrants fuse to 4 cells; half axes stay; boundary arcs fuse
    assert by_dim[2] == 4
    assert by_dim[0] == 5
    assert by_dim[1] == 8
    # merged cells still have constant order
    for c in merged.cells:
        assert order_constancy_check(mono_fib, merged, c.id, 8, seed=7) is None
    # locate still resolves interior points to the fused quadrants
    cell = merged.locate((F(1, 3), F(2, 3)))
    assert cell.dim == 2 and quadrant_of(cell.rep) == "Q1"


def test_merge_cells_random_consistency():
    rng = random.Random(33)
    for _ in range(10):
        fib = random_fibration(rng)
        strat = build_stratification(fib)
        merged = merge_cells(strat)
        assert len(merged.cells) <= len(strat.cells)
        for c in merged.cells:
            assert order_constancy_check(fib, merged, c.id, 4, seed=8) is None


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       rational=st.booleans())
@example(seed=24, mesh="strip", rational=True)
@example(seed=30, mesh="strip", rational=True)
def test_merge_cells_property(seed, mesh, rational):
    """On random small fibrations, every merged cell has the indexing of
    each of its members, the pair set of a fresh reduction at its
    representative point, and holds the representative of every member, as
    `locate` finds it. The two examples each have a merged cell whose
    representative lies outside its first triangle, where that triangle's
    affine forms would give another order."""
    rng = random.Random(seed)
    fib = (random_rational_fibration if rational else random_fibration)(rng, mesh)
    K = fib.complex
    strat = build_stratification(fib)
    merged = merge_cells(strat)
    owner = {piece: m.id for m in merged.cells for piece in m.pieces}
    members = {}
    for c in strat.cells:
        members.setdefault(owner[c.pieces[0]], []).append(c)
    assert sorted(members) == [m.id for m in merged.cells]
    for m in merged.cells:
        assert merged.cell_pairs(m.id) == pairs_for_filtration(
            K, filtration_at(fib, m.rep))
        for c in members[m.id]:
            assert merged.indexings[m.id] == strat.indexings[c.id]
            assert merged.locate(c.rep).id == m.id


@pytest.mark.parametrize("case, evaluated", [("monodromy", 24), ("c9-3x3", 6)])
def test_merge_cells_evaluates_signatures_only_at_equal_indexings(
        monkeypatch, case, evaluated):
    """`merge_cells` evaluates the values at a cell of the stratification it
    merges only for a wall whose indexing equals both its cofaces', and then
    once per cell: 24 of the monodromy example's 33 cells and 6 of the 3×3
    c9-formula image's 31. The merged stratification evaluates none of its
    cells: each takes the indexing object of its representative member."""
    fib = mono_fibration() if case == "monodromy" else gen_image_fibration(C9_3X3)[0]
    strat = build_stratification(fib)
    idx = strat.indexings
    # the cells whose indexing a neighbour one dimension apart shares
    agreeing = {c.id for c in strat.cells
                if any(idx[w] == idx[c.id] and abs(strat.cell(w).dim - c.dim) == 1
                       for w in strat.faces[c.id] | strat.cofaces[c.id])}
    calls = []
    numerators = stratify._cell_numerators

    def counted(fib, cell):
        calls.append(cell)
        return numerators(fib, cell)

    monkeypatch.setattr(stratify, "_cell_numerators", counted)
    merged = merge_cells(strat)
    monkeypatch.undo()
    old = {id(c): c.id for c in strat.cells}
    assert all(id(c) in old for c in calls)   # none in the rebuild
    assert {id(i) for i in merged.indexings.values()} <= {id(i) for i in idx.values()}
    evaluated_ids = [old[id(c)] for c in calls]
    assert len(evaluated_ids) == len(set(evaluated_ids)) == evaluated
    assert set(evaluated_ids) <= agreeing
    assert len(strat.cells) == (33 if case == "monodromy" else 31)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       rational=st.booleans())
def test_merge_cells_matches_two_loop_oracle(seed, mesh, rational):
    """One absorb loop over the 1-cells and then the 0-cells merges the cells
    the two separate loops of the oracle merge: every merged cell is equal
    in id, dim, pieces, rep, hrep, triangles and rep_triangle, and so are
    the face relations."""
    rng = random.Random(seed)
    fib = (random_rational_fibration if rational else random_fibration)(rng, mesh)
    strat = build_stratification(fib)
    merged, want = merge_cells(strat), cell_oracle.merge_cells(strat)
    assert merged.cells == want.cells
    assert merged.faces == want.faces


def test_random_stratifications_partition_oracle():
    rng = random.Random(34)
    for _ in range(6):
        fib = random_fibration(rng)
        strat = build_stratification(fib)
        K = fib.complex
        for _ in range(150):
            t = rng.randrange(len(fib.mesh.triangles))
            ws = [rng.randint(0, 8) for _ in range(3)]
            if sum(ws) == 0:
                ws[0] = 1
            corners = fib.mesh.corners(t)
            tot = sum(ws)
            p = (sum(F(w) * cr[0] for w, cr in zip(ws, corners)) / tot,
                 sum(F(w) * cr[1] for w, cr in zip(ws, corners)) / tot)
            cell = strat.locate(p)
            assert pairs_for_filtration(K, filtration_at(fib, p)) == \
                pairs_for_filtration(K, rep_values(strat, cell.id))


def brute_force_triangle(fib, t):
    """Oracle for one triangle's cells and face relations: 0-cells from every
    pairwise line intersection, 1-cells by testing each vertex against every
    chord and side, and faces by testing each 2-cell's boundary against every
    0- and 1-cell. Returns the cell pieces by dimension and the face
    relations as (cell piece, face piece) pairs."""
    corners = list(fib.mesh.corners(t))
    lines = set()
    for i in range(fib.complex.n):
        for j in range(i + 1, fib.complex.n):
            tr = intersection_trace(fib, i, j, t)
            if tr.kind == "segment":
                lines.add(line_through(*tr.segment))
    lines = sorted(lines)
    chords = [segment_line_chord(corners, line) for line in lines]

    polys = [corners]
    for line in lines:
        polys = [part for poly in polys for part in split_convex(poly, line)
                 if part]
    two = {tuple(simplify_loop(p)) for p in polys}

    zero = set(corners) | {p for chord in chords for p in chord}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = line_intersection(lines[i], lines[j])
            if p is not None and point_in_convex(corners, p, strict=False):
                zero.add(p)

    one = set()
    for a, b in chords + [(corners[i], corners[i - 1]) for i in range(3)]:
        on_carrier = sorted(v for v in zero if on_segment(v, a, b))
        one.update(zip(on_carrier, on_carrier[1:]))

    faces = {(seg, (p,)) for seg in one for p in seg}
    mids = [(seg, segment_midpoint(*seg)) for seg in one]
    for loop in two:
        xs, ys = [q[0] for q in loop], [q[1] for q in loop]
        box = (min(xs), max(xs), min(ys), max(ys))

        def on_boundary(p):  # bounding-box test first, for speed only
            return (box[0] <= p[0] <= box[1] and box[2] <= p[1] <= box[3]
                    and point_on_convex_boundary(loop, p))
        faces.update((loop, (p,)) for p in zero if on_boundary(p))
        faces.update((loop, seg) for seg, mid in mids if on_boundary(mid))
    cells = {0: {(p,) for p in zero}, 1: one, 2: two}
    return cells, faces


def test_cells_and_faces_match_brute_force_oracle():
    rng = random.Random(35)
    fibs = [random_fibration(rng, mesh_name=name)
            for _ in range(15) for name in sorted(MESHES)]
    fibs += [gen_image_fibration(random_ppm(rng, 2, 2, 15))[0] for _ in range(4)]
    for fib in fibs:
        strat = build_stratification(fib)
        for t in range(len(fib.mesh.triangles)):
            mine = [c for c in strat.cells if t in c.triangles]
            cells = {d: {c.pieces[0] for c in mine if c.dim == d} for d in range(3)}
            faces = {(c.pieces[0], strat.cell(f).pieces[0])
                     for c in mine for f in strat.faces_of(c.id)}
            assert (cells, faces) == brute_force_triangle(fib, t)
