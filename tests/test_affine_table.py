"""Differential tests of the integer affine tables (`PLFibration.table`)
against the barycentric `Fraction` code they replaced (tests/barycentric.py),
and a property test of the stratification against that oracle."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import barycentric
from pdbundle.complexes import ValidationError, order_signature
from pdbundle.generators import gen_image_fibration
import pdbundle.sheaf
from pdbundle.sheaf import InvariantError, build_sheaf
from pdbundle.stratify import (
    _triangle_lines,
    build_stratification,
    filtration_at,
    sample_in_cell,
)

from conftest import (
    MESHES,
    mono_fibration,
    random_fibration,
    random_ppm,
    random_rational_fibration,
)

F = Fraction


def _on(p, q, t):
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _probe_points(fib, rng):
    """Mesh vertices, points on every triangle side (shared sides included),
    interior points of every triangle, and points outside the mesh."""
    pts = list(fib.mesh.vertices)
    outside = []
    for t in range(len(fib.mesh.triangles)):
        a, b, c = fib.mesh.corners(t)
        for p, q in ((a, b), (b, c), (c, a)):
            pts.append(_on(p, q, F(rng.randint(1, 12), 13)))
            pts.append(_on(p, q, F(1, 2)))
            # beyond a corner, along a side: outside this triangle
            outside.append(_on(p, q, F(rng.randint(14, 40), 13)))
        for _ in range(4):
            w = [rng.randint(1, 9) for _ in range(3)]
            pts.append(tuple(sum(wi * v[k] for wi, v in zip(w, (a, b, c))) / sum(w)
                             for k in range(2)))
    far = max(abs(x) for v in fib.mesh.vertices for x in v) + 1
    outside += [(far, far), (-far, F(1, 3)), (F(-7, 2) * far, F(5, 3))]
    return pts, outside


def _fibrations(rng, count):
    fibs = [mono_fibration()]
    fibs += [random_rational_fibration(rng) for _ in range(count)]
    fibs += [random_fibration(rng) for _ in range(count // 4)]
    fibs += [gen_image_fibration(random_ppm(rng, 2, 2, 15))[0] for _ in range(2)]
    return fibs


def test_filtration_at_matches_barycentric():
    rng = random.Random(5)
    outside_checked = 0
    for fib in _fibrations(rng, 32):
        ntri = len(fib.mesh.triangles)
        pts, outside = _probe_points(fib, rng)
        for p in pts:
            want = barycentric.filtration_at(fib, p)
            # no hint, every hint (most of them wrong), and a string point
            for hint in [None] + list(range(ntri)):
                got = filtration_at(fib, p, triangle_hint=hint)
                assert got == want, (p, hint)
                assert all(type(v) is Fraction for v in got)
            assert filtration_at(fib, (str(p[0]), str(p[1]))) == want
        for p in outside:
            try:
                barycentric.filtration_at(fib, p)
                continue   # outside one triangle but inside the mesh
            except ValidationError as exc:
                want = str(exc)
            for hint in [None] + list(range(ntri)):
                with pytest.raises(ValidationError) as got:
                    filtration_at(fib, p, triangle_hint=hint)
                assert str(got.value) == want
            outside_checked += 1
    assert outside_checked >= 100


def test_triangle_lines_match_intersection_trace():
    rng = random.Random(11)
    fibs = _fibrations(rng, 24)
    fibs += [gen_image_fibration(random_ppm(rng, 2, 2, 15))[0] for _ in range(6)]
    fibs += [gen_image_fibration(random_ppm(rng, 3, 3, maxval))[0]
             for maxval in (1, 1, 3)]
    kept = 0
    for fib in fibs:
        for t in range(len(fib.mesh.triangles)):
            want = barycentric.triangle_lines(fib, t)
            assert _triangle_lines(fib, t) == want, t
            kept += len(want)
    assert kept > 200


def test_sample_in_cell_matches_fraction_sums():
    rng = random.Random(17)
    for fib in _fibrations(rng, 8):
        strat = build_stratification(fib)
        for seed in range(3):
            new, old = random.Random(seed), random.Random(seed)
            for cell in strat.cells:
                assert sample_in_cell(cell, new) == barycentric.sample_in_cell(cell, old)
            assert new.getstate() == old.getstate()


def _certificate(module, sheaf, seed):
    try:
        return module.edge_value_certificate(sheaf, samples_per_edge=3, seed=seed)
    except InvariantError as exc:
        return str(exc)


def test_edge_certificate_matches_full_evaluation():
    """The certificate skips identity matches, and draws random points only
    for a morphism that moves some pair, yet reports the same count as
    evaluating every match at points drawn for every morphism; on a one-edge
    restriction, where both draw the same points, it catches every broken
    morphism that evaluating all matches catches, with the same message."""
    rng = random.Random(23)
    caught = 0
    for fib in _fibrations(rng, 8):
        sheaf = build_sheaf(build_stratification(fib))
        for seed in range(2):
            assert (_certificate(barycentric, sheaf, seed)
                    == pdbundle.sheaf.edge_value_certificate(
                        sheaf, samples_per_edge=3, seed=seed))
        # break the morphism of a one-edge restriction: two face elements
        # trade their images
        edges = [edge for edge, phi in sorted(sheaf.morphisms.items())
                 if len(phi) >= 2]
        for edge in rng.sample(edges, min(6, len(edges))):
            phi = sheaf.morphisms[edge]
            x, y = rng.sample(sorted(phi), 2)
            broken = sheaf.restrict(edge)
            broken.morphisms[edge] = {**phi, x: phi[y], y: phi[x]}
            want = _certificate(barycentric, broken, 1)
            assert _certificate(pdbundle.sheaf, broken, 1) == want
            caught += isinstance(want, str)
    assert caught >= 10


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       rational=st.booleans())
def test_cell_points_have_the_cell_order(seed, mesh, rational):
    """Points drawn in every cell, evaluated by the barycentric oracle, have
    the order signature of the cell's representative; those of up to 30
    cells are also located, and must fall in the cell itself."""
    rng = random.Random(seed)
    make = random_rational_fibration if rational else random_fibration
    fib = make(rng, mesh)
    strat = build_stratification(fib)
    located = set(rng.sample(range(len(strat.cells)), min(30, len(strat.cells))))
    for cell in strat.cells:
        want = order_signature(barycentric.filtration_at(fib, cell.rep))
        piece = cell.pieces[0]
        for _ in range(2):
            if len(piece) == 1:
                p = piece[0]
            elif len(piece) == 2:
                p = _on(piece[0], piece[1], F(rng.randint(1, 96), 97))
            else:
                w = [rng.randint(1, 50) for _ in piece]
                p = tuple(sum(wi * v[k] for wi, v in zip(w, piece)) / sum(w)
                          for k in range(2))
            assert order_signature(barycentric.filtration_at(fib, p)) == want
            assert cell.id not in located or strat.locate(p).id == cell.id
