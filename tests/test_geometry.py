from fractions import Fraction

import pytest

from pdbundle.geometry import (
    det3,
    homogeneous,
    line_intersection,
    line_through,
    normalize_line,
    on_segment,
    orient,
    point_in_convex,
    point_on_convex_boundary,
    polygon_area2,
    polygon_centroid,
    segment_line_chord,
    simplify_loop,
    split_convex,
)

F = Fraction


def pt(x, y):
    return (F(x), F(y))


TRI = [pt(0, 0), pt(4, 0), pt(0, 4)]


def test_orient_signs():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) > 0
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) < 0
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_on_segment_strictness():
    a, b = pt(0, 0), pt(2, 2)
    assert on_segment(pt(1, 1), a, b)
    assert on_segment(pt(1, 1), a, b, strict=True)
    assert on_segment(a, a, b)
    assert not on_segment(a, a, b, strict=True)
    assert not on_segment(pt(3, 3), a, b)
    assert not on_segment(pt(1, 0), a, b)


def test_line_canonical_form_dedupes():
    l1 = line_through(pt(0, 0), pt(2, 2))
    l2 = line_through(pt(-1, -1), pt(F(1, 3), F(1, 3)))
    assert l1 == l2
    assert normalize_line(F(2), F(-2), F(0)) == normalize_line(F(-3), F(3), F(0))


def test_line_intersection():
    h = normalize_line(F(0), F(1), F(1))   # y = 1
    v = normalize_line(F(1), F(0), F(2))   # x = 2
    assert line_intersection(h, v) == pt(2, 1)
    assert line_intersection(h, h) is None


def affine(loop):
    return [(F(x, z), F(y, z)) for x, y, z in loop]


H_TRI = [homogeneous(p) for p in TRI]


def test_homogeneous_form_is_canonical():
    assert homogeneous((F(1, 2), F(-2, 3))) == (3, -4, 6)
    assert homogeneous((F(1, 2), F(1, 2))) == (1, 1, 2)
    assert homogeneous(pt(-3, 0)) == (-3, 0, 1)
    assert det3((0, 0, 1), (2, 0, 2), (0, 3, 3)) > 0   # (0,0), (1,0), (0,1)
    assert det3((0, 0, 1), (1, 1, 1), (4, 4, 2)) == 0


def test_split_convex_basic():
    line = normalize_line(F(1), F(0), F(1))  # x = 1
    neg, pos = split_convex(H_TRI, line)
    assert neg is not None and pos is not None
    neg, pos = affine(neg), affine(pos)
    assert polygon_area2(neg) + polygon_area2(pos) == polygon_area2(TRI)
    assert all(p[0] <= 1 for p in neg)
    assert all(p[0] >= 1 for p in pos)
    # no split when the line misses the interior
    neg2, pos2 = split_convex(H_TRI, normalize_line(F(1), F(0), F(10)))
    assert pos2 is None and neg2 == H_TRI


def test_split_through_vertex():
    line = line_through(pt(0, 0), pt(2, 2))  # hits the hypotenuse midpoint
    neg, pos = split_convex(H_TRI, line)
    assert neg is not None and pos is not None
    assert polygon_area2(affine(neg)) == polygon_area2(affine(pos))
    assert (2, 2, 1) in neg and (2, 2, 1) in pos   # from (-16, -16, -8)


def test_chord_and_membership():
    line = normalize_line(F(0), F(1), F(1))  # y = 1
    chord = segment_line_chord(TRI, line)
    assert chord == (pt(0, 1), pt(3, 1))
    assert point_in_convex(TRI, pt(1, 1), strict=True)
    assert not point_in_convex(TRI, pt(0, 1), strict=True)
    assert point_in_convex(TRI, pt(0, 1), strict=False)
    assert point_on_convex_boundary(TRI, pt(2, 0))
    assert not point_on_convex_boundary(TRI, pt(2, 1))


def test_simplify_loop_removes_collinear():
    loop = [homogeneous(p) for p in
            (pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 0), pt(0, 4), pt(0, 2), pt(0, 0))]
    assert simplify_loop(loop) == [(0, 0, 1), (4, 0, 1), (0, 4, 1)]


def test_centroid_interior():
    assert polygon_centroid(TRI) == (F(4, 3), F(4, 3))
    assert point_in_convex(TRI, polygon_centroid(TRI), strict=True)
