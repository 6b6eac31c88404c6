"""Exact 2-D rational geometry: predicates, canonical line forms, convex
polygon splitting. Points are pairs of Fractions, except in polygon
splitting, which works on homogeneous integer points; every predicate is
decided exactly and there is no epsilon anywhere in this module."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Point = Tuple[Fraction, Fraction]
Line = Tuple[int, int, int]  # A*x + B*y = C, integer, normalized
# The point (X/Z, Y/Z) as integers (X, Y, Z) with Z > 0 and gcd(X, Y, Z) = 1,
# so that equal points are equal tuples.
HPoint = Tuple[int, int, int]


def homogeneous(p: Point) -> HPoint:
    """The canonical homogeneous integer form of a rational point."""
    x, y = p
    z = lcm(x.denominator, y.denominator)
    return (x.numerator * (z // x.denominator), y.numerator * (z // y.denominator), z)


def det3(p: HPoint, q: HPoint, r: HPoint) -> int:
    """The 3×3 determinant of three homogeneous points: orient of the affine
    points times the positive Zp·Zq·Zr, so it has the sign of orient."""
    (a, b, c), (d, e, f), (g, h, i) = p, q, r
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle (a, b, c); > 0 for counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def collinear(a: Point, b: Point, c: Point) -> bool:
    return orient(a, b, c) == 0


def on_segment(p: Point, a: Point, b: Point, strict: bool = False) -> bool:
    """True iff p lies on segment [a, b] (strict: in its relative interior)."""
    if not collinear(a, b, p):
        return False
    lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
    lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
    if strict:
        if a[0] != b[0]:
            return lo_x < p[0] < hi_x
        return lo_y < p[1] < hi_y
    return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y


def line_through(p: Point, q: Point) -> Line:
    """Canonical integer line through two distinct points."""
    if p == q:
        raise ValueError("line through coincident points")
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    return normalize_line(a, b, c)


def normalize_line(a: Fraction, b: Fraction, c: Fraction) -> Line:
    """Scale (a, b, c) (ints or Fractions) to coprime integers with the first
    nonzero of (a, b) positive; used to deduplicate coincident lines."""
    if a == 0 and b == 0:
        raise ValueError("degenerate line 0*x + 0*y = c")
    denom = lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = (a.numerator * (denom // a.denominator),
                  b.numerator * (denom // b.denominator),
                  c.numerator * (denom // c.denominator))
    g = gcd(ia, ib, ic)
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return (ia, ib, ic)


def line_eval(line: Line, p: Point) -> Fraction:
    a, b, c = line
    return a * p[0] + b * p[1] - c


def line_intersection(l1: Line, l2: Line) -> Optional[Point]:
    """Intersection point of two lines, or None if parallel/coincident."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = Fraction(c1 * b2 - c2 * b1, det)
    y = Fraction(a1 * c2 - a2 * c1, det)
    return (x, y)


def segment_midpoint(a: Point, b: Point) -> Point:
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def polygon_area2(loop: Sequence[Point]) -> Fraction:
    """Twice the signed area of a polygon vertex loop."""
    s = Fraction(0)
    for i in range(len(loop)):
        x1, y1 = loop[i]
        x2, y2 = loop[(i + 1) % len(loop)]
        s += x1 * y2 - x2 * y1
    return s


def polygon_centroid(loop: Sequence[Point]) -> Point:
    """Arithmetic mean of the loop vertices. Interior for convex polygons
    whose listed vertices are genuine corners."""
    n = len(loop)
    sx = sum(p[0] for p in loop)
    sy = sum(p[1] for p in loop)
    return (Fraction(sx, n), Fraction(sy, n))


def simplify_loop(loop: Sequence[HPoint]) -> List[HPoint]:
    """Drop repeated vertices, then vertices in the middle of a side, from a
    convex loop of homogeneous points with nonzero area, keeping the order
    of the rest."""
    pts: List[HPoint] = []
    for p in loop:
        if not pts or pts[-1] != p:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    n = len(pts)
    if n < 3:
        return pts
    return [p for i, p in enumerate(pts) if det3(pts[i - 1], p, pts[(i + 1) % n])]


def point_in_convex(loop: Sequence[Point], p: Point, strict: bool = True) -> bool:
    """Membership of p in a counterclockwise convex polygon."""
    for i in range(len(loop)):
        o = orient(loop[i], loop[(i + 1) % len(loop)], p)
        if strict and o <= 0:
            return False
        if not strict and o < 0:
            return False
    return True


def point_on_convex_boundary(loop: Sequence[Point], p: Point) -> bool:
    for i in range(len(loop)):
        if on_segment(p, loop[i], loop[(i + 1) % len(loop)]):
            return True
    return False


def split_convex(loop: Sequence[HPoint], line: Line
                 ) -> Tuple[Optional[List[HPoint]], Optional[List[HPoint]]]:
    """Split a counterclockwise convex loop of homogeneous points by a line
    into its (negative side, positive side) parts, both counterclockwise. A
    side with empty interior comes back None. The line's value at (X, Y, Z)
    is A·X + B·Y − C·Z, which has the sign of A·x + B·y − C."""
    a, b, c = line
    vals = [a * x + b * y - c * z for x, y, z in loop]
    if all(v <= 0 for v in vals):
        return (list(loop), None) if any(v < 0 for v in vals) else (None, None)
    if all(v >= 0 for v in vals):
        return (None, list(loop))
    n = len(loop)
    neg: List[HPoint] = []
    pos: List[HPoint] = []
    for i in range(n):
        p, vp = loop[i], vals[i]
        q, vq = loop[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            neg.append(p)
        if vp >= 0:
            pos.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            # vq·P − vp·Q is on the line and on the side PQ
            x = vq * p[0] - vp * q[0]
            y = vq * p[1] - vp * q[1]
            z = vq * p[2] - vp * q[2]
            if z < 0:
                x, y, z = -x, -y, -z
            g = gcd(x, y, z)
            cross = (x // g, y // g, z // g)
            neg.append(cross)
            pos.append(cross)
    # both sides hold a vertex off the line and two crossings on it
    return simplify_loop(neg), simplify_loop(pos)


def segment_line_chord(loop: Sequence[Point], line: Line
                       ) -> Optional[Tuple[Point, Point]]:
    """The chord cut by a line through a counterclockwise convex polygon, or
    None when the intersection is empty or a single point."""
    hits: List[Point] = []
    n = len(loop)
    vals = [line_eval(line, p) for p in loop]
    for i in range(n):
        p, vp = loop[i], vals[i]
        q, vq = loop[(i + 1) % n], vals[(i + 1) % n]
        if vp == 0:
            hits.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = vp / (vp - vq)
            hits.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    uniq = sorted(set(hits))
    if len(uniq) < 2:
        return None
    return (uniq[0], uniq[-1])
