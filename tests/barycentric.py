"""Filtration values, trace lines, cell samples and the edge value
certificate the way pdbundle computed them before it kept an integer affine
table per base triangle: the oracle of the differential tests in
test_affine_table.py.

`filtration_at` interpolates with `Fraction` barycentric coordinates, each an
`orient` ratio, and finds the triangle with `point_in_convex`;
`triangle_lines` collects the canonical lines of the segment traces that
`intersection_trace` classifies; `sample_in_cell` sums `Fraction` points;
`edge_value_certificate` evaluates every match, identities included. None of
them reads `PLFibration.table`.
"""
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Set

from pdbundle.complexes import ValidationError, as_fraction
from pdbundle.geometry import Line, Point, line_through, orient, point_in_convex
from pdbundle.sheaf import CellularSheaf, InvariantError
from pdbundle.stratify import BaseMesh, Cell, PLFibration, intersection_trace


def containing_triangle(mesh: BaseMesh, p: Point) -> Optional[int]:
    for t in range(len(mesh.triangles)):
        if point_in_convex(mesh.corners(t), p, strict=False):
            return t
    return None


def filtration_at(fib: PLFibration, p: Sequence,
                  triangle_hint: Optional[int] = None) -> List[Fraction]:
    pt: Point = (as_fraction(p[0]), as_fraction(p[1]))
    t = triangle_hint
    if t is None or not point_in_convex(fib.mesh.corners(t), pt, strict=False):
        t = containing_triangle(fib.mesh, pt)
    if t is None:
        raise ValidationError(f"point {pt} outside the mesh")
    a, b, c = fib.mesh.corners(t)
    area2 = orient(a, b, c)
    la = orient(pt, b, c) / area2
    lb = orient(a, pt, c) / area2
    lc = orient(a, b, pt) / area2
    ia, ib, ic = fib.mesh.triangles[t]
    return [la * row[ia] + lb * row[ib] + lc * row[ic] for row in fib.values]


def triangle_lines(fib: PLFibration, t: int) -> List[Line]:
    lines: Set[Line] = set()
    n = fib.complex.n
    for i in range(n):
        for j in range(i + 1, n):
            tr = intersection_trace(fib, i, j, t)
            if tr.kind == "segment":
                lines.add(line_through(tr.segment[0], tr.segment[1]))
    return sorted(lines)


def sample_in_cell(cell: Cell, rng: random.Random, denom: int = 997) -> Point:
    piece = cell.pieces[rng.randrange(len(cell.pieces))]
    if len(piece) == 1:
        return piece[0]
    if len(piece) == 2:
        t = Fraction(rng.randint(1, denom - 1), denom)
        a, b = piece
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    weights = [rng.randint(1, denom) for _ in piece]
    total = sum(weights)
    x = sum(w * p[0] for w, p in zip(weights, piece))
    y = sum(w * p[1] for w, p in zip(weights, piece))
    return (Fraction(x, total), Fraction(y, total))


def _pair_values(values, e):
    b, d = e
    return (values[b], None if d is None else values[d])


def edge_value_certificate(sheaf: CellularSheaf, samples_per_edge: int = 5,
                           seed: int = 0) -> int:
    rng = random.Random(seed)
    checked = 0
    for (face, coface), phi in sorted(sheaf.morphisms.items()):
        fcell = sheaf.strat.cell(face)
        pts = [fcell.rep]
        pts += [sample_in_cell(fcell, rng) for _ in range(max(0, samples_per_edge - 1))]
        for p in pts:
            values = filtration_at(sheaf.fib, p, triangle_hint=fcell.triangles[0])
            for e, img in phi.items():
                lhs, rhs = _pair_values(values, e), _pair_values(values, img)
                if lhs != rhs:
                    raise InvariantError(
                        f"discontinuous across edge ({face}, {coface}) at {p}: "
                        f"face pair {e} evaluates to {lhs}, coface pair {img} to {rhs}")
        checked += len(pts) * len(phi)
    return checked
