"""Cell polygons and cell orders the way pdbundle computed them before it cut
triangles in homogeneous integer points and sorted integer value numerators:
the oracle of the differential tests in test_integer_cells.py and of the
stratification tests.

`split_convex` and `simplify_loop` cut loops of `Fraction` points, with each
crossing a `Fraction` step along its side and each part oriented by its
area. `rep_values` evaluates the filtration at a cell's representative
point, whose `induced_indexing` is the cell order the tests expect.
`representative_point` recomputes a cell's representative from its piece,
in `Fraction`s, where the stratification computes it in homogeneous
integers. `per_simplex_numerators` evaluates a triangle table with one dot
product per simplex, where the table takes one per distinct row.
`order_constancy_check` compares the order at sampled points of a cell with
the order there. `merge_cells` absorbs the 1-cells and then the 0-cells in
two separate loops, the way pdbundle merged cells before it ran one loop
over both dimensions, and reads each cell's order off `Fraction` values.
"""
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from pdbundle.complexes import ValidationError, order_signature
from pdbundle.geometry import (
    Line,
    Point,
    collinear,
    line_eval,
    polygon_area2,
    polygon_centroid,
    segment_midpoint,
)
from pdbundle.stratify import (
    Cell,
    PLFibration,
    Stratification,
    TriangleTable,
    UnionFind,
    filtration_at,
    sample_in_cell,
)


def simplify_loop(loop: Sequence[Point]) -> List[Point]:
    """Drop repeated and collinear-in-the-middle vertices from a convex loop."""
    pts: List[Point] = []
    for p in loop:
        if not pts or pts[-1] != p:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            if collinear(a, b, c):
                pts.pop(i)
                changed = True
                break
    return pts


def split_convex(loop: Sequence[Point], line: Line
                 ) -> Tuple[Optional[List[Point]], Optional[List[Point]]]:
    """Split a counterclockwise convex polygon by a line into its (negative
    side, positive side) parts. A side with empty interior comes back None."""
    n = len(loop)
    vals = [line_eval(line, p) for p in loop]
    if all(v <= 0 for v in vals):
        return (list(loop), None) if any(v < 0 for v in vals) else (None, None)
    if all(v >= 0 for v in vals):
        return (None, list(loop))
    neg: List[Point] = []
    pos: List[Point] = []
    for i in range(n):
        p, vp = loop[i], vals[i]
        q, vq = loop[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            neg.append(p)
        if vp >= 0:
            pos.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = vp / (vp - vq)
            cross = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            neg.append(cross)
            pos.append(cross)

    def finish(loop: List[Point]) -> Optional[List[Point]]:
        loop = simplify_loop(loop)
        if len(loop) < 3:
            return None
        area2 = polygon_area2(loop)
        if area2 == 0:
            return None
        return loop if area2 > 0 else list(reversed(loop))

    return finish(neg), finish(pos)


def rep_values(strat: Stratification, cid: int) -> List[Fraction]:
    cell = strat.cell(cid)
    return filtration_at(strat.fib, cell.rep, triangle_hint=cell.triangles[0])


def representative_point(cell: Cell) -> Point:
    """A point in the relative interior of the cell's first piece: polygon
    centroid, segment midpoint, or the point itself."""
    piece = cell.pieces[0]
    if len(piece) == 1:
        return piece[0]
    if len(piece) == 2:
        return segment_midpoint(piece[0], piece[1])
    return polygon_centroid(piece)


def per_simplex_numerators(table: TriangleTable, X: int, Y: int, Z: int
                           ) -> List[int]:
    """Every simplex's value at (X/Z, Y/Z) times den·Z, one dot product per
    simplex row."""
    return [a * X + b * Y + c * Z for a, b, c in table.rows]


def order_constancy_check(fib: PLFibration, strat: Stratification, cell_id: int,
                          k: int, seed: int) -> Optional[Point]:
    """Draw k interior points of the cell and compare each sample's simplex
    order with the representative point's order. Returns None when constant,
    otherwise the first counterexample point."""
    if k < 1:
        raise ValidationError("order_constancy_check needs k >= 1")
    cell = strat.cell(cell_id)
    want = order_signature(rep_values(strat, cell_id))
    rng = random.Random(seed)
    for _ in range(k):
        p = sample_in_cell(cell, rng)
        got = order_signature(filtration_at(fib, p, triangle_hint=cell.triangles[0]))
        if got != want:
            return p
    return None


def merge_cells(strat: Stratification) -> Stratification:
    """Absorb each 1-cell between two distinct 2-cells of its order, then each
    0-cell between two distinct 1-cells of its order that are left, and
    build the stratification of the merged cells."""
    uf = UnionFind(len(strat.cells))
    absorbed: Set[int] = set()
    signature = {c.id: order_signature(rep_values(strat, c.id))
                 for c in strat.cells}

    by_dim: Dict[int, List[Cell]] = {0: [], 1: [], 2: []}
    for c in strat.cells:
        by_dim[c.dim].append(c)

    for e in by_dim[1]:
        cofs = sorted(c for c in strat.cofaces[e.id] if strat.cell(c).dim == 2)
        if len(cofs) != 2:
            continue
        a, b = cofs
        if not (signature[e.id] == signature[a] == signature[b]):
            continue
        if uf.find(a) == uf.find(b):
            continue
        uf.union(a, b)
        uf.union(a, e.id)
        absorbed.add(e.id)

    for v in by_dim[0]:
        cofs = sorted(c for c in strat.cofaces[v.id]
                      if strat.cell(c).dim == 1 and c not in absorbed)
        if len(cofs) != 2:
            continue
        a, b = cofs
        if not (signature[v.id] == signature[a] == signature[b]):
            continue
        if uf.find(a) == uf.find(b):
            continue
        uf.union(a, b)
        uf.union(uf.find(a), v.id)
        absorbed.add(v.id)

    groups: Dict[int, List[int]] = {}
    for c in strat.cells:
        groups.setdefault(uf.find(c.id), []).append(c.id)
    new_cells: List[Cell] = []
    new_id_of: Dict[int, int] = {}
    for root in sorted(groups):
        members = sorted(groups[root])
        dim = max(strat.cell(m).dim for m in members)
        rep = strat.cell(next(m for m in members if strat.cell(m).dim == dim))
        pieces = tuple(p for m in members for p in strat.cell(m).pieces)
        tris = tuple(sorted({t for m in members for t in strat.cell(m).triangles}))
        nid = len(new_cells)
        new_cells.append(Cell(nid, dim, pieces, rep.rep, tris, rep.hrep,
                              rep.rep_triangle))
        for m in members:
            new_id_of[m] = nid
    new_faces: Dict[int, Set[int]] = {c.id: set() for c in new_cells}
    for cid, fs in strat.faces.items():
        for f in fs:
            if new_id_of[cid] != new_id_of[f]:
                new_faces[new_id_of[cid]].add(new_id_of[f])
    return Stratification(strat.fib, new_cells,
                          {cid: frozenset(f) for cid, f in new_faces.items()})
