"""Exact polyhedral stratification of a triangulated planar base space for a
piecewise-linear fibered filtration.

For every pair of simplices the locus where their filtration values agree is,
inside each base triangle, empty, a chord, the whole triangle, or a single
vertex. Overlaying the chords with the triangle boundary partitions the base
into convex cells on which the simplex order is constant; cells are not merged
across triangle boundaries (a post-processing merge is available separately).
All geometry is exact rational arithmetic.

Each triangle is cut line by line into convex polygons, the 2-cells. Since
every line is a full chord of the triangle, every arrangement vertex on the
closure of a 2-cell is a corner of it: the 0-cells are the polygon corners,
the 1-cells the polygon sides, and a 2-cell's faces are exactly its corners
and sides.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    as_fraction,
    check_monotone,
    induced_indexing,
    order_signature,
)
from .geometry import (
    Line,
    Point,
    line_through,
    on_segment,
    orient,
    point_in_convex,
    polygon_centroid,
    segment_midpoint,
    split_convex,
)
from .persistence import PairCache, PairSet

# A geometry piece: 1 point = vertex, 2 points = open segment,
# >= 3 points = open convex polygon (counterclockwise loop).
Piece = Tuple[Point, ...]


class BaseMesh:
    """Triangulated planar region with exact rational vertex coordinates.
    Triangles are normalized to counterclockwise orientation."""

    def __init__(self, vertices: Sequence[Sequence], triangles: Sequence[Sequence[int]]):
        for v in vertices:
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ValidationError(f"mesh vertex {v!r} must be a list of two "
                                      f"coordinates")
        self.vertices: List[Point] = [
            (as_fraction(v[0]), as_fraction(v[1])) for v in vertices]
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("mesh has coincident vertices")
        self.triangles: List[Tuple[int, int, int]] = []
        edge_count: Dict[Tuple[int, int], int] = {}
        for t in triangles:
            if not isinstance(t, (list, tuple)) or len(t) != 3 or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in t):
                raise ValidationError(f"mesh triangle {t!r} must be a list of "
                                      f"three integer vertex ids")
            if len(set(t)) != 3:
                raise ValidationError(f"bad triangle {list(t)}")
            a, b, c = t
            for x in (a, b, c):
                if not 0 <= x < len(self.vertices):
                    raise ValidationError(f"triangle vertex {x} out of range")
            o = orient(self.vertices[a], self.vertices[b], self.vertices[c])
            if o == 0:
                raise ValidationError(f"degenerate triangle {list(t)}")
            if o < 0:
                b, c = c, b
            self.triangles.append((a, b, c))
            for e in ((a, b), (b, c), (a, c)):
                key = (min(e), max(e))
                edge_count[key] = edge_count.get(key, 0) + 1
        if len(set(tuple(sorted(t)) for t in self.triangles)) != len(self.triangles):
            raise ValidationError("duplicate mesh triangle")
        for key, cnt in edge_count.items():
            if cnt > 2:
                raise ValidationError(f"mesh edge {key} shared by {cnt} triangles")
        self._check_conforming(sorted(edge_count))

    def _check_conforming(self, edges: List[Tuple[int, int]]) -> None:
        """Reject a vertex inside another triangle or on one of its sides, and
        two edges that properly cross: either breaks the partition of the
        base into cells. Decided on integer coordinates (all vertices scaled
        by one common denominator)."""
        den = math.lcm(*(c.denominator for p in self.vertices for c in p))
        grid = [(x.numerator * (den // x.denominator),
                 y.numerator * (den // y.denominator)) for x, y in self.vertices]
        used = sorted({v for t in self.triangles for v in t})
        for tri in self.triangles:
            corners = [grid[v] for v in tri]
            for v in used:
                if v not in tri and point_in_convex(corners, grid[v], strict=False):
                    raise ValidationError(
                        f"mesh vertex {v} lies in triangle {list(tri)}")
        for i, e in enumerate(edges):
            p, q = grid[e[0]], grid[e[1]]
            for f in edges[i + 1:]:
                r, s = grid[f[0]], grid[f[1]]
                if (orient(p, q, r) * orient(p, q, s) < 0
                        and orient(r, s, p) * orient(r, s, q) < 0):
                    raise ValidationError(f"mesh edges {e} and {f} cross")

    def corners(self, t: int) -> Tuple[Point, Point, Point]:
        a, b, c = self.triangles[t]
        return (self.vertices[a], self.vertices[b], self.vertices[c])


class PLFibration:
    """Per-simplex filtration values at every mesh vertex, interpolated
    affinely inside each base triangle. Monotone at every mesh vertex, hence
    monotone at every base point."""

    def __init__(self, complex_: SimplicialComplex, mesh: BaseMesh,
                 values: Sequence[Sequence]):
        self.complex = complex_
        self.mesh = mesh
        if len(values) != complex_.n:
            raise ValidationError(
                f"{len(values)} value rows for {complex_.n} simplices")
        self.values: List[List[Fraction]] = []
        for row in values:
            if len(row) != len(mesh.vertices):
                raise ValidationError("value row length != number of mesh vertices")
            self.values.append([as_fraction(x) for x in row])
        for v in range(len(mesh.vertices)):
            check_monotone(complex_, [row[v] for row in self.values],
                           f" at mesh vertex {v}")

    def triangle_values(self, i: int, t: int) -> Tuple[Fraction, Fraction, Fraction]:
        """Values of simplex i at the three corners of base triangle t."""
        a, b, c = self.mesh.triangles[t]
        return (self.values[i][a], self.values[i][b], self.values[i][c])


@dataclass(frozen=True)
class IntersectionTrace:
    """Solution set of f(sigma, .) = f(tau, .) on one base triangle."""

    kind: str  # "empty" | "segment" | "whole_triangle" | "vertex_only"
    sigma: int
    tau: int
    triangle: int
    segment: Optional[Tuple[Point, Point]] = None
    vertex: Optional[Point] = None


def intersection_trace(fib: PLFibration, sigma: int, tau: int,
                       triangle: int) -> IntersectionTrace:
    """Classify the equal-value locus of two distinct simplices on a triangle
    into the four affine cases, with exact rational endpoints."""
    if sigma == tau:
        raise ValidationError("intersection_trace needs distinct simplices")
    corners = fib.mesh.corners(triangle)
    va = fib.triangle_values(sigma, triangle)
    vb = fib.triangle_values(tau, triangle)
    g = [va[k] - vb[k] for k in range(3)]
    zeros = [k for k in range(3) if g[k] == 0]
    if len(zeros) == 3:
        return IntersectionTrace("whole_triangle", sigma, tau, triangle)
    if all(x > 0 for x in g) or all(x < 0 for x in g):
        return IntersectionTrace("empty", sigma, tau, triangle)
    if len(zeros) == 2:
        p, q = corners[zeros[0]], corners[zeros[1]]
        return IntersectionTrace("segment", sigma, tau, triangle,
                                 segment=tuple(sorted((p, q))))
    if len(zeros) == 1:
        k = zeros[0]
        others = [g[i] for i in range(3) if i != k]
        if others[0] * others[1] > 0:
            return IntersectionTrace("vertex_only", sigma, tau, triangle,
                                     vertex=corners[k])
        # zero vertex plus a crossing of the opposite edge
        i, j = [x for x in range(3) if x != k]
        t = g[i] / (g[i] - g[j])
        p = corners[k]
        q = (corners[i][0] + t * (corners[j][0] - corners[i][0]),
             corners[i][1] + t * (corners[j][1] - corners[i][1]))
        return IntersectionTrace("segment", sigma, tau, triangle,
                                 segment=tuple(sorted((p, q))))
    # no zeros, mixed signs: the zero line crosses exactly two edges
    hits: List[Point] = []
    for i in range(3):
        j = (i + 1) % 3
        if g[i] * g[j] < 0:
            t = g[i] / (g[i] - g[j])
            hits.append((corners[i][0] + t * (corners[j][0] - corners[i][0]),
                         corners[i][1] + t * (corners[j][1] - corners[i][1])))
    assert len(hits) == 2
    return IntersectionTrace("segment", sigma, tau, triangle,
                             segment=tuple(sorted(hits)))


@dataclass
class Cell:
    """One stratification cell. geometry pieces are points (1 point), open
    segments (2 points) or open convex polygons (counterclockwise loops);
    unmerged cells always have a single piece."""

    id: int
    dim: int
    pieces: Tuple[Piece, ...]
    rep: Point
    triangles: Tuple[int, ...]


def _piece_rep(piece: Piece) -> Point:
    if len(piece) == 1:
        return piece[0]
    if len(piece) == 2:
        return segment_midpoint(piece[0], piece[1])
    return polygon_centroid(piece)


def _point_in_piece(piece: Piece, p: Point) -> bool:
    if len(piece) == 1:
        return p == piece[0]
    if len(piece) == 2:
        return on_segment(p, piece[0], piece[1], strict=True)
    return point_in_convex(piece, p, strict=True)


class Stratification:
    """Cells partitioning the base mesh, their face poset, the induced simplex
    indexing at each cell's representative point, and the pair sets of those
    indexings (each reduced once, when first asked for)."""

    def __init__(self, fib: PLFibration, cells: List[Cell],
                 faces: Dict[int, FrozenSet[int]]):
        self.fib = fib
        self.cells = cells
        self.faces = faces
        self.cofaces: Dict[int, Set[int]] = {c.id: set() for c in cells}
        for cid, fs in faces.items():
            for f in fs:
                self.cofaces[f].add(cid)
        self.indexings: Dict[int, SimplexIndexing] = {}
        self.pairs = PairCache(fib.complex)
        self.rep_values: Dict[int, List[Fraction]] = {}
        for c in cells:
            vals = filtration_at(fib, c.rep, triangle_hint=c.triangles[0])
            self.rep_values[c.id] = vals
            self.indexings[c.id] = induced_indexing(vals, fib.complex)
        self._cells_by_triangle: Dict[int, List[Cell]] = {}
        for c in cells:
            for t in c.triangles:
                self._cells_by_triangle.setdefault(t, []).append(c)
        for lst in self._cells_by_triangle.values():
            lst.sort(key=lambda c: (c.dim, c.id))

    def cell(self, cid: int) -> Cell:
        return self.cells[cid]

    def faces_of(self, cid: int) -> FrozenSet[int]:
        return self.faces[cid]

    def cofaces_of(self, cid: int) -> FrozenSet[int]:
        return frozenset(self.cofaces[cid])

    def cell_pairs(self, cid: int) -> PairSet:
        return self.pairs[self.indexings[cid]]

    def locate(self, p: Point) -> Cell:
        """The unique cell containing p; cells of low dimension are tested
        first so boundary points resolve to boundary cells."""
        t = _containing_triangle(self.fib.mesh, p)
        if t is None:
            raise ValidationError(f"point {p} outside the mesh")
        for c in self._cells_by_triangle[t]:
            for piece in c.pieces:
                if _point_in_piece(piece, p):
                    return c
        raise AssertionError(f"point {p} not covered by any cell (internal bug)")


def _containing_triangle(mesh: BaseMesh, p: Point) -> Optional[int]:
    for t in range(len(mesh.triangles)):
        if point_in_convex(mesh.corners(t), p, strict=False):
            return t
    return None


def filtration_at(fib: PLFibration, p: Sequence,
                  triangle_hint: Optional[int] = None) -> List[Fraction]:
    """Affine interpolation of every simplex's vertex values at base point p
    via barycentric coordinates in a containing triangle."""
    pt: Point = (as_fraction(p[0]), as_fraction(p[1]))
    t = triangle_hint
    if t is None or not point_in_convex(fib.mesh.corners(t), pt, strict=False):
        t = _containing_triangle(fib.mesh, pt)
    if t is None:
        raise ValidationError(f"point {pt} outside the mesh")
    a, b, c = fib.mesh.corners(t)
    area2 = orient(a, b, c)
    la = orient(pt, b, c) / area2
    lb = orient(a, pt, c) / area2
    lc = orient(a, b, pt) / area2
    ia, ib, ic = fib.mesh.triangles[t]
    return [la * row[ia] + lb * row[ib] + lc * row[ic] for row in fib.values]


def representative_point(cell: Cell) -> Point:
    """A point in the cell's relative interior: polygon centroid, segment
    midpoint, or the point itself."""
    return cell.rep


def _triangle_lines(fib: PLFibration, t: int) -> List[Line]:
    """Deduplicated canonical lines of all segment traces on triangle t. Each
    is a full chord of the triangle, since its trace segment is."""
    lines: Set[Line] = set()
    n = fib.complex.n
    for i in range(n):
        for j in range(i + 1, n):
            tr = intersection_trace(fib, i, j, t)
            if tr.kind == "segment":
                lines.add(line_through(tr.segment[0], tr.segment[1]))
    return sorted(lines)


def _loop_edges(loop: Piece) -> List[Piece]:
    """The sides of a convex loop, each as a sorted endpoint pair."""
    return [tuple(sorted((loop[i - 1], p))) for i, p in enumerate(loop)]


def _arrange_triangle(fib: PLFibration, t: int
                      ) -> Tuple[List[Piece], List[Piece], List[Point]]:
    """Overlay the trace chords with one triangle's boundary: returns the
    open 2-cells (convex loops), open 1-cells (segments) and 0-cells.

    Every line is a full chord of the convex triangle, so an arrangement
    vertex on the closure of a 2-cell is one of its corners (otherwise a line
    through that vertex would cut the cell). The 0-cells are therefore the
    loop corners and the 1-cells the loop sides."""
    polys = [list(fib.mesh.corners(t))]
    for line in _triangle_lines(fib, t):
        polys = [part for poly in polys for part in split_convex(poly, line)
                 if part]
    two_cells = sorted(tuple(p) for p in polys)
    one_cells = sorted({e for loop in two_cells for e in _loop_edges(loop)})
    zero_cells = sorted({p for loop in two_cells for p in loop})
    return two_cells, one_cells, zero_cells


def build_stratification(fib: PLFibration) -> Stratification:
    """Partition the base mesh into cells of constant simplex order and record
    the face poset (all face relations, any codimension). 1- and 0-cells on
    shared triangle boundaries are identified across triangles. A 2-cell's
    faces are its corners and sides, a 1-cell's its two endpoints."""
    cells: List[Cell] = []
    faces: Dict[int, Set[int]] = {}
    seen: Dict[Tuple, int] = {}

    def add_cell(dim: int, piece: Piece, t: int) -> int:
        key = (dim, piece)
        cid = seen.get(key)
        if cid is not None:
            cell = cells[cid]
            if t not in cell.triangles:
                cells[cid] = Cell(cid, dim, cell.pieces, cell.rep,
                                  tuple(sorted(cell.triangles + (t,))))
            return cid
        cid = len(cells)
        cells.append(Cell(cid, dim, (piece,), _piece_rep(piece), (t,)))
        faces[cid] = set()
        seen[key] = cid
        return cid

    for t in range(len(fib.mesh.triangles)):
        two_cells, one_cells, zero_cells = _arrange_triangle(fib, t)
        zero_ids = {p: add_cell(0, (p,), t) for p in zero_cells}
        one_ids = {}
        for seg in one_cells:
            cid = add_cell(1, seg, t)
            one_ids[seg] = cid
            faces[cid].update(zero_ids[p] for p in seg)
        for loop in two_cells:
            cid = add_cell(2, loop, t)
            faces[cid].update(zero_ids[p] for p in loop)
            faces[cid].update(one_ids[e] for e in _loop_edges(loop))

    return Stratification(fib, cells, {cid: frozenset(f) for cid, f in faces.items()})


def sample_in_cell(cell: Cell, rng: random.Random, denom: int = 997) -> Point:
    """A deterministic pseudo-random point in the cell's relative interior."""
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


def order_constancy_check(fib: PLFibration, strat: Stratification, cell_id: int,
                          k: int, seed: int) -> Optional[Point]:
    """Draw k interior points of the cell and compare each sample's simplex
    order with the representative point's order. Returns None when constant,
    otherwise the first counterexample point."""
    if k < 1:
        raise ValidationError("order_constancy_check needs k >= 1")
    cell = strat.cell(cell_id)
    want = order_signature(strat.rep_values[cell_id])
    rng = random.Random(seed)
    for _ in range(k):
        p = sample_in_cell(cell, rng)
        got = order_signature(filtration_at(fib, p, triangle_hint=cell.triangles[0]))
        if got != want:
            return p
    return None


# ---------------------------------------------------------------------------
# Optional post-processing: merge equal-order cells across walls.
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def merge_cells(strat: Stratification) -> Stratification:
    """Merge cells across walls where the simplex order does not change: a
    1-cell whose two distinct 2-cell cofaces share its indexing is absorbed
    into their union, and a 0-cell joining exactly two distinct equal-order
    1-cells is absorbed likewise. The sheaf over the merged stratification is
    equivalent (the removed morphisms were identities)."""
    fib = strat.fib
    n = len(strat.cells)
    uf = _UnionFind(n)
    absorbed: Set[int] = set()
    # merge on equality of the simplex ORDER (tie structure included), not of
    # the tie-broken indexing: a wall where two values tie can share its
    # indexing with a strict neighbor yet still be a genuine stratum boundary
    signature = {c.id: order_signature(strat.rep_values[c.id])
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
            continue  # would cut a slit into a single merged cell
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
        rep_member = next(m for m in members if strat.cell(m).dim == dim)
        pieces = tuple(p for m in members for p in strat.cell(m).pieces)
        tris = tuple(sorted({t for m in members for t in strat.cell(m).triangles}))
        nid = len(new_cells)
        new_cells.append(Cell(nid, dim, pieces, strat.cell(rep_member).rep, tris))
        for m in members:
            new_id_of[m] = nid

    new_faces: Dict[int, Set[int]] = {c.id: set() for c in new_cells}
    for cid, fs in strat.faces.items():
        for f in fs:
            a, b = new_id_of[cid], new_id_of[f]
            if a != b:
                new_faces[a].add(b)

    return Stratification(fib, new_cells,
                          {cid: frozenset(f) for cid, f in new_faces.items()})
