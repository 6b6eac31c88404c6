"""Exact polyhedral stratification of a triangulated planar base space for a
piecewise-linear fibered filtration.

For every pair of simplices the locus where their filtration values agree is,
inside each base triangle, empty, a chord, the whole triangle, or a single
vertex. Overlaying the chords with the triangle boundary partitions the base
into convex cells on which the simplex order is constant; cells are not merged
across triangle boundaries (a post-processing merge is available separately).
All geometry is exact integer arithmetic. `Fraction`s occur only in the
output fields of a `Cell`, its corner points and its representative point,
each built once from a homogeneous integer point.

Each triangle is cut line by line into convex polygons, the 2-cells. Since
every line is a full chord of the triangle, every arrangement vertex on the
closure of a 2-cell is a corner of it: the 0-cells are the polygon corners,
the 1-cells the polygon sides, and a 2-cell's faces are exactly its corners
and sides.

On one base triangle every simplex value is a single affine form, so the
fibration there is a small integer table (`TriangleTable`), which the
`PLFibration` owns: it builds the table of a triangle on first use and keeps
it. The table holds three integer edge forms for the closed-triangle test
and one integer row (a, b, c) per simplex over a common denominator, so a
value at a point is one integer dot product over a positive denominator
(`point_numerators`). The trace line of two simplices is the difference of
their rows, read off without computing its endpoints.

Polygons and cell orders are integer too. A triangle is cut by its trace
lines in homogeneous integer points (`geometry.split_convex`). A cell's
representative point is the integer mean of the corners that key it, and
its simplex order a sort of the integer value numerators there, read off
the table of the triangle it lies in with one dot product per distinct row.

Neighbouring cells differ in their orders by a few transpositions, and very
many orders share one pair set. Cells with one order share one
`SimplexIndexing` object, and the pair set of an order, and the swaps
between two orders, depend only on those orders (the vine update of
Cohen-Steiner, Edelsbrunner and Morozov, 2006). So every pair set comes
from one breadth-first walk over the distinct cell orders
(`Stratification.walk`): one full reduction per component, then, along
each tree step, the parent order's reduction transposed into the child
order, off which the child's pair set is read. The pair sets of all cells
(`Stratification.cell_pairs`) and the sheaf (`sheaf.build_sheaf`) are the
walk's.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    as_fraction,
    check_monotone,
    order_signature,
    value_order,
)
from .geometry import (
    HPoint,
    Line,
    Point,
    homogeneous,
    normalize_line,
    on_segment,
    orient,
    point_in_convex,
    split_convex,
)
from .persistence import PairSet, Reduction

# A geometry piece: 1 point = vertex, 2 points = open segment,
# >= 3 points = open convex polygon (counterclockwise loop).
Piece = Tuple[Point, ...]
# A step of `Stratification.walk`: (order a or None, order b, b's pair set,
# swaps from a to b, face relations served).
Step = Tuple[Optional[SimplexIndexing], SimplexIndexing, PairSet,
             List[Tuple[int, int]], List[Tuple[int, int]]]


def _to_grid(points: Sequence[Point]) -> Tuple[int, List[Tuple[int, int]]]:
    """The common denominator L of the points' coordinates, and the points
    scaled by L as integer pairs."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in points]


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
        grid = _to_grid(self.vertices)[1]
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


class TriangleTable:
    """The fibration on one base triangle as exact integer affine forms.

    A point (x, y) = (X/Z, Y/Z) with integers X, Y and Z > 0 lies in the
    closed triangle iff every form (a, b, c) of `edges` has a·X + b·Y + c·Z
    >= 0. Simplex i has the value (a·X + b·Y + c·Z) / (den·Z) there, with
    (a, b, c) = `rows[i]`, and `corner_values[i]` are its values at the
    three corners scaled to integers by one common positive factor, so the
    signs of their differences are those of the value differences.

    Simplices with equal corner values share one row: `distinct_rows` holds
    each row once, in order of first use, and `rows[i]` is
    `distinct_rows[row_index[i]]`, so a point is evaluated with one dot
    product per distinct row."""

    __slots__ = ("edges", "rows", "den", "corner_values", "distinct_rows",
                 "row_index")

    def __init__(self, corners: Sequence[Point], values: Sequence[Sequence[Fraction]]):
        scale, q = _to_grid(corners)
        # edges[k]·(X, Y, Z) = L²·Z·orient(corner k+1, corner k+2, point): the
        # barycentric coordinate of corner k times L²·Z·orient(corners)
        self.edges = tuple(
            ((iy - jy) * scale, (jx - ix) * scale, (jy - iy) * ix - (jx - ix) * iy)
            for (ix, iy), (jx, jy) in ((q[1], q[2]), (q[2], q[0]), (q[0], q[1])))
        area2 = sum(e[2] for e in self.edges)   # orient of the integer corners
        vscale = math.lcm(*(v.denominator for row in values for v in row))
        self.corner_values = [
            tuple(v.numerator * (vscale // v.denominator) for v in row)
            for row in values]
        index: Dict[Tuple[int, ...], int] = {}
        self.row_index = [index.setdefault(cv, len(index))
                          for cv in self.corner_values]
        # row = u·edges[0] + v·edges[1] + w·edges[2], once per distinct
        # corner values (u, v, w)
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = self.edges
        forms = [(u * a0 + v * a1 + w * a2, u * b0 + v * b1 + w * b2,
                  u * c0 + v * c1 + w * c2) for u, v, w in index]
        den = vscale * area2
        g = math.gcd(den, *(x for row in forms for x in row))
        self.den = den // g
        self.distinct_rows = [(a // g, b // g, c // g) for a, b, c in forms]
        self.rows = [self.distinct_rows[i] for i in self.row_index]

    def contains(self, X: int, Y: int, Z: int) -> bool:
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = self.edges
        return (a0 * X + b0 * Y + c0 * Z >= 0 and a1 * X + b1 * Y + c1 * Z >= 0
                and a2 * X + b2 * Y + c2 * Z >= 0)

    def numerators(self, X: int, Y: int, Z: int) -> List[int]:
        """Every simplex's value at (X/Z, Y/Z) times den·Z > 0: one dot
        product per distinct row, expanded through `row_index`."""
        values = [a * X + b * Y + c * Z for a, b, c in self.distinct_rows]
        return list(map(values.__getitem__, self.row_index))


class PLFibration:
    """Per-simplex filtration values at every mesh vertex, interpolated
    affinely inside each base triangle. Monotone at every mesh vertex, hence
    monotone at every base point. `table(t)` is the integer affine table of
    base triangle t, built on first use and kept."""

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
            self.values.append([x if type(x) is Fraction else as_fraction(x)
                                for x in row])
        # monotone at each mesh vertex, compared as integer numerators over
        # the column's common denominator; check_monotone words a violation
        pairs = complex_.facet_pairs
        for v, column in enumerate(zip(*self.values)):
            scale = math.lcm(*[x.denominator for x in column])
            nums = [x.numerator * (scale // x.denominator) for x in column]
            if any(nums[j] > nums[i] for j, i in pairs):
                check_monotone(complex_, column, f" at mesh vertex {v}")
        self._tables: List[Optional[TriangleTable]] = [None] * len(mesh.triangles)

    def triangle_values(self, i: int, t: int) -> Tuple[Fraction, Fraction, Fraction]:
        """Values of simplex i at the three corners of base triangle t."""
        a, b, c = self.mesh.triangles[t]
        return (self.values[i][a], self.values[i][b], self.values[i][c])

    def table(self, t: int) -> TriangleTable:
        table = self._tables[t]
        if table is None:
            a, b, c = self.mesh.triangles[t]
            table = self._tables[t] = TriangleTable(
                self.mesh.corners(t), [(row[a], row[b], row[c]) for row in self.values])
        return table


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
    unmerged cells always have a single piece. `hrep` is the representative
    point `rep` in canonical homogeneous integer form, and `rep_triangle` a
    base triangle whose closure holds it (for an unmerged cell, its one
    triangle); the cell's order is read off that triangle's table at
    `hrep`."""

    id: int
    dim: int
    pieces: Tuple[Piece, ...]
    rep: Point
    triangles: Tuple[int, ...]
    hrep: HPoint
    rep_triangle: int


def _mean_point(points: Sequence[HPoint]) -> HPoint:
    """The mean of homogeneous integer points, in canonical form: a vertex
    itself, a side's midpoint, a loop's centroid."""
    scale = math.lcm(*(z for _, _, z in points))
    x = sum(X * (scale // Z) for X, _, Z in points)
    y = sum(Y * (scale // Z) for _, Y, Z in points)
    z = len(points) * scale
    g = math.gcd(x, y, z)
    return x // g, y // g, z // g


def _point_in_piece(piece: Piece, p: Point) -> bool:
    if len(piece) == 1:
        return p == piece[0]
    if len(piece) == 2:
        return on_segment(p, piece[0], piece[1], strict=True)
    return point_in_convex(piece, p, strict=True)


class Stratification:
    """Cells partitioning the base mesh, their face poset, the induced simplex
    indexing at each cell's representative point, and the pair sets of those
    indexings, read off one walk over the distinct indexings (`walk`).

    A cell's indexing is a stable sort of the simplices by the integer
    numerators of their values at the representative point, which share one
    positive denominator: the order `induced_indexing` gives those values.
    The fibration is monotone there, since it is at every mesh vertex.

    `cell_pairs` reads the pair set of the cell's order from the table that
    one walk yields, built on the first call, so an order is never reduced
    from scratch, except one per component of the walk.

    `indexings` maps each cell id to its indexing, one object per distinct
    order. Without it, each cell's order is sorted here and interned;
    `merge_cells` passes the objects of the cells it merges."""

    def __init__(self, fib: PLFibration, cells: List[Cell],
                 faces: Dict[int, FrozenSet[int]],
                 indexings: Optional[Dict[int, SimplexIndexing]] = None):
        self.fib = fib
        self.cells = cells
        self.faces = faces
        cofaces: Dict[int, Set[int]] = {c.id: set() for c in cells}
        for cid, fs in faces.items():
            for f in fs:
                cofaces[f].add(cid)
        self.cofaces: Dict[int, FrozenSet[int]] = {
            cid: frozenset(cs) for cid, cs in cofaces.items()}
        if indexings is None:
            interned: Dict[Tuple[int, ...], SimplexIndexing] = {}
            indexings = {}
            for c in cells:
                idx = SimplexIndexing(value_order(_cell_numerators(fib, c)))
                indexings[c.id] = interned.setdefault(idx.order, idx)
        self.indexings: Dict[int, SimplexIndexing] = indexings

    def cell(self, cid: int) -> Cell:
        return self.cells[cid]

    def faces_of(self, cid: int) -> FrozenSet[int]:
        return self.faces[cid]

    def cofaces_of(self, cid: int) -> FrozenSet[int]:
        return self.cofaces[cid]

    def cell_pairs(self, cid: int) -> PairSet:
        return self._pair_table[id(self.indexings[cid])]

    @cached_property
    def _pair_table(self) -> Dict[int, PairSet]:
        return {id(b): pairs for _, b, pairs, _, _ in self.walk()}

    def walk(self, cofaces: bool = False) -> Iterator[Step]:
        """One breadth-first walk over the distinct cell orders. Two orders
        are adjacent when a face relation joins cells of them; the tree
        steps go along the relations of codimension 1 (0-cell to 1-cell,
        1-cell to 0- or 2-cell), which take fewer transpositions a step
        than a 0-cell to a 2-cell. With `cofaces`, the walk also steps from
        each order to the order of every coface of one of its cells, so
        that every face relation is served by exactly one step, the one
        from its face's order.

        It yields each step from an order a to an order b as (a, b, pairs,
        swaps, relations): b's pair set, the simplex pairs that the
        transpositions changing the pair set swapped on the way from a to b
        (`Reduction.transpose_to`), and the face relations (face, coface)
        from a cell of a to a cell of b that the step serves (none without
        `cofaces`). Each distinct directed change a → b is one step, which
        transposes one copy of a's reduction to b along the canonical
        schedule in one pass; a step inside one order (a is b) only serves
        its relations. The first order of each component of the
        codimension-1 order graph is yielded as (None, b, pairs, [], []),
        reduced in full; the first tree step to any other order gives it
        its reduction. A pair set is read off its order's reduction: the
        lowest ones of R fix it, so they key one pair set object per
        distinct pair set, read once (`Reduction.elements`). The pair set
        of an order is unique, so the swaps of a step depend only on its
        two orders (the vine update of Cohen-Steiner, Edelsbrunner and
        Morozov, 2006). Only the frontier's reductions stay alive."""
        K, cells, indexings = self.fib.complex, self.cells, self.indexings
        faces, up = self.faces, self.cofaces
        distinct: Dict[Tuple[int, ...], PairSet] = {}

        def pairs_of(red: Reduction) -> PairSet:
            low = tuple(red.low)
            pairs = distinct.get(low)
            if pairs is None:
                pairs = distinct[low] = red.elements()
            return pairs

        def transposed(red: Reduction, b: SimplexIndexing
                       ) -> Tuple[Reduction, PairSet, List[Tuple[int, int]]]:
            child = red.copy()
            swaps = child.transpose_to(b)
            return child, pairs_of(child), swaps

        # the distinct orders, numbered in the order of their first cells:
        # the cells of order k are grouped[first[k]:first[k + 1]]. Flat
        # lists, not one list per order, give the cyclic garbage collector
        # no new containers to trace, and the numbering by id is freed so
        # that it adds nothing to the walk's peak memory.
        number: Dict[int, int] = {}
        order_of = [number.setdefault(id(indexings[c.id]), len(number))
                    for c in cells]
        first = [0] * (len(number) + 1)
        del number
        for k in order_of:
            first[k + 1] += 1
        first = list(accumulate(first))
        grouped = sorted(range(len(order_of)), key=order_of.__getitem__)
        reached = [False] * (len(first) - 1)
        for root in range(len(reached)):
            if reached[root]:
                continue
            reached[root] = True
            a = indexings[grouped[first[root]]]
            red = Reduction(K, a)
            pairs = pairs_of(red)
            yield None, a, pairs, [], []
            queue = deque([(root, a, red, pairs)])
            while queue:
                k_a, a, red, pairs_a = queue.popleft()
                # the orders that tree steps from a reach, and the relations
                # that each step from a serves, by the number of the step's
                # order
                tree: List[int] = []
                served: Dict[int, List[Tuple[int, int]]] = {}
                for u in grouped[first[k_a]:first[k_a + 1]]:
                    dim = cells[u].dim
                    for w in faces[u] | up[u]:
                        codim = cells[w].dim - dim   # negative for a face
                        k = order_of[w]
                        if codim in (1, -1) and not reached[k]:
                            reached[k] = True
                            tree.append(k)
                        if cofaces and codim > 0:
                            served.setdefault(k, []).append((u, w))
                # the tree steps first, in the order found, so that the tree
                # does not depend on `cofaces`
                for k in tree:
                    b = indexings[grouped[first[k]]]
                    child, pairs, swaps = transposed(red, b)
                    yield a, b, pairs, swaps, served.pop(k, [])
                    queue.append((k, b, child, pairs))
                for relations in served.values():
                    b = indexings[relations[0][1]]
                    if b is a:
                        yield a, a, pairs_a, [], relations
                    else:
                        _, pairs, swaps = transposed(red, b)
                        yield a, b, pairs, swaps, relations

    @cached_property
    def _cells_by_triangle(self) -> Dict[int, List[Cell]]:
        """The cells on each base triangle, low dimensions first."""
        by_triangle: Dict[int, List[Cell]] = {}
        for c in sorted(self.cells, key=lambda c: (c.dim, c.id)):
            for t in c.triangles:
                by_triangle.setdefault(t, []).append(c)
        return by_triangle

    def locate(self, p: Point) -> Cell:
        """The unique cell containing p; cells of low dimension are tested
        first so boundary points resolve to boundary cells."""
        t = _containing_triangle(self.fib, *homogeneous(p))
        if t is None:
            raise ValidationError(f"point {p} outside the mesh")
        for c in self._cells_by_triangle[t]:
            for piece in c.pieces:
                if _point_in_piece(piece, p):
                    return c
        raise AssertionError(f"point {p} not covered by any cell (internal bug)")


def _containing_triangle(fib: PLFibration, X: int, Y: int, Z: int) -> Optional[int]:
    for t in range(len(fib.mesh.triangles)):
        if fib.table(t).contains(X, Y, Z):
            return t
    return None


def point_numerators(fib: PLFibration, pt: Point,
                     triangle_hint: Optional[int] = None
                     ) -> Tuple[List[int], int]:
    """Every simplex's value at the base point pt times one positive integer
    D, and D = den·Z, read off the integer affine table of a closed triangle
    containing pt (the hinted one if it does). The fibration is continuous,
    so every triangle containing pt gives the same values."""
    X, Y, Z = homogeneous(pt)
    t = triangle_hint
    if t is None or not fib.table(t).contains(X, Y, Z):
        t = _containing_triangle(fib, X, Y, Z)
        if t is None:
            raise ValidationError(f"point {pt} outside the mesh")
    table = fib.table(t)
    return table.numerators(X, Y, Z), table.den * Z


def filtration_at(fib: PLFibration, p: Sequence,
                  triangle_hint: Optional[int] = None) -> List[Fraction]:
    """The values at base point p of every simplex, as exact `Fraction`s: the
    `point_numerators` over their denominator."""
    nums, den = point_numerators(fib, (as_fraction(p[0]), as_fraction(p[1])),
                                 triangle_hint)
    return [Fraction(v, den) for v in nums]


def _cell_numerators(fib: PLFibration, cell: Cell) -> List[int]:
    """Every simplex's value at the cell's representative point times one
    positive integer, read off the table of the triangle it lies in."""
    return fib.table(cell.rep_triangle).numerators(*cell.hrep)


def _triangle_lines(fib: PLFibration, t: int) -> List[Line]:
    """Deduplicated canonical lines of all segment traces on triangle t: the
    zero line of f_i - f_j for each simplex pair whose corner differences
    have mixed signs or exactly two zeros (the cases in which
    `intersection_trace` finds a segment). Each is a full chord of the
    triangle, since its trace segment is. Simplices with equal corner values
    have equal rows and no trace line, so only distinct rows are paired."""
    table = fib.table(t)
    rows = sorted(set(zip(table.corner_values, table.rows)))
    lines: Set[Line] = set()
    for i, ((u0, u1, u2), (a, b, c)) in enumerate(rows):
        for (v0, v1, v2), (ra, rb, rc) in rows[i + 1:]:
            g0, g1, g2 = u0 - v0, u1 - v1, u2 - v2
            if ((g0 > 0 or g1 > 0 or g2 > 0) and (g0 < 0 or g1 < 0 or g2 < 0)
                    or (g0 == 0) + (g1 == 0) + (g2 == 0) == 2):
                lines.add(normalize_line(a - ra, b - rb, rc - c))
    return sorted(lines)


def _loop_edges(loop: Sequence[int]) -> List[Tuple[int, ...]]:
    """The sides of a convex loop of corner ranks, each as a sorted pair."""
    return [tuple(sorted((loop[i - 1], r))) for i, r in enumerate(loop)]


def _arrange_triangle(fib: PLFibration, t: int
                      ) -> Tuple[List[HPoint], List[Tuple[int, ...]]]:
    """Overlay the trace chords with one triangle's boundary. Returns the
    corners of the cut, as canonical homogeneous integer points (gcd 1,
    Z > 0) sorted by their rational points, and the open 2-cells as sorted
    counterclockwise loops of corner ranks.

    Every line is a full chord of the convex triangle, so an arrangement
    vertex on the closure of a 2-cell is one of its corners (otherwise a line
    through that vertex would cut the cell). The 0-cells are therefore the
    corners and the 1-cells the loop sides.

    The triangle is cut in homogeneous integer points. The corners are
    ranked by integer keys, their coordinates over the common denominator
    of all of them, so ranks compare as the points do."""
    polys = [[homogeneous(p) for p in fib.mesh.corners(t)]]
    for line in _triangle_lines(fib, t):
        polys = [part for poly in polys for part in split_convex(poly, line)
                 if part]
    distinct = {v for poly in polys for v in poly}
    scale = math.lcm(*(z for _, _, z in distinct))
    corners = sorted(distinct, key=lambda v: (v[0] * (scale // v[2]),
                                              v[1] * (scale // v[2])))
    rank = {v: r for r, v in enumerate(corners)}
    return corners, sorted(tuple(rank[v] for v in poly) for poly in polys)


def build_stratification(fib: PLFibration) -> Stratification:
    """Partition the base mesh into cells of constant simplex order and record
    the face poset (all face relations, any codimension). 1- and 0-cells on
    shared triangle boundaries are identified across triangles by their
    canonical integer corners. A 2-cell's faces are its corners and sides, a
    1-cell's its two endpoints. A cell's representative point is the mean of
    the corners that key it (`_mean_point`), in integers; a `Fraction` point
    is built once per cell, and a corner's is its 0-cell's representative,
    one object in every triangle that has the corner."""
    cells: List[Cell] = []
    faces: Dict[int, Set[int]] = {}
    seen: Dict[Tuple[HPoint, ...], int] = {}

    def add_cell(dim: int, key: Tuple[HPoint, ...], t: int,
                 piece: Optional[Piece] = None) -> int:
        cid = seen.get(key)
        if cid is not None:
            cell = cells[cid]
            if t not in cell.triangles:
                cell.triangles = tuple(sorted(cell.triangles + (t,)))
            return cid
        cid = len(cells)
        hrep = _mean_point(key)
        rep = (Fraction(hrep[0], hrep[2]), Fraction(hrep[1], hrep[2]))
        cells.append(Cell(cid, dim, (piece or (rep,),), rep, (t,), hrep, t))
        faces[cid] = set()
        seen[key] = cid
        return cid

    for t in range(len(fib.mesh.triangles)):
        corners, loops = _arrange_triangle(fib, t)
        zero_ids = [add_cell(0, (v,), t) for v in corners]
        points = [cells[cid].rep for cid in zero_ids]
        one_ids = {}
        for a, b in sorted({e for loop in loops for e in _loop_edges(loop)}):
            cid = one_ids[a, b] = add_cell(1, (corners[a], corners[b]), t,
                                           (points[a], points[b]))
            faces[cid].update((zero_ids[a], zero_ids[b]))
        for loop in loops:
            cid = add_cell(2, tuple(corners[r] for r in loop), t,
                           tuple(points[r] for r in loop))
            faces[cid].update(zero_ids[r] for r in loop)
            faces[cid].update(one_ids[e] for e in _loop_edges(loop))

    return Stratification(fib, cells, {cid: frozenset(f) for cid, f in faces.items()})


SAMPLE_DENOM = 997


def sample_in_cell(cell: Cell, rng: random.Random) -> Point:
    """A deterministic pseudo-random point in the cell's relative interior:
    the mean of a random piece's corners under random integer weights (up to
    SAMPLE_DENOM), in integers over the piece's common coordinate scale."""
    piece = cell.pieces[rng.randrange(len(cell.pieces))]
    if len(piece) == 1:
        return piece[0]
    if len(piece) == 2:
        t = rng.randint(1, SAMPLE_DENOM - 1)
        weights = [SAMPLE_DENOM - t, t]
    else:
        weights = [rng.randint(1, SAMPLE_DENOM) for _ in piece]
    scale, grid = _to_grid(piece)
    total = sum(weights) * scale
    return (Fraction(sum(w * x for w, (x, _) in zip(weights, grid)), total),
            Fraction(sum(w * y for w, (_, y) in zip(weights, grid)), total))


# ---------------------------------------------------------------------------
# Optional post-processing: merge equal-order cells across walls.
# ---------------------------------------------------------------------------

class UnionFind:
    """Union-find over 0..n-1; a union keeps the smaller root."""

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
    """Merge cells across walls where the simplex order does not change. One
    absorb loop visits the 1-cells and then the 0-cells: a cell whose
    cofaces one dimension up, less those already absorbed, are exactly two,
    in two different merged cells, and of its own order is absorbed into
    their union. The sheaf over the merged stratification is equivalent (the
    removed morphisms were identities). A merged cell keeps the
    representative point, and so the indexing object, of a member of the
    highest dimension."""
    fib = strat.fib
    uf = UnionFind(len(strat.cells))
    absorbed: Set[int] = set()
    # merge on equality of the simplex ORDER (tie structure included), not of
    # the tie-broken indexing: a wall where two values tie can share its
    # indexing with a strict neighbor yet still be a genuine stratum boundary.
    # Equal signatures give equal indexings, so a cell's signature is
    # evaluated only where the indexings agree, and then once.
    indexings = strat.indexings
    signature = cache(
        lambda cid: order_signature(_cell_numerators(fib, strat.cell(cid))))

    for dim in (1, 0):
        for x in strat.cells:
            if x.dim != dim:
                continue
            cofs = sorted(c for c in strat.cofaces[x.id]
                          if strat.cell(c).dim == dim + 1 and c not in absorbed)
            if len(cofs) != 2:
                continue
            a, b = cofs
            if not indexings[x.id] == indexings[a] == indexings[b]:
                continue
            if uf.find(a) == uf.find(b):
                continue  # would cut a slit into a single merged cell
            if not signature(x.id) == signature(a) == signature(b):
                continue
            uf.union(a, b)
            uf.union(a, x.id)
            absorbed.add(x.id)

    groups: Dict[int, List[int]] = {}
    for c in strat.cells:
        groups.setdefault(uf.find(c.id), []).append(c.id)

    new_cells: List[Cell] = []
    new_indexings: Dict[int, SimplexIndexing] = {}
    new_id_of: Dict[int, int] = {}
    for root in sorted(groups):
        members = sorted(groups[root])
        dim = max(strat.cell(m).dim for m in members)
        rep_member = next(m for m in members if strat.cell(m).dim == dim)
        pieces = tuple(p for m in members for p in strat.cell(m).pieces)
        tris = tuple(sorted({t for m in members for t in strat.cell(m).triangles}))
        nid = len(new_cells)
        rep = strat.cell(rep_member)
        new_cells.append(Cell(nid, dim, pieces, rep.rep, tris, rep.hrep,
                              rep.rep_triangle))
        new_indexings[nid] = indexings[rep_member]
        for m in members:
            new_id_of[m] = nid

    new_faces: Dict[int, Set[int]] = {c.id: set() for c in new_cells}
    for cid, fs in strat.faces.items():
        for f in fs:
            a, b = new_id_of[cid], new_id_of[f]
            if a != b:
                new_faces[a].add(b)

    return Stratification(fib, new_cells,
                          {cid: frozenset(f) for cid, f in new_faces.items()},
                          new_indexings)
