"""Seeded input generators for the benchmark, and the arrangement sizes
used to keep generated inputs within a stated size.

Everything here is plain Python on `random.Random`: the same seed gives the
same inputs. Nothing here imports `pdbundle`; run.py writes what these
functions produce to files, and those files are all the program sees.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, List, Sequence, Set, Tuple

# Base meshes with small integer coordinates (one triangle, a square split on
# its diagonal, and a two-square strip).
MESHES: Dict[str, Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]] = {
    "one_triangle": ([(0, 0), (4, 0), (0, 4)], [(0, 1, 2)]),
    "square": ([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 1, 2), (0, 2, 3)]),
    "strip": ([(0, 0), (2, 0), (4, 0), (0, 2), (2, 2), (4, 2)],
              [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)]),
}


def rational(x: Fraction) -> str:
    """The `p/q` (or integer) string form the file formats use."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def random_listing(rng: random.Random, max_vertices: int) -> List[Tuple[int, ...]]:
    """Vertices, then edges of a random graph, then the triangles whose three
    edges all exist (at most 14 simplices for 4 vertices)."""
    n = rng.randint(2, max_vertices)
    vertices = [(v,) for v in range(n)]
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
    edge_set = set(edges)
    tris = [t for t in combinations(range(n), 3)
            if rng.random() < 0.6
            and all(e in edge_set for e in combinations(t, 2))]
    return vertices + edges + tris


def random_fibration(rng: random.Random, mesh_name: str, max_vertices: int,
                     max_step: int = 3
                     ) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """A random complex listing and integer values per simplex per mesh
    vertex, monotone (each simplex at least its facets) at every vertex."""
    n_mesh = len(MESHES[mesh_name][0])
    listing = random_listing(rng, max_vertices)
    index = {s: i for i, s in enumerate(listing)}
    rows: List[List[int]] = []
    for s in listing:
        facets = [index[f] for f in combinations(s, len(s) - 1)] if len(s) > 1 else []
        rows.append([max((rows[j][v] for j in facets), default=0)
                     + rng.randint(0, max_step) for v in range(n_mesh)])
    return listing, rows


def fibration_json(mesh_name: str, listing: Sequence[Tuple[int, ...]],
                   rows: Sequence[Sequence[int]]) -> str:
    verts, tris = MESHES[mesh_name]
    return dumps({
        "complex": {"simplices": [list(s) for s in listing]},
        "mesh": {"vertices": [[str(x), str(y)] for x, y in verts],
                 "triangles": [list(t) for t in tris]},
        "values": {"-".join(map(str, s)): [str(x) for x in rows[i]]
                   for i, s in enumerate(listing)},
    })


def random_ppm(rng: random.Random, width: int, height: int, maxval: int) -> str:
    """A plain-text P3 image with independent uniform samples in 0..maxval."""
    rows = []
    for _ in range(height):
        rows.append(" ".join(str(rng.randint(0, maxval))
                             for _ in range(3 * width)))
    return f"P3\n{width} {height} {maxval}\n" + "\n".join(rows) + "\n"


def closed_path(rng: random.Random, corners: int, steps: int
                ) -> Tuple[int, List[Tuple[int, int]]]:
    """A closed PL path inside the open weight triangle w1, w2 > 0,
    w1 + w2 < 1: a random star-shaped polygon around an interior centre,
    each side cut into `steps` equal steps. Returns a denominator and the
    integer numerators of the points; the last point repeats the first."""
    den = 60 * steps
    cx, cy = rng.randint(14, 20) * steps, rng.randint(14, 20) * steps
    # directions on a fixed octagon, scaled by radii that keep every vertex
    # strictly inside the triangle
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    poly = []
    for k in sorted(rng.sample(range(len(dirs)), corners)):
        r = rng.randint(4, 9) * steps
        poly.append((cx + r * dirs[k][0], cy + r * dirs[k][1]))
    pts = []
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        for s in range(steps):
            pts.append((x0 + s * (x1 - x0) // steps, y0 + s * (y1 - y0) // steps))
    pts.append(pts[0])
    for x, y in pts:
        if not (x > 0 and y > 0 and x + y < den):
            raise ValueError(f"path point {(x, y)}/{den} left the weight triangle")
    return den, pts


def path_json(den: int, points: Sequence[Tuple[int, int]]) -> str:
    return dumps([[rational(Fraction(x, den)), rational(Fraction(y, den))]
                  for x, y in points])


def chain_ppm(rng: random.Random, width: int, height: int) -> str:
    """A binary (maxval 1) P3 image whose colours lie on one random maximal
    chain black < one channel < two channels < white of the RGB cube, so
    that every two simplices of its fibration compare the same way at all
    three base corners: no trace line crosses the weight triangle."""
    chain = [[0, 0, 0]]
    for channel in rng.sample(range(3), 3):
        chain.append(list(chain[-1]))
        chain[-1][channel] = 1
    rows = [" ".join(" ".join(map(str, rng.choice(chain))) for _ in range(width))
            for _ in range(height)]
    return f"P3\n{width} {height} 1\n" + "\n".join(rows) + "\n"


def image_rows(ppm: str) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """The simplices and per-corner values of the image fibration a P3 file
    encodes (base corners (0,0), (1,0), (0,1) carry blue, red, green): each
    pixel's two triangles carry its channels, every lower simplex the
    per-corner minimum over its coface triangles."""
    tok = ppm.split()
    width, height = int(tok[1]), int(tok[2])
    raw = [int(x) for x in tok[4:]]
    w1 = width + 1
    edges, tris = set(), {}
    for r in range(height):
        for c in range(width):
            tl, tr, bl, br = r * w1 + c, r * w1 + c + 1, (r + 1) * w1 + c, (r + 1) * w1 + c + 1
            red, green, blue = raw[3 * (r * width + c): 3 * (r * width + c) + 3]
            for tri in (tuple(sorted((tl, tr, br))), tuple(sorted((tl, bl, br)))):
                tris[tri] = [blue, red, green]
                edges.update(combinations(tri, 2))
    listing = ([(v,) for v in range(w1 * (height + 1))] + sorted(edges)
               + sorted(tris))
    rows = []
    for s in listing:
        if s in tris:
            rows.append(tris[s])
        else:
            cof = [vals for tri, vals in tris.items() if set(s) <= set(tri)]
            rows.append([min(v[k] for v in cof) for k in range(3)])
    return listing, rows


def _primitive(v: Sequence[int]) -> Tuple[int, ...]:
    """v divided by the gcd of its entries, first non-zero entry positive."""
    g = 0
    for x in v:
        g = gcd(g, x)
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def trace_lines(rows: Sequence[Sequence[int]], tri: Sequence[int]
                ) -> Set[Tuple[int, ...]]:
    """The distinct trace lines f_s = f_t that cross the open base triangle
    `tri`, as primitive integer triples in its barycentric coordinates."""
    lines = set()
    for i in range(len(rows)):
        ri = rows[i]
        for j in range(i + 1, len(rows)):
            d = [ri[v] - rows[j][v] for v in tri]
            if min(d) < 0 < max(d):
                lines.add(_primitive(d))
    return lines


def arrangement_size(rows: Sequence[Sequence[int]],
                     triangles: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """How much work a fibration's stratification carries, read off its
    integer vertex values alone: summed over base triangles, the distinct
    trace lines that cross the open triangle and their distinct crossing
    points inside it."""
    n_lines = n_points = 0
    for tri in triangles:
        lines = list(trace_lines(rows, tri))
        points = set()
        for a, p in enumerate(lines):
            for q in lines[a + 1:]:
                c = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                     p[0] * q[1] - p[1] * q[0])
                s = sum(c)
                if s and all(x * s > 0 for x in c):
                    points.add(_primitive(c))
        n_lines += len(lines)
        n_points += len(points)
    return n_lines, n_points


def _order(rows: Sequence[Sequence[int]], weights: Sequence[int]) -> List[int]:
    """Simplex indices by value at the point with these barycentric weights,
    ties by listing index (`sorted` is stable)."""
    a, b, c = weights
    values = [a * r[0] + b * r[1] + c * r[2] for r in rows]
    return sorted(range(len(rows)), key=values.__getitem__)


def _canonical_sort(start: Sequence[int], target: Sequence[int], seen: set) -> int:
    """Bubble-sort `start` into `target`, always swapping the lowest
    out-of-order neighbours (the program's canonical transposition
    schedule); adds every order met to `seen` and returns the swap count."""
    seq = list(start)
    rank = {x: i for i, x in enumerate(target)}
    swaps = k = 0
    while k < len(seq) - 1:
        if rank[seq[k]] > rank[seq[k + 1]]:
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
            seen.add(tuple(seq))
            swaps += 1
            k = max(k - 1, 0)
        else:
            k += 1
    return swaps


def sheaf_work_without_lines(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """For an image fibration whose weight triangle no trace line crosses,
    the (transpositions, pair reductions) its sheaf makes. Its cells are the
    3 corners, 3 open edges and the open face, with simplex orders (by value,
    then listing index) read at corners, edge midpoints and the centroid.
    Each of the 12 face relations bubble-sorts the face order into the
    coface order, always swapping the lowest out-of-order neighbours; every
    distinct order met on the way is reduced once."""
    at = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1), "ab": (1, 1, 0),
          "bc": (0, 1, 1), "ac": (1, 0, 1), "abc": (1, 1, 1)}
    order = {k: _order(rows, w) for k, w in at.items()}
    relations = [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("a", "ac"),
                 ("c", "ac")] + [(k, "abc") for k in ("a", "b", "c", "ab", "bc", "ac")]
    seen = {tuple(o) for o in order.values()}
    swaps = sum(_canonical_sort(order[f], order[c], seen) for f, c in relations)
    return swaps, len(seen)


def vineyard_work(rows: Sequence[Sequence[int]], den: int,
                  points: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """The (transpositions, pair reductions) a vineyard makes along the
    sampled path (x/den, y/den) over an image fibration (base corners (0,0),
    (1,0), (0,1)): consecutive samples' simplex orders are bubble-sorted into
    each other, and every distinct order met is reduced once."""
    orders = [_order(rows, (den - x - y, x, y)) for x, y in points]
    seen = {tuple(orders[0])}
    swaps = sum(_canonical_sort(a, b, seen) for a, b in zip(orders, orders[1:])
                if a != b)
    return swaps, len(seen)
