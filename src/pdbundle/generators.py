"""Example generators: the monodromy fibration, the vineyard-instability
harness, and image fibrations from plain-text PPM files."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import InvariantError, SimplicialComplex, ValidationError, as_fraction
from .stratify import BaseMesh, PLFibration
from .vineyard import Vine, path_vineyard, rational_sample

# Intrinsic indices of the four named simplices in the monodromy complex
# (vertices 0..3, then edges 12, 23, 03, 01, 02, then triangles 012, 023).
MONODROMY_SIMPLICES = [[0], [1], [2], [3],
                       [1, 2], [2, 3], [0, 3], [0, 1], [0, 2],
                       [0, 1, 2], [0, 2, 3]]
MONO_A, MONO_B, MONO_C, MONO_D = 7, 8, 9, 10


def monodromy_values_at(x, y) -> List[Fraction]:
    """The concrete affine instance of the monodromy conditions:
    f(a) = 2 + y, f(b) = 2 - y, f(c) = 10 + x, f(d) = 10 - x, all else 0."""
    fx, fy = as_fraction(x), as_fraction(y)
    vals = [Fraction(0)] * 11
    vals[MONO_A] = 2 + fy
    vals[MONO_B] = 2 - fy
    vals[MONO_C] = 10 + fx
    vals[MONO_D] = 10 - fx
    return vals


def gen_monodromy() -> PLFibration:
    """The fibration with monodromy around the origin: the 11-simplex complex
    over the square [-1, 1]^2 triangulated as an 8-triangle fan about the
    origin, so both axes lie on mesh edges. A self-check verifies the sign
    conditions that drive the quadrant pair sets."""
    K = SimplicialComplex(MONODROMY_SIMPLICES)
    mesh = BaseMesh(
        vertices=[(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1),
                  (-1, 0), (-1, -1), (0, -1), (1, -1)],
        triangles=[(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                   (0, 5, 6), (0, 6, 7), (0, 7, 8), (0, 8, 1)])
    values = [[Fraction(0)] * 9 for _ in range(11)]
    for v, (x, y) in enumerate(mesh.vertices):
        at = monodromy_values_at(x, y)
        for i in range(11):
            values[i][v] = at[i]
    fib = PLFibration(K, mesh, values)
    _check_monodromy_conditions(fib)
    return fib


def _check_monodromy_conditions(fib: PLFibration) -> None:
    half = Fraction(1, 2)
    for sx in (-1, 1):
        for sy in (-1, 1):
            vals = monodromy_values_at(sx * half, sy * half)
            if not ((vals[MONO_A] > vals[MONO_B]) == (sy > 0)):
                raise InvariantError("a/b sign condition violated")
            if not ((vals[MONO_C] > vals[MONO_D]) == (sx > 0)):
                raise InvariantError("c/d sign condition violated")
    for row_v in range(len(fib.mesh.vertices)):
        a, b = fib.values[MONO_A][row_v], fib.values[MONO_B][row_v]
        c, d = fib.values[MONO_C][row_v], fib.values[MONO_D][row_v]
        if not (min(c, d) > max(a, b) > 0):
            raise InvariantError("c, d > a, b > 0 violated at a mesh vertex")


# ---------------------------------------------------------------------------
# Vineyard instability (two epsilon-close paths with far-apart vines).
# ---------------------------------------------------------------------------

def _clamp_unit(u: Fraction) -> Fraction:
    return max(Fraction(-1), min(Fraction(1), u))


def instability_values_at(x, y, gap: Fraction) -> List[Fraction]:
    """Monodromy-style fibration scaled so the a/b and c/d value gaps reach
    2*gap once |y| or |x| passes 1: f(a) = 2M + M*clamp(y), etc."""
    m = as_fraction(gap)
    fx, fy = _clamp_unit(as_fraction(x)), _clamp_unit(as_fraction(y))
    vals = [Fraction(0)] * 11
    vals[MONO_A] = 2 * m + m * fy
    vals[MONO_B] = 2 * m - m * fy
    vals[MONO_C] = 5 * m + m * fx
    vals[MONO_D] = 5 * m - m * fx
    return vals


def _gamma_plus(t: Fraction, delta: Fraction) -> Tuple[Fraction, Fraction]:
    if abs(t) >= delta:
        return (t, t)
    if t < 0:
        return (-delta, delta + 2 * t)
    return (-delta + 2 * t, delta)


def _instability_params(delta: Fraction) -> List[Fraction]:
    outer = [Fraction(x, 4) for x in range(-8, 9) if Fraction(x, 4) != 0]
    inner = [k * delta / 4 for k in range(-4, 5)]
    ts = sorted(set(outer + inner))
    return ts


def _vine_distance_sq(v1: Vine, v2: Vine) -> Fraction:
    """Max over shared samples of the squared euclidean distance between two
    vines in the (birth, death) plane."""
    worst = Fraction(0)
    for (t1, b1, d1), (t2, b2, d2) in zip(v1.samples, v2.samples):
        assert t1 == t2 and d1 is not None and d2 is not None
        worst = max(worst, (b1 - b2) ** 2 + (d1 - d2) ** 2)
    return worst


def gen_instability(epsilon, gap) -> Dict:
    """Build the two 1-parameter filtrations f(., gamma+-(t)), sample their
    vineyards on a shared grid (breakpoints included), and report the
    filtration sup-distance against the best-case vine matching distance.

    For gap M > 0 the report asserts sup|f+ - f-| < epsilon while every vine
    matching leaves some pair of matched vines at distance >= M."""
    eps = as_fraction(epsilon)
    m = as_fraction(gap)
    if eps <= 0 or m < 0:
        raise ValidationError("gen_instability needs epsilon > 0 and gap >= 0")
    K = SimplicialComplex(MONODROMY_SIMPLICES)
    delta = min(eps / (4 * m), Fraction(1, 2)) if m > 0 else Fraction(1, 4)
    ts = _instability_params(delta)

    plus_points = [_gamma_plus(t, delta) for t in ts]
    # gamma-(t) is gamma+(t) with x and y swapped
    minus_points = [(y, x) for x, y in plus_points]
    plus_filts = [instability_values_at(x, y, m) for x, y in plus_points]
    minus_filts = [instability_values_at(x, y, m) for x, y in minus_points]

    sup_dist = max(abs(a - b) for fp, fm in zip(plus_filts, minus_filts)
                   for a, b in zip(fp, fm))

    vines_plus, _ = path_vineyard(K, [rational_sample(f) for f in plus_filts],
                                  params=ts)
    vines_minus, _ = path_vineyard(K, [rational_sample(f) for f in minus_filts],
                                   params=ts)

    def degree1(vines: List[Vine]) -> List[Vine]:
        return [v for v in vines if len(K.simplices[v.labels[0][0]]) == 2]

    vp, vm = degree1(vines_plus), degree1(vines_minus)
    if len(vp) != 2 or len(vm) != 2:
        raise InvariantError("expected exactly two degree-1 vines per path")

    matchings = {
        "straight": max(_vine_distance_sq(vp[0], vm[0]),
                        _vine_distance_sq(vp[1], vm[1])),
        "crossed": max(_vine_distance_sq(vp[0], vm[1]),
                       _vine_distance_sq(vp[1], vm[0])),
    }
    best_sq = min(matchings.values())

    report: Dict = {
        "epsilon": str(eps),
        "gap": str(m),
        "delta": str(delta),
        "params": [str(t) for t in ts],
        "sup_filtration_distance": str(sup_dist),
        "sup_filtration_distance_float": float(sup_dist),
        "max_vine_distance_sq_by_matching": {k: str(v) for k, v in matchings.items()},
        "min_over_matchings_distance": math.sqrt(best_sq),
        "vines": {
            "plus": [_vine_json(v, K) for v in vp],
            "minus": [_vine_json(v, K) for v in vm],
        },
    }
    if m == 0:
        report["assertion"] = "skipped"
        report["warning"] = ("gap is zero: the two filtrations coincide and "
                             "all vine distances collapse")
        return report
    if not (sup_dist < eps):
        raise InvariantError(f"filtration sup-distance {sup_dist} not below {eps}")
    if not (best_sq >= m * m):
        raise InvariantError(
            f"best vine matching distance^2 {best_sq} below gap^2 {m * m}")
    report["assertion"] = "passed"
    return report


def _vine_json(v: Vine, K: SimplicialComplex) -> Dict:
    return {
        "samples": [[str(t), str(b), "inf" if d is None else str(d)]
                    for t, b, d in v.samples],
        "labels": [[K.ids[b], "inf" if d is None else K.ids[d]]
                   for b, d in v.labels],
    }


# ---------------------------------------------------------------------------
# Image fibrations (weighted RGB channel averages over a triangle of weights).
# ---------------------------------------------------------------------------

def parse_ppm(text: str) -> Tuple[int, int, List[Tuple[int, int, int]]]:
    """Plain-text (P3) PPM parser; returns width, height and row-major RGB
    triples. Comments (#) are allowed anywhere whitespace is."""
    tokens: List[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P3":
        raise ValidationError("not a plain-text P3 PPM file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        raw = [int(x) for x in tokens[4:]]
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed PPM header or samples: {exc}") from exc
    if width <= 0 or height <= 0 or maxval <= 0:
        raise ValidationError("PPM dimensions and maxval must be positive")
    if len(raw) != 3 * width * height:
        raise ValidationError(
            f"PPM has {len(raw)} samples, expected {3 * width * height}")
    if any(not 0 <= x <= maxval for x in raw):
        raise ValidationError("PPM sample out of range")
    pixels = [(raw[3 * i], raw[3 * i + 1], raw[3 * i + 2])
              for i in range(width * height)]
    return width, height, pixels


# Base triangle of channel weights: (0,0) -> blue, (1,0) -> red, (0,1) -> green.
IMAGE_BASE_VERTICES = [(0, 0), (1, 0), (0, 1)]


def image_complex(width: int, height: int
                  ) -> Tuple[SimplicialComplex, Dict[Tuple[int, ...], int]]:
    """Triangulate the pixel grid (two triangles per pixel, diagonal from the
    top-left corner). Returns the complex and the pixel index of each
    2-simplex."""
    w1 = width + 1

    def vid(r: int, c: int) -> int:
        return r * w1 + c

    vertices = [(v,) for v in range(w1 * (height + 1))]
    edges = set()
    triangles: List[Tuple[int, int, int]] = []
    tri_pixel: Dict[Tuple[int, ...], int] = {}
    for r in range(height):
        for c in range(width):
            tl, tr = vid(r, c), vid(r, c + 1)
            bl, br = vid(r + 1, c), vid(r + 1, c + 1)
            pix = r * width + c
            for tri in ((tl, tr, br), (tl, bl, br)):
                tri = tuple(sorted(tri))
                triangles.append(tri)
                tri_pixel[tri] = pix
                edges.update({(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])})
    listing = vertices + sorted(edges) + sorted(set(triangles))
    return SimplicialComplex(listing), tri_pixel


def gen_image_fibration(ppm_text: str) -> Tuple[PLFibration, Dict]:
    """Fibered filtration over the weight triangle B = {(w1, w2) >= 0,
    w1 + w2 <= 1}: a pixel's triangles carry the weighted channel average
    w1*r + w2*g + (1 - w1 - w2)*b, encoded by its values at the three base
    corners. Lower simplices carry, per base corner, the minimum of their
    coface triangles' channel values.

    That encoding agrees with the pointwise min of coface averages exactly at
    the three corners but is affine in between (the pointwise min is only
    piecewise affine); the divergence is recorded in the metadata."""
    width, height, pixels = parse_ppm(ppm_text)
    K, tri_pixel = image_complex(width, height)
    mesh = BaseMesh(IMAGE_BASE_VERTICES, [(0, 1, 2)])
    # base corner order: (0,0) blue, (1,0) red, (0,1) green
    channel_of_corner = (2, 0, 1)
    values: List[Optional[List[Fraction]]] = [None] * K.n
    # each triangle lowers the per-corner minima of itself and its faces
    for tri, pix_idx in tri_pixel.items():
        own = [Fraction(pixels[pix_idx][ch]) for ch in channel_of_corner]
        a, b, c = tri
        for face in (tri, (a,), (b,), (c,), (a, b), (a, c), (b, c)):
            i = K.index_of[face]
            row = values[i]
            values[i] = own if row is None else [min(x, y) for x, y in zip(row, own)]
    for s, row in zip(K.simplices, values):
        if row is None:
            raise InvariantError(f"simplex {s} has no 2-simplex coface")
    fib = PLFibration(K, mesh, values)
    metadata = {
        "generator": "image",
        "width": width,
        "height": height,
        "note": ("lower-simplex values are the per-corner minima of coface "
                 "channel values; this matches the pointwise min of coface "
                 "averages at the base corners (1,0), (0,1), (0,0) but is "
                 "affine at interior weights where the pointwise min need "
                 "not be"),
    }
    return fib, metadata
