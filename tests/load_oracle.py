"""A slow, independent reading of a fibration file: the oracle for
`serialize.fibration_from_json`, `SimplicialComplex` and `TriangleTable`.

It canonicalises every simplex twice (once to list it, once more in the
structural check), parses every values key as a simplex id and every value
literal where it stands, checks monotonicity per mesh vertex on `Fraction`s,
and computes each triangle-table row as a sum over the three corners. Every
check raises the `ValidationError` text the loader raises, in the same
order. It builds no `PLFibration` or `SimplicialComplex`, whose constructors
are what it checks.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, List

from pdbundle.complexes import (
    ValidationError,
    as_fraction,
    canonical_simplex,
    facets,
    parse_simplex_id,
    simplex_id,
)
from pdbundle.stratify import BaseMesh


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise ValidationError(f"{where}: {key!r} must be {kind.__name__}")
    return val


def structure_problems(simplices) -> List[str]:
    """Duplicate, missing-face and face-order violations of a listing."""
    listed = [canonical_simplex(s) for s in simplices]
    problems: List[str] = []
    index_of: Dict = {}
    for i, s in enumerate(listed):
        if s in index_of:
            problems.append(f"duplicate simplex {simplex_id(s)} at positions "
                            f"{index_of[s]} and {i}")
        else:
            index_of[s] = i
    for i, s in enumerate(listed):
        for f in facets(s):
            j = index_of.get(f)
            if j is None:
                problems.append(f"missing face {simplex_id(f)} of {simplex_id(s)}")
            elif j > i:
                problems.append(f"face {simplex_id(f)} listed after coface "
                                f"{simplex_id(s)}")
    return problems


def triangle_table(corners, values):
    """(edges, rows, den, corner_values) of the table on one triangle, each
    row a sum over the corners of corner value times edge form."""
    scale = math.lcm(*(c.denominator for p in corners for c in p))
    q = [(x.numerator * (scale // x.denominator),
          y.numerator * (scale // y.denominator)) for x, y in corners]
    edges = tuple(
        ((iy - jy) * scale, (jx - ix) * scale, (jy - iy) * ix - (jx - ix) * iy)
        for (ix, iy), (jx, jy) in ((q[1], q[2]), (q[2], q[0]), (q[0], q[1])))
    area2 = sum(e[2] for e in edges)
    vscale = math.lcm(*(v.denominator for row in values for v in row))
    corner_values = [tuple(v.numerator * (vscale // v.denominator) for v in row)
                     for row in values]
    rows = [tuple(sum(v * e[m] for v, e in zip(row, edges)) for m in range(3))
            for row in corner_values]
    den = vscale * area2
    g = math.gcd(den, *(x for row in rows for x in row))
    return edges, [(a // g, b // g, c // g) for a, b, c in rows], den // g, corner_values


def oracle_fibration(obj):
    """The fibration `obj` describes, as plain data: simplices, index_of,
    facet_pairs, mesh, values (rows of Fractions) and tables (one
    `triangle_table` per base triangle). Raises ValidationError as the
    loader does."""
    complex_obj = _require(obj, "complex", dict, "fibration")
    listed = [canonical_simplex(s)
              for s in _require(complex_obj, "simplices", list, "complex")]
    problems = structure_problems(listed)
    if problems:
        raise ValidationError("; ".join(problems))
    index_of = {s: i for i, s in enumerate(listed)}
    mesh_obj = _require(obj, "mesh", dict, "fibration")
    mesh = BaseMesh(_require(mesh_obj, "vertices", list, "mesh"),
                    _require(mesh_obj, "triangles", list, "mesh"))
    values_obj = _require(obj, "values", dict, "fibration")
    rows: List = [[] for _ in listed]
    named: Dict[int, str] = {}
    for sid, row in values_obj.items():
        i = index_of.get(parse_simplex_id(sid))
        if i is None:
            raise ValidationError(f"values name unknown simplex {sid!r}")
        if i in named:
            raise ValidationError(f"values name simplex {simplex_id(listed[i])} "
                                  f"twice: {named[i]!r} and {sid!r}")
        named[i] = sid
        if not isinstance(row, list):
            raise ValidationError(f"values for {sid!r} must be a list")
        rows[i] = [as_fraction(x) for x in row]
    if len(named) != len(listed):
        raise ValidationError("fibration values missing for some simplices")
    for row in rows:
        if len(row) != len(mesh.vertices):
            raise ValidationError("value row length != number of mesh vertices")
    for v in range(len(mesh.vertices)):
        for i, s in enumerate(listed):
            for f in facets(s):
                j = index_of[f]
                if rows[j][v] > rows[i][v]:
                    raise ValidationError(
                        f"non-monotone at mesh vertex {v}: f({simplex_id(f)}) = "
                        f"{rows[j][v]} > {rows[i][v]} = f({simplex_id(s)})")
    tables = [triangle_table(mesh.corners(t), [(r[a], r[b], r[c]) for r in rows])
              for t, (a, b, c) in enumerate(mesh.triangles)]
    facet_pairs = tuple((index_of[f], i) for i, s in enumerate(listed)
                        for f in facets(s))
    return SimpleNamespace(simplices=tuple(listed), index_of=index_of,
                           facet_pairs=facet_pairs, mesh=mesh, values=rows,
                           tables=tables)
