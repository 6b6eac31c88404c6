"""JSON file formats and canonical serialization.

Rationals are serialized as strings in lowest terms with positive denominator
('3/4', '-2', '0'); infinite deaths as the literal 'inf'. JSON is emitted with
sorted keys so equal inputs produce byte-identical outputs.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import (
    SimplicialComplex,
    ValidationError,
    as_fraction,
    parse_simplex_id,
    simplex_id,
)
from .persistence import Element, PairSet, diagrams_by_degree
from .sheaf import CellularSheaf, MonodromyReport, SheafSection
from .stratify import BaseMesh, Cell, PLFibration, Stratification


def format_rational(x) -> str:
    return str(as_fraction(x))


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise ValidationError(f"{where}: {key!r} must be {kind.__name__}")
    return val


# -- complexes --------------------------------------------------------------

def complex_to_json(K: SimplicialComplex) -> Dict:
    return {"simplices": [list(s) for s in K.simplices]}


def complex_from_json(obj: Dict) -> SimplicialComplex:
    simplices = _require(obj, "simplices", list, "complex")
    return SimplicialComplex(simplices)


def values_map_from_json(obj: Dict, K: SimplicialComplex) -> List[Fraction]:
    if not isinstance(obj, dict):
        raise ValidationError("values must be a map from simplex id to rational")
    values: List[Optional[Fraction]] = [None] * K.n
    for sid, raw in obj.items():
        s = parse_simplex_id(sid)
        i = K.index_of.get(s)
        if i is None:
            raise ValidationError(f"values name unknown simplex {sid!r}")
        values[i] = as_fraction(raw)
    missing = [simplex_id(K.simplices[i]) for i, v in enumerate(values) if v is None]
    if missing:
        raise ValidationError(f"values missing for simplices: {', '.join(missing)}")
    return values  # type: ignore[return-value]


def filtered_complex_from_json(obj: Dict) -> Tuple[SimplicialComplex, List[Fraction]]:
    K = complex_from_json(obj)
    values = values_map_from_json(_require(obj, "values", dict, "input"), K)
    return K, values


# -- fibrations --------------------------------------------------------------

def fibration_to_json(fib: PLFibration, metadata: Optional[Dict] = None) -> Dict:
    obj = {
        "complex": complex_to_json(fib.complex),
        "mesh": {
            "vertices": [[format_rational(x), format_rational(y)]
                         for x, y in fib.mesh.vertices],
            "triangles": [list(t) for t in fib.mesh.triangles],
        },
        "values": {
            simplex_id(s): [format_rational(v) for v in fib.values[i]]
            for i, s in enumerate(fib.complex.simplices)
        },
    }
    if metadata is not None:
        obj["metadata"] = metadata
    return obj


def fibration_from_json(obj: Dict) -> PLFibration:
    K = complex_from_json(_require(obj, "complex", dict, "fibration"))
    mesh_obj = _require(obj, "mesh", dict, "fibration")
    mesh = BaseMesh(_require(mesh_obj, "vertices", list, "mesh"),
                    _require(mesh_obj, "triangles", list, "mesh"))
    values_obj = _require(obj, "values", dict, "fibration")
    rows: List[List[Fraction]] = [[] for _ in range(K.n)]
    seen = set()
    for sid, row in values_obj.items():
        s = parse_simplex_id(sid)
        i = K.index_of.get(s)
        if i is None:
            raise ValidationError(f"values name unknown simplex {sid!r}")
        if not isinstance(row, list):
            raise ValidationError(f"values for {sid!r} must be a list")
        rows[i] = [as_fraction(x) for x in row]
        seen.add(i)
    if len(seen) != K.n:
        raise ValidationError("fibration values missing for some simplices")
    return PLFibration(K, mesh, rows)


# -- elements, diagrams, cells ------------------------------------------------

def element_to_json(K: SimplicialComplex, e: Element) -> List[str]:
    b, d = e
    return [simplex_id(K.simplices[b]),
            "inf" if d is None else simplex_id(K.simplices[d])]


def elements_to_json(K: SimplicialComplex, elements) -> List[List[str]]:
    return sorted(element_to_json(K, e) for e in elements)


def pairset_to_json(K: SimplicialComplex, pairs: PairSet) -> List[List[str]]:
    return elements_to_json(K, pairs.elements())


def mapping_to_json(K: SimplicialComplex,
                    mapping: Mapping[Element, Element]) -> List[List[List[str]]]:
    """A bijection of pair-set elements as sorted [element, image] pairs."""
    return sorted([element_to_json(K, e), element_to_json(K, img)]
                  for e, img in mapping.items())


def diagrams_to_json(K: SimplicialComplex, pairs: PairSet,
                     values: Sequence) -> Dict:
    degrees = {}
    for q, dg in diagrams_by_degree(pairs, K, values).items():
        degrees[str(q)] = {
            "points": [[format_rational(b),
                        "inf" if d is None else format_rational(d)]
                       for b, d in dg.points],
        }
    return {
        "degrees": degrees,
        "pairs": pairset_to_json(K, pairs),
    }


def point_to_json(p) -> List[str]:
    return [format_rational(p[0]), format_rational(p[1])]


def cell_to_json(cell: Cell, stalk_json: List[List[str]]) -> Dict:
    return {
        "id": cell.id,
        "dim": cell.dim,
        "triangles": list(cell.triangles),
        "geometry": [[point_to_json(p) for p in piece] for piece in cell.pieces],
        "representative_point": point_to_json(cell.rep),
        "pairs": stalk_json,
    }


def stratification_to_json(strat: Stratification) -> Dict:
    K = strat.fib.complex
    return {
        "cells": [cell_to_json(cell, pairset_to_json(K, strat.cell_pairs(cell.id)))
                  for cell in strat.cells],
        "face_relations": sorted(
            [f, c.id] for c in strat.cells for f in strat.faces_of(c.id)),
    }


# -- sheaf, sections, monodromy ----------------------------------------------

def sheaf_to_json(sheaf: CellularSheaf) -> Dict:
    K = sheaf.fib.complex
    vertices = []
    for cell in sheaf.strat.cells:
        vertices.append({
            "cell": cell.id,
            "dim": cell.dim,
            "representative_point": point_to_json(cell.rep),
            "stalk": elements_to_json(K, sheaf.stalks[cell.id]),
        })
    edges = []
    for (face, coface) in sheaf.edges():
        edges.append({
            "face": face,
            "coface": coface,
            "morphism": mapping_to_json(K, sheaf.morphisms[(face, coface)]),
        })
    return {
        "degree": sheaf.degree,
        "vertices": vertices,
        "edges": edges,
    }


def section_to_json(K: SimplicialComplex, section: SheafSection) -> Dict:
    return {
        "assignment": sorted(
            [[cid, element_to_json(K, e)] for cid, e in section.assignment.items()]),
    }


def sections_to_json(sheaf: CellularSheaf, sections: List[SheafSection],
                     components: List[List[int]]) -> Dict:
    K = sheaf.fib.complex
    per_component = [sum(1 for s in sections if s.scope == frozenset(comp))
                     for comp in components]
    count = 1
    for c in per_component:
        count *= c
    return {
        "degree": sheaf.degree,
        "components": components,
        "sections": [section_to_json(K, s) for s in sections],
        "sections_per_component": per_component,
        "global_section_count": count,
    }


def monodromy_to_json(sheaf: CellularSheaf, report: MonodromyReport) -> Dict:
    K = sheaf.fib.complex
    loops = []
    for loop in report.loops:
        loops.append({
            "zero_cell": loop.zero_cell,
            "cell_cycle": loop.cycle,
            "permutation": mapping_to_json(K, loop.permutation),
            "nontrivial": loop.nontrivial,
        })
    return {
        "degree": sheaf.degree,
        "loops": loops,
        "nontrivial_loop_count": sum(1 for l in loops if l["nontrivial"]),
        "obstructed_seeds": sorted(
            [cid, element_to_json(K, e)] for cid, e in report.obstructed_seeds),
    }


def vines_to_csv(K: SimplicialComplex, vines) -> str:
    """CSV export with columns vine_id, t, birth, death; infinite deaths are
    the literal inf."""
    lines = ["vine_id,t,birth,death"]
    for vid, vine in enumerate(vines):
        for t, b, d in vine.samples:
            death = "inf" if d is None else repr(float(d))
            lines.append(f"{vid},{repr(float(t))},{repr(float(b))},{death}")
    return "\n".join(lines) + "\n"
