"""JSON file formats and canonical serialization.

Rationals are serialized as strings in lowest terms with positive denominator
('3/4', '-2', '0'); infinite deaths as the literal 'inf'. JSON is emitted with
sorted keys so equal inputs produce byte-identical outputs.

`canonical_dumps` returns exactly `json.dumps(obj, sort_keys=True, indent=2)
+ "\n"`: ASCII only, each list item and dict entry on its own line at two
spaces of indent per level, "," after every item but the last and ": " after
each key. It writes them with `str.join` instead of the standard library's
pure-Python indenting encoder.

The builders (`*_to_json`) format each distinct part of their output once.
Cells with equal pair sets or stalks, and edges with one morphism object,
share one list object; `json.dumps` writes a shared subtree as it writes a
copy, and `canonical_dumps` encodes a shared list of lists once per indent
level. Each distinct element is one `[birth, death]` list per output, and
each corner point that the cells of one base triangle share is one `[x, y]`
list, keyed by the element or by the point object, never by hashing a
`Fraction`; they are lists of strs, which `canonical_dumps` joins wherever
they occur.

The writers (`write_stratification`, `write_sheaf`, `write_sections`,
`write_monodromy`) stream the same bytes as `canonical_dumps` of the
matching builder, without building the tree: each sends its text to a write
callable one record at a time (a cell, face relation, edge, vertex,
component, section, loop or obstructed seed), every record from a fixed
key template, and formats each element, corner point, pair set or stalk
and morphism object once per indent level. What can fail is done before
the first write: the pair-set walk, which `write_stratification` runs
first, and the onto check of `build_sheaf`, the section certificates and
`monodromy_scan`, which the caller runs before it calls a writer. The
builders remain the writers' oracle.
"""
from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from .complexes import (
    SimplicialComplex,
    ValidationError,
    as_fraction,
    parse_simplex_id,
    simplex_id,
)
from .geometry import Point
from .persistence import Element, PairSet, diagrams_by_degree
from .sheaf import CellularSheaf, Component, MonodromyReport
from .stratify import BaseMesh, PLFibration, Stratification


def format_rational(x) -> str:
    return str(as_fraction(x))


_encode_str = json.encoder.encode_basestring_ascii
_INT_ONLY = {int}


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte, for
    a tree of dicts with str keys, lists, tuples, str, int, float, bool and
    None; anything else raises TypeError. A list of strs, or of ints such
    as a face relation, is one join. A list of lists that occurs more than
    once in the tree, such as the pair set that cells share, is written once
    per indent level: memoised on its id, which stays stable while the tree
    is alive."""
    return _encode(obj, "\n", {}) + "\n"


def _encode(o, nl: str, memo: Dict[Tuple[int, str], str]) -> str:
    """The canonical text of o, which starts on the line whose newline and
    indent is nl. A list of lists is memoised in memo on its id and nl, so
    memo must not outlive o."""
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if type(o[0]) is str:
            try:
                return f"[{inner}{sep.join(map(_encode_str, o))}{nl}]"
            except TypeError:   # not every item is a str
                pass
        elif type(o[0]) is int:
            if {*map(type, o)} == _INT_ONLY:   # no bool among them
                return f"[{inner}{sep.join(map(int.__repr__, o))}{nl}]"
        elif isinstance(o[0], (list, tuple)):
            key = (id(o), nl)
            text = memo.get(key)
            if text is None:
                text = memo[key] = (
                    f"[{inner}{sep.join([_encode(x, inner, memo) for x in o])}{nl}]")
            return text
        return f"[{inner}{sep.join([_encode(x, inner, memo) for x in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        inner = nl + "  "
        sep = "," + inner
        parts = []
        for k in sorted(o):
            v = o[k]
            kind = type(v)
            parts += (sep, _encode_str(k), ": ",
                      _encode_str(v) if kind is str
                      else int.__repr__(v) if kind is int else _encode(v, inner, memo))
        parts[0] = "{" + inner
        parts.append(nl + "}")
        return "".join(parts)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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


def _values_by_index(obj: Dict, K: SimplicialComplex
                     ) -> Iterator[Tuple[int, str, object]]:
    """Each entry of a values map as (simplex index, key, value), in key
    order. A key is looked up as a canonical id first and parsed only when
    that misses, so '1-0' and ' 0-1' name simplex 0-1 too. Raises on a key
    that names no simplex of K, or one that an earlier key named."""
    index_of_id = {sid: i for i, sid in enumerate(K.ids)}
    named: Dict[int, str] = {}
    for sid, raw in obj.items():
        i = index_of_id.get(sid)
        if i is None:
            i = K.index_of.get(parse_simplex_id(sid))
            if i is None:
                raise ValidationError(f"values name unknown simplex {sid!r}")
        if i in named:
            raise ValidationError(f"values name simplex {K.ids[i]} twice: "
                                  f"{named[i]!r} and {sid!r}")
        named[i] = sid
        yield i, sid, raw


def filtered_complex_from_json(obj: Dict) -> Tuple[SimplicialComplex, List[Fraction]]:
    K = complex_from_json(obj)
    values: List[Optional[Fraction]] = [None] * K.n
    for i, _, raw in _values_by_index(_require(obj, "values", dict, "input"), K):
        values[i] = as_fraction(raw)
    missing = [simplex_id(K.simplices[i]) for i, v in enumerate(values) if v is None]
    if missing:
        raise ValidationError(f"values missing for simplices: {', '.join(missing)}")
    return K, values  # type: ignore[return-value]


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
    rows: List[Optional[List[Fraction]]] = [None] * K.n
    parsed: Dict[str, Fraction] = {}   # keyed on str only: True == 1 == 1.0
    for i, sid, row in _values_by_index(values_obj, K):
        if not isinstance(row, list):
            raise ValidationError(f"values for {sid!r} must be a list")
        out = []
        for x in row:
            if type(x) is str:
                value = parsed.get(x)
                if value is None:
                    value = parsed[x] = as_fraction(x)
            else:
                value = as_fraction(x)
            out.append(value)
        rows[i] = out
    if None in rows:
        raise ValidationError("fibration values missing for some simplices")
    return PLFibration(K, mesh, rows)


# -- elements, diagrams, cells ------------------------------------------------

def element_to_json(K: SimplicialComplex, e: Element) -> List[str]:
    b, d = e
    return [K.ids[b], "inf" if d is None else K.ids[d]]


def _once(fn: Callable, key: Optional[Callable] = None) -> Callable:
    """fn, called once per distinct key(x), or per distinct x without key;
    later calls return the first result."""
    memo: Dict = {}

    def once(x):
        k = x if key is None else key(x)
        value = memo.get(k)
        if value is None:
            value = memo[k] = fn(x)
        return value
    return once


def _shared_elements(K: SimplicialComplex) -> Callable[[Element], List[str]]:
    """`element_to_json` that builds one list per distinct element and
    returns that list wherever the element occurs again."""
    return _once(lambda e: element_to_json(K, e))


def _sorted_mapping(element: Callable[[Element], List[str]],
                    mapping: Mapping[Element, Element]) -> List[List[List[str]]]:
    return sorted([element(e), element(img)] for e, img in mapping.items())


def elements_to_json(K: SimplicialComplex, elements) -> List[List[str]]:
    """A pair set, or a stalk, as its sorted elements."""
    return sorted(map(_shared_elements(K), elements))


pairset_to_json = elements_to_json


def mapping_to_json(K: SimplicialComplex,
                    mapping: Mapping[Element, Element]) -> List[List[List[str]]]:
    """A bijection of pair-set elements as sorted [element, image] pairs."""
    return _sorted_mapping(_shared_elements(K), mapping)


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


def _shared_points() -> Callable[[Point], List[str]]:
    """`point_to_json` that builds one list per point object and returns
    that list wherever the object occurs again, as the corners that cells
    share do, across triangles too. Keyed by identity: hashing a `Fraction`
    costs more than its text. The points must outlive the returned
    function."""
    return _once(point_to_json, id)


def stratification_to_json(strat: Stratification) -> Dict:
    """The cells and face relations. Cells with equal pair sets share one
    JSON list, which `canonical_dumps` writes once; each corner point and
    each element is formatted once."""
    element = _shared_elements(strat.fib.complex)
    point = _shared_points()
    shared: Dict[PairSet, List[List[str]]] = {}
    cells = []
    for cell in strat.cells:
        pairs = strat.cell_pairs(cell.id)
        pairs_json = shared.get(pairs)
        if pairs_json is None:
            pairs_json = shared[pairs] = sorted(map(element, pairs))
        cells.append({
            "id": cell.id,
            "dim": cell.dim,
            "triangles": list(cell.triangles),
            "geometry": [[point(p) for p in piece] for piece in cell.pieces],
            "representative_point": point(cell.rep),
            "pairs": pairs_json,
        })
    return {
        "cells": cells,
        "face_relations": sorted(
            [f, c.id] for c in strat.cells for f in strat.faces_of(c.id)),
    }


# -- sheaf, sections, monodromy ----------------------------------------------

def sheaf_to_json(sheaf: CellularSheaf) -> Dict:
    """The stalks and morphisms. Cells with equal stalks share one JSON list,
    and so do edges with one morphism object (the shared identities, and
    the relations between one pair of orders), which `canonical_dumps`
    writes once; each element is formatted once."""
    element = _shared_elements(sheaf.fib.complex)
    shared: Dict[FrozenSet[Element], List[List[str]]] = {}
    vertices = []
    for cell in sheaf.strat.cells:
        stalk = sheaf.stalks[cell.id]
        stalk_json = shared.get(stalk)
        if stalk_json is None:
            stalk_json = shared[stalk] = sorted(map(element, stalk))
        vertices.append({
            "cell": cell.id,
            "dim": cell.dim,
            "representative_point": point_to_json(cell.rep),
            "stalk": stalk_json,
        })
    shared_maps: Dict[int, List[List[List[str]]]] = {}
    edges = []
    for (face, coface) in sheaf.edges():
        phi = sheaf.morphisms[(face, coface)]
        phi_json = shared_maps.get(id(phi))
        if phi_json is None:
            phi_json = shared_maps[id(phi)] = _sorted_mapping(element, phi)
        edges.append({"face": face, "coface": coface, "morphism": phi_json})
    return {
        "degree": sheaf.degree,
        "vertices": vertices,
        "edges": edges,
    }


def sections_to_json(sheaf: CellularSheaf, by_component: List[Component]) -> Dict:
    """The components and their sections, as `sections_by_component` gives
    them; each section, the root x, as its [cell, gauges[cell][x]]
    assignment, by cell. Each element is formatted once."""
    element = _shared_elements(sheaf.fib.complex)
    per_component = [len(roots) for _, _, roots in by_component]
    return {
        "degree": sheaf.degree,
        "components": [cells for cells, _, _ in by_component],
        "sections": [{"assignment": [[c, element(gauges[c][x])] for c in cells]}
                     for cells, gauges, roots in by_component for x in roots],
        "sections_per_component": per_component,
        "global_section_count": math.prod(per_component),
    }


def monodromy_to_json(sheaf: CellularSheaf, report: MonodromyReport) -> Dict:
    element = _shared_elements(sheaf.fib.complex)
    loops = []
    for loop in report.loops:
        loops.append({
            "zero_cell": loop.zero_cell,
            "cell_cycle": loop.cycle,
            "permutation": _sorted_mapping(element, loop.permutation),
            "nontrivial": loop.nontrivial,
        })
    return {
        "degree": sheaf.degree,
        "loops": loops,
        "nontrivial_loop_count": sum(1 for l in loops if l["nontrivial"]),
        "obstructed_seeds": sorted(
            [cid, element(e)] for cid, e in report.obstructed_seeds),
    }


# -- writers -----------------------------------------------------------------

Write = Callable[[str], None]

# the newline and indent of a line at each nesting depth
_NL = tuple("\n" + "  " * depth for depth in range(8))


def _join(texts: Iterable[str], nl: str) -> str:
    """The JSON list of the item texts, on the line at nl."""
    inner = nl + "  "
    body = ("," + inner).join(texts)
    return f"[{inner}{body}{nl}]" if body else "[]"   # an item text is never empty


def _write_list(write: Write, texts: Iterable[str], nl: str) -> None:
    """`_join(texts, nl)`, one write per item."""
    items = iter(texts)
    first = next(items, None)
    if first is None:
        write("[]")
        return
    inner = nl + "  "
    write("[" + inner + first)
    sep = "," + inner
    for text in items:
        write(sep + text)
    write(nl + "]")


def _point_text(p: Point, depth: int) -> str:
    """`point_to_json(p)` at depth; a rational's text needs no escaping."""
    nl, inner = _NL[depth], _NL[depth + 1]
    return f'[{inner}"{format_rational(p[0])}",{inner}"{format_rational(p[1])}"{nl}]'


def _element_text(K: SimplicialComplex, depth: int) -> Callable[[Element], str]:
    return _once(lambda e: _encode(element_to_json(K, e), _NL[depth], {}))


def _elements_text(K: SimplicialComplex, depth: int) -> Callable:
    """The text of a pair set or stalk at depth, as `elements_to_json`
    gives it."""
    order = _shared_elements(K)
    element = _element_text(K, depth + 1)
    return lambda elements: _join(map(element, sorted(elements, key=order)), _NL[depth])


def _mapping_text(K: SimplicialComplex, depth: int) -> Callable:
    """The text of a bijection of elements at depth, as `mapping_to_json`
    gives it."""
    order = _shared_elements(K)
    element = _element_text(K, depth + 2)
    pair, inner = _NL[depth + 1], _NL[depth + 2]
    return lambda mapping: _join(
        [f"[{inner}{element(e)},{inner}{element(img)}{pair}]"
         for e, img in sorted(mapping.items(), key=lambda item: order(item[0]))],
        _NL[depth])


def write_stratification(strat: Stratification, write: Write) -> None:
    """`canonical_dumps(stratification_to_json(strat))`, one cell and one
    face relation a write; the pair-set walk runs before the first."""
    pair_set = _once(_elements_text(strat.fib.complex, 3))
    pairs = [pair_set(strat.cell_pairs(c.id)) for c in strat.cells]
    corner = _once(lambda p: _point_text(p, 5), id)
    triangles = _once(lambda ts: _encode(list(ts), _NL[3], {}))

    def geometry(pieces) -> str:
        return _join([_join(map(corner, piece), _NL[4]) for piece in pieces], _NL[3])

    write('{\n  "cells": ')
    _write_list(write, (
        f'{{\n      "dim": {c.dim},\n      "geometry": {geometry(c.pieces)},\n'
        f'      "id": {c.id},\n      "pairs": {p},\n'
        f'      "representative_point": {_point_text(c.rep, 3)},\n'
        f'      "triangles": {triangles(c.triangles)}\n    }}'
        for c, p in zip(strat.cells, pairs)), _NL[1])
    write(',\n  "face_relations": ')
    # the cells are in id order, so the relations come sorted
    _write_list(write, (f"[\n      {c.id},\n      {coface}\n    ]" for c in strat.cells
                        for coface in sorted(strat.cofaces_of(c.id))), _NL[1])
    write("\n}\n")


def write_sheaf(sheaf: CellularSheaf, write: Write) -> None:
    """`canonical_dumps(sheaf_to_json(sheaf))`, one edge and one vertex a
    write."""
    K = sheaf.fib.complex
    morphism = _once(_mapping_text(K, 3), id)
    stalk = _once(_elements_text(K, 3))
    morphisms, stalks = sheaf.morphisms, sheaf.stalks
    write(f'{{\n  "degree": {_encode(sheaf.degree, _NL[1], {})},\n  "edges": ')
    _write_list(write, (
        f'{{\n      "coface": {coface},\n      "face": {face},\n'
        f'      "morphism": {morphism(morphisms[face, coface])}\n    }}'
        for face, coface in sheaf.edges()), _NL[1])
    write(',\n  "vertices": ')
    _write_list(write, (
        f'{{\n      "cell": {c.id},\n      "dim": {c.dim},\n'
        f'      "representative_point": {_point_text(c.rep, 3)},\n'
        f'      "stalk": {stalk(stalks[c.id])}\n    }}'
        for c in sheaf.strat.cells), _NL[1])
    write("\n}\n")


def write_sections(sheaf: CellularSheaf, by_component: List[Component],
                   checks: List[int], write: Write) -> None:
    """`canonical_dumps` of `sections_to_json(sheaf, by_component)` with
    `checks` as its "continuity_checks_per_section", one component and one
    section a write."""
    element = _element_text(sheaf.fib.complex, 5)
    per_component = [len(roots) for _, _, roots in by_component]
    write('{\n  "components": ')
    _write_list(write, (_encode(cells, _NL[2], {}) for cells, _, _ in by_component),
                _NL[1])
    write(f',\n  "continuity_checks_per_section": {_encode(checks, _NL[1], {})},\n'
          f'  "degree": {_encode(sheaf.degree, _NL[1], {})},\n'
          f'  "global_section_count": {math.prod(per_component)},\n  "sections": ')

    def sections() -> Iterator[str]:
        for cells, gauges, roots in by_component:
            heads = [f"[\n          {c},\n          " for c in cells]
            for x in roots:
                rows = _join([head + element(gauges[c][x]) + "\n        ]"
                              for c, head in zip(cells, heads)], _NL[3])
                yield f'{{\n      "assignment": {rows}\n    }}'
    _write_list(write, sections(), _NL[1])
    write(f',\n  "sections_per_component": {_encode(per_component, _NL[1], {})}\n}}\n')


def write_monodromy(sheaf: CellularSheaf, report: MonodromyReport,
                    write: Write) -> None:
    """`canonical_dumps(monodromy_to_json(sheaf, report))`, one loop and one
    obstructed seed a write."""
    K = sheaf.fib.complex
    permutation = _mapping_text(K, 3)
    write(f'{{\n  "degree": {_encode(sheaf.degree, _NL[1], {})},\n  "loops": ')
    _write_list(write, (
        f'{{\n      "cell_cycle": {_encode(loop.cycle, _NL[3], {})},\n'
        f'      "nontrivial": {"true" if loop.nontrivial else "false"},\n'
        f'      "permutation": {permutation(loop.permutation)},\n'
        f'      "zero_cell": {loop.zero_cell}\n    }}'
        for loop in report.loops), _NL[1])
    order, element = _shared_elements(K), _element_text(K, 3)
    write(f',\n  "nontrivial_loop_count": '
          f'{sum(1 for loop in report.loops if loop.nontrivial)},\n'
          f'  "obstructed_seeds": ')
    seeds = sorted(report.obstructed_seeds, key=lambda seed: (seed[0], order(seed[1])))
    _write_list(write, (f"[\n      {cid},\n      {element(e)}\n    ]" for cid, e in seeds),
                _NL[1])
    write("\n}\n")


def vines_to_csv(K: SimplicialComplex, vines) -> str:
    """CSV export with columns vine_id, t, birth, death; infinite deaths are
    the literal inf. A value is the float nearest to it: the numerator over
    the sample's denominator in int true division, which rounds correctly
    (and so equals float() of the reduced Fraction). The vines of a path
    share their params and their values, so each param, and each distinct
    value of a sample, is formatted once. A param or a value too large for a
    float raises ValidationError: a param naming the first vine that has it,
    a value naming the first row, and in it the birth before the death, that
    holds one."""
    lines = ["vine_id,t,birth,death"]
    params = values = None
    for vid, vine in enumerate(vines):
        if vine.params is not params:
            params, ts = vine.params, [_param_text(vid, t) for t in vine.params]
        if vine.values is not values:
            values = vine.values
            texts = [_value_texts(nums, den) for nums, den in values]
        for t, text, (nums, den), (b, d) in zip(ts, texts, values, vine.labels):
            birth = text[nums[b]]
            death = "inf" if d is None else text[nums[d]]
            if birth is None or death is None:
                v = nums[b if birth is None else d]
                raise ValidationError(
                    f"vine {vid} at t={t}: value {Decimal(v) / den:.17g} "
                    f"is too large for a float")
            lines.append(f"{vid},{t},{birth},{death}")
    return "\n".join(lines) + "\n"


def _param_text(vid: int, t) -> str:
    """repr(float(t)), or ValidationError when t is too large for a float."""
    try:
        return repr(float(t))
    except OverflowError:
        t = Fraction(t)
        raise ValidationError(
            f"vine {vid}: param {Decimal(t.numerator) / t.denominator:.17g} "
            f"is too large for a float") from None


def _value_texts(nums: Sequence[int], den: int) -> Dict[int, Optional[str]]:
    """repr(v / den) of each distinct numerator v of one sample, or None where
    the value is too large for a float."""
    texts: Dict[int, Optional[str]] = {}
    for v in set(nums):
        try:
            texts[v] = repr(v / den)
        except OverflowError:
            texts[v] = None
    return texts
