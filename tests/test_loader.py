"""`fibration_from_json` against its oracle (`load_oracle.py`): on valid
fibrations the same complex, mesh, values and triangle tables; on mutated
ones the same `ValidationError` text, and at the CLI exit 1 with one
`error:` line."""
import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pdbundle.cli import main
from pdbundle.complexes import (
    SimplicialComplex,
    ValidationError,
    as_fraction,
    facets,
    parse_simplex_id,
    simplex_id,
)
from pdbundle.serialize import fibration_from_json

from conftest import MESHES
from load_oracle import oracle_fibration

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4]))
steps = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1),
                         Fraction(3, 4), Fraction(2, 3), Fraction(5)])


@st.composite
def literals(draw, x: Fraction):
    """One JSON spelling of x: an int, a float, or a string in lowest terms,
    not in lowest terms, padded, or as a decimal."""
    spellings = [str(x), f"{2 * x.numerator}/{2 * x.denominator}", f" {x} "]
    if x.denominator == 1:
        spellings += [x.numerator, f"+{x.numerator}" if x >= 0 else str(x)]
    if x.denominator & (x.denominator - 1) == 0:   # a power of two
        spellings += [float(x), repr(float(x))]
    return draw(st.sampled_from(spellings))


@st.composite
def simplex_keys(draw, s):
    """One spelling of simplex s's id: canonical, permuted, padded or with
    leading zeros."""
    order = draw(st.permutations(s))
    return draw(st.sampled_from([
        simplex_id(s), "-".join(map(str, order)), f" {simplex_id(s)}",
        "-".join(f"0{v}" for v in s)]))


@st.composite
def fibration_docs(draw):
    """A valid fibration as its JSON object: a random complex listed in a
    random face-first order with permuted vertex lists, a conftest mesh moved
    by a rational affine map, and monotone rational values in mixed
    spellings, keyed by mixed spellings of the simplex ids."""
    labels = draw(st.lists(st.integers(0, 12), min_size=2, max_size=4, unique=True))
    edges = [e for e in combinations(sorted(labels), 2) if draw(st.booleans())]
    if not edges:
        edges = [tuple(sorted(labels[:2]))]
    tris = [t for t in combinations(sorted(labels), 3)
            if set(combinations(t, 2)) <= set(edges) and draw(st.booleans())]
    remaining = [(v,) for v in sorted(labels)] + edges + tris
    listing = []
    while remaining:
        listed = set(listing)
        s = draw(st.sampled_from(
            [s for s in remaining if all(f in listed for f in facets(s))]))
        remaining.remove(s)
        listing.append(s)

    verts, tris_mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))]
    sx, sy = draw(rationals.filter(bool)), draw(rationals.filter(bool))
    shear, ox, oy = draw(rationals), draw(rationals), draw(rationals)
    coords = [(sx * x + shear * y + ox, sy * y + oy) for x, y in verts]

    index = {s: i for i, s in enumerate(listing)}
    rows = [[None] * len(coords) for _ in listing]
    for v in range(len(coords)):
        for i, s in enumerate(listing):
            below = [rows[index[f]][v] for f in facets(s)]
            rows[i][v] = (max(below) if below else draw(rationals)) + draw(steps)
    return {
        "complex": {"simplices": [list(draw(st.permutations(s))) for s in listing]},
        "mesh": {"vertices": [[draw(literals(x)), draw(literals(y))]
                              for x, y in coords],
                 "triangles": [list(t) for t in tris_mesh]},
        "values": {draw(simplex_keys(s)): [draw(literals(x)) for x in rows[i]]
                   for i, s in enumerate(listing)},
    }


def reread(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=120)
@given(fibration_docs())
def test_loader_matches_oracle(doc):
    doc = reread(doc)
    fib, want = fibration_from_json(doc), oracle_fibration(doc)
    K = fib.complex
    assert (K.simplices, K.index_of, K.facet_pairs) == (
        want.simplices, want.index_of, want.facet_pairs)
    assert fib.mesh.vertices == want.mesh.vertices
    assert fib.mesh.triangles == want.mesh.triangles
    assert fib.values == want.values
    assert all(type(x) is Fraction for row in fib.values for x in row)
    for t, table in enumerate(want.tables):
        got = fib.table(t)
        assert (got.edges, got.rows, got.den, got.corner_values) == table


MUTATIONS = ["bool", "nan", "bad literal", "bad id", "unknown id", "missing",
             "duplicate", "row length", "non-monotone"]


def mutate(doc, kind, draw):
    """doc with one defect of the given kind."""
    values = doc["values"]
    keys = list(values)
    key = draw(st.sampled_from(keys))
    column = draw(st.integers(0, len(doc["mesh"]["vertices"]) - 1))
    if kind == "bool":
        values[key][column] = draw(st.booleans())
    elif kind == "nan":
        values[key][column] = draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf")]))
    elif kind == "bad literal":
        values[key][column] = draw(st.sampled_from(
            ["1/0", "abc", "", "1//2", "0x10", "1/2/3"]))
    elif kind == "bad id":
        values[draw(st.sampled_from(["x", "", "1-1", "-1", "0--1", "1.5"]))] = [0]
    elif kind == "unknown id":
        values[draw(st.sampled_from(["99", "0-99", "98-99", "13-14-15"]))] = [0]
    elif kind == "missing":
        del values[key]
    elif kind == "duplicate":
        values[key + " "] = list(values[key])
    elif kind == "row length":
        if draw(st.booleans()):
            values[key].append("0")
        else:
            values[key].pop()
    else:   # a facet above its coface at one mesh vertex
        K = SimplicialComplex(doc["complex"]["simplices"])
        key_of = {K.index_of[parse_simplex_id(k)]: k for k in keys}
        j, i = draw(st.sampled_from(K.facet_pairs))
        below = as_fraction(values[key_of[i]][column])
        # the least integer above is a smaller numerator over a smaller
        # denominator when `below` is not an integer
        above = draw(st.sampled_from([below + 1, below + Fraction(1, 3),
                                      math.floor(below) + 1]))
        values[key_of[j]][column] = str(above)
    if draw(st.booleans()):   # the defect first or last in key order
        doc["values"] = dict(reversed(list(values.items())))
    return doc


@settings(max_examples=150)
@given(fibration_docs(), st.sampled_from(MUTATIONS), st.data())
def test_loader_rejects_as_oracle_does(doc, kind, data):
    bad = reread(mutate(reread(doc), kind, data.draw))
    with pytest.raises(ValidationError) as want:
        oracle_fibration(bad)
    with pytest.raises(ValidationError) as got:
        fibration_from_json(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("spellings", [[1, 1.0, True], ["1", 1, True],
                                       [0, 0.0, False], [1.0, True, 1]])
def test_bool_is_rejected_after_an_equal_number(spellings):
    """1, 1.0 and True hash alike, so a literal memo keyed on the raw JSON
    value would read True as 1."""
    doc = {"complex": {"simplices": [[0]]},
           "mesh": {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]]},
           "values": {"0": spellings}}
    with pytest.raises(ValidationError, match="cannot interpret (True|False)"):
        fibration_from_json(doc)


def test_non_monotone_where_bare_numerators_look_monotone():
    """f(0) = 2 > 5/3 = f(0-1) at mesh vertex 2, though 2 < 5: the loader
    compares numerators over the column's common denominator."""
    doc = {"complex": {"simplices": [[0], [1], [0, 1]]},
           "mesh": {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]]},
           "values": {"0": ["0", "1/2", "2"], "1": ["0", "0", "0"],
                      "0-1": ["1", "1", "5/3"]}}
    with pytest.raises(ValidationError) as want:
        oracle_fibration(doc)
    with pytest.raises(ValidationError) as got:
        fibration_from_json(doc)
    assert str(got.value) == str(want.value) == (
        "non-monotone at mesh vertex 2: f(0) = 2 > 5/3 = f(0-1)")


@settings(max_examples=30)
@given(fibration_docs(), st.sampled_from(MUTATIONS), st.data())
def test_cli_exits_1_on_a_mutated_fibration(doc, kind, data):
    bad = mutate(reread(doc), kind, data.draw)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stratify", "--input", path])
    assert code == 1 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")
