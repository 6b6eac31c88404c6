"""`canonical_dumps` against its oracle, the standard library encoder with
the same options; the builders that hand it shared lists; and the sections
document against the per-section builder it replaced."""
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import etale_oracle
from pdbundle.serialize import (canonical_dumps, sections_to_json, sheaf_to_json,
                                stratification_to_json)
from pdbundle.sheaf import build_sheaf, sections_by_component
from pdbundle.stratify import build_stratification, merge_cells

from conftest import MESHES, random_fibration


def oracle_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, DEL and non-ASCII text
texts = st.text(st.one_of(st.sampled_from('"\\/\n\t\r\x00\x1f\x7f'),
                          st.characters()), max_size=8)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(-2 ** 130, 2 ** 130), st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    texts)


def containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(texts, children, max_size=4))


trees = st.recursive(scalars, containers, max_leaves=12)


@st.composite
def shared_trees(draw):
    """A random tree holding one list of lists at two or more depths; the
    deeper occurrence comes first or last in key order, as drawn."""
    shared = draw(st.lists(st.lists(scalars, min_size=1, max_size=3),
                           min_size=1, max_size=3))
    deeper = shared
    for _ in range(draw(st.integers(1, 3))):
        deeper = draw(st.sampled_from([[deeper], (deeper, 0), {"k": deeper}]))
    first, last = draw(st.permutations(["a", "b"]))
    return {first: shared, last: [deeper, shared], "rest": draw(trees)}


@settings(max_examples=200)
@given(trees)
@example([True, 1, 0, False, 2 ** 70, -(2 ** 70), 1.0, "1"])
@example([[1, True], [0, 2 ** 70], [3, 1.0], ["a", 1], [2, None]])
@example({"a": True, "b": 1, "c": "x", "d": 1.5, "e": [0, False]})
def test_canonical_dumps_matches_oracle(obj):
    assert canonical_dumps(obj) == oracle_dumps(obj)


@settings(max_examples=100)
@given(shared_trees())
def test_canonical_dumps_shared_list_matches_oracle(obj):
    assert canonical_dumps(obj) == oracle_dumps(obj)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {None: 0}, {True: 0}, {1.5: 0}, {("a",): 0}, {"a": 0, 2: 0},
    [{"ok": {3: 0}}], Fraction(1, 2), [set()], {"a": b"bytes"}, [object()],
    (1, complex(1, 2)),
])
def test_canonical_dumps_rejects_unsupported_values(obj):
    with pytest.raises(TypeError):
        canonical_dumps(obj)


def test_cells_share_one_list_per_pair_set(mono_fib):
    strat = build_stratification(mono_fib)
    cells = stratification_to_json(strat)["cells"]
    pair_sets = [strat.cell_pairs(c.id) for c in strat.cells]
    assert len({id(c["pairs"]) for c in cells}) == len(set(pair_sets)) < len(cells)
    vertices = sheaf_to_json(build_sheaf(strat, degree=1))["vertices"]
    assert len({id(v["stalk"]) for v in vertices}) == len(
        {p.elements_of_degree(strat.fib.complex, 1) for p in pair_sets})
    # one list per distinct element, and per corner point, across the eight
    # triangles too
    for lists in ([e for c in cells for e in c["pairs"]],
                  [e for v in vertices for e in v["stalk"]]):
        assert len({id(e) for e in lists}) == len({tuple(e) for e in lists})
    assert len(mono_fib.mesh.triangles) == 8
    shared, across = {}, set()
    for c in cells:
        for piece in c["geometry"]:
            for point in piece:
                assert shared.setdefault(tuple(point), point) is point
                if len(c["triangles"]) == 1:
                    across.add((tuple(point), c["triangles"][0]))
    assert len(shared) < len(across) < sum(
        len(piece) for c in cells for piece in c["geometry"])


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       degree=st.sampled_from([None, 0, 1]), merged=st.booleans())
def test_sections_to_json_matches_per_section_builder(seed, mesh, degree, merged):
    """Each section written off its component's gauges and root, against the
    sorted assignment of one `SheafSection` per section of the étalé walk,
    byte for byte, on random fibrations, merged or not."""
    strat = build_stratification(random_fibration(random.Random(seed), mesh))
    if merged:
        strat = merge_cells(strat)
    sheaf = build_sheaf(strat, degree)
    want = etale_oracle.sections_to_json(sheaf, etale_oracle.sections_by_component(sheaf))
    assert canonical_dumps(sections_to_json(sheaf, sections_by_component(sheaf))) == (
        canonical_dumps(want))
