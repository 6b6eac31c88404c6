"""`canonical_dumps` against its oracle, the standard library encoder with
the same options, and the builders that hand it shared lists."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pdbundle.serialize import canonical_dumps, sheaf_to_json, stratification_to_json
from pdbundle.sheaf import build_sheaf
from pdbundle.stratify import build_stratification


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
