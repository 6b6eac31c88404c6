"""`canonical_dumps` against its oracle, the standard library encoder with
the same options; the builders that hand it shared lists; the sections
document against the per-section builder it replaced; and the streaming
writers against `canonical_dumps` of the builders and against the oracle."""
import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import etale_oracle
import pdbundle.cli
from pdbundle.cli import main
from pdbundle.complexes import SimplicialComplex
from pdbundle.serialize import (canonical_dumps, fibration_to_json, monodromy_to_json,
                                sections_to_json, sheaf_to_json, stratification_to_json,
                                write_monodromy, write_sections, write_sheaf,
                                write_stratification)
from pdbundle.sheaf import (build_sheaf, bundle_section, monodromy_scan,
                            sections_by_component)
from pdbundle.stratify import BaseMesh, PLFibration, build_stratification, merge_cells

from conftest import MESHES, mono_fibration, random_fibration


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


def written(writer, *args) -> str:
    parts = []
    writer(*args, parts.append)
    return "".join(parts)


def check_writers(strat, degree) -> dict:
    """Each writer's text against `canonical_dumps` of its builder's
    document and against the standard library encoder; returns the
    documents by writer."""
    sheaf = build_sheaf(strat, degree)
    by_component = sections_by_component(sheaf)
    checks = [bundle_section(sheaf, c) for c in by_component for _ in c[2]]
    sections = sections_to_json(sheaf, by_component)
    sections["continuity_checks_per_section"] = checks
    report = monodromy_scan(sheaf)
    docs = {
        "stratify": (written(write_stratification, strat),
                     stratification_to_json(strat)),
        "sheaf": (written(write_sheaf, sheaf), sheaf_to_json(sheaf)),
        "sections": (written(write_sections, sheaf, by_component, checks), sections),
        "monodromy": (written(write_monodromy, sheaf, report),
                      monodromy_to_json(sheaf, report)),
    }
    for name, (text, doc) in docs.items():
        assert text == canonical_dumps(doc), (name, degree)
        assert text == oracle_dumps(doc), (name, degree)
    return {name: doc for name, (_, doc) in docs.items()}


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       degree=st.sampled_from([None, 0, 1]), merged=st.booleans())
def test_writers_match_builders(seed, mesh, degree, merged):
    strat = build_stratification(random_fibration(random.Random(seed), mesh))
    check_writers(merge_cells(strat) if merged else strat, degree)


@pytest.mark.parametrize("degree", [None, 0, 1])
def test_writers_on_merged_monodromy_cells(mono_fib, degree):
    """Merged cells of several pieces and triangles; at degree 1 a
    nontrivial loop and obstructed seeds."""
    docs = check_writers(merge_cells(build_stratification(mono_fib)), degree)
    cells = docs["stratify"]["cells"]
    assert any(len(c["geometry"]) > 1 for c in cells)
    assert any(len(c["triangles"]) > 1 for c in cells)
    if degree == 1:
        assert docs["monodromy"]["nontrivial_loop_count"] > 0
        assert docs["monodromy"]["obstructed_seeds"]


def test_writers_on_empty_lists():
    """Empty pair sets and stalks, no sections, no loops and no obstructed
    seeds: an empty complex, and a complex with no pair of degree 2."""
    mesh = BaseMesh([(0, 0), (4, 0), (0, 4)], [(0, 1, 2)])
    empty = build_stratification(PLFibration(SimplicialComplex([]), mesh, []))
    for degree in (None, 0):
        docs = check_writers(empty, degree)
        assert all(c["pairs"] == [] for c in docs["stratify"]["cells"])
        assert all(v["stalk"] == [] for v in docs["sheaf"]["vertices"])
        assert docs["sections"]["sections"] == []
        assert docs["monodromy"]["loops"] == []
        assert docs["monodromy"]["obstructed_seeds"] == []
    docs = check_writers(build_stratification(mono_fibration()), 2)
    assert all(e["morphism"] == [] for e in docs["sheaf"]["edges"])
    assert all(loop["permutation"] == [] for loop in docs["monodromy"]["loops"])


class Chunks(io.StringIO):
    """stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_output_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    """Every streamed command gives the same bytes, to stdout and to
    --output, whether its text goes out in chunks of a few characters or
    of a mebibyte, and no chunk is longer than CHUNK_CHARS."""
    mono = tmp_path / "mono.json"
    mono.write_text(canonical_dumps(fibration_to_json(mono_fibration())),
                    encoding="utf-8")
    commands = [["stratify"], ["stratify", "--merge-cells"]] + [
        [cmd, "--degree", degree] for cmd in ("sheaf", "sections", "monodromy")
        for degree in ("1", "all")]

    def outputs():
        texts = []
        for argv in commands:
            out = Chunks()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--input", str(mono)]) == 0
            assert max(out.sizes) <= pdbundle.cli.CHUNK_CHARS
            target = tmp_path / "out.json"
            assert main(argv + ["--input", str(mono), "--output", str(target)]) == 0
            assert target.read_text(encoding="utf-8") == out.getvalue()
            texts.append(out.getvalue())
        return texts

    default = outputs()
    assert max(map(len, default)) < pdbundle.cli.CHUNK_CHARS
    for chunk in (1, 3, 64):
        monkeypatch.setattr(pdbundle.cli, "CHUNK_CHARS", chunk)
        assert outputs() == default
