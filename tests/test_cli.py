import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pdbundle
from pdbundle.cli import build_parser, main
from pdbundle.complexes import SimplicialComplex
from pdbundle.serialize import (
    canonical_dumps,
    complex_from_json,
    complex_to_json,
    fibration_from_json,
    fibration_to_json,
)

F = Fraction


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(canonical_dumps(obj) if isinstance(obj, (dict, list)) else obj,
                 encoding="utf-8")
    return str(p)


# the monodromy complex filtered as at one base point with two degree-1 points
Q1_COMPLEX = {
    "simplices": [[0], [1], [2], [3], [1, 2], [2, 3], [0, 3],
                  [0, 1], [0, 2], [0, 1, 2], [0, 2, 3]],
    "values": {"0": "0", "1": "0", "2": "0", "3": "0", "1-2": "0",
               "2-3": "0", "0-3": "0", "0-1": "5/2", "0-2": "3/2",
               "0-1-2": "21/2", "0-2-3": "19/2"},
}


def test_ph_monodromy_q1(tmp_path, capsys):
    inp = write(tmp_path, "in.json", Q1_COMPLEX)
    code, out, err = run(["ph", "--input", inp], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["degrees"]["1"]["points"] == [["3/2", "19/2"], ["5/2", "21/2"]]
    assert ["0", "inf"] in doc["pairs"]


def test_ph_empty_and_invalid(tmp_path, capsys):
    inp = write(tmp_path, "e.json", {"simplices": [], "values": {}})
    code, out, _ = run(["ph", "--input", inp], capsys)
    assert code == 0
    assert json.loads(out)["pairs"] == []
    bad = write(tmp_path, "bad.json", {
        "simplices": [[0], [1], [0, 1]],
        "values": {"0": "5", "1": "0", "0-1": "1"},
    })
    code, _, err = run(["ph", "--input", bad], capsys)
    assert code == 1
    assert "non-monotone" in err and "0-1" in err


def test_ph_scans_the_facet_pairs_once(tmp_path, capsys, monkeypatch):
    """On valid input `ph` reads the complex's facet pairs once, to check
    monotonicity; the reduction checks the face order in its own pass."""
    scans = []
    facet_pairs = SimplicialComplex.facet_pairs

    def counted(K):
        scans.append(K)
        return facet_pairs.func(K)

    monkeypatch.setattr(SimplicialComplex, "facet_pairs", property(counted))
    code, out, err = run(["ph", "--input", write(tmp_path, "in.json", Q1_COMPLEX)],
                         capsys)
    assert code == 0, err
    assert json.loads(out)["degrees"]["1"]["points"] == [["3/2", "19/2"],
                                                         ["5/2", "21/2"]]
    assert len(scans) == 1


def test_ph_missing_face_named(tmp_path, capsys):
    bad = write(tmp_path, "bad2.json", {
        "simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 1, 2]],
        "values": {},
    })
    code, _, err = run(["ph", "--input", bad], capsys)
    assert code == 1
    assert "0-2" in err


def test_gen_monodromy_roundtrip(tmp_path, capsys):
    out_path = str(tmp_path / "mono.json")
    code, _, _ = run(["gen-monodromy", "--output", out_path], capsys)
    assert code == 0
    doc = json.loads(open(out_path).read())
    fib = fibration_from_json(doc)
    assert fib.complex.n == 11
    # round-trip is the identity on the document
    assert fibration_to_json(fib) == doc


def test_complex_roundtrip():
    obj = {"simplices": [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]}
    K = complex_from_json(obj)
    assert complex_to_json(K) == obj


def test_sections_and_monodromy_commands(tmp_path, capsys):
    mono = str(tmp_path / "mono.json")
    assert main(["gen-monodromy", "--output", mono]) == 0
    capsys.readouterr()
    code, out, _ = run(["sections", "--input", mono], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"] == []
    assert doc["global_section_count"] == 0
    code, out, _ = run(["monodromy", "--input", mono], capsys)
    doc = json.loads(out)
    assert doc["nontrivial_loop_count"] == 1
    perm = doc["loops"][0]["permutation"]
    assert [["0-1", "0-1-2"], ["0-2", "0-2-3"]] in perm
    assert [["0-2", "0-2-3"], ["0-1", "0-1-2"]] in perm
    # degree 0: sections exist (the essential component class), no monodromy
    code, out, _ = run(["sections", "--input", mono, "--degree", "0"], capsys)
    doc0 = json.loads(out)
    assert doc0["global_section_count"] == 4
    code, out, _ = run(["monodromy", "--input", mono, "--degree", "0"], capsys)
    assert json.loads(out)["nontrivial_loop_count"] == 0


def test_sheaf_command_and_merge(tmp_path, capsys):
    mono = str(tmp_path / "mono.json")
    main(["gen-monodromy", "--output", mono])
    capsys.readouterr()
    code, out, _ = run(["sheaf", "--input", mono], capsys)
    doc = json.loads(out)
    assert len(doc["vertices"]) == 33
    code, out, _ = run(["sheaf", "--input", mono, "--merge-cells"], capsys)
    doc2 = json.loads(out)
    assert len(doc2["vertices"]) == 17
    nonid = [e for e in doc2["edges"]
             if any(a != b for a, b in e["morphism"])]
    assert nonid
    # merged sheaf keeps the same sections answer
    code, out, _ = run(["sections", "--input", mono, "--merge-cells"], capsys)
    assert json.loads(out)["global_section_count"] == 0


def test_stratify_command_deterministic(tmp_path, capsys):
    mono = str(tmp_path / "mono.json")
    main(["gen-monodromy", "--output", mono])
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["stratify", "--input", mono, "--output", a]) == 0
    assert main(["stratify", "--input", mono, "--output", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    doc = json.loads(open(a).read())
    assert len(doc["cells"]) == 33
    origin = next(c for c in doc["cells"]
                  if c["representative_point"] == ["0", "0"])
    assert ["0-1", "0-2-3"] in origin["pairs"]


def test_vineyard_command_circle(tmp_path, capsys):
    mono = str(tmp_path / "mono.json")
    main(["gen-monodromy", "--output", mono])
    pts = []
    for k in range(9):
        u = k / 8
        pts.append([math.cos(2 * math.pi * u + math.pi / 4),
                    math.sin(2 * math.pi * u + math.pi / 4)])
    path = write(tmp_path, "path.json", pts)
    csv_path = str(tmp_path / "vines.csv")
    code, out, _ = run(["vineyard", "--input", mono, "--path", path,
                        "--output", csv_path], capsys)
    assert code == 0
    loop = json.loads(out)
    assert loop["nontrivial"]
    assert [["0-1", "0-1-2"], ["0-2", "0-2-3"]] in loop["loop_permutation"]
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "vine_id,t,birth,death"
    assert len(lines) == 1 + 6 * 9  # six tracked classes, nine samples
    assert any(line.endswith(",inf") for line in lines[1:])


def test_gen_instability_command(tmp_path, capsys):
    code, out, _ = run(["gen-instability", "--epsilon", "1/10", "--gap", "10"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["assertion"] == "passed"
    assert F(doc["sup_filtration_distance"]) < F(1, 10)


def test_gen_image_command(tmp_path, capsys):
    ppm = write(tmp_path, "img.ppm", "P3\n2 1 255\n10 20 30 40 50 60\n")
    out_path = str(tmp_path / "fib.json")
    code, _, _ = run(["gen-image", "--input", ppm, "--output", out_path], capsys)
    assert code == 0
    doc = json.loads(open(out_path).read())
    fib = fibration_from_json(doc)
    assert len(fib.mesh.triangles) == 1
    assert doc["metadata"]["width"] == 2
    bad = write(tmp_path, "bad.ppm", "P3\n2 1 255\n10 20\n")
    code, _, err = run(["gen-image", "--input", bad], capsys)
    assert code == 1 and "PPM" in err


# -- the exit-code contract of `gen-image` on malformed PPM text ---------------

ppm_token = st.one_of(
    st.integers(-3, 300).map(str), st.sampled_from(
        ["P3", "P6", "p3", "#", "# c", "0x1", "1.5", "1e2", "1_0", "-0", "+2",
         "\u0663", "\u00b2", "9" * 5000, "nan", ""]),
    st.text(max_size=3))


@st.composite
def ppm_texts(draw):
    """Bytes near a small valid P3 image: its tokens, some dropped, doubled
    or replaced, joined by random whitespace or comments, then maybe cut
    short or given bytes that are not UTF-8; or random text or bytes."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.text(max_size=30)).encode("utf-8", "surrogatepass")
    if kind == 1:
        return draw(st.binary(max_size=30))
    w, h, maxval = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(
        st.integers(1, 255))
    tokens = ["P3", str(w), str(h), str(maxval)] + [
        str(draw(st.integers(0, maxval))) for _ in range(3 * w * h)]
    # kind 2 may stay valid; the others are edited at least once
    for _ in range(draw(st.integers(0 if kind == 2 else 1, 3))):
        k = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.integers(0, 2))
        if how == 0:
            del tokens[k]
        elif how == 1:
            tokens.insert(k, tokens[k])
        else:
            tokens[k] = draw(ppm_token)
    text = "".join(t + draw(st.sampled_from([" ", "\n", "\t", "\r\n", " # c\n",
                                             "\x0b", "\u2028"]))
                   for t in tokens).encode("utf-8", "surrogatepass")
    if kind == 4:
        text = text[:draw(st.integers(0, len(text)))]
    if kind == 5:
        k = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from([b"\xe9", b"\xff\xfe", b"\x80"]))
        text = text[:k] + bad + text[k:]
    return text


@pytest.fixture(scope="module")
def ppm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gen-image-contract")


@settings(max_examples=200)
@given(data=ppm_texts())
def test_gen_image_on_malformed_ppm_exits_0_or_1(ppm_dir, data):
    """Exit 0 with no error output, or exit 1 with one `error:` line: never
    an uncaught exception, and never exit 2."""
    ppm = ppm_dir / "img.ppm"
    ppm.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen-image", "--input", str(ppm),
                     "--output", str(ppm_dir / "fib.json")])
    if code == 0:
        assert err.getvalue() == "", (data, err.getvalue())
    else:
        assert code == 1 and out.getvalue() == "", (data, code)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (data, lines)


def test_constant_fibration_sections_count(tmp_path, capsys):
    fib = write(tmp_path, "const.json", {
        "complex": {"simplices": [[0], [1], [0, 1]]},
        "mesh": {"vertices": [["0", "0"], ["4", "0"], ["0", "4"]],
                 "triangles": [[0, 1, 2]]},
        "values": {"0": ["0", "0", "0"], "1": ["1", "1", "1"],
                   "0-1": ["2", "2", "2"]},
    })
    # degree 0 stalk: the (1, 0-1) merge pair and the essential vertex 0
    code, out, _ = run(["sections", "--input", fib, "--degree", "0"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["global_section_count"] == 2
    code, out, _ = run(["monodromy", "--input", fib, "--degree", "0"], capsys)
    assert json.loads(out)["nontrivial_loop_count"] == 0


def test_single_crossing_two_sections(tmp_path, capsys):
    # one triangle, one trace chord: two vertices swap their order across it
    # but the pair set never changes, so both seeds extend: 2 sections
    fib = write(tmp_path, "cross.json", {
        "complex": {"simplices": [[0], [1]]},
        "mesh": {"vertices": [["0", "0"], ["4", "0"], ["0", "4"]],
                 "triangles": [[0, 1, 2]]},
        "values": {"0": ["0", "4", "0"], "1": ["2", "2", "2"]},
    })
    code, out, _ = run(["sections", "--input", fib, "--degree", "0"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["sections_per_component"] == [2]
    assert doc["global_section_count"] == 2


def test_cli_validation_exit_codes(tmp_path, capsys):
    code, _, err = run(["ph", "--input", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    mono = str(tmp_path / "mono.json")
    main(["gen-monodromy", "--output", mono])
    code, _, err = run(["sheaf", "--input", mono, "--degree", "-1"], capsys)
    assert code == 1
    code, _, err = run(["sheaf", "--input", mono, "--degree", "nope"], capsys)
    assert code == 1
    # sections has no --samples option: argparse's usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["sections", "--input", mono, "--samples", "1"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --samples 1" in out.err
    # out-of-range and malformed numeric options
    for argv in (["gen-instability", "--epsilon", "0"],
                 ["gen-instability", "--epsilon", "abc"],
                 ["gen-instability", "--gap", "-1"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "", (argv, err)
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
    # malformed simplices and numbers in a filtered complex
    for text in ('[[0], [1]]',
                 '{"simplices": [[0], [1, "x"]], "values": {"0": "0"}}',
                 '{"simplices": "ab", "values": {}}',
                 '{"simplices": [[0]], "values": {"0": 1e400}}',
                 '{"simplices": [[0.7]], "values": {"0": "0"}}'):
        code, _, err = run(["ph", "--input", write(tmp_path, "bad.json", text)],
                           capsys)
        assert code == 1 and err.startswith("error:"), (text, err)
    # malformed mesh entries in a fibration
    for key, bad in (("triangles", [0, 1, 2.7]), ("triangles", [0, 1, "x"]),
                     ("triangles", 5), ("vertices", 5), ("vertices", ["0"])):
        fib = json.loads(open(mono, encoding="utf-8").read())
        fib["mesh"][key][0] = bad
        code, _, err = run(["stratify", "--input",
                            write(tmp_path, "bad_mesh.json", fib)], capsys)
        assert code == 1 and err.startswith("error:"), (bad, err)
    # a JSON boolean is not a number: not as a path coordinate, a mesh
    # coordinate or a fibration value
    path = write(tmp_path, "bool_path.json", [[True, 0], [0, 1]])
    code, _, err = run(["vineyard", "--input", mono, "--path", path], capsys)
    assert code == 1 and "cannot interpret True" in err, err
    for where in ("vertices", "values"):
        fib = json.loads(open(mono, encoding="utf-8").read())
        if where == "vertices":
            fib["mesh"]["vertices"][0][0] = True
        else:
            fib["values"][sorted(fib["values"])[0]][0] = True
        code, _, err = run(["stratify", "--input",
                            write(tmp_path, "bool_fib.json", fib)], capsys)
        assert code == 1 and "cannot interpret True" in err, (where, err)
    # a simplex named twice in a values map, under two spellings of its id;
    # the files list their keys sorted, so the later one is reported
    for spelling in ("1-0", " 0-1"):
        twice = "error: values name simplex 0-1 twice: {!r} and {!r}\n".format(
            *sorted(["0-1", spelling]))
        fib = json.loads(open(mono, encoding="utf-8").read())
        fib["values"][spelling] = [str(int(x) + 1) for x in fib["values"]["0-1"]]
        dup = write(tmp_path, "dup.json", fib)
        for argv in (["stratify"], ["sheaf"], ["sections"], ["monodromy"],
                     ["vineyard", "--path", write(tmp_path, "p.json", [[0, 0]])]):
            code, out, err = run(argv + ["--input", dup], capsys)
            assert code == 1 and out == "" and err == twice, (spelling, argv, err)
        complex_ = dict(Q1_COMPLEX, values=dict(Q1_COMPLEX["values"]))
        complex_["values"][spelling] = "7/2"
        code, out, err = run(["ph", "--input", write(tmp_path, "dup_ph.json", complex_)],
                             capsys)
        assert code == 1 and out == "" and err == twice, (spelling, err)
    # an --output that cannot be written: in a missing directory, or a directory
    ppm = write(tmp_path, "c9.ppm", C9_3X3)
    path = write(tmp_path, "path.json", GOLDEN_PATHS["monodromy"])
    for target in (str(tmp_path / "no" / "such" / "x.out"), str(tmp_path)):
        for argv in (["stratify", "--input", mono], ["gen-image", "--input", ppm],
                     ["vineyard", "--input", mono, "--path", path],
                     ["gen-monodromy"]):
            code, out, err = run(argv + ["--output", target], capsys)
            assert code == 1 and out == "", (argv, target, err)
            assert len(err.splitlines()) == 1, (argv, target, err)
            assert err.startswith(f"error: cannot write {target}: "), (argv, err)


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    mono = str(tmp_path / "mono.json")
    main(["gen-monodromy", "--output", mono])
    for cmd in (["sections", "--input", mono],
                ["monodromy", "--input", mono],
                ["sheaf", "--input", mono, "--merge-cells"],
                ["gen-instability", "--epsilon", "1/10", "--gap", "10"]):
        capsys.readouterr()
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        second = capsys.readouterr().out
        assert first == second


# SHA-256 of stdout of `stratify` and `sheaf` (plain and --merge-cells) on the
# monodromy example and on the acceptance c9 image formula at 3×3, recorded
# before cells were cut and ordered in integers, and of `vineyard` (CSV and
# loop permutation on stdout) along a closed path on each, recorded before
# path samples were ordered in integers: both changes keep every output
# byte-identical. The digests of `sections` and `monodromy --degree all`,
# `ph` on the q1 complex, the `gen-image` file and `gen-instability` were
# recorded before `canonical_dumps` stopped calling `json.dumps`. The digests
# of `sheaf --degree 1` (plain and --merge-cells) and `monodromy --degree
# all` on the c9 image at 4×4, where 878 cell orders are shared by two or
# more cells, were recorded before the walk went over distinct orders.
def c9_ppm(n: int) -> str:
    """The acceptance c9 pixel formula as an n×n plain PPM."""
    return f"P3\n{n} {n} 31\n" + "\n".join(
        " ".join(f"{(3 * r + 2 * c) % 11} {(r * c + 7) % 13} {(r + 5 * c) % 17}"
                 for c in range(n)) for r in range(n)) + "\n"


C9_3X3 = c9_ppm(3)
GOLDEN = {
    "monodromy stratify":
        "928c5ef82639615d5a369f8483a891fb3f65a4daac3e568d89a717ef4f8eca2c",
    "monodromy sheaf":
        "c9f315f3e5e2324baaefa81edea32f6587968fd8ff1cff13fd982cbeb328aa83",
    "monodromy stratify --merge-cells":
        "9983a30baf345ccbd6cad96eadb279f5aa402a0ef88296a27297e8ccf1820236",
    "monodromy sheaf --merge-cells":
        "71935ad4a927dd2041ce317128240410de9c8131e10d3d379c6b285ec36ddfda",
    "c9-3x3 stratify":
        "cc508686ec78ba8eff779ec257334c7d91faaa6a4239595d120370b604d75c89",
    "c9-3x3 sheaf":
        "7b15de907d01955e1a3e42fb990ef4b4c09419ae4ac911a015587297e48e0f0e",
    "c9-3x3 stratify --merge-cells":
        "005cd08f0c87502ca937610a3c2fa59e0761601b298986616de33585e31a3e3c",
    "c9-3x3 sheaf --merge-cells":
        "bcf35fc6134d8e59cbf8622b8407049cb8ed452585c52e8c8dddeda4287052ec",
    "monodromy vineyard":
        "34b098145bf058b3906392d90a95684f9d264e6edf99bbfac2ceef4a77bb4d4c",
    "c9-3x3 vineyard":
        "7e40c9187df2f67e7fdbaf3a7c01ecb197c3bd507024a6cb996d008fc51a38dc",
    "monodromy sections --degree all":
        "b3210e504abcdfe81a19df5fef9c5fd2806ac3deb6fd978ebc1a94d39a68533f",
    "c9-3x3 sections --degree all":
        "48cc77409fa40bad94d7213e717b193c27e3364d1974e50495c3b57129a7679a",
    "monodromy monodromy --degree all":
        "6fb9e8c7118fa59ad24a2cc73a131f3636c8e652cc17a40202590bd5c80889b8",
    "c9-3x3 monodromy --degree all":
        "6f15c95667dbdd6719e71a656570c5780772ce848b62cf45be761e71bb8721b5",
    "q1 ph":
        "b2c139e72f87d8c0003020adb52bb7745b8eb8e83f0f3bfb48e3c8fc6d8182bd",
    "c9-3x3 gen-image":
        "01a4ec8e9e26681dad754d47ad4e91cd5119569b8c7462c494abef339d0541a6",
    "- gen-instability":
        "fbea3fb733e29331d36e0376a61af6be53df398f5d5424fbd985b8cc8f0bedde",
    "c9-4x4 sheaf --degree 1":
        "5559fc3376a43f3025e1be6738775e73a6a02bc582ce86d43c9cd980f2870912",
    "c9-4x4 sheaf --degree 1 --merge-cells":
        "5559fc3376a43f3025e1be6738775e73a6a02bc582ce86d43c9cd980f2870912",
    "c9-4x4 monodromy --degree all":
        "d6dc4673f8a1624a1a285c6a2c0bd01e0009317b1e7b3fab37e0ead1a5bf2492",
}


def square_loop(cx, cy, half, steps):
    """A closed path around the square of centre (cx, cy) and half-side
    `half`, counterclockwise from its lower-left corner, with `steps` equal
    steps per side, as JSON-ready 'p/q' strings; the first point repeats at
    the end."""
    corners = [(cx - half, cy - half), (cx + half, cy - half),
               (cx + half, cy + half), (cx - half, cy + half)]
    pts = []
    for k, (x0, y0) in enumerate(corners):
        x1, y1 = corners[(k + 1) % 4]
        pts += [(x0 + (x1 - x0) * j / steps, y0 + (y1 - y0) * j / steps)
                for j in range(steps)]
    return [[str(x), str(y)] for x, y in pts + pts[:1]]


# around the monodromy example's interior 0-cell at the origin, through the
# mesh's diagonal and axis edges; and inside the c9 image's base triangle,
# touching its hypotenuse at (1/2, 1/2)
GOLDEN_PATHS = {
    "monodromy": square_loop(F(0), F(0), F(1, 2), 8),
    "c9-3x3": square_loop(F(3, 10), F(3, 10), F(1, 5), 16),
}


def test_golden_output_digests(tmp_path, capsys):
    inputs = {"monodromy": str(tmp_path / "mono.json"),
              "c9-3x3": str(tmp_path / "c9.json"),
              "c9-4x4": str(tmp_path / "c9-4.json"),
              "q1": write(tmp_path, "q1.json", Q1_COMPLEX)}
    assert run(["gen-monodromy", "--output", inputs["monodromy"]], capsys)[0] == 0
    for name, n in (("c9-3x3", 3), ("c9-4x4", 4)):
        ppm = write(tmp_path, f"{name}.ppm", c9_ppm(n))
        assert run(["gen-image", "--input", ppm, "--output", inputs[name]],
                   capsys)[0] == 0
    got = {}
    for key in GOLDEN:
        name, *args = key.split()
        if args[0] == "gen-image":
            out = Path(inputs[name]).read_text(encoding="utf-8")
        else:
            if args[0] == "vineyard":
                args += ["--path", write(tmp_path, "path.json", GOLDEN_PATHS[name])]
            if not args[0].startswith("gen-"):
                args += ["--input", inputs[name]]
            code, out, err = run(args, capsys)
            assert code == 0 and err == ""
        got[key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == GOLDEN


def test_main_after_argparse_error_matches_fresh_process(tmp_path, capsys):
    """`main` shares one parser per process; an argparse error leaves it as
    it was, so the next call prints what a fresh process prints."""
    assert build_parser() is build_parser()
    mono = str(tmp_path / "mono.json")
    assert main(["gen-monodromy", "--output", mono]) == 0
    path = write(tmp_path, "path.json", GOLDEN_PATHS["monodromy"])
    with pytest.raises(SystemExit) as exc:
        main(["vineyard", "--input", mono, "--path"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["vineyard", "--input", mono, "--path", path]
    code, out, err = run(argv, capsys)
    src = Path(pdbundle.__file__).resolve().parent.parent
    fresh = subprocess.run([sys.executable, "-m", "pdbundle.cli", *argv],
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": str(src)})
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out
