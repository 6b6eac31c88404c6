import json
import math
from fractions import Fraction

import pytest

from pdbundle.cli import main
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


def test_ph_monodromy_q1(tmp_path, capsys):
    inp = write(tmp_path, "in.json", {
        "simplices": [[0], [1], [2], [3], [1, 2], [2, 3], [0, 3],
                      [0, 1], [0, 2], [0, 1, 2], [0, 2, 3]],
        "values": {"0": "0", "1": "0", "2": "0", "3": "0", "1-2": "0",
                   "2-3": "0", "0-3": "0", "0-1": "5/2", "0-2": "3/2",
                   "0-1-2": "21/2", "0-2-3": "19/2"},
    })
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
