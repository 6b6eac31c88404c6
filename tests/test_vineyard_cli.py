"""`pdbundle vineyard` against its `Fraction` oracle, and the contracts its
integer path relies on: samples that are no filtration are rejected, the CSV's
int true division rounds as float() of a Fraction does, and a bad path or a
value past float range exits 1 with one error line."""
import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdbundle.cli import main
from pdbundle.complexes import InvariantError, ValidationError, check_monotone
from pdbundle.generators import gen_image_fibration
from pdbundle.persistence import Reduction
from pdbundle.serialize import canonical_dumps, fibration_to_json
from pdbundle.vineyard import path_vineyard, rational_sample

import rereduction
from conftest import (
    MESHES,
    mono_fibration,
    mono_values,
    random_ppm,
    random_rational_fibration,
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def mesh_path(rng, fib, steps=2):
    """A closed path through every mesh vertex, along every triangle side
    (each walked from inside a triangle that holds it, in random order), and
    through every triangle's centroid, with `steps` points on each straight
    piece. All meshes here are convex, so every piece stays inside."""
    mesh = fib.mesh
    sides = {}
    for t, (a, b, c) in enumerate(mesh.triangles):
        for e in ((a, b), (b, c), (a, c)):
            sides.setdefault(tuple(sorted(e)), []).append(t)
    centroid = [tuple(sum(x) / 3 for x in zip(*mesh.corners(t)))
                for t in range(len(mesh.triangles))]
    waypoints = list(mesh.vertices)
    rng.shuffle(waypoints)
    for (a, b), ts in sorted(sides.items()):
        p, q = mesh.vertices[a], mesh.vertices[b]
        waypoints.append(centroid[rng.choice(ts)])
        waypoints += [tuple(x + (y - x) * Fraction(k, 4) for x, y in zip(p, q))
                      for k in range(5)]
    waypoints += centroid
    points = []
    for p, q in zip(waypoints, waypoints[1:] + waypoints[:1]):
        points += [tuple(x + (y - x) * Fraction(k, steps) for x, y in zip(p, q))
                   for k in range(steps)]
    return points + points[:1]


def json_point(rng, p):
    """A path point as the JSON file may hold it: 'p/q' strings, or ints
    and floats where they are exact."""
    out = []
    for x in p:
        if x.denominator == 1 and rng.random() < 0.5:
            out.append(int(x))
        elif float(x) == x and rng.random() < 0.5:
            out.append(float(x))
        else:
            out.append(str(x))
    return out


def circle(n):
    return [[math.cos(2 * math.pi * k / (n - 1) + math.pi / 4),
             math.sin(2 * math.pi * k / (n - 1) + math.pi / 4)] for k in range(n)]


def vineyard_inputs():
    """(name, fibration, JSON path) triples: random 2x2 and binary 3x3 images,
    rational random fibrations on every conftest mesh, circles around the
    monodromy example's interior 0-cell, and two paths whose samples repeat
    (a single point, and a circle with every point given twice)."""
    rng = random.Random(2026)
    fibs = [(f"2x2-{k}", gen_image_fibration(random_ppm(rng, 2, 2, 15))[0])
            for k in range(4)]
    fibs += [(f"3x3-{k}", gen_image_fibration(random_ppm(rng, 3, 3, 1))[0])
             for k in range(2)]
    fibs += [(f"{name}-{k}", random_rational_fibration(rng, mesh_name=name))
             for name in sorted(MESHES) for k in range(3)]
    cases = [(name, fib, [json_point(rng, p) for p in mesh_path(rng, fib)])
             for name, fib in fibs]
    cases += [(f"circle-{n}", mono_fibration(), circle(n)) for n in (9, 33)]
    name, fib, path = cases[4]
    cases += [(f"{name}-point", fib, path[:1]),
              ("circle-9-doubled", mono_fibration(),
               [p for p in circle(9) for _ in range(2)])]
    return cases


def test_cli_vineyard_matches_fraction_oracle(tmp_path):
    """stdout and the --output CSV equal the oracle's byte for byte."""
    for name, fib, path in vineyard_inputs():
        fib_file, path_file = tmp_path / "fib.json", tmp_path / "path.json"
        fib_file.write_text(canonical_dumps(fibration_to_json(fib)), encoding="utf-8")
        path_file.write_text(json.dumps(path), encoding="utf-8")
        csv_file = tmp_path / "vines.csv"
        code, out, err = run_main(["vineyard", "--input", str(fib_file), "--path",
                                   str(path_file), "--output", str(csv_file)])
        want_csv, want_out = rereduction.vineyard_output(fib, path)
        assert (code, err) == (0, ""), name
        assert out == want_out, name
        assert csv_file.read_text(encoding="utf-8") == want_csv, name


def test_path_vineyard_rejects_non_monotone_sample(mono_complex):
    good = rational_sample(mono_values(Fraction(1, 2), Fraction(-1, 3)))
    nums, den = good
    bad = (list(nums), den)
    bad[0][0] = max(nums) + 1    # vertex 0 above every edge holding it
    with pytest.raises(ValidationError) as fraction_error:
        check_monotone(mono_complex, [Fraction(v, den) for v in bad[0]])
    for samples in ([bad], [good, bad], [good, good, bad, good]):
        with pytest.raises(ValidationError) as exc:
            path_vineyard(mono_complex, samples)
        assert str(exc.value) == str(fraction_error.value)
    for samples in ([(nums[:-1], den)], [good, (nums, 0)], [(nums, -den)]):
        with pytest.raises(ValidationError):
            path_vineyard(mono_complex, samples)


BIG = 2 ** 1100


@settings(max_examples=400)
@given(n=st.integers(-BIG, BIG), d=st.integers(1, BIG),
       g=st.integers(1, 2 ** 64) | st.just(1))
def test_int_true_division_is_float_of_fraction(n, d, g):
    """The CSV writes numerator / denominator of unreduced pairs; this is
    float() of the reduced Fraction, or both raise OverflowError."""
    n, d = n * g, d * g

    def outcome(f):
        try:
            return repr(f())
        except OverflowError:
            return OverflowError

    assert outcome(lambda: n / d) == outcome(lambda: float(Fraction(n, d)))


def test_int_true_division_edges():
    for n, d in ((2 ** 1030, 2), (2 ** 1024, 1), (-(2 ** 1024) + 1, 1),
                 (1, 2 ** 1080), (-1, 2 ** 1080), (3 * 2 ** 1100, 3 * 2 ** 1100),
                 (0, 7 ** 400), (2 ** 1024 - 2 ** 970, 1), (2 ** 1024 - 2 ** 971, 1)):
        try:
            want = repr(float(Fraction(n, d)))
        except OverflowError:
            with pytest.raises(OverflowError):
                n / d
        else:
            assert repr(n / d) == want


# -- the exit-code contract of `vineyard --path` --------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
# the monodromy mesh is the square [-1, 1]^2
inside = st.fractions(-1, 1, max_denominator=50)
outside = (st.fractions(Fraction(1, 50), 10 ** 6, max_denominator=50)
           .map(lambda x: x + 1) | st.just(Fraction(10 ** 400)))
bad_coordinate = st.sampled_from(
    [None, True, False, math.inf, -math.inf, math.nan, "", "x", "1/0", "nan",
     "inf", "1//2", "0x10", [0], {}, []]) | json_values.filter(
    lambda v: isinstance(v, (list, dict)) or v is None or isinstance(v, bool))


def coordinate(x, how):
    """x as a 'p/q' string (how 0), or where exact as an int (1) or float (2)."""
    if how == 0 or x.denominator != 1 or (how == 2 and abs(x) > 2 ** 53):
        return str(x)
    return int(x) if how == 1 else float(x)


def point_of(xy, hows):
    return [coordinate(x, h) for x, h in zip(xy, hows)]


good_point = st.builds(point_of, st.tuples(inside, inside),
                       st.tuples(st.integers(0, 2), st.integers(0, 2)))
bad_point = st.one_of(
    json_values.filter(lambda v: not isinstance(v, list)),
    st.lists(inside.map(str), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(inside.map(str), bad_coordinate).map(list),
    st.tuples(bad_coordinate, inside.map(str)).map(list),
    st.builds(point_of, st.tuples(outside, inside), st.tuples(st.integers(0, 2),
                                                             st.integers(0, 2))),
    st.builds(point_of, st.tuples(inside, outside.map(lambda x: -x)),
              st.tuples(st.integers(0, 2), st.integers(0, 2))),
)


@st.composite
def bad_paths(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:   # not a non-empty list
        return draw(json_values.filter(lambda v: not isinstance(v, list) or v == []))
    points = draw(st.lists(good_point, max_size=4))
    points.insert(draw(st.integers(0, len(points))), draw(bad_point))
    if kind == 2:   # and text that is not JSON at all
        return json.dumps(points)[:-1]
    return points


@pytest.fixture(scope="module")
def mono_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("vineyard-contract") / "mono.json"
    path.write_text(canonical_dumps(fibration_to_json(mono_fibration())),
                    encoding="utf-8")
    return path


@settings(max_examples=150)
@given(path=bad_paths())
def test_vineyard_bad_path_exits_1(mono_file, path):
    path_file = mono_file.parent / "path.json"
    path_file.write_text(path if isinstance(path, str) else json.dumps(path),
                         encoding="utf-8")
    code, out, err = run_main(["vineyard", "--input", str(mono_file),
                               "--path", str(path_file)])
    assert code == 1 and out == "", (path, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: "), (path, err)


def test_vineyard_path_with_huge_json_integer_exits_1(mono_file):
    path_file = mono_file.parent / "huge.json"
    path_file.write_text(f"[[{'9' * 5000}, 0]]", encoding="utf-8")
    code, out, err = run_main(["vineyard", "--input", str(mono_file),
                               "--path", str(path_file)])
    assert code == 1 and out == "" and err.startswith("error: "), err


def test_vineyard_value_too_large_for_a_float_exits_1(mono_file):
    """Values past float range are exact in the fibration and along the
    path, but the CSV cannot write them: one error line naming the vine and
    the value, exit 1, and no CSV."""
    fib = json.loads(mono_file.read_text(encoding="utf-8"))
    fib["values"] = {s: [str(10 ** 400 + s.count("-"))] * len(v)
                     for s, v in fib["values"].items()}
    fib_file = mono_file.parent / "huge-values.json"
    fib_file.write_text(json.dumps(fib), encoding="utf-8")
    path_file = mono_file.parent / "two-points.json"
    path_file.write_text(json.dumps([["1/2", "1/2"], ["-1/2", "1/2"]]),
                         encoding="utf-8")
    csv_file = mono_file.parent / "huge.csv"
    code, out, err = run_main(["vineyard", "--input", str(fib_file), "--path",
                               str(path_file), "--output", str(csv_file)])
    assert (code, out) == (1, "")
    assert err == ("error: vine 0 at t=0.0: value 1.0000000000000000e+400 "
                   "is too large for a float\n")
    assert not csv_file.exists()


def test_vineyard_path_not_utf8_exits_1(mono_file):
    path_file = mono_file.parent / "latin1.json"
    path_file.write_bytes(b'[["0", "\xe9"]]')
    code, out, err = run_main(["vineyard", "--input", str(mono_file),
                               "--path", str(path_file)])
    assert code == 1 and out == "", err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_walk_that_misses_a_swap_exits_2(mono_file, mono_complex, monkeypatch):
    """A transposition that changes the pair set but reports no swap leaves
    the walk's relabelling behind its pair set: an internal fault, caught by
    the onto check, not bad input. Pair sets are read off each cell's own
    reduction whatever the swaps say, so `stratify` prints what it prints
    without the fault."""
    stratify = ["stratify", "--input", str(mono_file)]
    expected = run_main(stratify)
    assert expected[0] == 0
    exchange = Reduction._exchange

    def no_swap(red, s, t, earlier):
        exchange(red, s, t, earlier)
        return False

    monkeypatch.setattr(Reduction, "_exchange", no_swap)
    samples = [rational_sample(mono_values(Fraction(x), Fraction(y)))
               for x, y in circle(9)]
    with pytest.raises(InvariantError, match="not onto"):
        path_vineyard(mono_complex, samples)
    path_file = mono_file.parent / "circle.json"
    path_file.write_text(json.dumps(circle(9)), encoding="utf-8")
    for argv in (["vineyard", "--input", str(mono_file), "--path", str(path_file)],
                 ["sheaf", "--input", str(mono_file)]):
        code, out, err = run_main(argv)
        assert code == 2 and out == "", (argv, err)
        assert len(err.splitlines()) == 1, err
        assert err.startswith("internal invariant violated: "), err
    assert run_main(stratify) == expected
