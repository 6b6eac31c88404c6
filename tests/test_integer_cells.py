"""Differential tests of the integer cell orders and the integer polygon
splitter against the `Fraction` code they replaced (tests/cell_oracle.py)."""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import cell_oracle
from pdbundle.complexes import induced_indexing
from pdbundle.generators import gen_image_fibration
from pdbundle.geometry import (
    homogeneous,
    line_through,
    normalize_line,
    simplify_loop,
    split_convex,
)
from pdbundle.stratify import build_stratification, filtration_at, merge_cells

from conftest import (
    MESHES,
    acceptance_fibrations,
    c9_ppm,
    mono_fibration,
    random_fibration,
    random_ppm,
    random_rational_fibration,
)

F = Fraction


@pytest.fixture(scope="module")
def corpus():
    """The acceptance corpus, the monodromy example, the c9 3×3 and 4×4
    images, integer and rational fibrations on every mesh, and 2×2 and
    binary 3×3 images, with their stratifications."""
    rng = random.Random(61)
    fibs = acceptance_fibrations(20) + [mono_fibration()]
    fibs += [gen_image_fibration(c9_ppm(n))[0] for n in (3, 4)]
    fibs += [random_fibration(rng, mesh_name=name) for name in sorted(MESHES)]
    fibs += [random_rational_fibration(rng, mesh_name=name)
             for name in sorted(MESHES) for _ in range(2)]
    fibs += [gen_image_fibration(random_ppm(rng, 2, 2, 15))[0] for _ in range(2)]
    fibs += [gen_image_fibration(random_ppm(rng, 3, 3, 1))[0] for _ in range(2)]
    return [(fib, build_stratification(fib)) for fib in fibs]


def test_cell_orders_match_induced_indexing(corpus):
    """Every cell's integer representative is the canonical form of the
    `Fraction` vertex, side midpoint or corner mean, and lies in the closed
    triangle whose table gives the cell its order. Every cell's indexing,
    merged cells' included, whose representatives may lie outside their
    first triangle, is `induced_indexing` of the values at its
    representative point: on every cell, except where a stratification has
    over 1,000 cells (the 4×4 image has 7,073), where a `Fraction` sort per
    cell would take seconds, and 600 cells drawn at random are checked."""
    rng = random.Random(73)
    most_ties = off_first_triangle = 0
    for fib, strat in corpus:
        for c in strat.cells:
            rep = cell_oracle.representative_point(c)
            assert c.rep == rep and c.hrep == homogeneous(rep)
            assert c.rep_triangle == c.triangles[0]
            assert fib.table(c.rep_triangle).contains(*c.hrep)
        for s in (strat, merge_cells(strat)):
            cells = s.cells if len(s.cells) <= 1000 else rng.sample(s.cells, 600)
            for c in cells:
                vals = cell_oracle.rep_values(s, c.id)
                assert s.indexings[c.id] == induced_indexing(vals, fib.complex)
                if c.dim == 0:
                    most_ties = max(most_ties, fib.complex.n - len(set(vals)))
                off_first_triangle += not fib.table(c.triangles[0]).contains(
                    *c.hrep)
    assert most_ties >= 60           # a binary 3×3 image corner: 67 simplices
    assert off_first_triangle >= 1


def test_per_row_numerators_match_per_simplex_dot_products(corpus):
    """`TriangleTable.numerators` takes one dot product per distinct row;
    at every cell representative and at random points, on and off the
    triangle, it gives the per-simplex dot products, and `filtration_at`
    their `Fraction`s."""
    rng = random.Random(71)
    shared = 0
    for fib, strat in corpus:
        n = fib.complex.n
        for t in range(len(fib.mesh.triangles)):
            table = fib.table(t)
            assert [table.distinct_rows[i] for i in table.row_index] == table.rows
            assert len(set(table.distinct_rows)) == len(table.distinct_rows)
            shared += n - len(table.distinct_rows)
            points = [c.hrep for c in strat.cells if c.rep_triangle == t]
            points += [(rng.randint(-99, 99), rng.randint(-99, 99),
                        rng.randint(1, 99)) for _ in range(5)]
            for k, (X, Y, Z) in enumerate(points):
                want = cell_oracle.per_simplex_numerators(table, X, Y, Z)
                assert table.numerators(X, Y, Z) == want
                if k % 20 and len(points) > 200 or not table.contains(X, Y, Z):
                    continue    # the Fractions at a twentieth of many points
                p = (F(X, Z), F(Y, Z))
                values = [F(v, table.den * Z) for v in want]
                assert filtration_at(fib, p, t) == values
    assert shared > 100


# -- the splitter ---------------------------------------------------------------

coords = st.builds(F, st.integers(-12, 12), st.integers(1, 5))
points = st.tuples(coords, coords)


def convex_hull(pts):
    """Counterclockwise strictly convex hull (monotone chain)."""
    pts = sorted(set(pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out
    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


@st.composite
def polygon_and_lines(draw):
    loop = convex_hull(draw(st.lists(points, min_size=3, max_size=9)))
    if len(loop) < 3:
        loop = [(F(0), F(0)), (F(3), F(0)), (F(0), F(2))]
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["chord", "vertex", "free", "miss"]))
        if kind == "chord":      # a side or a diagonal
            i, j = draw(st.lists(st.integers(0, len(loop) - 1), min_size=2,
                                 max_size=2, unique=True))
            lines.append(line_through(loop[i], loop[j]))
            continue
        a, b = draw(st.tuples(coords, coords).filter(lambda ab: ab != (0, 0)))
        if kind == "vertex":
            v = loop[draw(st.integers(0, len(loop) - 1))]
            c = a * v[0] + b * v[1]
        elif kind == "free":
            c = draw(coords)
        else:                    # beyond every vertex
            c = max(a * x + b * y for x, y in loop) + draw(st.integers(1, 3))
        lines.append(normalize_line(a, b, c))
    return loop, lines


def affine(part):
    return None if part is None else [(F(x, z), F(y, z)) for x, y, z in part]


def assert_canonical(part):
    for x, y, z in part or ():
        assert z > 0 and gcd(x, y, z) == 1


@given(polygon_and_lines())
def test_integer_split_matches_fraction_split(case):
    """Each cut of every part, line after line, equals the `Fraction` cut,
    and every vertex stays in canonical form: Z > 0 and gcd 1."""
    loop, lines = case
    mine, theirs = [[homogeneous(p) for p in loop]], [loop]
    for line in lines:
        got = [split_convex(poly, line) for poly in mine]
        want = [cell_oracle.split_convex(poly, line) for poly in theirs]
        assert [tuple(affine(part) for part in parts) for parts in got] == want
        for neg, pos in got:
            assert_canonical(neg)
            assert_canonical(pos)
        mine = [part for parts in got for part in parts if part]
        theirs = [part for parts in want for part in parts if part]


@given(polygon_and_lines(), st.data())
def test_integer_simplify_matches_fraction_simplify(case, data):
    """Loops padded with repeated vertices and points inside sides."""
    loop = case[0]
    padded = []
    for i, p in enumerate(loop):
        q = loop[(i + 1) % len(loop)]
        padded += [p] * data.draw(st.integers(1, 2))
        t = F(data.draw(st.integers(0, 3)), 4)
        if t:
            padded.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    if data.draw(st.booleans()):
        padded.append(padded[0])
    got = simplify_loop([homogeneous(p) for p in padded])
    assert affine(got) == cell_oracle.simplify_loop(padded) == loop
