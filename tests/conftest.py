import os
import random
import tempfile
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from pdbundle.complexes import SimplicialComplex, induced_indexing
from pdbundle.generators import MONODROMY_SIMPLICES, monodromy_values_at
from pdbundle.persistence import reduce_pairs
from pdbundle.stratify import BaseMesh, PLFibration

# Property tests draw the same examples on every run and write nothing into
# the checkout: no example database, and hypothesis's own cache goes to the
# temporary directory.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "pdbundle-hypothesis"))

# intrinsic indices of the named simplices in the monodromy complex
A, B, C, D = 7, 8, 9, 10


@pytest.fixture(scope="session")
def mono_complex():
    return SimplicialComplex(MONODROMY_SIMPLICES)


def mono_values(x, y):
    return monodromy_values_at(x, y)


def random_listing(rng: random.Random, max_vertices: int = 5,
                   p_edge: float = 0.6, p_tri: float = 0.6,
                   max_simplices: int = 1000):
    """A random complex listing: vertices, then edges, then triangles of a
    random graph (triangles only where all edges exist)."""
    n = rng.randint(1, max_vertices)
    vertices = [(v,) for v in range(n)]
    edges = [e for e in combinations(range(n), 2) if rng.random() < p_edge]
    edge_set = set(edges)
    tris = [t for t in combinations(range(n), 3)
            if rng.random() < p_tri
            and all(e in edge_set for e in combinations(t, 2))]
    listing = vertices + edges + tris
    return listing[:max(n, min(len(listing), max_simplices))]


def random_complex(rng: random.Random, **kw) -> SimplicialComplex:
    return SimplicialComplex(random_listing(rng, **kw))


def random_monotone_values(rng: random.Random, K: SimplicialComplex,
                           max_step: int = 3):
    """Random integer filtration values, monotone by construction; frequent
    ties exercise the intrinsic tie-break."""
    values = [None] * K.n
    for i in range(K.n):
        base = max((values[j] for j in K.facet_indices(i)), default=0)
        values[i] = base + rng.randint(0, max_step)
    return values


MESHES = {
    "one_triangle": ([(0, 0), (4, 0), (0, 4)], [(0, 1, 2)]),
    "square": ([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 1, 2), (0, 2, 3)]),
    "strip": ([(0, 0), (2, 0), (4, 0), (0, 2), (2, 2), (4, 2)],
              [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)]),
    "fan": ([(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1),
             (-1, 0), (-1, -1), (0, -1), (1, -1)],
            [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
             (0, 5, 6), (0, 6, 7), (0, 7, 8), (0, 8, 1)]),
}


def random_fibration(rng: random.Random, mesh_name=None,
                     max_vertices: int = 4, max_step: int = 3) -> PLFibration:
    """A random piecewise-linear fibration with small integer vertex values,
    monotone at every mesh vertex."""
    if mesh_name is None:
        mesh_name = rng.choice(sorted(MESHES))
    mesh = BaseMesh(*MESHES[mesh_name])
    K = random_complex(rng, max_vertices=max_vertices)
    nmv = len(mesh.vertices)
    values = [[None] * nmv for _ in range(K.n)]
    for i in range(K.n):
        for v in range(nmv):
            base = max((values[j][v] for j in K.facet_indices(i)), default=0)
            values[i][v] = base + rng.randint(0, max_step)
    return PLFibration(K, mesh, values)


def random_rational_fibration(rng: random.Random, mesh_name=None,
                              max_vertices: int = 4, max_step: int = 3
                              ) -> PLFibration:
    """A random fibration on rational, non-integer data: a conftest mesh
    moved by a random orientation-preserving rational affine map (sheared,
    scaled, and shifted off the integer grid) and monotone values built from
    random steps k/q, with ties among them."""
    if mesh_name is None:
        mesh_name = rng.choice(sorted(MESHES))
    verts, tris = MESHES[mesh_name]
    sx = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    sy = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    shear = Fraction(rng.randint(-3, 3), rng.randint(2, 5))
    ox = rng.randint(-5, 5) + Fraction(1, rng.randint(2, 7))
    oy = rng.randint(-5, 5) + Fraction(1, rng.randint(2, 7))
    mesh = BaseMesh([(sx * x + shear * y + ox, sy * y + oy) for x, y in verts],
                    tris)
    K = random_complex(rng, max_vertices=max_vertices)
    q = rng.randint(2, 5)
    nmv = len(mesh.vertices)
    values = [[None] * nmv for _ in range(K.n)]
    for i in range(K.n):
        for v in range(nmv):
            base = max((values[j][v] for j in K.facet_indices(i)),
                       default=Fraction(rng.randint(-3, 3), q))
            values[i][v] = base + Fraction(rng.randint(0, max_step * q), q)
    return PLFibration(K, mesh, values)


def random_ppm(rng: random.Random, width: int, height: int, maxval: int) -> str:
    """A plain-text P3 image with independent uniform samples in 0..maxval."""
    samples = " ".join(str(rng.randint(0, maxval))
                       for _ in range(3 * width * height))
    return f"P3\n{width} {height} {maxval}\n{samples}\n"


def c9_ppm(n: int) -> str:
    """The acceptance test's c9 pixel formula as an n×n image."""
    return f"P3\n{n} {n} 31\n" + "\n".join(
        " ".join(f"{(3 * r + 2 * c) % 11} {(r * c + 7) % 13} {(r + 5 * c) % 17}"
                 for c in range(n)) for r in range(n)) + "\n"


def mono_fibration():
    from pdbundle.generators import gen_monodromy
    return gen_monodromy()


def mirrored_monodromy_fibration():
    """The monodromy fan over [-1, 1]^2 and its mirror image in the line
    x = 1, which the two squares share. The triangles of the two copies
    alternate, so the ids of their cells interleave."""
    fib = mono_fibration()
    verts = list(fib.mesh.vertices)
    index = {p: i for i, p in enumerate(verts)}
    mirror = {}
    for i, (x, y) in enumerate(fib.mesh.vertices):
        p = (2 - x, y)
        if p not in index:
            index[p] = len(verts)
            verts.append(p)
        mirror[i] = index[p]
    tris = [t for a, b, c in fib.mesh.triangles
            for t in ((a, b, c), (mirror[a], mirror[b], mirror[c]))]
    values = [row + [None] * (len(verts) - len(row)) for row in fib.values]
    for row in values:
        for i, j in mirror.items():
            row[j] = row[i]
    return PLFibration(fib.complex, BaseMesh(verts, tris), values)


@pytest.fixture(scope="session")
def mono_fib():
    return mono_fibration()


@pytest.fixture(scope="session")
def mono_strat(mono_fib):
    from pdbundle.stratify import build_stratification
    return build_stratification(mono_fib)


@pytest.fixture(scope="session")
def mono_sheaf1(mono_strat):
    from pdbundle.sheaf import build_sheaf
    return build_sheaf(mono_strat, degree=1)


def acceptance_fibrations(count: int):
    """The first `count` fibrations of the acceptance generator: random PL
    fibrations with K <= 15 simplices, mesh <= 8 triangles and small-integer
    values, drawn from seed 2024."""
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        fib = random_fibration(rng, max_vertices=4)
        if fib.complex.n <= 15:
            out.append(fib)
    return out


@pytest.fixture(scope="session")
def random_strats():
    """The first 20 acceptance fibrations with their stratifications: the
    corpus of criteria 6 and 7, also used by the section tests."""
    from pdbundle.stratify import build_stratification
    return [(fib, build_stratification(fib)) for fib in acceptance_fibrations(20)]


def quadrant_of(p):
    x, y = p
    if x > 0 and y > 0:
        return "Q1"
    if x < 0 and y > 0:
        return "Q2"
    if x < 0 and y < 0:
        return "Q3"
    if x > 0 and y < 0:
        return "Q4"
    return None


def pairs_for_filtration(K: SimplicialComplex, values):
    """A fresh reduction under the indexing induced by the values."""
    return reduce_pairs(K, induced_indexing(values, K))


def deg1_pairs(K: SimplicialComplex, pairset):
    return {(b, d) for b, d in pairset.pairs if K.dim(b) == 1}
