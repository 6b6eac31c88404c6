"""The gauge pass (`sheaf._gauges`) against the étalé walk it replaced
(etale_oracle.py): components, sections and obstructed seeds, in order, and
the loop permutations, on the acceptance corpus, the monodromy example, its
interleaved mirror, the c9 3×3 and 4×4 images and random fibrations; a
self-loop holonomy; and the Euler characteristic of the cells."""
import random

import pytest
from hypothesis import given, settings, strategies as st

import etale_oracle
from pdbundle.generators import gen_image_fibration
from pdbundle.sheaf import (
    CellularSheaf,
    Obstruction,
    SheafSection,
    _gauges,
    build_sheaf,
    connected_components,
    enumerate_global_sections,
    monodromy_scan,
    propagate,
    sections_by_component,
)
from pdbundle.stratify import build_stratification, merge_cells

from conftest import (MESHES, A, B, C, D, c9_ppm, mirrored_monodromy_fibration,
                      random_fibration)


def check_against_oracle(sheaf):
    """Every result the gauge pass feeds, against the oracle; returns the
    counts of sections and obstructed seeds."""
    assert connected_components(sheaf) == etale_oracle.connected_components(sheaf)
    by_component = sections_by_component(sheaf)
    expanded = [(cells, [SheafSection({c: gauges[c][x] for c in cells}) for x in roots])
                for cells, gauges, roots in by_component]
    assert expanded == etale_oracle.sections_by_component(sheaf)
    sections = enumerate_global_sections(sheaf)
    assert sections == [s for _, found in expanded for s in found]
    report = monodromy_scan(sheaf)
    assert report.obstructed_seeds == etale_oracle.obstructed_seeds(sheaf)
    for loop in report.loops:
        assert loop.permutation == etale_oracle.walk_permutation(sheaf, loop.cycle)
    return len(sections), len(report.obstructed_seeds)


@pytest.fixture(scope="module")
def c9_strats():
    return {n: build_stratification(gen_image_fibration(c9_ppm(n))[0])
            for n in (3, 4)}


@pytest.mark.parametrize("degree, mono_counts", [(1, (0, 66)), (None, (4, 66))])
def test_gauges_match_oracle_on_the_corpus(degree, mono_counts, mono_strat,
                                           random_strats):
    strats = [mono_strat] + [strat for _, strat in random_strats]
    counts = [check_against_oracle(build_sheaf(strat, degree)) for strat in strats]
    assert counts[0] == mono_counts   # the monodromy example
    assert sum(s for s, _ in counts[1:]) > 0


@pytest.mark.parametrize("degree", [1, None])
def test_gauges_match_oracle_on_the_interleaved_mirror(degree):
    sheaf = build_sheaf(build_stratification(mirrored_monodromy_fibration()),
                        degree=degree)
    sub = sheaf.restrict(c.id for c in sheaf.strat.cells
                         if not all(p[0] == 1 for piece in c.pieces
                                    for p in piece))
    for s in (sheaf, sub):
        assert check_against_oracle(s)[1] > 0
    assert len(connected_components(sub)) == 2


@pytest.mark.parametrize("n, degree, counts", [
    (3, 1, (18, 0)), (3, None, (34, 0)), (4, 1, (32, 0)), (4, None, (54, 21219))])
def test_gauges_match_oracle_on_c9_images(c9_strats, n, degree, counts):
    assert check_against_oracle(build_sheaf(c9_strats[n], degree)) == counts


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)),
       degree=st.sampled_from([None, 0, 1]), merged=st.booleans(),
       keep=st.floats(0.3, 1.0))
def test_gauges_match_oracle_on_random_fibrations(seed, mesh, degree, merged, keep):
    """Random small fibrations, merged or not, and a random share of their
    cells, which can split a component in several."""
    rng = random.Random(seed)
    strat = build_stratification(random_fibration(rng, mesh))
    if merged:
        strat = merge_cells(strat)
    sheaf = build_sheaf(strat, degree)
    check_against_oracle(sheaf)
    cells = [c for c in sheaf.vertices if rng.random() < keep]
    if cells:
        check_against_oracle(sheaf.restrict(cells))


def test_self_loop_holonomy(mono_strat):
    """A constant two-element stalk on the monodromy example's cells, every
    morphism the one identity except one edge that swaps the two elements.
    The walk gives that edge's two cells one gauge object, so only the
    edge's own permutation shows the holonomy: no section, and every seed is
    obstructed."""
    stalk = frozenset({(A, C), (B, D)})
    identity = {e: e for e in stalk}
    swap = {(A, C): (B, D), (B, D): (A, C)}
    cells = [c.id for c in mono_strat.cells]
    edges = sorted((f, c) for c in cells for f in mono_strat.faces_of(c))
    flat = CellularSheaf(mono_strat, 1, cells, dict.fromkeys(cells, stalk),
                         dict.fromkeys(edges, identity))
    assert check_against_oracle(flat) == (2, 0)
    for edge in edges:
        sheaf = CellularSheaf(mono_strat, 1, cells, dict.fromkeys(cells, stalk),
                              {**dict.fromkeys(edges, identity), edge: swap})
        [(_, gauges, classes)] = _gauges(sheaf)
        if gauges[edge[0]] is gauges[edge[1]]:
            break
    else:
        raise AssertionError("every edge is a tree edge")
    assert classes == [sorted(stalk)]
    assert check_against_oracle(sheaf) == (0, 2 * len(cells))
    assert isinstance(propagate(sheaf, edge[0], (A, C)), Obstruction)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), mesh=st.sampled_from(sorted(MESHES)))
def test_euler_characteristic_of_a_disk(seed, mesh):
    """Every mesh of the tests is a disk, so the cells, which partition it
    into open cells, have 0-cells − 1-cells + 2-cells = 1."""
    strat = build_stratification(random_fibration(random.Random(seed), mesh))
    assert sum((-1) ** c.dim for c in strat.cells) == 1
