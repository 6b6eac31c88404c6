"""What the sheaf asserts at its 0-cells, on the monodromy example and the
first 200 fibrations of the acceptance generator (the acceptance corpus is
the first 20), at all degrees.

For a 0-cell v, a 2-cell c above it and a 1-cell e between them, the chain
condition reads F(e≤c)∘F(v≤e) = F(v≤c). It fails where v carries monodromy:
the composites through the two 1-cells of the diamond v < e1, e2 < c then
differ, and the canonical F(v≤c) can equal only one of them.
"""
from typing import Dict, Iterator, Tuple

import pytest

from pdbundle.persistence import Element
from pdbundle.sheaf import CellularSheaf, build_sheaf, monodromy_scan
from pdbundle.stratify import build_stratification

from conftest import acceptance_fibrations

Mapping = Dict[Element, Element]


@pytest.fixture(scope="module")
def sheaves(mono_strat):
    return [build_sheaf(strat) for strat in [mono_strat] + [
        build_stratification(fib) for fib in acceptance_fibrations(200)]]


def diamonds(sheaf: CellularSheaf
             ) -> Iterator[Tuple[int, int, Mapping, Dict[int, Mapping]]]:
    """For every 0-cell v and 2-cell c above it: v, c, the canonical F(v≤c)
    and the composite F(e≤c)∘F(v≤e) through each 1-cell e between them."""
    strat, phi = sheaf.strat, sheaf.morphisms
    for v in (cell.id for cell in strat.cells if cell.dim == 0):
        for c in sorted(strat.cofaces_of(v)):
            if strat.cell(c).dim != 2:
                continue
            ones = sorted(e for e in strat.faces_of(c) if v in strat.faces_of(e))
            assert len(ones) == 2, (v, c, ones)
            yield v, c, phi[(v, c)], {
                e: {x: phi[(e, c)][y] for x, y in phi[(v, e)].items()} for e in ones}


def failing(composites: Dict[int, Mapping]) -> bool:
    """Whether the composites through the 1-cells of a diamond differ."""
    first, *rest = composites.values()
    return any(m != first for m in rest)


def test_every_nontrivial_loop_has_a_non_commuting_diamond(sheaves):
    loops = 0
    for sheaf in sheaves:
        noncommuting = {v for v, _, _, composites in diamonds(sheaf)
                        if failing(composites)}
        for loop in monodromy_scan(sheaf).loops:
            if loop.nontrivial:
                loops += 1
                assert loop.zero_cell in noncommuting
    assert loops >= 50


def test_canonical_morphism_is_one_of_the_composites(sheaves):
    chains = 0
    for sheaf in sheaves:
        for v, c, direct, composites in diamonds(sheaf):
            chains += len(composites)
            assert direct in composites.values(), (v, c)
    assert chains > 5000


def test_chain_condition_holds_where_no_diamond_fails(sheaves):
    held = broken = 0
    for sheaf in sheaves:
        for v, c, direct, composites in diamonds(sheaf):
            if failing(composites):
                broken += 1
            else:
                held += 1
                assert all(m == direct for m in composites.values()), (v, c)
    assert held > 5000 and broken >= 50
