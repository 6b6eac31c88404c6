"""Differential tests of `bundle_section` and the edge certificate against
the eager oracle in eager_section.py: the same check counts, states of the
random source and `InvariantError`s, on the monodromy example and the
acceptance corpus, at degree 1 and at all degrees."""
import random
from types import SimpleNamespace

import pytest

import pdbundle.sheaf
import pdbundle.stratify
from pdbundle.sheaf import (
    InvariantError,
    SheafSection,
    build_sheaf,
    bundle_section,
    enumerate_global_sections,
)

import eager_section

# (boundary_samples, seed)
SETTINGS = [(5, 0), (1, 4), (4, 11), (2, 29), (0, 3)]


@pytest.fixture(scope="module")
def sheaves(mono_strat, random_strats):
    """Degree-1 and all-degree sheaves of the monodromy example and the
    acceptance corpus, plus the degree-1 monodromy sheaf off the cut from
    the origin along the negative x-axis, where two sections extend."""
    out = [build_sheaf(strat, degree)
           for strat in [mono_strat] + [s for _, s in random_strats]
           for degree in (1, None)]
    out.append(out[0].restrict(
        c.id for c in mono_strat.cells
        if not any(p == (0, 0) or (p[1] == 0 and p[0] < 0)
                   for piece in c.pieces for p in piece)))
    return out


@pytest.fixture
def made_rngs(monkeypatch):
    """Every `random.Random` that pdbundle.sheaf creates, in order."""
    made = []

    def recording(seed):
        rng = random.Random(seed)
        made.append(rng)
        return rng

    monkeypatch.setattr(pdbundle.sheaf, "random", SimpleNamespace(Random=recording))
    return made


def _fast(sheaf, section, bsmp, seed, made):
    """The outcome, and the states of the random sources made for it."""
    made.clear()
    try:
        result = bundle_section(sheaf, section, boundary_samples=bsmp, seed=seed)
    except InvariantError as exc:
        result = str(exc)
    return result, [rng.getstate() for rng in made]


def _eager(sheaf, section, bsmp, seed):
    rng = random.Random(seed)
    try:
        result = eager_section.bundle_section(sheaf, section, bsmp, rng)
    except InvariantError as exc:
        result = str(exc)
    return result, [rng.getstate()]


def _corrupted(sheaf, section, rng):
    """The section with one cell's element swapped for another of its stalk,
    or None when every stalk in scope has one element."""
    cells = [c for c in sorted(section.assignment) if len(sheaf.stalks[c]) > 1]
    if not cells:
        return None
    cid = rng.choice(cells)
    other = sorted(sheaf.stalks[cid] - {section.assignment[cid]}, key=str)
    return SheafSection({**section.assignment, cid: rng.choice(other)})


def test_bundle_section_matches_eager_oracle(sheaves, made_rngs):
    rng = random.Random(8)
    sections = caught = 0
    for sheaf in sheaves:
        for section in enumerate_global_sections(sheaf):
            sections += 1
            bad = _corrupted(sheaf, section, rng)
            for bsmp, seed in SETTINGS:
                for s in [section] if bad is None else [section, bad]:
                    want = _eager(sheaf, s, bsmp, seed)
                    assert _fast(sheaf, s, bsmp, seed, made_rngs) == want
                    caught += isinstance(want[0], str)
    assert sections >= 40 and caught >= 100


def test_invariant_error_matches_eager_oracle(mono_sheaf1, made_rngs):
    """A hand-made inconsistent section of the monodromy sheaf: the first
    element of every stalk."""
    section = SheafSection({cid: sorted(mono_sheaf1.stalks[cid])[0]
                            for cid in mono_sheaf1.vertices})
    for bsmp, seed in SETTINGS:
        want = _eager(mono_sheaf1, section, bsmp, seed)
        assert "discontinuous" in want[0]
        assert _fast(mono_sheaf1, section, bsmp, seed, made_rngs) == want


def test_certify_edge_matches_eager_oracle(sheaves):
    """Every morphism of every sheaf as a whole set of matches, and each with
    two images traded, certified from one random source per sheaf."""
    trade = random.Random(5)
    caught = 0
    for sheaf in sheaves[:12]:
        fast, eager = random.Random(1), random.Random(1)
        for (face, coface), phi in sorted(sheaf.morphisms.items()):
            matches = sorted(phi.items(), key=str)
            if len(matches) >= 2 and trade.random() < 0.3:
                i, j = trade.sample(range(len(matches)), 2)
                (x, a), (y, b) = matches[i], matches[j]
                matches[i], matches[j] = (x, b), (y, a)
            outcomes = []
            for certify, rng in ((pdbundle.sheaf._certify_edge, fast),
                                 (eager_section.certify_edge, eager)):
                try:
                    outcomes.append(certify(sheaf, face, coface, matches, 4, rng))
                except InvariantError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert fast.getstate() == eager.getstate()
            caught += isinstance(outcomes[1], str)
    assert caught >= 100


def test_bundle_section_draws_only_where_the_element_moves(sheaves, monkeypatch):
    """bundle_section draws the 4 random boundary points of each in-scope
    relation whose match moves, none elsewhere, and never evaluates every
    simplex through `filtration_at`."""
    calls = {"filtration_at": 0, "sample_in_cell": 0}
    filtration_at = pdbundle.stratify.filtration_at
    sample_in_cell = pdbundle.sheaf.sample_in_cell

    def counted_filtration_at(*args, **kwargs):
        calls["filtration_at"] += 1
        return filtration_at(*args, **kwargs)

    def counted_sample_in_cell(cell, rng):
        calls["sample_in_cell"] += 1
        return sample_in_cell(cell, rng)

    monkeypatch.setattr(pdbundle.stratify, "filtration_at", counted_filtration_at)
    monkeypatch.setattr(pdbundle.sheaf, "sample_in_cell", counted_sample_in_cell)
    assert not hasattr(pdbundle.sheaf, "filtration_at")
    moved_edges = 0
    for sheaf in sheaves:
        for section in enumerate_global_sections(sheaf):
            calls["sample_in_cell"] = 0
            checked = bundle_section(sheaf, section, boundary_samples=5)
            chosen = section.assignment
            in_scope = [(f, c) for f, c in sheaf.edges()
                        if f in chosen and c in chosen]
            moved = sum(chosen[f] != chosen[c] for f, c in in_scope)
            moved_edges += moved
            assert checked == 5 * len(in_scope)
            assert calls == {"filtration_at": 0, "sample_in_cell": 4 * moved}
    assert moved_edges
