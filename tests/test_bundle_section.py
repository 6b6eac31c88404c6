"""Differential tests of `bundle_section` and the edge certificate against
the eager oracle in eager_section.py: the same samples, check counts,
states of both random sources and `InvariantError`s, on the monodromy
example and the acceptance corpus, at degree 1 and at all degrees."""
import random
from types import SimpleNamespace

import pytest

import pdbundle.sheaf
from pdbundle.sheaf import (
    InvariantError,
    SheafSection,
    build_sheaf,
    bundle_section,
    enumerate_global_sections,
)

import eager_section

# (samples_per_cell, boundary_samples, seed)
SETTINGS = [(3, 5, 0), (1, 1, 4), (2, 4, 11), (4, 2, 29)]


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


def _fast(sheaf, section, spc, bsmp, seed, made):
    """The outcome, and the states of the random sources made for it: the
    certificate's, then, once the samples are read, the samples'."""
    made.clear()
    try:
        bs = bundle_section(sheaf, section, samples_per_cell=spc,
                            boundary_samples=bsmp, seed=seed)
        result = ([(s.cell, s.point, s.birth, s.death) for s in bs.samples],
                  bs.boundary_points_checked)
    except InvariantError as exc:
        result = str(exc)
    return result, [rng.getstate() for rng in made]


def _eager(sheaf, section, spc, bsmp, seed):
    samples_rng, certificate_rng = random.Random(seed), random.Random(seed)
    try:
        result = eager_section.bundle_section(sheaf, section, spc, bsmp,
                                              samples_rng, certificate_rng)
    except InvariantError as exc:
        return str(exc), [certificate_rng.getstate()]
    return result, [certificate_rng.getstate(), samples_rng.getstate()]


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
            for spc, bsmp, seed in SETTINGS:
                for s in [section] if bad is None else [section, bad]:
                    want = _eager(sheaf, s, spc, bsmp, seed)
                    assert _fast(sheaf, s, spc, bsmp, seed, made_rngs) == want
                    caught += isinstance(want[0], str)
    assert sections >= 40 and caught >= 100


def test_invariant_error_matches_eager_oracle(mono_sheaf1, made_rngs):
    """A hand-made inconsistent section of the monodromy sheaf: the first
    element of every stalk."""
    section = SheafSection({cid: sorted(mono_sheaf1.stalks[cid])[0]
                            for cid in mono_sheaf1.vertices})
    for spc, bsmp, seed in SETTINGS:
        want = _eager(mono_sheaf1, section, spc, bsmp, seed)
        assert "discontinuous" in want[0]
        assert _fast(mono_sheaf1, section, spc, bsmp, seed, made_rngs) == want


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


def test_samples_are_evaluated_only_when_read(sheaves, monkeypatch):
    """bundle_section draws only the boundary points of edges whose match
    moves, and draws and evaluates no sample; reading `samples` draws each
    sample once and evaluates it once, at its birth and death only."""
    calls = {"filtration_at": [], "sample_in_cell": 0}
    filtration_at = pdbundle.sheaf.filtration_at
    sample_in_cell = pdbundle.sheaf.sample_in_cell

    def counted_filtration_at(fib, p, hint, simplices):
        calls["filtration_at"].append(tuple(simplices))
        return filtration_at(fib, p, hint, simplices)

    def counted_sample_in_cell(cell, rng):
        calls["sample_in_cell"] += 1
        return sample_in_cell(cell, rng)

    monkeypatch.setattr(pdbundle.sheaf, "filtration_at", counted_filtration_at)
    monkeypatch.setattr(pdbundle.sheaf, "sample_in_cell", counted_sample_in_cell)
    moved_edges = 0
    for sheaf in sheaves:
        for section in enumerate_global_sections(sheaf):
            calls["sample_in_cell"] = 0
            bs = bundle_section(sheaf, section, samples_per_cell=3,
                                boundary_samples=5)
            chosen = section.assignment
            moved = sum(chosen[f] != chosen[c] for f, c in sheaf.edges()
                        if f in chosen and c in chosen)
            moved_edges += moved
            assert calls == {"filtration_at": [], "sample_in_cell": 4 * moved}
            samples = bs.samples
            assert len(samples) == 3 * len(chosen)
            assert calls["sample_in_cell"] == 4 * moved + 2 * len(chosen)
            assert calls["filtration_at"] == [
                tuple(x for x in chosen[s.cell] if x is not None) for s in samples]
            assert bs.samples is samples
            calls["filtration_at"].clear()
    assert moved_edges
