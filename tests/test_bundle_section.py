"""Differential tests of `bundle_section` and the edge certificate against
the eager oracles in eager_section.py: the same check counts, states of the
random source and `InvariantError`s, on the monodromy example and the
acceptance corpus, at degree 1 and at all degrees; and the boundary points
of a component, drawn once for all of its sections."""
import random
from types import SimpleNamespace

import pytest

import pdbundle.sheaf
import pdbundle.stratify
from pdbundle.cli import main
from pdbundle.generators import gen_image_fibration
from pdbundle.serialize import canonical_dumps, fibration_to_json
from pdbundle.sheaf import (
    InvariantError,
    SheafSection,
    build_sheaf,
    bundle_section,
    enumerate_global_sections,
    sections_by_component,
)
from pdbundle.stratify import build_stratification

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


def _fast(sheaf, component, bsmp, seed, made):
    """The outcome, and the states of the random sources made for it."""
    made.clear()
    try:
        result = bundle_section(sheaf, component, boundary_samples=bsmp, seed=seed)
    except InvariantError as exc:
        result = str(exc)
    return result, [rng.getstate() for rng in made]


def _eager(certify, sheaf, component_or_section, bsmp, seed):
    rng = random.Random(seed)
    try:
        result = certify(sheaf, component_or_section, bsmp, rng)
    except InvariantError as exc:
        result = str(exc)
    return result, [rng.getstate()]


def _corrupted(sheaf, component, rng):
    """The component with one cell's gauge sending one root to another
    element of the cell's stalk, or None when it has no root or every stalk
    has one element."""
    cells, gauges, roots = component
    wide = [c for c in cells if len(sheaf.stalks[c]) > 1]
    if not roots or not wide:
        return None
    cid, x = rng.choice(wide), rng.choice(roots)
    other = sorted(sheaf.stalks[cid] - {gauges[cid][x]}, key=str)
    return cells, {**gauges, cid: {**gauges[cid], x: rng.choice(other)}}, roots


def test_bundle_section_matches_eager_oracle(sheaves, made_rngs):
    """Each component with sections, and three corruptions of it, against
    the eager component oracle; and each of its sections alone, certified
    eagerly, makes as many checks as the component call gives."""
    rng = random.Random(8)
    sections = caught = 0
    for sheaf in sheaves:
        for component in sections_by_component(sheaf):
            cells, gauges, roots = component
            sections += len(roots)
            bad = [_corrupted(sheaf, component, rng) for _ in range(3)]
            for bsmp, seed in SETTINGS:
                for c in [component] + [b for b in bad if b is not None]:
                    want = _eager(eager_section.bundle_component, sheaf, c, bsmp, seed)
                    assert _fast(sheaf, c, bsmp, seed, made_rngs) == want
                    caught += isinstance(want[0], str)
                checks = bundle_section(sheaf, component, bsmp, seed)
                for x in roots:
                    section = SheafSection({c: gauges[c][x] for c in cells})
                    assert _eager(eager_section.bundle_section, sheaf, section,
                                  bsmp, seed)[0] == checks
    assert sections >= 40 and caught >= 100


def test_invariant_error_matches_eager_oracle(mono_sheaf1, made_rngs):
    """A hand-made inconsistent one-root component of the monodromy sheaf:
    the first element of every stalk, each cell with a gauge of its own. It
    fails as the same section does under the per-section oracle."""
    first = {cid: sorted(mono_sheaf1.stalks[cid])[0] for cid in mono_sheaf1.vertices}
    x = first[mono_sheaf1.vertices[0]]
    component = (mono_sheaf1.vertices, {cid: {x: e} for cid, e in first.items()}, [x])
    for bsmp, seed in SETTINGS:
        want = _eager(eager_section.bundle_component, mono_sheaf1, component,
                      bsmp, seed)
        assert "discontinuous" in want[0]
        assert _eager(eager_section.bundle_section, mono_sheaf1,
                      SheafSection(first), bsmp, seed) == want
        assert _fast(mono_sheaf1, component, bsmp, seed, made_rngs) == want


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
    """bundle_section draws the 4 random boundary points of each relation of
    its component where some root's element moves, none elsewhere, and never
    evaluates every simplex through `filtration_at`."""
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
        for component in sections_by_component(sheaf):
            _, gauges, roots = component
            calls["sample_in_cell"] = 0
            checked = bundle_section(sheaf, component, boundary_samples=5)
            relations = [(f, c) for f, c in sheaf.edges() if f in gauges]
            moved = sum(any(gauges[f][x] != gauges[c][x] for x in roots)
                        for f, c in relations)
            moved_edges += moved
            assert checked == 5 * len(relations)
            assert calls == {"filtration_at": 0, "sample_in_cell": 4 * moved}
    assert moved_edges


# the binary 3×3 image of the CI's hash-seed step
BINARY_3X3 = "P3\n3 3 1\n0 1 1  1 0 0  0 1 0\n1 1 0  0 0 1  1 0 1\n0 0 1  1 1 1  0 1 0\n"


def test_sections_draw_once_per_relation(tmp_path, monkeypatch, capsys):
    """`sections --degree 1` on a binary 3×3 image, whose one component has
    18 sections, many of which move across the same relations: the random
    boundary points of a relation are drawn once for all sections where any
    of them moves, not once per section that moves there."""
    fib = gen_image_fibration(BINARY_3X3)[0]
    sheaf = build_sheaf(build_stratification(fib), 1)
    sections = enumerate_global_sections(sheaf)
    assert len(sections) == 18 and len({s.scope for s in sections}) == 1
    moves = [sum(s.assignment[f] != s.assignment[c] for s in sections)
             for f, c in sheaf.edges()]
    assert sum(moves) > sum(m > 0 for m in moves) > 0   # sections share moves
    calls = []
    sample_in_cell = pdbundle.sheaf.sample_in_cell

    def counted_sample_in_cell(cell, rng):
        calls.append(cell.id)
        return sample_in_cell(cell, rng)

    monkeypatch.setattr(pdbundle.sheaf, "sample_in_cell", counted_sample_in_cell)
    path = tmp_path / "img.json"
    path.write_text(canonical_dumps(fibration_to_json(fib)))
    assert main(["sections", "--input", str(path), "--degree", "1"]) == 0
    assert len(calls) == 4 * sum(m > 0 for m in moves)
    assert '"continuity_checks_per_section"' in capsys.readouterr().out
