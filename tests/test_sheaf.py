import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdbundle.cli import main
from pdbundle.complexes import SimplicialComplex, ValidationError
from pdbundle.serialize import canonical_dumps, fibration_to_json, sections_to_json
from pdbundle.sheaf import (
    CellularSheaf,
    InvariantError,
    Obstruction,
    SheafSection,
    build_sheaf,
    bundle_section,
    connected_components,
    edge_value_certificate,
    enumerate_global_sections,
    loop_monodromy,
    monodromy_scan,
    propagate,
    sections_by_component,
    walk_permutation,
)
from pdbundle.stratify import (
    BaseMesh,
    PLFibration,
    build_stratification,
    filtration_at,
    merge_cells,
)

from conftest import (MESHES, A, B, C, D, mirrored_monodromy_fibration,
                      mono_fibration, quadrant_of, random_fibration)

F = Fraction


def check_section(section: SheafSection, sheaf: CellularSheaf) -> None:
    """Every morphism between two cells of the section's scope carries the
    section's element at the face to its element at the coface."""
    chosen = section.assignment
    for (face, coface), phi in sheaf.morphisms.items():
        if face in chosen and coface in chosen:
            assert phi[chosen[face]] == chosen[coface], (
                f"section violates edge ({face}, {coface})")


def constant_sheaf(degree=None):
    # two filtration levels, no geometry: all morphisms are identities
    K = SimplicialComplex([[0], [1], [0, 1], [2], [0, 2], [1, 2]])
    mesh = BaseMesh([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 1, 2), (0, 2, 3)])
    values = [[0] * 4, [1] * 4, [2] * 4, [1] * 4, [3] * 4, [4] * 4]
    fib = PLFibration(K, mesh, values)
    return build_sheaf(build_stratification(fib), degree=degree)


def test_constant_fibration_all_identity():
    sheaf = constant_sheaf()
    assert sheaf.morphisms
    for phi in sheaf.morphisms.values():
        assert all(k == v for k, v in phi.items())
    # sections = one constant section per stalk element
    sections = enumerate_global_sections(sheaf)
    stalk_size = len(next(iter(sheaf.stalks.values())))
    assert len(sections) == stalk_size
    for s in sections:
        assert len(set(s.assignment.values())) == 1
        check_section(s, sheaf)


def test_monodromy_sheaf_three_distinct_nonidentity_morphisms(mono_strat, mono_sheaf1):
    strat, sheaf = mono_strat, mono_sheaf1
    kinds = {}
    for (f, c), phi in sheaf.morphisms.items():
        if any(k != v for k, v in phi.items()):
            key = (strat.indexings[f].order, strat.indexings[c].order,
                   tuple(sorted(phi.items())))
            kinds.setdefault(key, []).append((f, c))
    assert len(kinds) == 3
    maps = {key[2] for key in kinds}
    swap_ab = (((A, C), (B, C)), ((B, D), (A, D)))  # as unordered matching
    # the three maps, written as mappings from the {(a,d),(b,c)} stalk:
    m_ab = (((A, D), (B, D)), ((B, C), (A, C)))
    m_cd = (((A, D), (A, C)), ((B, C), (B, D)))
    assert m_ab in maps and m_cd in maps
    # the origin-to-Q1 composite equals the canonical (swap a,b first) choice
    origin = next(c.id for c in strat.cells if c.pieces == (((F(0), F(0)),),))
    q1 = [c.id for c in strat.cells
          if c.dim == 2 and quadrant_of(c.rep) == "Q1"]
    for q in q1:
        phi = sheaf.morphisms[(origin, q)]
        assert phi[(A, D)] == (B, D) and phi[(B, C)] == (A, C)


def test_monodromy_sheaf_stalks_match_example(mono_strat, mono_sheaf1):
    # half-axis stalks: positive axes carry {(a,c),(b,d)}, negative carry
    # {(a,d),(b,c)}
    strat, sheaf = mono_strat, mono_sheaf1
    def cell_at_segment(p, q):
        for c in strat.cells:
            if c.dim == 1 and c.pieces == ((p, q),):
                return c.id
        raise AssertionError("missing half-axis cell")
    pos_x = cell_at_segment((F(0), F(0)), (F(1), F(0)))
    neg_x = cell_at_segment((F(-1), F(0)), (F(0), F(0)))
    assert sheaf.stalks[pos_x] == {(A, C), (B, D)}
    assert sheaf.stalks[neg_x] == {(A, D), (B, C)}


def test_propagate_obstruction_on_monodromy(mono_sheaf1):
    sheaf = mono_sheaf1
    strat = sheaf.strat
    q1 = next(c.id for c in strat.cells
              if c.dim == 2 and quadrant_of(c.rep) == "Q1")
    result = propagate(sheaf, q1, (A, C))
    assert isinstance(result, Obstruction)
    assert result.cycle[0] == result.cycle[-1]
    # the witness cycle composes to a nontrivial constraint
    perm = walk_permutation(sheaf, result.cycle)
    assert any(k != v for k, v in perm.items())
    with pytest.raises(ValidationError):
        propagate(sheaf, q1, (A, D))  # not in the stalk


def test_propagate_on_cut_subgraph(mono_sheaf1):
    # cells not touching the origin and not meeting the negative x-axis form
    # a simply-connected sub-poset; a section exists and passes all checks
    sheaf = mono_sheaf1
    strat = sheaf.strat

    def touches_cut(c):
        return any(p == (0, 0) or (p[1] == 0 and p[0] < 0)
                   for piece in c.pieces for p in piece)

    keep = [c.id for c in strat.cells if not touches_cut(c)]
    sub = sheaf.restrict(keep)
    comps = connected_components(sub)
    assert len(comps) == 1
    root = comps[0][0]
    found = []
    for x in sorted(sub.stalks[root]):
        res = propagate(sub, root, x)
        if isinstance(res, SheafSection):
            check_section(res, sub)
            found.append(res)
    assert len(found) == 2  # both seeds extend on the cut
    [component] = sections_by_component(sub)
    cells, gauges, roots = component
    assert [{c: gauges[c][x] for c in cells} for x in roots] == [
        s.assignment for s in found]
    assert bundle_section(sub, component, boundary_samples=5) > 0


def test_propagate_order_independent(mono_sheaf1):
    sheaf = mono_sheaf1
    strat = sheaf.strat
    keep = [c.id for c in strat.cells
            if not any(p == (0, 0) or (p[1] == 0 and p[0] < 0)
                       for piece in c.pieces for p in piece)]
    sub = sheaf.restrict(keep)
    root = keep[0]
    x0 = sorted(sub.stalks[root])[0]
    base = propagate(sub, root, x0)
    for seed in range(8):
        again = propagate(sub, root, x0, order_seed=seed)
        assert isinstance(again, SheafSection) == isinstance(base, SheafSection)
        if isinstance(base, SheafSection):
            assert again.assignment == base.assignment
    # and obstructions obstruct under every order
    q1 = next(c.id for c in strat.cells
              if c.dim == 2 and quadrant_of(c.rep) == "Q1")
    for seed in range(8):
        assert isinstance(propagate(sheaf, q1, (A, C), order_seed=seed),
                          Obstruction)


def test_enumerate_monodromy_empty_and_loop_nontrivial(mono_sheaf1):
    # the two statements must co-occur
    assert enumerate_global_sections(mono_sheaf1) == []
    report = monodromy_scan(mono_sheaf1)
    assert [l for l in report.loops if l.nontrivial]


def test_monodromy_scan_on_restricted_sheaves(mono_sheaf1):
    # a restricted sheaf reports the loops of exactly those 0-cells whose
    # whole link it keeps, each with the cycle and permutation of the
    # unrestricted sheaf; a 0-cell whose link leaves the restriction has none
    rng = random.Random(61)
    sheaves = [mono_sheaf1]
    sheaves += [build_sheaf(build_stratification(random_fibration(rng, name)),
                            degree=degree)
                for name in ("fan", "square") for degree in (None, 1)
                for _ in range(3)]
    reported = 0
    for sheaf in sheaves:
        strat = sheaf.strat
        full = {l.zero_cell: l for l in monodromy_scan(sheaf).loops}
        cuts = [sorted(rng.sample(sheaf.vertices, len(sheaf.vertices) * 3 // 4))
                for _ in range(4)]
        cuts += [sorted(set(sheaf.vertices) - {f}) for f in
                 rng.sample(sheaf.vertices, min(4, len(sheaf.vertices)))]
        if sheaf is mono_sheaf1:  # drops the origin's third-quadrant wing
            cuts.append([c.id for c in strat.cells if quadrant_of(c.rep) != "Q3"])
        for keep in cuts:
            sub = sheaf.restrict(keep)
            loops = monodromy_scan(sub).loops
            assert [l.zero_cell for l in loops] == [
                v for v in full if v in keep and strat.cofaces_of(v) <= set(keep)]
            for loop in loops:
                assert set(loop.cycle) <= set(keep)
                assert loop.cycle == full[loop.zero_cell].cycle
                assert loop.permutation == loop_monodromy(sheaf, loop.cycle)
            reported += len(loops)
    assert reported > 10


def test_enumerate_two_components():
    # two separate mesh squares -> two sheaf components, sections per component
    K = SimplicialComplex([[0], [1], [0, 1]])
    mesh = BaseMesh([(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1)],
                    [(0, 1, 2), (3, 4, 5)])
    fib = PLFibration(K, mesh, [[0] * 6, [1] * 6, [2] * 6])
    sheaf = build_sheaf(build_stratification(fib))
    comps = connected_components(sheaf)
    assert len(comps) == 2
    sections = enumerate_global_sections(sheaf)
    stalk = len(next(iter(sheaf.stalks.values())))
    assert len(sections) == 2 * stalk
    scopes = {s.scope for s in sections}
    assert len(scopes) == 2


def test_loop_monodromy_quadrant_cycle(mono_sheaf1):
    sheaf = mono_sheaf1
    strat = sheaf.strat
    report = monodromy_scan(sheaf)
    loops = [l for l in report.loops if l.nontrivial]
    assert len(loops) == 1
    loop = loops[0]
    origin = next(c.id for c in strat.cells if c.pieces == (((F(0), F(0)),),))
    assert loop.zero_cell == origin
    assert loop.permutation == {(A, C): (B, D), (B, D): (A, C)}
    # trivial cycle: there and back
    f, c = sorted(sheaf.morphisms)[0]
    assert walk_permutation(sheaf, [c, f, c]) == {
        e: e for e in sheaf.stalks[c]}
    # reversed cycle gives the inverse permutation (here equal: a transposition)
    rev = loop_monodromy(sheaf, list(reversed(loop.cycle)))
    assert rev == loop.permutation
    # obstructed seeds: every degree-1 seed in the component
    assert len(report.obstructed_seeds) == sum(
        len(sheaf.stalks[c.id]) for c in strat.cells)


def test_loop_monodromy_validates_cycle(mono_sheaf1):
    sheaf = mono_sheaf1
    f, c = sorted(sheaf.morphisms)[0]
    with pytest.raises(ValidationError):
        loop_monodromy(sheaf, [c, f])  # not closed
    with pytest.raises(ValidationError):
        loop_monodromy(sheaf, [c, c, c])  # not adjacent


def test_composition_condition_vacuous(mono_sheaf1):
    # the sheaf's cell complex is a graph: its poset relations all go from a
    # vertex to an edge, so no chain x < y < z exists and the composition
    # condition has nothing to compose
    sheaf = mono_sheaf1
    relations = {(("v", v), ("e", e)) for e in sheaf.edges() for v in e}
    above = {lo for lo, _ in relations}
    below = {hi for _, hi in relations}
    assert all(kind == "v" for kind, _ in above)
    assert all(kind == "e" for kind, _ in below)
    assert not (above & below)  # nothing is both under and over something


def test_f_edge_invariant_random_sheaves():
    rng = random.Random(41)
    for _ in range(6):
        fib = random_fibration(rng)
        sheaf = build_sheaf(build_stratification(fib))
        assert edge_value_certificate(sheaf, samples_per_edge=5, seed=1) > 0


def test_section_pushes_agree_on_edges():
    sheaf = constant_sheaf()
    for section in enumerate_global_sections(sheaf):
        for (f, c), phi in sheaf.morphisms.items():
            # face value pushed up equals the coface value pushed via identity
            assert phi[section.assignment[f]] == section.assignment[c]


def test_bundle_section_constant_and_corrupted():
    sheaf = constant_sheaf()
    [component] = sections_by_component(sheaf)
    assert len(component[2]) > 1 and sheaf.edges()
    assert bundle_section(sheaf, component, boundary_samples=4) == 4 * len(sheaf.edges())
    # a one-root component of the degree-1 sheaf of the monodromy fibration
    # made by hand, the first element of every stalk, each cell with a gauge
    # of its own: a section that disagrees across an edge must be caught
    from pdbundle.generators import gen_monodromy
    sheaf1 = build_sheaf(build_stratification(gen_monodromy()), degree=1)
    first = {cid: sorted(sheaf1.stalks[cid])[0] for cid in sheaf1.vertices}
    x = first[sheaf1.vertices[0]]
    fake = (sheaf1.vertices, {cid: {x: e} for cid, e in first.items()}, [x])
    with pytest.raises(InvariantError, match="discontinuous"):
        bundle_section(sheaf1, fake, boundary_samples=2)


def _corrupted(sheaf, key):
    """A copy of the sheaf whose morphism on the one edge `key` is a copy
    with the images of its two smallest elements swapped; the edges that
    share that morphism object keep it."""
    import copy
    phi = dict(sheaf.morphisms[key])
    a, b = sorted(phi)[:2]
    phi[a], phi[b] = phi[b], phi[a]
    corrupted = copy.copy(sheaf)
    corrupted.morphisms = {**sheaf.morphisms, key: phi}
    return corrupted


def test_edge_value_certificate_catches_corruption(mono_sheaf1):
    # corrupt a morphism anchored at a 1-cell: there the c/d values separate,
    # so swapping the images breaks exact value equality. (At the origin all
    # four values tie and both bijection choices pass, which is exactly why
    # that morphism is not canonical.)
    key = next(k for k, phi in sorted(mono_sheaf1.morphisms.items())
               if mono_sheaf1.strat.cell(k[0]).dim == 1
               and any(a != b for a, b in phi.items()))
    with pytest.raises(InvariantError):
        edge_value_certificate(_corrupted(mono_sheaf1, key), samples_per_edge=3,
                               seed=2)
    # and both choices do pass at the origin, where everything ties
    origin = next(c.id for c in mono_sheaf1.strat.cells
                  if c.pieces == (((F(0), F(0)),),))
    okey = next(k for k, phi in sorted(mono_sheaf1.morphisms.items())
                if k[0] == origin and any(a != b for a, b in phi.items()))
    assert edge_value_certificate(_corrupted(mono_sheaf1, okey),
                                  samples_per_edge=3, seed=2) > 0


def _pair_value(values, e):
    return values[e[0]], None if e[1] is None else values[e[1]]


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.sampled_from([1, None]),
       points=st.integers(0, 5), certificate_seed=st.integers(0, 100))
def test_edge_value_certificate_fuzz(seed, degree, points, certificate_seed):
    """On a random small fibration the certificate passes and counts
    max(1, points) checks per pair of each morphism; trading the images of
    two face elements whose images differ in value at the face cell's
    representative point makes it raise."""
    rng = random.Random(seed)
    fib = random_fibration(rng)
    sheaf = build_sheaf(build_stratification(fib), degree=degree)
    assert (edge_value_certificate(sheaf, points, certificate_seed)
            == max(1, points) * sum(len(phi) for phi in sheaf.morphisms.values()))
    trades = []
    for (face, coface), phi in sorted(sheaf.morphisms.items()):
        cell = sheaf.strat.cell(face)
        values = filtration_at(fib, cell.rep, triangle_hint=cell.triangles[0])
        elements = sorted(phi, key=_element_key)
        trades += [((face, coface), x, y) for i, x in enumerate(elements)
                   for y in elements[i + 1:]
                   if _pair_value(values, phi[x]) != _pair_value(values, phi[y])]
    if not trades:
        return
    edge, x, y = rng.choice(trades)
    phi = sheaf.morphisms[edge]
    broken = CellularSheaf(sheaf.strat, degree, sheaf.vertices, sheaf.stalks,
                           {**sheaf.morphisms, edge: {**phi, x: phi[y], y: phi[x]}})
    with pytest.raises(InvariantError, match=re.escape(f"edge {edge} at")):
        edge_value_certificate(broken, points, certificate_seed)


def _element_key(e):
    return (e[0], e[1] is None, e[1] if e[1] is not None else -1)


def _sections_by_propagation(sheaf):
    """Oracle: propagate from every element of each component's smallest
    cell and keep the seeds that extend."""
    sections = []
    for comp in connected_components(sheaf):
        for x in sorted(sheaf.stalks[comp[0]], key=_element_key):
            result = propagate(sheaf, comp[0], x)
            if isinstance(result, SheafSection):
                sections.append(result)
    return sections


def _obstructed_by_propagation(sheaf):
    """Oracle: propagate from every seed, by (cell, element), that no section
    found so far passes through; keep the seeds that do not extend."""
    obstructed, settled = [], set()
    for v in sheaf.vertices:
        for x in sorted(sheaf.stalks[v], key=_element_key):
            if (v, x) in settled:
                continue
            result = propagate(sheaf, v, x)
            if isinstance(result, SheafSection):
                settled.update(result.assignment.items())
            else:
                obstructed.append((v, x))
    return obstructed


def test_etale_pass_matches_per_seed_propagation(mono_strat):
    # random fibrations over every conftest mesh, all degrees and degree 1,
    # merged and unmerged, plus the monodromy example and one of its cuts
    rng = random.Random(2718)
    sheaves = []
    for i in range(64):
        strat = build_stratification(random_fibration(rng, sorted(MESHES)[i % 4]))
        if i // 4 % 2:
            strat = merge_cells(strat)
        sheaves.append(build_sheaf(strat, degree=None if i // 8 % 2 else 1))
    for degree in (None, 1):
        sheaves.append(build_sheaf(mono_strat, degree=degree))
    sheaves.append(sheaves[-1].restrict(
        c.id for c in mono_strat.cells
        if not any(p == (0, 0) or (p[1] == 0 and p[0] < 0)
                   for piece in c.pieces for p in piece)))
    found = obstructed = 0
    for sheaf in sheaves:
        sections = enumerate_global_sections(sheaf)
        assert sections == _sections_by_propagation(sheaf)
        seeds = monodromy_scan(sheaf).obstructed_seeds
        assert seeds == _obstructed_by_propagation(sheaf)
        found += len(sections)
        obstructed += len(seeds)
    assert found > 50 and obstructed > 0


def _components_by_union(sheaf):
    """Oracle: the connected components of cells, by union-find over the
    face relations, each sorted and ordered by its smallest cell."""
    root = {v: v for v in sheaf.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for face, coface in sheaf.morphisms:
        root[find(face)] = find(coface)
    groups = {}
    for v in sheaf.vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def _check_against_propagation(sheaf, doc):
    """Sections and obstructed seeds against per-seed propagation, and the
    `sections` JSON fields against the propagated sections per component;
    returns the components, sections and obstructed seeds."""
    comps = _components_by_union(sheaf)
    sections = _sections_by_propagation(sheaf)
    obstructed = _obstructed_by_propagation(sheaf)
    assert enumerate_global_sections(sheaf) == sections
    assert monodromy_scan(sheaf).obstructed_seeds == obstructed
    per_component = [sum(s.scope == frozenset(comp) for s in sections)
                     for comp in comps]
    assert doc["components"] == comps
    assert doc["sections_per_component"] == per_component
    assert doc["global_section_count"] == math.prod(per_component)
    return comps, sections, obstructed


@pytest.mark.parametrize("degree", [1, None])
def test_restriction_into_interleaved_components(degree):
    # removing the cells on the shared side x = 1 splits the mirrored
    # monodromy example into its two squares, each with its loop around its
    # own centre, so both components carry obstructed seeds
    sheaf = build_sheaf(build_stratification(mirrored_monodromy_fibration()),
                        degree=degree)
    assert len(_components_by_union(sheaf)) == 1
    sub = sheaf.restrict(c.id for c in sheaf.strat.cells
                         if not all(p[0] == 1 for piece in c.pieces
                                    for p in piece))
    doc = sections_to_json(sub, sections_by_component(sub))
    comps, sections, obstructed = _check_against_propagation(sub, doc)
    assert len(comps) == 2
    left, right = comps
    assert left[0] < right[0] < left[-1] < right[-1]   # interleaved ids
    assert {v for v, _ in obstructed} == set(sub.vertices)
    for comp in comps:
        loops = [loop for loop in monodromy_scan(sub).loops
                 if loop.zero_cell in comp and loop.nontrivial]
        assert len(loops) == 1


def test_degree_above_the_top_dimension(tmp_path, capsys):
    # every stalk is empty: each component has no section and no seed
    fib = mono_fibration()
    degree = max(fib.complex.dim(i) for i in range(fib.complex.n)) + 1
    path = tmp_path / "mono.json"
    path.write_text(canonical_dumps(fibration_to_json(fib)))
    docs = {}
    for cmd in ("sections", "monodromy"):
        assert main([cmd, "--input", str(path), "--degree", str(degree)]) == 0
        docs[cmd] = json.loads(capsys.readouterr().out)
    sheaf = build_sheaf(build_stratification(fib), degree=degree)
    assert not any(sheaf.stalks.values())
    comps, sections, obstructed = _check_against_propagation(
        sheaf, docs["sections"])
    assert comps and sections == [] and obstructed == []
    assert docs["sections"]["sections_per_component"] == [0] * len(comps)
    assert docs["sections"]["global_section_count"] == 0
    assert docs["sections"]["continuity_checks_per_section"] == []
    assert docs["monodromy"]["obstructed_seeds"] == []
