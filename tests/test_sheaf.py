import random
from fractions import Fraction

import pytest

from pdbundle.complexes import SimplicialComplex, ValidationError
from pdbundle.sheaf import (
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
    walk_permutation,
)
from pdbundle.stratify import (
    BaseMesh,
    PLFibration,
    build_stratification,
    merge_cells,
)

from conftest import MESHES, A, B, C, D, quadrant_of, random_fibration

F = Fraction


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
        s.check(sheaf)


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
            res.check(sub)
            found.append(res)
    assert len(found) == 2  # both seeds extend on the cut
    bs = bundle_section(sub, found[0], samples_per_cell=2, boundary_samples=5)
    assert bs.boundary_points_checked > 0


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
    section = enumerate_global_sections(sheaf)[0]
    bs = bundle_section(sheaf, section, samples_per_cell=3, boundary_samples=4)
    assert bs.boundary_points_checked > 0
    assert len(bs.samples) >= 3 * len(section.assignment)
    # corrupt one morphism on a degree-1 sheaf of the monodromy fibration:
    # a section that disagrees across an edge must be caught
    from pdbundle.generators import gen_monodromy
    from pdbundle.stratify import build_stratification as bs_
    sheaf1 = build_sheaf(bs_(gen_monodromy()), degree=1)
    keep = [cid for cid in sheaf1.vertices]
    sub = sheaf1.restrict(keep)
    # build a valid-looking section by hand, then corrupt one vertex
    target = next(c.id for c in sheaf1.strat.cells
                  if c.dim == 2 and quadrant_of(c.rep) == "Q3")
    fake = {cid: sorted(sub.stalks[cid])[0] for cid in keep}
    section = SheafSection(fake)
    with pytest.raises(InvariantError, match="discontinuous"):
        bundle_section(sub, section, samples_per_cell=1, boundary_samples=2)


def test_edge_value_certificate_catches_corruption(mono_sheaf1):
    # corrupt a morphism anchored at a 1-cell: there the c/d values separate,
    # so swapping the images breaks exact value equality. (At the origin all
    # four values tie and both bijection choices pass, which is exactly why
    # that morphism is not canonical.)
    import copy
    sheaf = copy.deepcopy(mono_sheaf1)
    key = next(k for k, phi in sorted(sheaf.morphisms.items())
               if sheaf.strat.cell(k[0]).dim == 1
               and any(a != b for a, b in phi.items()))
    phi = sheaf.morphisms[key]
    ks = sorted(phi)
    phi[ks[0]], phi[ks[1]] = phi[ks[1]], phi[ks[0]]
    with pytest.raises(InvariantError):
        edge_value_certificate(sheaf, samples_per_edge=3, seed=2)
    # and both choices do pass at the origin, where everything ties
    sheaf2 = copy.deepcopy(mono_sheaf1)
    origin = next(c.id for c in sheaf2.strat.cells
                  if c.pieces == (((F(0), F(0)),),))
    okey = next(k for k, phi in sorted(sheaf2.morphisms.items())
                if k[0] == origin and any(a != b for a, b in phi.items()))
    ophi = sheaf2.morphisms[okey]
    ks = sorted(ophi)
    ophi[ks[0]], ophi[ks[1]] = ophi[ks[1]], ophi[ks[0]]
    assert edge_value_certificate(sheaf2, samples_per_edge=3, seed=2) > 0


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
