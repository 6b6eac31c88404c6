"""Cellular sheaf over the stratification graph: pair-set stalks,
update-rule morphisms, section propagation, global sections and obstructed
seeds, loop monodromy, and the certificate that a component's sheaf
sections are continuous bundle sections, by exact evaluation.

The sheaf lives on the graph with one vertex per stratification cell and one
edge per face relation. The stalk at a cell is its pair set (optionally
restricted to one homology degree); the morphism from a face cell into a
coface cell is the canonical composed update bijection between their induced
indexings, restricted accordingly. The sheaf is not always compatible at a
0-cell v: for v < e < c the chain condition F(e≤c)∘F(v≤e) = F(v≤c) can
fail at a non-commuting diamond, where the composites through the
diamond's two 1-cells differ (`tests/test_diamonds.py`). Stalks and
morphisms are read off the stratification's one walk over the face poset;
the face relations between one pair of cell orders share one morphism
object, and a morphism that is the identity is one dict shared by every
edge between equal stalks. Every morphism is a bijection, so the étalé space
covers the cell graph: components, global sections and obstructed seeds
are read off one breadth-first walk per cell component (`_gauges`), which
carries the root cell's stalk to every cell along a spanning tree and
joins the root elements that each other edge's holonomy exchanges. A
section is its component's root element x, the map c ↦ g_c(x). All of a
component's sections are certified in one pass over its face relations,
and a certificate draws a random point of a cell only to evaluate it.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .complexes import InvariantError, ValidationError
from .persistence import Element
from .stratify import (
    PLFibration,
    Stratification,
    UnionFind,
    point_numerators,
    sample_in_cell,
)
from .vineyard import update_image


Gauges = Dict[int, Dict[Element, Element]]
Component = Tuple[List[int], Gauges, List[Element]]   # see sections_by_component


def _element_sort_key(e: Element):
    return (e[0], e[1] is None, e[1] if e[1] is not None else -1)


@dataclass
class CellularSheaf:
    """Stalks and face-to-coface morphisms on a set of cells. On construction
    the morphisms are also laid out as two-way edge transport:
    `transport[u][w]` carries the stalk of cell u to that of an adjacent cell
    w, by the morphism when w is a coface of u and by its inverse when w is a
    face. Neighbours are listed in edge order, which is sorted once, here.
    Every morphism object has one inverse object, and an identity is its own
    inverse. Morphisms are shared and must not be changed in place."""

    strat: Stratification
    degree: Optional[int]
    vertices: List[int]
    stalks: Dict[int, FrozenSet[Element]]
    morphisms: Dict[Tuple[int, int], Dict[Element, Element]]
    transport: Dict[int, Dict[int, Dict[Element, Element]]] = field(
        init=False, repr=False)
    _edges: List[Tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self._edges = sorted(self.morphisms)
        self.transport = {v: {} for v in self.vertices}
        inverses: Dict[int, Dict[Element, Element]] = {}
        for face, coface in self._edges:
            phi = self.morphisms[(face, coface)]
            inverse = inverses.get(id(phi))
            if inverse is None:
                inverse = inverses[id(phi)] = (
                    phi if all(x == y for x, y in phi.items())
                    else {y: x for x, y in phi.items()})
            self.transport[face][coface] = phi
            self.transport[coface][face] = inverse

    @property
    def fib(self) -> PLFibration:
        return self.strat.fib

    def edges(self) -> List[Tuple[int, int]]:
        """The face relations, sorted; shared, not to be changed."""
        return self._edges

    def restrict(self, cells) -> "CellularSheaf":
        """Sub-sheaf on a subset of vertices (edges with both ends kept)."""
        keep = set(cells)
        unknown = keep - {c.id for c in self.strat.cells}
        if unknown:
            raise ValidationError(f"unknown cells in restriction: {sorted(unknown)}")
        return CellularSheaf(
            self.strat, self.degree, sorted(keep),
            {c: self.stalks[c] for c in sorted(keep)},
            {(f, c): phi for (f, c), phi in self.morphisms.items()
             if f in keep and c in keep})


def build_sheaf(strat: Stratification,
                degree: Optional[int] = None) -> CellularSheaf:
    """Construct the cellular sheaf for a stratification: on each face
    relation, the canonical update bijection from the face's pair set to the
    coface's. It is not always compatible: at a 0-cell v < e < c a
    non-commuting diamond can make F(e≤c)∘F(v≤e) differ from F(v≤c). With a
    degree, stalks keep only the pairs whose birth simplex has that dimension
    (essential births included); update bijections preserve the degree, so the
    restriction is again a sheaf of bijections.

    Everything is read off the stratification's one walk over the face
    poset (`Stratification.walk`, which grows a codimension-1 tree and
    steps from every cell to each of its cofaces): a cell's stalk off the
    pair set the walk yields for it, and the morphism of a face relation
    off the swaps of the step from the face. A morphism depends only on the
    orders of its two cells, so the face relations between one pair of
    orders share one morphism object, made and checked onto the coface's
    stalk once; and a morphism that is the identity on the stalk is the one
    identity dict of that stalk."""
    K = strat.fib.complex
    indexings = strat.indexings
    restricted: Dict[FrozenSet[Element], FrozenSet[Element]] = {}
    identities: Dict[FrozenSet[Element], Dict[Element, Element]] = {}
    pair_sets: Dict[int, FrozenSet[Element]] = {}
    stalks: Dict[int, FrozenSet[Element]] = {}
    morphisms: Dict[Tuple[int, int], Dict[Element, Element]] = {}
    # the morphism of each pair of orders that a step swaps pairs between,
    # by the ids of their indexings
    moved: Dict[Tuple[int, int], Dict[Element, Element]] = {}
    for face, cid, pairs, swaps in strat.walk(cofaces=True):
        if cid not in pair_sets:
            pair_sets[cid] = pairs
            stalk = restricted.get(pairs)
            if stalk is None:
                stalk = restricted[pairs] = pairs if degree is None else (
                    pairs.elements_of_degree(K, degree))
                identities.setdefault(stalk, {e: e for e in stalk})
            stalks[cid] = stalk
        if face is None or cid not in strat.cofaces[face]:
            continue
        stalk = stalks[face]
        mapping = identities[stalk]
        if swaps:
            orders = (id(indexings[face]), id(indexings[cid]))
            known = moved.get(orders)
            if known is not None:
                morphisms[(face, cid)] = known
                continue
            image = update_image(pair_sets[face], swaps)
            if any(image[e] != e for e in stalk):
                mapping = {e: image[e] for e in stalk}
            moved[orders] = mapping
        target = stalks[cid]
        if mapping is not identities[target] and set(mapping.values()) != target:
            raise InvariantError(
                f"morphism {face} -> {cid} is not onto the coface stalk")
        morphisms[(face, cid)] = mapping
    return CellularSheaf(strat, degree, [c.id for c in strat.cells],
                         {c.id: stalks[c.id] for c in strat.cells}, morphisms)


@dataclass
class SheafSection:
    """A consistent choice of one stalk element per vertex on a scope: one
    connected component for the sections that the gauge pass (`_gauges`)
    finds and for those that `propagate` extends from a seed."""

    assignment: Dict[int, Element]

    @property
    def scope(self) -> FrozenSet[int]:
        return frozenset(self.assignment)


@dataclass
class Obstruction:
    """Witness that a seed admits no consistent extension: a closed walk of
    cells whose composed constraints disagree at the seed."""

    vertex: int
    element: Element
    cycle: List[int]


def propagate(sheaf: CellularSheaf, v0: int, x0: Element,
              order_seed: Optional[int] = None):
    """Breadth-first propagation of the section constraints from one seed.
    Returns the unique SheafSection on the connected component of v0, or an
    Obstruction with a witness cycle. The result does not depend on the
    traversal order (order_seed only shuffles it, for testing)."""
    if x0 not in sheaf.stalks[v0]:
        raise ValidationError(f"seed element {x0} not in the stalk of cell {v0}")
    rng = random.Random(order_seed) if order_seed is not None else None

    assignment: Dict[int, Element] = {v0: x0}
    parent: Dict[int, int] = {v0: -1}
    queue = deque([v0])
    while queue:
        u = queue.popleft()
        out = sheaf.transport[u].items()
        if rng is not None:
            out = list(out)
            rng.shuffle(out)
        for w, phi in out:
            forced = phi[assignment[u]]
            if w not in assignment:
                assignment[w] = forced
                parent[w] = u
                queue.append(w)
            elif assignment[w] != forced:
                # close the witness cycle through the BFS tree
                def path_to_root(x: int) -> List[int]:
                    out: List[int] = []
                    while x != -1:
                        out.append(x)
                        x = parent[x]
                    return out
                pu, pw = path_to_root(u), path_to_root(w)
                sw = set(pw)
                meet = next(x for x in pu if x in sw)
                cycle = (pu[:pu.index(meet) + 1]
                         + list(reversed(pw[:pw.index(meet)])) + [u])
                return Obstruction(v0, x0, cycle)
    return SheafSection(assignment)


def _gauges(sheaf: CellularSheaf
            ) -> Iterator[Tuple[List[int], Gauges, List[List[Element]]]]:
    """One breadth-first walk per cell component, from its smallest cell r.
    A cell c's gauge g_c composes the tree's maps from r's stalk to c's; an
    identity tree edge passes its gauge object on. Each other edge u→w with
    map φ joins x and g_w⁻¹∘φ∘g_u(x) in one union-find over r's elements by
    rank, unless g_u is g_w and φ is an identity (its own inverse). Yields
    each component's sorted cells, gauges, and classes (the étalé
    components) in element order: a class {x} is the section c ↦ g_c(x),
    and every g_c(x) of a larger class is an obstructed seed."""
    transport = sheaf.transport
    seen: Set[int] = set()
    for r in sheaf.vertices:
        if r in seen:
            continue
        elements = sorted(sheaf.stalks[r], key=_element_sort_key)
        rank = {x: i for i, x in enumerate(elements)}
        uf = UnionFind(len(elements))
        gauges = {r: {x: x for x in elements}}
        inverses: Dict[int, Dict[Element, Element]] = {}
        order = [r]
        for u in order:  # order grows while it is read: the BFS queue
            g_u = gauges[u]
            for w, phi in transport[u].items():
                g_w = gauges.get(w)
                if g_w is None:
                    gauges[w] = g_u if transport[w][u] is phi else {
                        x: phi[y] for x, y in g_u.items()}
                    order.append(w)
                elif g_w is not g_u or transport[w][u] is not phi:
                    inverse = inverses.get(id(g_w))
                    if inverse is None:
                        inverse = inverses[id(g_w)] = {y: x for x, y in g_w.items()}
                    for x, y in g_u.items():
                        if (z := inverse[phi[y]]) != x:
                            uf.union(rank[x], rank[z])
        seen.update(order)
        classes: Dict[int, List[Element]] = {}
        for i, x in enumerate(elements):
            classes.setdefault(uf.find(i), []).append(x)
        yield sorted(order), gauges, list(classes.values())


def connected_components(sheaf: CellularSheaf) -> List[List[int]]:
    return [cells for cells, _, _ in _gauges(sheaf)]


def sections_by_component(sheaf: CellularSheaf) -> List[Component]:
    """Each connected component of cells, ordered by its smallest cell, as
    (cells, gauges, roots): a root x, whose étalé class is {x}, is the
    section c ↦ gauges[c][x], and roots are in element order."""
    return [(cells, gauges, [x for cls in classes if len(cls) == 1 for x in cls])
            for cells, gauges, classes in _gauges(sheaf)]


def enumerate_global_sections(sheaf: CellularSheaf) -> List[SheafSection]:
    """All sections of each connected component, ordered by component and
    then by their element at the component's smallest-id cell. Sections of
    different components combine independently (cartesian product); they are
    emitted per component, not multiplied out."""
    return [SheafSection({c: gauges[c][x] for c in cells})
            for cells, gauges, roots in sections_by_component(sheaf) for x in roots]


def walk_permutation(sheaf: CellularSheaf, walk: Sequence[int]
                     ) -> Dict[Element, Element]:
    """Compose edge constraints along a closed or open walk: moving from a
    face into a coface applies the morphism, the reverse applies its inverse.
    Consecutive cells must be joined by a sheaf edge."""
    mapping: Dict[Element, Element] = {
        e: e for e in sheaf.stalks[walk[0]]}
    for u, w in zip(walk, walk[1:]):
        phi = sheaf.transport[u].get(w)
        if phi is None:
            raise ValidationError(f"cells {u} and {w} are not adjacent in the sheaf")
        if phi is not sheaf.transport[w][u]:  # an identity is its own inverse
            mapping = {e: phi[x] for e, x in mapping.items()}
    return mapping


def loop_monodromy(sheaf: CellularSheaf, cycle: Sequence[int]
                   ) -> Dict[Element, Element]:
    """Permutation of the starting cell's stalk obtained by composing the
    morphisms and inverse morphisms along an alternating coface/face cycle."""
    if len(cycle) < 3 or cycle[0] != cycle[-1]:
        raise ValidationError("loop_monodromy needs a closed cycle")
    if len(cycle) % 2 == 0:
        raise ValidationError("cycle must alternate coface, face, coface, ...")
    for i in range(0, len(cycle) - 1, 2):
        alpha, beta = cycle[i], cycle[i + 1]
        if (beta, alpha) not in sheaf.morphisms:
            raise ValidationError(
                f"cell {beta} is not a face of cell {alpha} in the sheaf")
        alpha2 = cycle[i + 2]
        if (beta, alpha2) not in sheaf.morphisms:
            raise ValidationError(
                f"cell {beta} is not a face of cell {alpha2} in the sheaf")
    return walk_permutation(sheaf, list(cycle))


@dataclass
class LoopClass:
    zero_cell: int
    cycle: List[int]
    permutation: Dict[Element, Element]
    nontrivial: bool


@dataclass
class MonodromyReport:
    loops: List[LoopClass]
    obstructed_seeds: List[Tuple[int, Element]]


def _link_cycle(sheaf: CellularSheaf, v: int) -> Optional[List[int]]:
    """The alternating 2-cell / 1-cell cycle around an interior 0-cell, or
    None when v is not interior (its link is not a single closed cycle) or
    its link leaves the sheaf's cells."""
    strat = sheaf.strat
    cofaces = strat.cofaces_of(v)
    if not all(c in sheaf.transport for c in cofaces):
        return None
    ones = sorted(c for c in cofaces if strat.cell(c).dim == 1)
    twos = sorted(c for c in cofaces if strat.cell(c).dim == 2)
    if len(ones) < 2 or len(ones) != len(twos):
        return None
    wings: Dict[int, List[int]] = {}
    for e in ones:
        fs = sorted(c for c in strat.cofaces_of(e) if c in twos)
        if len(fs) != 2:
            return None
        wings[e] = fs
    incident: Dict[int, List[int]] = {f: [] for f in twos}
    for e, (f1, f2) in wings.items():
        incident[f1].append(e)
        incident[f2].append(e)
    if any(len(es) != 2 for es in incident.values()):
        return None
    start = twos[0]
    first_edge = min(incident[start])
    cycle = [start, first_edge]
    cur_face, cur_edge = start, first_edge
    while True:
        nxt = next(f for f in wings[cur_edge] if f != cur_face)
        cycle.append(nxt)
        if nxt == start:
            break
        cur_face = nxt
        cur_edge = next(e for e in incident[cur_face] if e != cur_edge)
        cycle.append(cur_edge)
        if len(cycle) > 4 * len(ones) + 2:
            return None  # link is not a single cycle
    if len(cycle) != 2 * len(ones) + 1:
        return None
    return cycle


def monodromy_scan(sheaf: CellularSheaf) -> MonodromyReport:
    """Loop permutations around every interior 0-cell, plus every seed that
    admits no global extension on its component, by (cell, element)."""
    loops: List[LoopClass] = []
    members = set(sheaf.vertices)
    for cell in sheaf.strat.cells:
        if cell.dim != 0 or cell.id not in members:
            continue
        cycle = _link_cycle(sheaf, cell.id)
        if cycle is None:
            continue
        # _link_cycle alternates 2-cells and 1-cells: loop_monodromy's checks hold
        perm = walk_permutation(sheaf, cycle)
        loops.append(LoopClass(cell.id, cycle, perm,
                               any(k != v for k, v in perm.items())))
    obstructed = [(c, gauges[c][x]) for cells, gauges, classes in _gauges(sheaf)
                  for cls in classes if len(cls) > 1 for x in cls for c in cells]
    obstructed.sort(key=lambda seed: (seed[0], _element_sort_key(seed[1])))
    return MonodromyReport(loops, obstructed)


def _pair_values(values: Sequence, e: Element):
    b, d = e
    return (values[b], None if d is None else values[d])


def _certify_edge(sheaf: CellularSheaf, face: int, coface: int,
                  matches: Sequence[Tuple[Element, Element]], points: int,
                  rng: random.Random) -> int:
    """Check that each (face element, coface element) match evaluates to the
    same exact values, as integer numerators over one positive denominator,
    at `max(1, points)` points of the face cell: its representative, then
    `points - 1` random interior samples, drawn from rng only when some match
    is not an identity; an identity match is counted but not evaluated.
    Raises InvariantError at the first mismatch; returns the checks made."""
    moved = [(e, img) for e, img in matches if e != img]
    if moved:
        fcell = sheaf.strat.cell(face)
        points_at = [fcell.rep] + [sample_in_cell(fcell, rng)
                                   for _ in range(points - 1)]
        for p in points_at:
            nums, dz = point_numerators(sheaf.fib, p, fcell.triangles[0])
            for e, img in moved:
                lhs, rhs = _pair_values(nums, e), _pair_values(nums, img)
                if lhs != rhs:
                    lhs, rhs = (tuple(None if v is None else Fraction(v, dz) for v in pair)
                                for pair in (lhs, rhs))
                    raise InvariantError(
                        f"discontinuous across edge ({face}, {coface}) at {p}: "
                        f"face pair {e} evaluates to {lhs}, coface pair {img} to {rhs}")
    return max(1, points) * len(matches)


def bundle_section(sheaf: CellularSheaf, component: Component,
                   boundary_samples: int = 5, seed: int = 0) -> int:
    """Certify every section of a component as a continuous bundle section,
    in one pass over its face relations in edge order: `_certify_edge` checks
    every root's match at boundary points drawn once for all sections from
    `random.Random(seed)`. A relation whose cells share one gauge object
    moves no section's element; it is counted but not evaluated. Returns the
    checks made per section, `max(1, boundary_samples)` per relation. A
    failure means the sheaf (or the gauges) is inconsistent with the
    fibration and raises InvariantError naming the edge, the point and both
    value pairs."""
    _, gauges, roots = component
    rng = random.Random(seed)
    relations = [(face, coface) for face, coface in sheaf.edges() if face in gauges]
    for face, coface in relations:
        g_face, g_coface = gauges[face], gauges[coface]
        if g_face is not g_coface:
            _certify_edge(sheaf, face, coface, [(g_face[x], g_coface[x]) for x in roots],
                          boundary_samples, rng)
    return max(1, boundary_samples) * len(relations)


def edge_value_certificate(sheaf: CellularSheaf, samples_per_edge: int = 5,
                           seed: int = 0) -> int:
    """Check, for every edge morphism and every pair in the face stalk, that
    the pair and its image evaluate to the same exact values at sampled points
    of the face cell, drawn (as in `_certify_edge`) only for morphisms that
    are not the identity. Returns the number of equality checks performed,
    `max(1, samples_per_edge)` per pair of each morphism."""
    rng = random.Random(seed)
    return sum(_certify_edge(sheaf, face, coface,
                             list(sheaf.morphisms[(face, coface)].items()),
                             samples_per_edge, rng)
               for face, coface in sheaf.edges())
