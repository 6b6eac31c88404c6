"""Compatible cellular sheaf over the stratification graph: pair-set stalks,
update-rule morphisms, section propagation, global sections and obstructed
seeds, loop monodromy, and synthesis of bundle sections with an exact
continuity check.

The sheaf lives on the graph with one vertex per stratification cell and one
edge per face relation. The stalk at a cell is its pair set (optionally
restricted to one homology degree); the morphism from a face cell into a
coface cell is the canonical composed update bijection between their induced
indexings, restricted accordingly. Global sections and obstructed seeds are
both read off one pass over the étalé graph of the sheaf.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .complexes import ValidationError
from .persistence import Element
from .stratify import PLFibration, Stratification, filtration_at, sample_in_cell
from .vineyard import composed_bijection


class InvariantError(Exception):
    """An internal invariant failed; signals a construction bug, not bad input."""


def _element_sort_key(e: Element):
    return (e[0], e[1] is None, e[1] if e[1] is not None else -1)


@dataclass
class CellularSheaf:
    """Stalks and face-to-coface morphisms on a set of cells. On construction
    the morphisms are also laid out as two-way edge transport:
    `transport[u][w]` carries the stalk of cell u to that of an adjacent cell
    w, by the morphism when w is a coface of u and by its inverse when w is a
    face. Neighbours are listed in edge order."""

    strat: Stratification
    degree: Optional[int]
    vertices: List[int]
    stalks: Dict[int, FrozenSet[Element]]
    morphisms: Dict[Tuple[int, int], Dict[Element, Element]]
    transport: Dict[int, Dict[int, Dict[Element, Element]]] = field(
        init=False, repr=False)

    def __post_init__(self):
        self.transport = {v: {} for v in self.vertices}
        for face, coface in self.edges():
            phi = self.morphisms[(face, coface)]
            self.transport[face][coface] = phi
            self.transport[coface][face] = {y: x for x, y in phi.items()}

    @property
    def fib(self) -> PLFibration:
        return self.strat.fib

    def edges(self) -> List[Tuple[int, int]]:
        return sorted(self.morphisms.keys())

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
    """Construct the compatible cellular sheaf for a stratification. With a
    degree, stalks keep only the pairs whose birth simplex has that dimension
    (essential births included); update bijections preserve the degree, so the
    restriction is again a sheaf of bijections."""
    K = strat.fib.complex
    stalks: Dict[int, FrozenSet[Element]] = {}
    for cell in strat.cells:
        pairs = strat.cell_pairs(cell.id)
        if degree is None:
            stalks[cell.id] = pairs.elements()
        else:
            stalks[cell.id] = pairs.elements_of_degree(K, degree)
    morphisms: Dict[Tuple[int, int], Dict[Element, Element]] = {}
    for cell in strat.cells:
        for face in sorted(strat.faces_of(cell.id)):
            bij = composed_bijection(strat.pairs, strat.indexings[face],
                                     strat.indexings[cell.id])
            mapping = bij.restrict(stalks[face])
            if set(mapping.values()) != set(stalks[cell.id]):
                raise InvariantError(
                    f"morphism {face} -> {cell.id} is not onto the coface stalk")
            morphisms[(face, cell.id)] = mapping
    return CellularSheaf(strat, degree, [c.id for c in strat.cells],
                         stalks, morphisms)


@dataclass
class SheafSection:
    """A consistent choice of one stalk element per vertex on a scope (one
    connected component for sections found by propagation)."""

    assignment: Dict[int, Element]

    @property
    def scope(self) -> FrozenSet[int]:
        return frozenset(self.assignment)

    def check(self, sheaf: CellularSheaf) -> None:
        for (face, coface), phi in sheaf.morphisms.items():
            if face in self.assignment and coface in self.assignment:
                if phi[self.assignment[face]] != self.assignment[coface]:
                    raise InvariantError(
                        f"section violates edge ({face}, {coface})")


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


def connected_components(sheaf: CellularSheaf) -> List[List[int]]:
    seen: Set[int] = set()
    comps: List[List[int]] = []
    for cid in sheaf.vertices:
        if cid in seen:
            continue
        comp = []
        queue = deque([cid])
        seen.add(cid)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sheaf.transport[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _etale_pass(sheaf: CellularSheaf
                ) -> Tuple[List[SheafSection], List[Tuple[int, Element]]]:
    """Sections and obstructed seeds from one breadth-first pass over the
    étalé graph: one node per (cell, stalk element), joined along the edge
    transport. The transport maps are bijections, so a component meets every
    cell of its connected component of cells. It is a section when it meets
    each of them once; otherwise each of its nodes is an obstructed seed.

    Seeds are taken by cell id, then element, so every component starts at
    its smallest cell: sections come out ordered by cell component and then
    by their element there, and obstructed seeds by (cell, element)."""
    seeds = [(v, x) for v in sheaf.vertices
             for x in sorted(sheaf.stalks[v], key=_element_sort_key)]
    component: Dict[Tuple[int, Element], int] = {}
    is_section: List[bool] = []
    sections: List[SheafSection] = []
    for seed in seeds:
        if seed in component:
            continue
        index = component[seed] = len(is_section)
        nodes = [seed]
        for u, x in nodes:  # nodes grows while it is read: the BFS queue
            for w, phi in sheaf.transport[u].items():
                node = (w, phi[x])
                if node not in component:
                    component[node] = index
                    nodes.append(node)
        assignment = dict(nodes)
        is_section.append(len(assignment) == len(nodes))
        if is_section[-1]:
            sections.append(SheafSection(assignment))
    obstructed = [seed for seed in seeds if not is_section[component[seed]]]
    return sections, obstructed


def enumerate_global_sections(sheaf: CellularSheaf) -> List[SheafSection]:
    """All sections of each connected component, ordered by component and
    then by their element at the component's smallest-id cell. Sections of
    different components combine independently (cartesian product); they are
    emitted per component, not multiplied out."""
    return _etale_pass(sheaf)[0]


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
    None when v is not interior (its link is not a single closed cycle)."""
    strat = sheaf.strat
    ones = sorted(c for c in strat.cofaces_of(v) if strat.cell(c).dim == 1)
    twos = sorted(c for c in strat.cofaces_of(v) if strat.cell(c).dim == 2)
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
    admits no global extension on its component."""
    loops: List[LoopClass] = []
    members = set(sheaf.vertices)
    for cell in sheaf.strat.cells:
        if cell.dim != 0 or cell.id not in members:
            continue
        cycle = _link_cycle(sheaf, cell.id)
        if cycle is None:
            continue
        perm = loop_monodromy(sheaf, cycle)
        loops.append(LoopClass(cell.id, cycle, perm,
                               any(k != v for k, v in perm.items())))
    return MonodromyReport(loops, _etale_pass(sheaf)[1])


# ---------------------------------------------------------------------------
# From sheaf sections to bundle sections.
# ---------------------------------------------------------------------------

@dataclass
class BundleSectionSample:
    cell: int
    point: Tuple
    birth: object
    death: Optional[object]


@dataclass
class BundleSection:
    samples: List[BundleSectionSample]
    boundary_points_checked: int


def _pair_values(values: Sequence, e: Element):
    b, d = e
    return (values[b], None if d is None else values[d])


def _certify_edge(sheaf: CellularSheaf, face: int, coface: int,
                  matches: Sequence[Tuple[Element, Element]], points: int,
                  rng: random.Random) -> int:
    """Check that each (face element, coface element) match evaluates to the
    same exact values at `points` points of the face cell: its representative
    and random interior samples. The filtration is evaluated once per point.
    Raises InvariantError at the first mismatch; returns the checks made."""
    fcell = sheaf.strat.cell(face)
    pts = [fcell.rep]
    pts += [sample_in_cell(fcell, rng) for _ in range(max(0, points - 1))]
    for p in pts:
        values = filtration_at(sheaf.fib, p, triangle_hint=fcell.triangles[0])
        for e, img in matches:
            lhs, rhs = _pair_values(values, e), _pair_values(values, img)
            if lhs != rhs:
                raise InvariantError(
                    f"discontinuous across edge ({face}, {coface}) at {p}: "
                    f"face pair {e} evaluates to {lhs}, coface pair {img} to {rhs}")
    return len(pts) * len(matches)


def bundle_section(sheaf: CellularSheaf, section: SheafSection,
                   samples_per_cell: int = 3, boundary_samples: int = 5,
                   seed: int = 0) -> BundleSection:
    """Evaluate a sheaf section into the persistence plane at sampled base
    points, and certify continuity across every in-scope face relation by
    exact evaluation at boundary points of the face cell.

    A certificate failure means the sheaf (or the section) is inconsistent
    with the fibration and raises InvariantError naming the edge, the point
    and both value pairs."""
    fib = sheaf.fib
    strat = sheaf.strat
    rng = random.Random(seed)
    samples: List[BundleSectionSample] = []
    for cid in sorted(section.assignment):
        cell = strat.cell(cid)
        e = section.assignment[cid]
        pts = [cell.rep]
        pts += [sample_in_cell(cell, rng) for _ in range(max(0, samples_per_cell - 1))]
        for p in pts:
            values = filtration_at(fib, p, triangle_hint=cell.triangles[0])
            samples.append(BundleSectionSample(cid, p, *_pair_values(values, e)))
    chosen = section.assignment
    checked = sum(
        _certify_edge(sheaf, face, coface, [(chosen[face], chosen[coface])],
                      boundary_samples, rng)
        for face, coface in sheaf.edges() if face in chosen and coface in chosen)
    return BundleSection(samples, checked)


def edge_value_certificate(sheaf: CellularSheaf, samples_per_edge: int = 5,
                           seed: int = 0) -> int:
    """Check, for every edge morphism and every pair in the face stalk, that
    the pair and its image evaluate to the same exact values at sampled points
    of the face cell. Returns the number of equality checks performed."""
    rng = random.Random(seed)
    return sum(_certify_edge(sheaf, face, coface, list(phi.items()),
                             samples_per_edge, rng)
               for (face, coface), phi in sorted(sheaf.morphisms.items()))
