"""The étalé walk that the gauge pass (`pdbundle.sheaf._gauges`) replaced,
kept as the tests' oracle. The cell components come from a breadth-first
search over the cells; over each, the étalé graph, one node per (cell,
element), is walked one component at a time from the component's smallest
cell, by element, skipping the elements an earlier walk reached. An étalé
component with one node per cell is a section, and every node of any other
is an obstructed seed. `sections_to_json` is the sections document as it was
built from one `SheafSection` per section, each assignment sorted."""
import math
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from pdbundle.serialize import element_to_json
from pdbundle.sheaf import SheafSection


def element_key(e):
    return (e[0], e[1] is None, e[1] if e[1] is not None else -1)


def connected_components(sheaf) -> List[List[int]]:
    seen: Set[int] = set()
    comps: List[List[int]] = []
    for cid in sheaf.vertices:
        if cid not in seen:
            seen.add(cid)
            comp = [cid]
            for u in comp:  # comp grows while it is read: the BFS queue
                for w in sheaf.transport[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


def etale_components(sheaf, cells: List[int]) -> Iterator[List[Tuple[int, object]]]:
    """The étalé components over one connected component of cells, each as
    its (cell, element) nodes in breadth-first order."""
    first = cells[0]
    reached: Set = set()
    for x in sorted(sheaf.stalks[first], key=element_key):
        if x in reached:
            continue
        nodes = [(first, x)]
        seen = {nodes[0]}
        for u, y in nodes:  # nodes grows while it is read: the BFS queue
            for w, phi in sheaf.transport[u].items():
                node = (w, phi[y])
                if node not in seen:
                    seen.add(node)
                    nodes.append(node)
        reached.update(y for v, y in nodes if v == first)
        yield nodes


def sections_by_component(sheaf) -> List[Tuple[List[int], List[SheafSection]]]:
    return [(cells, [SheafSection(dict(nodes))
                     for nodes in etale_components(sheaf, cells)
                     if len(nodes) == len(cells)])
            for cells in connected_components(sheaf)]


def sections_to_json(sheaf, by_component: List[Tuple[List[int], List[SheafSection]]]
                     ) -> Dict:
    K = sheaf.fib.complex
    per_component = [len(sections) for _, sections in by_component]
    return {
        "degree": sheaf.degree,
        "components": [cells for cells, _ in by_component],
        "sections": [{"assignment": sorted(
            [cid, element_to_json(K, e)] for cid, e in s.assignment.items())}
            for _, sections in by_component for s in sections],
        "sections_per_component": per_component,
        "global_section_count": math.prod(per_component),
    }


def obstructed_seeds(sheaf) -> List[Tuple[int, object]]:
    seeds = [node for cells in connected_components(sheaf)
             for nodes in etale_components(sheaf, cells)
             if len(nodes) != len(cells) for node in nodes]
    return sorted(seeds, key=lambda seed: (seed[0], element_key(seed[1])))


def walk_permutation(sheaf, walk: Sequence[int]) -> Dict:
    """The composite of the transport maps along a walk, every step
    applied."""
    mapping = {e: e for e in sheaf.stalks[walk[0]]}
    for u, w in zip(walk, walk[1:]):
        phi = sheaf.transport[u][w]
        mapping = {e: phi[x] for e, x in mapping.items()}
    return mapping
