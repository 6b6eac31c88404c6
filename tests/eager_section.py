"""Sheaf sections certified eagerly, the oracle of the differential tests
in test_bundle_section.py.

`bundle_section` certifies every in-scope face relation of a section by
`certify_edge`, from one random source. `bundle_component` certifies every
face relation of a component, as `sections_by_component` gives it, by one
`certify_edge` over all its roots' matches, from one random source too, and
evaluates even the relations whose cells share one gauge object. `certify_edge` draws the boundary
points of a face cell only when some match is not an identity, the policy
pdbundle follows, builds them all, and compares the `Fraction` values of
each moved match there. Points are drawn by `barycentric.sample_in_cell`
(Fraction sums), never by pdbundle's sampler, and evaluated at every
simplex by `filtration_at`. Both take their random source as an argument,
so that a test can compare its state afterwards.
"""
import random
from typing import Sequence, Tuple

from pdbundle.persistence import Element
from pdbundle.sheaf import CellularSheaf, InvariantError, SheafSection
from pdbundle.stratify import filtration_at

from barycentric import sample_in_cell


def _pair_values(values, e: Element):
    b, d = e
    return (values[b], None if d is None else values[d])


def certify_edge(sheaf: CellularSheaf, face: int, coface: int,
                 matches: Sequence[Tuple[Element, Element]], points: int,
                 rng: random.Random) -> int:
    moved = [(e, img) for e, img in matches if e != img]
    if moved:
        fcell = sheaf.strat.cell(face)
        pts = [fcell.rep]
        pts += [sample_in_cell(fcell, rng) for _ in range(max(0, points - 1))]
        for p in pts:
            values = filtration_at(sheaf.fib, p, triangle_hint=fcell.triangles[0])
            for e, img in moved:
                lhs, rhs = _pair_values(values, e), _pair_values(values, img)
                if lhs != rhs:
                    raise InvariantError(
                        f"discontinuous across edge ({face}, {coface}) at {p}: "
                        f"face pair {e} evaluates to {lhs}, coface pair {img} to {rhs}")
    # every match counts once per point, drawn or not
    return max(1, points) * len(matches)


def bundle_section(sheaf: CellularSheaf, section: SheafSection,
                   boundary_samples: int, rng: random.Random) -> int:
    """The number of boundary checks."""
    chosen = section.assignment
    return sum(
        certify_edge(sheaf, face, coface, [(chosen[face], chosen[coface])],
                     boundary_samples, rng)
        for face, coface in sheaf.edges() if face in chosen and coface in chosen)


def bundle_component(sheaf: CellularSheaf, component, boundary_samples: int,
                     rng: random.Random) -> int:
    """The number of boundary checks per section."""
    cells, gauges, roots = component
    scope, checks = set(cells), 0
    for face, coface in sheaf.edges():
        if face in scope and coface in scope:
            certify_edge(sheaf, face, coface,
                         [(gauges[face][x], gauges[coface][x]) for x in roots],
                         boundary_samples, rng)
            checks += max(1, boundary_samples)
    return checks
