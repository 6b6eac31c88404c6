"""Persistence-diagram bundles for piecewise-linear fibered filtrations over
triangulated planar base spaces: exact stratification into constant-order
cells, compatible cellular sheaves, sections, and monodromy."""

from .complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    induced_indexing,
    simplex_order_compare,
    validate,
)
from .persistence import (
    PairSet,
    PersistenceDiagram,
    diagram,
    reduce_pairs,
)
from .vineyard import (
    PairBijection,
    Vine,
    composed_bijection,
    path_vineyard,
    transposition_update,
)
from .stratify import (
    BaseMesh,
    IntersectionTrace,
    PLFibration,
    Stratification,
    build_stratification,
    filtration_at,
    intersection_trace,
    merge_cells,
    order_constancy_check,
    representative_point,
)
from .sheaf import (
    CellularSheaf,
    InvariantError,
    MonodromyReport,
    Obstruction,
    SheafSection,
    build_sheaf,
    bundle_section,
    enumerate_global_sections,
    loop_monodromy,
    monodromy_scan,
    propagate,
)
from .generators import gen_image_fibration, gen_instability, gen_monodromy

__all__ = [
    "BaseMesh", "CellularSheaf", "IntersectionTrace", "InvariantError",
    "MonodromyReport", "Obstruction", "PLFibration", "PairBijection",
    "PairSet", "PersistenceDiagram", "SheafSection", "SimplexIndexing",
    "SimplicialComplex", "Stratification", "ValidationError", "Vine",
    "build_sheaf", "build_stratification", "bundle_section",
    "composed_bijection", "diagram", "enumerate_global_sections",
    "filtration_at", "gen_image_fibration", "gen_instability",
    "gen_monodromy", "induced_indexing", "intersection_trace",
    "loop_monodromy", "merge_cells", "monodromy_scan", "order_constancy_check",
    "path_vineyard", "propagate", "reduce_pairs", "representative_point",
    "simplex_order_compare", "transposition_update", "validate",
]
