"""Finite approximation towers for compact metric samples."""

from .construction import AdjustedSequence, Level, build_adjusted_sequence, build_net, gamma
from .homotopy import (
    ApproximativeMap,
    HomotopyWitness,
    check_diagram_commutes,
    check_homotopic_in_U,
    check_identity_convergence,
    finite_type_convert,
)
from .hyperspace import (
    HyperLevel,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    is_continuous,
    nearest_point_map,
    verify_adjusted_distance_bounds,
)
from .invariants import (
    SimplicialComplex,
    betti,
    bonding_vertex_map,
    induced_homology_map,
    order_complex,
    rips_complex,
    shape_report,
)
from .metric import MetricGround, SpaceSpec, generate, load_ground

__version__ = "0.1.0"

__all__ = [
    "AdjustedSequence",
    "ApproximativeMap",
    "HomotopyWitness",
    "HyperLevel",
    "Level",
    "MetricGround",
    "MultiMap",
    "SimplicialComplex",
    "SpaceSpec",
    "Tower",
    "betti",
    "bonding_map",
    "bonding_vertex_map",
    "build_adjusted_sequence",
    "build_hyperlevel",
    "build_net",
    "check_diagram_commutes",
    "check_homotopic_in_U",
    "check_identity_convergence",
    "composite_bonding",
    "finite_type_convert",
    "gamma",
    "generate",
    "induced_homology_map",
    "is_continuous",
    "load_ground",
    "nearest_point_map",
    "order_complex",
    "rips_complex",
    "shape_report",
    "verify_adjusted_distance_bounds",
    "__version__",
]
