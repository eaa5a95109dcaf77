"""Finite approximation towers for compact metric samples."""

from .construction import AdjustedSequence, Level, build_adjusted_sequence
from .homotopy import HomotopyWitness, check_diagram_commutes, check_homotopic_in_U, check_identity_convergence
from .hyperspace import (
    HyperLevel,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
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
    "check_diagram_commutes",
    "check_homotopic_in_U",
    "check_identity_convergence",
    "composite_bonding",
    "generate",
    "induced_homology_map",
    "load_ground",
    "order_complex",
    "rips_complex",
    "shape_report",
    "verify_adjusted_distance_bounds",
    "__version__",
]
