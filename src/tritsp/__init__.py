"""TSP approximation parameterized by triangle-inequality violations."""

from .errors import (
    ContractViolationError,
    GenerationRetryError,
    InstanceFormatError,
    ParseError,
    SizeRefusalError,
    TritspError,
)
from .instance import (
    Instance,
    TriangleAudit,
    audit_triangles,
    gen_metric,
    gen_planted,
    load_instance,
    save_instance,
)
from .layouts import ChainLayout, build_bad_cycle, enumerate_layouts
from .forest import RootedForest, rooted_msf
from .matching import Matching, min_cost_perfect_matching
from .multigraph import MultiGraph
from .shortcut import Tour, euler_tour, splice_bad, splice_good
from .solver import (
    SolveOptions,
    SolveReport,
    christofides,
    evaluate_layout,
    held_karp,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "GenerationRetryError",
    "InstanceFormatError",
    "ParseError",
    "SizeRefusalError",
    "TritspError",
    "Instance",
    "TriangleAudit",
    "audit_triangles",
    "gen_metric",
    "gen_planted",
    "load_instance",
    "save_instance",
    "ChainLayout",
    "build_bad_cycle",
    "enumerate_layouts",
    "RootedForest",
    "rooted_msf",
    "Matching",
    "min_cost_perfect_matching",
    "MultiGraph",
    "Tour",
    "euler_tour",
    "splice_bad",
    "splice_good",
    "SolveOptions",
    "SolveReport",
    "christofides",
    "evaluate_layout",
    "held_karp",
    "solve",
]
