"""Single-strip triangulation: convert a triangulated 2-manifold into one
Hamiltonian triangle cycle (or one open strip for meshes with boundary) by
dual-graph perfect matching and coplanar midpoint splits, and generate
space-filling curves on the result."""

__version__ = "0.1.0"

from .boundary import (
    balance_edge,
    dual_spanning_tree,
    euler_strip,
    spine_path,
    strip_with_boundary,
)
from .fileio import ParseError, load_mesh, read_strip_order, save_mesh, write_strip_order
from .generators import GenSpec, gen_mk, generate, parse_spec
from .matching import MatchingError, MatchState, perfect_match_dual
from .mesh import (
    Mesh,
    MeshError,
    ValidationError,
    ValidationReport,
    build_dual,
    edge_key,
    split_pair,
    validate,
)
from .sfc import (
    CurveError,
    CurvePolyline,
    DirectedCycle,
    direct_cycle,
    export_curve,
    generate_curve,
)
from .striploop import (
    CycleSet,
    PipelineError,
    RemovedConfig,
    StripResult,
    assemble_cycle,
    eliminate_three_cycles,
    extract_cycles,
    merge_nodal,
    restore_three_cycles,
    spanning_tree_splits,
    stripify,
    verify_order,
)

__all__ = [
    "__version__",
    "Mesh",
    "MeshError",
    "ParseError",
    "ValidationError",
    "ValidationReport",
    "edge_key",
    "validate",
    "build_dual",
    "split_pair",
    "load_mesh",
    "save_mesh",
    "read_strip_order",
    "write_strip_order",
    "MatchState",
    "MatchingError",
    "perfect_match_dual",
    "CycleSet",
    "RemovedConfig",
    "StripResult",
    "PipelineError",
    "eliminate_three_cycles",
    "restore_three_cycles",
    "extract_cycles",
    "merge_nodal",
    "spanning_tree_splits",
    "assemble_cycle",
    "verify_order",
    "stripify",
    "gen_mk",
    "dual_spanning_tree",
    "balance_edge",
    "spine_path",
    "euler_strip",
    "strip_with_boundary",
    "GenSpec",
    "generate",
    "parse_spec",
    "DirectedCycle",
    "CurvePolyline",
    "CurveError",
    "direct_cycle",
    "generate_curve",
    "export_curve",
]
