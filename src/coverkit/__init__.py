"""Spatial coverage toolkit for multi-agent deployment.

Three ways to spread agents over a planar workspace against a priority
density: centroidal descent on Voronoi or power partitions, discrete
assignment to extracted points of interest, and transport-driven swarm
reconfiguration toward a target distribution. A scenario runner turns
YAML configs into logs and SVG frames; see the README for the CLI.
"""

from .assign import (
    AssignmentResult,
    CostMatrix,
    GaussianService,
    IsotropicService,
    build_cost_matrix,
    footprint_cost,
    gaussian_kl,
    kld_cost,
    solve_assignment,
)
from .coverage import (
    KIND_POWER,
    KIND_VORONOI,
    AgentState,
    DescentResult,
    Partition,
    build_partition,
    coverage_cost,
    equitable_weights,
    lloyd_step,
    make_agents,
    run_descent,
)
from .density import (
    DensityField,
    DiscreteMeasure,
    GmmDensity,
    GridDensity,
    UniformDensity,
    discretize,
    from_pgm,
    load_grid_csv,
)
from .errors import (
    CoverkitError,
    DuplicateSites,
    EvalOutsideSupport,
    InfeasibleShape,
    InvalidDensity,
    KernelMismatch,
    NoConvergence,
    NonFiniteCost,
    NonMonotoneDescent,
    SiteOutsideWorkspace,
    SizeLimit,
)
from .geometry import ConvexPolygon, HalfPlane, power_cells, voronoi_cells
from .poi import GmmFit, KMeansResult, PoiSet, gmm_em, kmeans, svgd
from .render import render_scene
from .submod import (
    GreedyTrace,
    exemplar_utility,
    exemplar_utility_fn,
    greedy_partition,
    greedy_uniform,
)
from .swarm import (
    SwarmRun,
    SwarmState,
    run_reconfiguration,
    systematic_resample,
    transport_step,
)
from .transport import (
    TransportPlan,
    check_w2_identity,
    self_transport_cost,
    wasserstein_exact,
    wasserstein_sinkhorn,
)

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "AssignmentResult",
    "ConvexPolygon",
    "CostMatrix",
    "CoverkitError",
    "DensityField",
    "DescentResult",
    "DiscreteMeasure",
    "DuplicateSites",
    "EvalOutsideSupport",
    "GaussianService",
    "GmmDensity",
    "GmmFit",
    "GreedyTrace",
    "GridDensity",
    "HalfPlane",
    "InfeasibleShape",
    "InvalidDensity",
    "IsotropicService",
    "KernelMismatch",
    "KIND_POWER",
    "KIND_VORONOI",
    "KMeansResult",
    "NoConvergence",
    "NonFiniteCost",
    "NonMonotoneDescent",
    "Partition",
    "PoiSet",
    "SiteOutsideWorkspace",
    "SizeLimit",
    "SwarmRun",
    "SwarmState",
    "TransportPlan",
    "UniformDensity",
    "build_cost_matrix",
    "build_partition",
    "check_w2_identity",
    "coverage_cost",
    "discretize",
    "equitable_weights",
    "exemplar_utility",
    "exemplar_utility_fn",
    "footprint_cost",
    "from_pgm",
    "gaussian_kl",
    "gmm_em",
    "greedy_partition",
    "greedy_uniform",
    "kld_cost",
    "kmeans",
    "lloyd_step",
    "load_grid_csv",
    "make_agents",
    "power_cells",
    "render_scene",
    "run_descent",
    "run_reconfiguration",
    "self_transport_cost",
    "solve_assignment",
    "svgd",
    "systematic_resample",
    "transport_step",
    "voronoi_cells",
    "wasserstein_exact",
    "wasserstein_sinkhorn",
    "__version__",
]
