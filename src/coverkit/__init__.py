"""Spatial coverage toolkit for multi-agent deployment.

Three ways to spread agents over a planar workspace against a priority
density: centroidal descent on Voronoi or power partitions, discrete
assignment to extracted points of interest, and transport-driven swarm
reconfiguration toward a target distribution. A scenario runner turns
YAML configs into logs and SVG frames; see the README for the CLI.
"""

from .assign import (
    GaussianService,
    IsotropicService,
    build_cost_matrix,
    footprint_cost,
    gaussian_kl,
    kld_cost,
    solve_assignment,
)
from .coverage import (
    DescentResult,
    Partition,
    build_partition,
    equitable_weights,
    lloyd_step,
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
    NoConvergence,
    NonFiniteCost,
    NonMonotoneDescent,
    SiteOutsideWorkspace,
    SizeLimit,
)
from .geometry import ConvexPolygon, power_cells
from .poi import GmmFit, KMeansResult, gmm_em, kmeans, svgd
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
    wasserstein_exact,
    wasserstein_sinkhorn,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexPolygon",
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
    "InfeasibleShape",
    "InvalidDensity",
    "IsotropicService",
    "KMeansResult",
    "NoConvergence",
    "NonFiniteCost",
    "NonMonotoneDescent",
    "Partition",
    "SiteOutsideWorkspace",
    "SizeLimit",
    "SwarmRun",
    "SwarmState",
    "TransportPlan",
    "UniformDensity",
    "build_cost_matrix",
    "build_partition",
    "check_w2_identity",
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
    "power_cells",
    "render_scene",
    "run_descent",
    "run_reconfiguration",
    "solve_assignment",
    "svgd",
    "systematic_resample",
    "transport_step",
    "wasserstein_exact",
    "wasserstein_sinkhorn",
    "__version__",
]
