"""Spatial coverage toolkit for multi-agent deployment.

Three ways to spread agents over a planar workspace against a priority
density: centroidal descent on Voronoi or power partitions, discrete
assignment to extracted points of interest, and transport-driven swarm
reconfiguration toward a target distribution. A scenario runner turns
YAML configs into logs and SVG frames; see the README for the CLI.

Each public name loads its module on first access (PEP 562), so a process
pays only for the pipelines it uses: ``import coverkit`` loads no submodule.
"""

import importlib

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "assign": ("GaussianService", "IsotropicService", "build_cost_matrix",
                   "footprint_cost", "gaussian_kl", "kld_cost", "solve_assignment"),
        "coverage": ("DescentResult", "Partition", "build_partition", "equitable_weights",
                     "lloyd_step", "run_descent"),
        "density": ("DensityField", "DiscreteMeasure", "GmmDensity", "GridDensity",
                    "UniformDensity", "discretize", "from_pgm", "load_grid_csv"),
        "errors": ("CoverkitError", "DuplicateSites", "EvalOutsideSupport",
                   "InfeasibleShape", "InvalidDensity", "NoConvergence", "NonFiniteCost",
                   "NonMonotoneDescent", "SiteOutsideWorkspace", "SizeLimit"),
        "geometry": ("ConvexPolygon", "power_cells"),
        "poi": ("GmmFit", "KMeansResult", "gmm_em", "kmeans", "svgd"),
        "render": ("render_scene",),
        "submod": ("GreedyTrace", "exemplar_utility", "exemplar_utility_fn",
                   "greedy_partition", "greedy_uniform"),
        "swarm": ("SwarmRun", "SwarmState", "run_reconfiguration", "systematic_resample",
                  "transport_step"),
        "transport": ("TransportPlan", "check_w2_identity", "wasserstein_exact",
                      "wasserstein_sinkhorn"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name):
    """Import a public name from its module on first access, then keep it here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
