"""The public names and the module attributes the benchmark tracer patches."""

import importlib

import coverkit
from coverbench.tracing import LAYERS

# Growing or shrinking the public API is a decision: make it here, in the diff.
PUBLIC = [
    "AgentState", "AssignmentResult", "ConvexPolygon", "CostMatrix", "CoverkitError",
    "DensityField", "DescentResult", "DiscreteMeasure", "DuplicateSites",
    "EvalOutsideSupport", "GaussianService", "GmmDensity", "GmmFit", "GreedyTrace",
    "GridDensity", "HalfPlane", "InfeasibleShape", "InvalidDensity", "IsotropicService",
    "KIND_POWER", "KIND_VORONOI", "KMeansResult", "KernelMismatch", "NoConvergence",
    "NonFiniteCost", "NonMonotoneDescent", "Partition", "PoiSet", "SiteOutsideWorkspace",
    "SizeLimit", "SwarmRun", "SwarmState", "TransportPlan", "UniformDensity",
    "__version__", "build_cost_matrix", "build_partition", "check_w2_identity",
    "coverage_cost", "discretize", "equitable_weights", "exemplar_utility",
    "exemplar_utility_fn", "footprint_cost", "from_pgm", "gaussian_kl", "gmm_em",
    "greedy_partition", "greedy_uniform", "kld_cost", "kmeans", "lloyd_step",
    "load_grid_csv", "make_agents", "power_cells", "render_scene", "run_descent",
    "run_reconfiguration", "self_transport_cost", "solve_assignment", "svgd",
    "systematic_resample", "transport_step", "voronoi_cells", "wasserstein_exact",
    "wasserstein_sinkhorn",
]


def test_public_names_are_pinned_unique_and_resolve():
    assert sorted(coverkit.__all__) == PUBLIC
    assert len(set(coverkit.__all__)) == len(coverkit.__all__)
    for name in coverkit.__all__:
        assert hasattr(coverkit, name), name


def test_every_traced_attribute_exists():
    # the tracer replaces owner.__dict__[attr], so an inherited or deleted
    # attribute would break the traced benchmark runs
    for sites in LAYERS.values():
        for where, attr in sites:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            assert attr in owner.__dict__, f"{where}.{attr}"
