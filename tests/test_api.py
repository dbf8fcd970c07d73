"""The public names, what importing them loads, the module attributes the
benchmark tracer patches, and the README's library quick start."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverkit
from coverbench.tracing import LAYERS

from tests.conftest import REPO_ROOT

# Growing or shrinking the public API is a decision: make it here, in the diff.
PUBLIC = [
    "ConvexPolygon", "CoverkitError",
    "DensityField", "DescentResult", "DiscreteMeasure", "DuplicateSites",
    "EvalOutsideSupport", "GaussianService", "GmmDensity", "GmmFit", "GreedyTrace",
    "GridDensity", "InfeasibleShape", "InvalidDensity", "IsotropicService",
    "KMeansResult", "NoConvergence", "NonFiniteCost", "NonMonotoneDescent", "Partition",
    "SiteOutsideWorkspace", "SizeLimit", "SwarmRun", "SwarmState",
    "TransportPlan", "UniformDensity", "__version__", "build_cost_matrix",
    "build_partition", "check_w2_identity", "discretize", "equitable_weights",
    "exemplar_utility", "exemplar_utility_fn", "footprint_cost", "from_pgm",
    "gaussian_kl", "gmm_em", "greedy_partition", "greedy_uniform", "kld_cost", "kmeans",
    "lloyd_step", "load_grid_csv", "power_cells", "render_scene", "run_descent",
    "run_reconfiguration", "solve_assignment", "svgd",
    "systematic_resample", "transport_step", "wasserstein_exact", "wasserstein_sinkhorn",
]


def test_public_names_are_pinned_unique_and_resolve():
    assert sorted(coverkit.__all__) == PUBLIC
    assert len(set(coverkit.__all__)) == len(coverkit.__all__)
    for name in coverkit.__all__:
        assert hasattr(coverkit, name), name


def test_dir_and_star_import_give_the_public_names():
    assert dir(coverkit) == sorted(coverkit.__all__)
    namespace = {}
    exec("from coverkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(coverkit.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        coverkit.no_such_name
    with pytest.raises(ImportError):
        from coverkit import no_such_name  # noqa: F401


def loaded_in_fresh_interpreter(code, cwd):
    """Run code in a new interpreter; returns the sorted sys.modules names it prints."""
    src = str(Path(coverkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code + "\nimport json, sys\n"
                           "print(json.dumps(sorted(sys.modules)))"],
                          capture_output=True, text=True, timeout=120, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_coverkit_loads_no_submodule(tmp_path):
    loaded = loaded_in_fresh_interpreter("import coverkit", tmp_path)
    assert [m for m in loaded if m.startswith("coverkit.")] == []


def test_descent_runs_load_no_other_pipeline(tmp_path):
    scenarios = [str(REPO_ROOT / "scenarios" / f"{name}.yaml")
                 for name in ("four_modes_power", "lloyd_uniform")]
    loaded = loaded_in_fresh_interpreter(
        "from coverkit import runner\n"
        f"for i, path in enumerate({scenarios!r}):\n"
        "    assert runner.validate(path).ok\n"
        "    assert runner.run(path, out=f'out{i}') == 0\n", tmp_path)
    assert "coverkit.coverage" in loaded
    assert not {"scipy.optimize", "coverkit.assign", "coverkit.poi", "coverkit.submod",
                "coverkit.swarm", "coverkit.transport"} & set(loaded)
    # nor the network stack that xml.sax.saxutils would pull in
    assert not {"ssl", "http.client", "urllib.request"} & set(loaded)


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


def test_readme_quick_start_runs(capsys):
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library quick start", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
