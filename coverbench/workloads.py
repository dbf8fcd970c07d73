"""The three benchmark workloads: config generation, output checks, objective.

Each workload turns the benchmark seed into one scenario config for
``coverkit.runner.run``; the program sees only that config. After every run
the artifacts are read back and checked, and the pipeline's own final result
is extracted as ``objective`` (lower is better for all three).
"""
from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# Relative slack of coverage._check_monotone; a cost may rise by this much.
DESCENT_SLACK = 1e-6

# Full sizes, and the toy sizes the smoke test runs through the same code.
# descent and poi runs take about 3 s, so that one invocation holds about
# ten of them: the host's speed swings by up to 1.6x within seconds, and the
# median of three or four longer runs followed those swings.
SIZES = {
    "descent": {"agents": 100, "iters": 5},
    "poi": {"disks": 8, "gaussians": 8, "sites": 40, "orientations": 2,
            "svgd_iters": 500},
    "swarm": {},
}
TOY_SIZES = {
    "descent": {"agents": 8, "iters": 3},
    "poi": {"disks": 2, "gaussians": 2, "sites": 6, "orientations": 2,
            "svgd_iters": 20},
    "swarm": {"agents": 40, "iters": 3},
}


def _scenario(name: str) -> dict:
    return yaml.safe_load((SCENARIOS / name).read_text())


def _scenario_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _stratified(rng: np.random.Generator, low: float, high: float, n: int) -> np.ndarray:
    """n draws from U[low, high], one per stratum of width (high - low)/n, shuffled.

    Each value is random, but the set of values hardly changes with the seed,
    so neither does the instance's size: the objective and the run time then
    vary across seeds by little more than the program does.
    """
    return low + (high - low) * (rng.permutation(n) + rng.uniform(size=n)) / n


def descent_config(rng, agents, iters, config_dir):
    """Power Lloyd descent of many small heterogeneous agents on four modes.

    tol is far below any reachable displacement, so every iteration runs and
    the work per run does not depend on where the descent settles.
    """
    return {
        "pipeline": "power_lloyd",
        "seed": _scenario_seed(rng),
        "density": _scenario("four_modes_power.yaml")["density"],
        "agents": {"n": agents, "positions": "sample",
                   "radii": _stratified(rng, 0.0, 0.04, agents).tolist()},
        "params": {"iters": iters, "tol": 1e-12},
    }


def _gaussian_service(major: float, minor: float, angle: float) -> dict:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([major, minor]) @ rot.T
    off = float(cov[0, 1])  # written twice so the matrix is exactly symmetric
    return {"kind": "gaussian",
            "covariance": [[float(cov[0, 0]), off], [off, float(cov[1, 1])]]}


def poi_config(rng, disks, gaussians, sites, orientations, svgd_iters, config_dir):
    """SVGD sites priced by footprint integrals for disk and Gaussian services."""
    services = [{"kind": "disk", "radius": float(r)}
                for r in _stratified(rng, 0.06, 0.14, disks)]
    services += [_gaussian_service(*shape) for shape in zip(
        _stratified(rng, 0.006, 0.014, gaussians), _stratified(rng, 0.002, 0.005, gaussians),
        rng.uniform(0.0, math.pi, gaussians))]
    return {
        "pipeline": "poi_assign",
        "seed": _scenario_seed(rng),
        "density": _scenario("poi_disks.yaml")["density"],
        "agents": {"n": disks + gaussians, "positions": "sample",
                   "services": services},
        "params": {"k": sites, "method": "svgd", "svgd_iters": svgd_iters,
                   "cost": "footprint", "orientations": orientations},
    }


def swarm_config(rng, config_dir, agents=None, iters=None):
    """The shipped swarm_portrait scenario with only its seed replaced."""
    cfg = _scenario("swarm_portrait.yaml")
    cfg["seed"] = _scenario_seed(rng)
    # same image, addressed from wherever the generated config is written
    cfg["density"]["path"] = os.path.relpath(
        SCENARIOS / cfg["density"]["path"], config_dir)
    if agents is not None:
        cfg["agents"]["n"] = agents
    if iters is not None:
        cfg["params"]["iters"] = iters
    return cfg


CONFIGS = {"descent": descent_config, "poi": poi_config, "swarm": swarm_config}
NAMES = tuple(CONFIGS)


def write_config(workload: str, seed: int, config_dir: Path, toy: bool = False) -> Path:
    """Generate the workload's config from the seed and write it as YAML."""
    sizes = (TOY_SIZES if toy else SIZES)[workload]
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    cfg = CONFIGS[workload](rng, config_dir=config_dir, **sizes)
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


# ------------------------------------------------------------------ checks

class CheckFailed(Exception):
    """A run's artifacts are missing, malformed or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_artifacts(out: Path, extra_csv=()) -> dict:
    for name in ("manifest.json", "metrics.jsonl", "final.csv", *extra_csv):
        _require((out / name).is_file(), f"missing {name}")
    renders = sorted(out.glob("render_*.svg"))
    _require(bool(renders), "no render_*.svg")
    for svg in renders:
        ET.parse(svg)
    return {
        "manifest": json.loads((out / "manifest.json").read_text()),
        "metrics": [json.loads(line) for line in
                    (out / "metrics.jsonl").read_text().splitlines()],
        "final": _read_csv(out / "final.csv"),
        **{name: _read_csv(out / name) for name in extra_csv},
    }


def _check_descent(art: dict) -> tuple[float, dict]:
    manifest = art["manifest"]
    costs = [float(r["cost"]) for r in art["metrics"]]
    _require(len(costs) == manifest["params"]["iters"] + 1,
             f"expected {manifest['params']['iters'] + 1} cost records, got {len(costs)}")
    for prev, cost in zip(costs, costs[1:]):
        _require(cost - prev <= DESCENT_SLACK * max(abs(prev), 1e-12),
                 f"descent cost rose from {prev!r} to {cost!r}")
    _require(len(art["final"]) == manifest["agents"]["n"], "final.csv row count")
    return costs[-1], {"coverage.lloyd_step.calls": manifest["params"]["iters"]}


def _check_poi(art: dict) -> tuple[float, dict]:
    manifest = art["manifest"]
    n, k = manifest["agents"]["n"], manifest["params"]["k"]
    totals = [float(r["objective"]) for r in art["metrics"] if r["stage"] == "assign"]
    _require(len(totals) == 1, "expected one assign record")
    costs = {(int(r["agent"]), int(r["poi"])): float(r["cost"])
             for r in art["cost_matrix.csv"]}
    _require(len(costs) == n * k, f"cost_matrix.csv should hold {n * k} entries")
    pairs = [(int(r["agent"]), int(r["poi"])) for r in art["assignment.csv"]]
    agents = sorted(i for i, _ in pairs)
    pois = [j for _, j in pairs]
    _require(agents == list(range(n)), "assignment does not cover every agent once")
    _require(len(set(pois)) == len(pois) and all(0 <= j < k for j in pois),
             "assignment reuses or invents a point of interest")
    matched = math.fsum(costs[p] for p in pairs)
    _require(math.isclose(matched, totals[0], rel_tol=1e-9, abs_tol=1e-15),
             f"matched costs sum to {matched!r}, objective is {totals[0]!r}")
    _require(len(art["final"]) == n, "final.csv row count")
    return totals[0], {"assign.footprint.calls": n * k}


def _check_swarm(art: dict) -> tuple[float, dict]:
    manifest = art["manifest"]
    w2 = [r["w2_sinkhorn"] for r in art["metrics"] if r["w2_sinkhorn"] is not None]
    _require(len(w2) >= 2, "need an initial and a final w2_sinkhorn")
    _require(w2[-1] < w2[0], f"final w2 {w2[-1]!r} not below initial {w2[0]!r}")
    _require(len(art["final"]) == manifest["agents"]["n"], "final.csv row count")
    pts = np.array([[float(r["x"]), float(r["y"])] for r in art["final"]])
    ws = np.array(manifest["workspace"], dtype=float)
    edges = np.roll(ws, -1, axis=0) - ws
    cross = (edges[None, :, 0] * (pts[:, None, 1] - ws[None, :, 1])
             - edges[None, :, 1] * (pts[:, None, 0] - ws[None, :, 0]))
    _require(bool((cross >= -1e-9).all()), "an agent ended outside the workspace")
    return float(w2[-1]), {"transport.sinkhorn.calls": len(w2),
                           "swarm.transport_step.calls": art["metrics"][-1]["iteration"]}


_CHECKS = {
    "descent": (_check_descent, ()),
    "poi": (_check_poi, ("cost_matrix.csv", "assignment.csv")),
    "swarm": (_check_swarm, ()),
}


def check_run(workload: str, exit_code: int, out: Path) -> tuple[float, dict]:
    """Check one run's exit code and artifacts.

    Returns the objective and the layer call counts the artifacts fix: one
    step per cost record or iteration, one Sinkhorn call per w2 record, one
    footprint per cost entry, one render per SVG. A traced run must reproduce
    them exactly. Counts that only the implementation fixes, such as cells
    per step or debiasing calls per Sinkhorn, are left free to change.
    """
    _require(exit_code == 0, f"exit code {exit_code}")
    check, extra = _CHECKS[workload]
    try:
        art = _read_artifacts(out, extra)
        objective, calls = check(art)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        raise CheckFailed(f"unreadable artifacts: {exc!r}") from exc
    _require(math.isfinite(objective), f"objective {objective!r} is not finite")
    calls["render.scene.calls"] = len(list(out.glob("render_*.svg")))
    return objective, calls
