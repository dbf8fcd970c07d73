"""Scenario CLI: validate a YAML config, run its pipeline, write artifacts.

One config file describes one run. Every run leaves behind manifest.json
(the resolved config), metrics.jsonl (per-iteration records), final.csv,
and at least one render_*.svg. Exit codes: 0 success, 2 invalid config,
3 numerical failure with whatever logs were already written left intact.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.spatial.distance import cdist

from . import assign as assign_mod
from . import poi as poi_mod
from . import submod, swarm
from .coverage import KIND_POWER, KIND_VORONOI, build_partition, make_agents, run_descent
from .density import (DensityField, GmmDensity, UniformDensity, from_pgm, load_grid_csv,
                      spd_cholesky, write_csv)
from .errors import CoverkitError, NoConvergence
from .geometry import ConvexPolygon
from .render import render_scene

log = logging.getLogger(__name__)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3
PIPELINES = ("lloyd", "power_lloyd", "poi_assign", "submodular_assign", "swarm")
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

PARAM_DEFAULTS = {
    "lloyd": {"iters": 200, "tol": 1e-6, "levels": 2, "require_convergence": False},
    "power_lloyd": {"iters": 200, "tol": 1e-6, "levels": 2, "require_convergence": False},
    "poi_assign": {"method": "kmeans", "samples": 2000, "cost": "footprint",
                   "orientations": 8, "levels": 2, "bandwidth": "median",
                   "svgd_iters": 500},
    "submodular_assign": {"samples": 2000, "matroid": "uniform", "d_max": None},
    "swarm": {"tau": 0.5, "batch": None, "resolution": None, "metric_every": 1,
              "snapshot_every": 0, "epsilon": None},
}
PARAM_REQUIRED = {
    "lloyd": (), "power_lloyd": (),
    "poi_assign": ("k",), "submodular_assign": ("k",), "swarm": ("iters",),
}


# ------------------------------------------------------------- validation

@dataclass
class ValidationReport:
    """Machine-readable findings; an empty list means the config is runnable."""

    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> str:
        return json.dumps({"ok": self.ok, "errors": self.errors},
                          indent=2, sort_keys=True)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _point_rows(value) -> bool:
    return (isinstance(value, list)
            and all(isinstance(r, list) and len(r) == 2 and all(map(_is_num, r))
                    for r in value))


def _covariance_ok(value) -> bool:
    if not (_point_rows(value) and len(value) == 2):
        return False
    try:
        spd_cholesky(value)
    except ValueError:
        return False
    return True


def _validate_density(density, base: Path, workspace_rows, err) -> None:
    if not isinstance(density, dict):
        err("density", "must be a mapping with a 'kind'")
        return
    kind = density.get("kind")
    if kind not in ("uniform", "gmm", "image", "grid"):
        err("density.kind", "must be one of uniform, gmm, image, grid")
        return
    known = {"uniform": {"kind"},
             "gmm": {"kind", "weights", "means", "covariances"},
             "image": {"kind", "path"}, "grid": {"kind", "path"}}[kind]
    for key in density:
        if key not in known:
            err(f"density.{key}", f"unknown field for kind {kind}")
    if kind == "gmm":
        weights = density.get("weights")
        means = density.get("means")
        covs = density.get("covariances")
        if not (isinstance(weights, list) and weights
                and all(_is_num(w) and w > 0 for w in weights)):
            err("density.weights", "need a nonempty list of positive numbers")
            return
        if not (_point_rows(means) and len(means) == len(weights)):
            err("density.means", f"need {len(weights)} [x, y] rows")
        if not (isinstance(covs, list) and len(covs) == len(weights)):
            err("density.covariances", f"need {len(weights)} 2x2 matrices")
        elif not all(_covariance_ok(c) for c in covs):
            err("density.covariances", "each must be a symmetric positive-definite 2x2")
    else:
        path = density.get("path")
        if kind in ("image", "grid"):
            if not isinstance(path, str):
                err("density.path", f"required for kind {kind}")
            elif not (base / path).exists():
                err("density.path", f"file not found '{path}'")
            elif workspace_rows is not None:
                # data run would reject (non-finite, negative or all-zero
                # values, no mass over the workspace) fails here instead
                try:
                    _build_density(density, ConvexPolygon(workspace_rows), base)
                except (OSError, ValueError) as exc:
                    err("density.path", f"unusable {kind} data in '{path}': {exc}")


def _validate_agents(agents, pipeline, workspace_rows, err) -> int | None:
    if not isinstance(agents, dict):
        err("agents", "must be a mapping with at least 'n'")
        return None
    for key in agents:
        if key not in {"n", "positions", "radii", "services"}:
            err(f"agents.{key}", "unknown field")
    n = agents.get("n")
    if not (_is_int(n) and n >= 1):
        err("agents.n", "must be a positive integer")
        return None
    positions = agents.get("positions", "sample")
    if positions != "sample":
        if pipeline == "swarm":
            err("agents.positions",
                "swarm runs initialize uniformly; remove explicit positions")
        elif not (_point_rows(positions) and len(positions) == n):
            err("agents.positions", f"expected 'sample' or {n} [x, y] rows")
        elif workspace_rows is not None:
            poly = ConvexPolygon(workspace_rows)
            for i, row in enumerate(positions):
                if not poly.contains(row):
                    err("agents.positions", f"row {i} lies outside the workspace")
    radii = agents.get("radii")
    if radii is not None:
        if not (isinstance(radii, list) and all(_is_num(r) and r >= 0 for r in radii)):
            err("agents.radii", "must be a list of nonnegative numbers")
        elif len(radii) != n:
            err("agents.radii", f"expected {n} entries, got {len(radii)}")
    services = agents.get("services")
    if pipeline == "poi_assign":
        if not isinstance(services, list):
            err("agents.services", "required for poi_assign: one model per agent")
        elif len(services) != n:
            err("agents.services", f"expected {n} entries, got {len(services)}")
        else:
            for i, spec in enumerate(services):
                kind = spec.get("kind") if isinstance(spec, dict) else None
                if kind == "disk":
                    if not (_is_num(spec.get("radius")) and spec["radius"] > 0):
                        err(f"agents.services[{i}].radius", "must be a positive number")
                elif kind == "gaussian":
                    if not _covariance_ok(spec.get("covariance")):
                        err(f"agents.services[{i}].covariance",
                            "must be a symmetric positive-definite 2x2")
                else:
                    err(f"agents.services[{i}].kind", "must be disk or gaussian")
    elif services is not None:
        err("agents.services", "only used by poi_assign")
    return n


def _validate_params(params, pipeline, n, err) -> None:
    if params is None:
        params = {}
    if not isinstance(params, dict):
        err("params", "must be a mapping")
        return
    allowed = set(PARAM_DEFAULTS[pipeline]) | set(PARAM_REQUIRED[pipeline])
    for key in params:
        if key not in allowed:
            err(f"params.{key}", f"unknown parameter for pipeline {pipeline}")
    for key in PARAM_REQUIRED[pipeline]:
        if key not in params:
            err(f"params.{key}", f"required for {pipeline}")

    def check(name, ok, message):
        if name in params and not ok(params[name]):
            err(f"params.{name}", message)

    check("iters", lambda v: _is_int(v) and v >= 1, "must be a positive integer")
    check("tol", lambda v: _is_num(v) and v > 0, "must be a positive number")
    check("levels", lambda v: _is_int(v) and v >= 1, "must be a positive integer")
    check("require_convergence", lambda v: isinstance(v, bool), "must be a boolean")
    check("k", lambda v: _is_int(v) and v >= 1, "must be a positive integer")
    check("samples", lambda v: _is_int(v) and v >= 1, "must be a positive integer")
    check("method", lambda v: v in ("kmeans", "gmm", "svgd"),
          "must be kmeans, gmm, or svgd")
    check("cost", lambda v: v in ("footprint", "kld"), "must be footprint or kld")
    check("orientations", lambda v: _is_int(v) and v >= 1, "must be a positive integer")
    check("bandwidth", lambda v: v == "median" or (_is_num(v) and v > 0),
          "must be 'median' or a positive footprint radius")
    check("svgd_iters", lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer")
    check("matroid", lambda v: v in ("uniform", "partition"),
          "must be uniform or partition")
    check("d_max", lambda v: v is None or (_is_num(v) and v > 0),
          "must be a positive number")
    check("tau", lambda v: _is_num(v) and 0 < v <= 1, "must lie in (0, 1]")
    check("batch", lambda v: v is None or (_is_int(v) and v >= 1),
          "must be null or a positive integer")
    check("resolution", lambda v: v is None or (_is_int(v) and v >= 2),
          "must be null or an integer of at least 2")
    check("metric_every", lambda v: v is None or (_is_int(v) and v >= 0),
          "must be null or a nonnegative integer")
    check("snapshot_every", lambda v: _is_int(v) and v >= 0,
          "must be a nonnegative integer")
    check("epsilon", lambda v: v is None or (_is_num(v) and v > 0),
          "must be null or a positive number")

    if pipeline == "poi_assign" and params.get("cost") == "kld" \
            and params.get("method", "kmeans") != "gmm":
        err("params.cost", "kld costs need method: gmm")
    if pipeline in ("poi_assign", "submodular_assign") and n is not None \
            and _is_int(params.get("k")) and n > params["k"]:
        err("agents.n",
            f"infeasible assignment shape: {n} agents but only {params['k']} "
            "points of interest")
    if pipeline == "swarm" and n is not None and _is_int(params.get("batch")) \
            and params["batch"] > n:
        err("params.batch", f"cannot exceed agents.n = {n}")


def validate_config(cfg, base: Path) -> ValidationReport:
    """Structural checks, plus loading the data file of an image or grid density."""
    errors: list = []

    def err(field, message):
        errors.append({"field": field, "message": message})

    if not isinstance(cfg, dict):
        err("config", "top level must be a mapping")
        return ValidationReport(errors)
    for key in cfg:
        if key not in {"pipeline", "seed", "out", "workspace", "density",
                       "agents", "params"}:
            err(key, "unknown field")

    pipeline = cfg.get("pipeline")
    if pipeline not in PIPELINES:
        err("pipeline", f"must be one of {', '.join(PIPELINES)}")
        return ValidationReport(errors)

    if "seed" in cfg and not _is_int(cfg["seed"]):
        err("seed", "must be an integer")
    if "out" in cfg and not isinstance(cfg["out"], str):
        err("out", "must be a path string")

    workspace_rows = cfg.get("workspace", UNIT_SQUARE)
    if not (_point_rows(workspace_rows) and len(workspace_rows) >= 3):
        err("workspace", "need at least 3 [x, y] vertices")
        workspace_rows = None
    else:
        try:
            ConvexPolygon(workspace_rows)
        except ValueError as exc:
            err("workspace", str(exc))
            workspace_rows = None

    if "density" not in cfg:
        err("density", "required")
    else:
        _validate_density(cfg["density"], base, workspace_rows, err)

    if "agents" not in cfg:
        err("agents", "required")
        n = None
    else:
        n = _validate_agents(cfg["agents"], pipeline, workspace_rows, err)

    _validate_params(cfg.get("params"), pipeline, n, err)
    return ValidationReport(errors)


def validate(config_path) -> ValidationReport:
    """Parse and check a config file without running its pipeline."""
    path = Path(config_path)
    try:
        text = path.read_text()
    except OSError as exc:
        return ValidationReport([{"field": "config", "message": str(exc)}])
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        return ValidationReport([{"field": "config",
                                  "message": f"not valid YAML: {exc}"}])
    return validate_config(cfg, path.parent)


# -------------------------------------------------------------- resolution

def _resolve(cfg: dict, seed, out, base: Path, config_path: Path) -> dict:
    resolved = {
        "config": str(config_path),
        "pipeline": cfg["pipeline"],
        "seed": int(seed if seed is not None else cfg.get("seed", 0)),
        "out": str(out if out is not None
                   else cfg.get("out", str(base / f"{config_path.stem}_out"))),
        "workspace": cfg.get("workspace", UNIT_SQUARE),
        "density": cfg["density"],
        "agents": {"positions": "sample", "radii": None, "services": None,
                   **cfg["agents"]},
        "params": {**PARAM_DEFAULTS[cfg["pipeline"]], **(cfg.get("params") or {})},
    }
    return resolved


def _build_density(spec: dict, workspace: ConvexPolygon, base: Path) -> DensityField:
    kind = spec["kind"]
    if kind == "uniform":
        return UniformDensity(workspace)
    if kind == "gmm":
        return GmmDensity(workspace, spec["weights"], spec["means"],
                          [np.array(c, dtype=float) for c in spec["covariances"]])
    if kind == "image":
        return from_pgm(base / spec["path"], workspace)
    return load_grid_csv(base / spec["path"], workspace)


def _build_services(specs, orientations):
    models = []
    for spec in specs:
        if spec["kind"] == "disk":
            models.append(assign_mod.IsotropicService(spec["radius"],
                                                      orientations=orientations))
        else:
            models.append(assign_mod.GaussianService(
                np.array(spec["covariance"], dtype=float), orientations=orientations))
    return models


def _initial_positions(resolved, phi: DensityField) -> np.ndarray:
    agents = resolved["agents"]
    if agents["positions"] == "sample":
        return phi.sample(agents["n"], resolved["seed"])
    return np.array(agents["positions"], dtype=float)


# ----------------------------------------------------------------- output

def _jsonable(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")


# -------------------------------------------------------------- pipelines

def _run_lloyd(resolved, phi, workspace, out: Path, power: bool) -> None:
    params = resolved["params"]
    positions = _initial_positions(resolved, phi)
    radii = resolved["agents"]["radii"]
    if not power:
        radii = None
    agents = make_agents(positions, radii)
    render_scene(out / "render_initial.svg", phi, workspace,
                 agents=positions, power_radii=radii,
                 cells=build_partition(phi, agents,
                                       KIND_POWER if power else KIND_VORONOI,
                                       params["levels"]).cells,
                 title="initial")
    result = run_descent(phi, agents, KIND_POWER if power else KIND_VORONOI,
                         max_iters=params["iters"], tol=params["tol"],
                         levels=params["levels"])
    records = []
    previous = None
    for i, (pos, cost) in enumerate(result.trajectory):
        shift = 0.0 if previous is None else float(
            np.linalg.norm(pos - previous, axis=1).max())
        records.append({"iteration": i, "cost": float(cost), "max_shift": shift})
        previous = pos
    _write_jsonl(out / "metrics.jsonl", records)

    final = np.array([a.position for a in result.agents])
    rho = np.array([a.power_radius for a in result.agents])
    write_csv(out / "final.csv", "agent,x,y,power_radius",
              [(i, p[0], p[1], r) for i, (p, r) in enumerate(zip(final, rho))])
    render_scene(out / "render_final.svg", phi, workspace, agents=final,
                 power_radii=rho if power else None, cells=result.partition.cells,
                 title=f"final, cost {result.trajectory[-1][1]:.6g}")
    if params["require_convergence"] and not result.converged:
        raise NoConvergence(
            f"descent still moving after {params['iters']} iterations")


def _extract_pois(resolved, phi, workspace):
    params = resolved["params"]
    seed = resolved["seed"]
    if params["method"] == "svgd":
        pois = poi_mod.svgd(phi, params["k"], bandwidth_policy=params["bandwidth"],
                            iters=params["svgd_iters"], seed=seed)
        return pois.points, [], None
    data = phi.sample(params["samples"], seed)
    if params["method"] == "kmeans":
        fit = poi_mod.kmeans(data, params["k"], seed=seed, workspace=workspace)
        return fit.pois.points, list(fit.inertia_trace), None
    fit = poi_mod.gmm_em(data, params["k"], seed=seed, workspace=workspace)
    return fit.pois.points, list(fit.log_likelihoods), fit


def _run_poi_assign(resolved, phi, workspace, out: Path) -> None:
    params = resolved["params"]
    points, trace, gmm_fit = _extract_pois(resolved, phi, workspace)
    records = [{"iteration": i, "objective": float(v), "stage": "extract"}
               for i, v in enumerate(trace)]

    thetas = tuple(np.linspace(0.0, 2.0 * np.pi, params["orientations"],
                               endpoint=False))
    models = _build_services(resolved["agents"]["services"], thetas)
    if params["cost"] == "footprint":
        matrix = assign_mod.build_cost_matrix(
            models, points,
            lambda model, pt: assign_mod.footprint_cost(phi, model, pt,
                                                        levels=params["levels"]))
    else:
        values = np.empty((len(models), len(points)))
        stars = np.empty_like(values)
        for i, model in enumerate(models):
            for j in range(len(points)):
                values[i, j], stars[i, j] = assign_mod.kld_cost(
                    model, gmm_fit.means[j], gmm_fit.covariances[j],
                    component_weight=float(gmm_fit.weights[j]))
        matrix = assign_mod.CostMatrix(values, stars)

    solution = assign_mod.solve_assignment(matrix)
    records.append({"iteration": len(trace), "objective": float(solution.total_cost),
                    "stage": "assign"})
    _write_jsonl(out / "metrics.jsonl", records)
    matrix.to_csv(out / "cost_matrix.csv")
    solution.to_csv(out / "assignment.csv")

    positions = _initial_positions(resolved, phi)
    rows = []
    for i, j in solution.pairs:
        rows.append((i, positions[i, 0], positions[i, 1], j,
                     points[j, 0], points[j, 1],
                     float(matrix.theta_star[i, j]), float(matrix.values[i, j])))
    write_csv(out / "final.csv", "agent,x,y,poi,poi_x,poi_y,theta,cost", rows)
    render_scene(out / "render_final.svg", phi, workspace, agents=positions,
                 pois=points, assignment=solution.pairs,
                 title=f"assignment cost {solution.total_cost:.6g}")


def _run_submodular(resolved, phi, workspace, out: Path) -> None:
    params = resolved["params"]
    n = resolved["agents"]["n"]
    data = phi.sample(params["samples"], resolved["seed"])
    fit = poi_mod.kmeans(data, params["k"], seed=resolved["seed"],
                         workspace=workspace)
    candidates = fit.pois.points
    d_max = params["d_max"] if params["d_max"] is not None \
        else 2.0 * workspace.diameter
    utility = submod.exemplar_utility_fn(candidates, data, d_max)
    if params["matroid"] == "uniform":
        trace = submod.greedy_uniform(utility, range(params["k"]), n)
    else:
        blocks = [[j for j in range(params["k"]) if j % n == a] for a in range(n)]
        trace = submod.greedy_partition(utility, blocks)
    _write_jsonl(out / "metrics.jsonl",
                 [{"round": r, "element": int(e), "gain": float(g), "value": float(v)}
                  for r, (e, g, v) in enumerate(zip(trace.chosen, trace.gains,
                                                    trace.values))])

    chosen = candidates[[int(e) for e in trace.chosen]]
    positions = _initial_positions(resolved, phi)
    matching = assign_mod.solve_assignment(cdist(positions, chosen, "sqeuclidean"))
    rows = [(i, positions[i, 0], positions[i, 1], j, chosen[j, 0], chosen[j, 1])
            for i, j in matching.pairs]
    write_csv(out / "final.csv", "agent,x,y,site,site_x,site_y", rows)
    render_scene(out / "render_final.svg", phi, workspace, agents=positions,
                 pois=chosen, assignment=matching.pairs,
                 title=f"greedy utility {trace.values[-1]:.6g}")


def _run_swarm(resolved, phi, workspace, out: Path) -> None:
    params = resolved["params"]
    run = swarm.run_reconfiguration(
        phi, resolved["agents"]["n"], params["iters"], tau=params["tau"],
        batch=params["batch"], seed=resolved["seed"],
        resolution=params["resolution"], metric_every=params["metric_every"],
        epsilon=params["epsilon"], snapshot_every=params["snapshot_every"])
    _write_jsonl(out / "metrics.jsonl", run.metrics)
    write_csv(out / "final.csv", "agent,x,y",
              [(i, p[0], p[1]) for i, p in enumerate(run.final.positions)])
    for t, pts in run.snapshots:
        render_scene(out / f"render_{t:04d}.svg", phi, workspace,
                     swarm_points=pts, title=f"step {t}")


# --------------------------------------------------------------------- cli

def run(config_path, seed=None, out=None) -> int:
    """Validate, then execute one scenario; returns the process exit code."""
    report = validate(config_path)
    if not report.ok:
        print(report.to_json(), file=sys.stderr)
        return EXIT_CONFIG
    config_path = Path(config_path)
    cfg = yaml.safe_load(config_path.read_text())
    resolved = _resolve(cfg, seed, out, config_path.parent, config_path)

    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        fh.write(json.dumps(_jsonable(resolved), indent=2, sort_keys=True) + "\n")

    workspace = ConvexPolygon(resolved["workspace"])
    try:
        phi = _build_density(resolved["density"], workspace, config_path.parent)
        pipeline = resolved["pipeline"]
        if pipeline in ("lloyd", "power_lloyd"):
            _run_lloyd(resolved, phi, workspace, out_dir, pipeline == "power_lloyd")
        elif pipeline == "poi_assign":
            _run_poi_assign(resolved, phi, workspace, out_dir)
        elif pipeline == "submodular_assign":
            _run_submodular(resolved, phi, workspace, out_dir)
        else:
            _run_swarm(resolved, phi, workspace, out_dir)
    except CoverkitError as exc:
        log.error("%s failed: %s", resolved["pipeline"], exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    log.info("wrote artifacts to %s", out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coverkit",
        description="Coverage, assignment, and swarm scenarios from YAML configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario")
    run_parser.add_argument("config", help="path to a scenario YAML file")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    run_parser.add_argument("--out", default=None,
                            help="override the output directory")
    val_parser = sub.add_parser("validate", help="check a scenario without running")
    val_parser.add_argument("config", help="path to a scenario YAML file")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "validate":
        report = validate(args.config)
        print(report.to_json())
        return EXIT_OK if report.ok else EXIT_CONFIG
    return run(args.config, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
