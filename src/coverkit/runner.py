"""Scenario CLI: validate a YAML config, run its pipeline, write artifacts.

One config file describes one run. ``validate`` parses it once, checks it
field by field and builds the workspace, density and services; ``run`` runs
the pipeline on exactly what ``validate`` built, so a config that passes
``validate`` is the config that runs. Every run leaves behind manifest.json
(the resolved config, and under ``versions`` those of coverkit, Python, numpy
and scipy), metrics.jsonl (per-iteration records), final.csv,
and at least one render_*.svg; poi_assign adds cost_matrix.csv and
assignment.csv. The library returns arrays; this module writes every CSV and JSON.
Exit codes: 0 success, 2 invalid config, 3 numerical failure with whatever
logs were already written left intact.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml
from scipy.spatial.distance import cdist

from . import __version__
# each pipeline imports the assign, poi, submod or swarm module it runs, inside its
# function, so a descent run never loads them or scipy.optimize
# build_partition is not called here, but coverbench/tracing.py patches it
# in this module
from .coverage import build_partition, run_descent  # noqa: F401
from .density import (MAX_LEVELS, DensityField, GmmDensity, UniformDensity, from_pgm,
                      load_grid_csv, spd_cholesky)
from .errors import CoverkitError, NoConvergence
from .geometry import (EPS_GEO, ConvexPolygon, check_count, check_points, check_positive,
                       check_radii, check_weights, coincident_pairs)
from .render import render_scene

log = logging.getLogger(__name__)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
REQUIRED = object()  # a parameter default meaning: the config must set it


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader, on libyaml's parser where PyYAML has it, that also reads floats
    by the YAML 1.2 core-schema pattern.

    SafeLoader's YAML 1.1 pattern needs a dot and a signed exponent, so it
    reads 1e-6, 1e5 and 1.0e5 as strings, which the checks then refuse as
    non-numbers. Its own floats (1_000.5, 1:30.5) and ints are tried first
    and read as before.
    """


_ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"), list("-+0123456789."))


# ------------------------------------------------------------- validation

@dataclass
class ValidationReport:
    """Machine-readable findings; an empty list means the config is runnable.

    A runnable config's report also carries what ``run`` runs on: the config
    with defaults filled in, the workspace polygon, the density and any services.
    """

    errors: list
    config: dict | None = field(default=None, repr=False)
    workspace: ConvexPolygon | None = field(default=None, repr=False)
    density: DensityField | None = field(default=None, repr=False)
    services: list | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> str:
        return json.dumps({"ok": self.ok, "errors": self.errors},
                          indent=2, sort_keys=True)


def _passes(rule, node, *args) -> bool:
    """Whether a config node passes the one YAML type guard and then the library's
    ``rule(node, *args)``, which refuses it with a ValueError. The guard takes ints and
    floats, not bools, and lists of them two deep: numpy reads "0.5" and True as numbers."""
    def numeric(v, depth=2):
        return (depth > 0 and all(numeric(x, depth - 1) for x in v) if isinstance(v, list)
                else isinstance(v, (int, float)) and not isinstance(v, bool))

    if not numeric(node):
        return False
    try:
        rule(node, *args)
    except ValueError:
        return False
    return True


def _rule(rule, *bounds, null=False):
    """A PARAM_CHECKS test: ``rule(value, name, *bounds)`` passes, or ``null`` allows None."""
    return lambda v: (null and v is None) or _passes(rule, v, "value", *bounds)


# one check per parameter name, whichever pipelines take it; a number passes by the
# library's rule and bounds, but levels and iters start at 1 (the library's levels and
# swarm's iters start at 0)
PARAM_CHECKS = {
    **dict.fromkeys(("iters", "k", "samples", "orientations"),
                    (_rule(check_count), "must be a positive integer")),
    **dict.fromkeys(("svgd_iters", "snapshot_every"),
                    (_rule(check_count, 0), "must be a nonnegative integer")),
    "tol": (_rule(check_positive), "must be a positive number"),
    "levels": (_rule(check_count, 1, MAX_LEVELS), f"must be an integer from 1 to {MAX_LEVELS}"),
    "require_convergence": (lambda v: isinstance(v, bool), "must be a boolean"),
    "method": (lambda v: v in ("kmeans", "gmm", "svgd"), "must be kmeans, gmm, or svgd"),
    "cost": (lambda v: v in ("footprint", "kld"), "must be footprint or kld"),
    "bandwidth": (lambda v: v == "median" or _passes(check_positive, v, "bandwidth"),
                  "must be 'median' or a positive footprint radius"),
    "matroid": (lambda v: v in ("uniform", "partition"), "must be uniform or partition"),
    "d_max": (_rule(check_positive, null=True), "must be null or a positive number"),
    "tau": (_rule(check_positive, None, 1.0), "must lie in (0, 1]"),
    "batch": (_rule(check_count, null=True), "must be null or a positive integer"),
    "resolution": (_rule(check_count, 2, null=True), "must be null or an integer of at least 2"),
    "metric_every": (_rule(check_count, 0, null=True), "must be null or a nonnegative integer"),
    "epsilon": (_rule(check_positive, null=True), "must be null or a positive number"),
}


# per service kind: the one other field (the model's argument), its test and message
SERVICES = {
    "disk": ("radius", lambda r: _passes(check_positive, r, "radius"),
             "must be a positive finite number"),
    "gaussian": ("covariance", lambda c: _passes(spd_cholesky, c),
                 "must be a symmetric positive-definite 2x2"),
}


def _check_density(density, base: Path, workspace, err) -> DensityField | None:
    """Check the density spec; when it and the workspace are sound, build it."""
    if not isinstance(density, dict):
        err("density", "required: a mapping with a 'kind'")
        return None
    kind = density.get("kind")
    if kind not in ("uniform", "gmm", "image", "grid"):
        err("density.kind", "must be one of uniform, gmm, image, grid")
        return None
    known = {"uniform": {"kind"},
             "gmm": {"kind", "weights", "means", "covariances"},
             "image": {"kind", "path"}, "grid": {"kind", "path"}}[kind]
    for key in density:
        if key not in known:
            err(f"density.{key}", f"unknown field for kind {kind}")
    sound = True
    if kind == "gmm":
        weights, means, covs = (density.get(key) for key in ("weights", "means", "covariances"))
        if not (_passes(check_weights, weights) and min(weights) > 0):
            err("density.weights", "need a nonempty list of positive finite numbers")
            return None
        if not (_passes(check_points, means) and np.shape(means) == (len(weights), 2)):
            err("density.means", f"need {len(weights)} finite [x, y] rows")
            sound = False
        if not (isinstance(covs, list) and len(covs) == len(weights)):
            err("density.covariances", f"need {len(weights)} 2x2 matrices")
            sound = False
        elif not all(_passes(spd_cholesky, c) for c in covs):
            err("density.covariances", "each must be a symmetric positive-definite 2x2")
            sound = False
    elif kind != "uniform":
        path = density.get("path")
        if not isinstance(path, str):
            err("density.path", f"required for kind {kind}")
            sound = False
        elif not (base / path).exists():
            err("density.path", f"file not found '{path}'")
            sound = False
    if not sound or workspace is None:
        return None
    # data run would reject (non-finite, negative or all-zero values, no
    # mass over the workspace) fails here instead
    try:
        return _build_density(density, workspace, base)
    except (OSError, ValueError) as exc:
        err("density.path" if "path" in known else "density",
            f"unusable {kind} density: {exc}")
        return None


def _check_agents(agents, pipeline, workspace, err) -> dict | None:
    """Check the agents spec; returns it with defaults filled in, or None."""
    if not isinstance(agents, dict):
        err("agents", "required: a mapping with at least 'n'")
        return None
    for key in agents:
        if key not in {"n", "positions", "radii", "services"}:
            err(f"agents.{key}", "unknown field")
    n = agents.get("n")
    if not _passes(check_count, n, "n"):
        err("agents.n", "must be a positive integer")
        return None
    positions = agents.get("positions", "sample")
    if positions != "sample":
        if pipeline == "swarm":
            err("agents.positions",
                "swarm runs initialize uniformly; remove explicit positions")
        elif not (_passes(check_points, positions) and np.shape(positions) == (n, 2)):
            err("agents.positions", f"expected 'sample' or {n} finite [x, y] rows")
        elif workspace is not None:
            pts = np.array(positions, dtype=float)
            for i in np.flatnonzero(~workspace.contains(pts)):
                err("agents.positions", f"row {i} lies outside the workspace")
            if pipeline in ("lloyd", "power_lloyd"):
                close = coincident_pairs(pts)
                if len(close):
                    err("agents.positions", f"rows {close[0, 0]} and {close[0, 1]} coincide")
    radii = agents.get("radii")
    if radii is not None and pipeline != "power_lloyd":
        err("agents.radii", "only used by power_lloyd")
    elif radii is not None and not _passes(check_radii, radii):
        err("agents.radii", f"must be a list of nonnegative numbers r with r*r/{EPS_GEO:g} finite")
    elif radii is not None and len(radii) != n:
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
                if not (isinstance(kind, str) and kind in SERVICES):
                    err(f"agents.services[{i}].kind", "must be disk or gaussian")
                    continue
                key, test, message = SERVICES[kind]
                for name in spec:
                    if name not in ("kind", key):
                        err(f"agents.services[{i}].{name}", f"unknown field for kind {kind}")
                if not test(spec.get(key)):
                    err(f"agents.services[{i}].{key}", message)
    elif services is not None:
        err("agents.services", "only used by poi_assign")
    return {"positions": "sample", "radii": None, "services": None, **agents}


def _check_params(params, pipeline, n, err) -> dict | None:
    """Check the params; returns them over the pipeline's defaults, or None."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        err("params", "must be a mapping")
        return None
    defaults = PIPELINES[pipeline][1]
    params = {**defaults, **params}
    sound = {}  # values that passed their own check, for the cross-field rules
    for key, value in params.items():
        if key not in defaults:
            err(f"params.{key}", f"unknown parameter for pipeline {pipeline}")
        elif value is REQUIRED:
            err(f"params.{key}", f"required for {pipeline}")
        elif not PARAM_CHECKS[key][0](value):
            err(f"params.{key}", PARAM_CHECKS[key][1])
        else:
            sound[key] = value

    # each None, or a count of at least 1
    k, samples, batch = (sound.get(key) for key in ("k", "samples", "batch"))
    if pipeline == "poi_assign" and params["cost"] == "kld" and params["method"] != "gmm":
        err("params.cost", "kld costs need method: gmm")
    if k and n is not None and n > k:
        err("agents.n",
            f"infeasible assignment shape: {n} agents but only {k} points of interest")
    # k-means and EM draw their k clusters from the samples; SVGD draws none
    if k and samples and k > samples and params.get("method") != "svgd":
        err("params.k", f"cannot exceed params.samples = {samples}")
    if pipeline == "swarm" and n is not None and batch and batch > n:
        err("params.batch", f"cannot exceed agents.n = {n}")
    return params


def validate(config_path) -> ValidationReport:
    """Parse and check a config file; for a runnable one, build what ``run`` runs on.

    Data files of an image or grid density are loaded, and every density and
    service is built, so whatever ``run`` would reject in them is reported here.
    """
    path = Path(config_path)
    try:
        # bytes, so that YAML detects UTF-8 or UTF-16 and refuses any other byte
        cfg = yaml.load(path.read_bytes(), Loader=_ConfigLoader)
    except OSError as exc:
        return ValidationReport([{"field": "config", "message": str(exc)}])
    except yaml.YAMLError as exc:
        return ValidationReport([{"field": "config",
                                  "message": f"not valid YAML: {exc}"}])
    errors: list = []

    def err(name, message):
        errors.append({"field": name, "message": message})

    if not isinstance(cfg, dict):
        err("config", "top level must be a mapping")
        return ValidationReport(errors)
    for key in cfg:
        if key not in {"pipeline", "seed", "out", "workspace", "density",
                       "agents", "params"}:
            err(key, "unknown field")

    pipeline = cfg.get("pipeline")
    if not (isinstance(pipeline, str) and pipeline in PIPELINES):
        err("pipeline", f"must be one of {', '.join(PIPELINES)}")
        return ValidationReport(errors)

    if "seed" in cfg and not _passes(check_count, cfg["seed"], "seed", 0):
        err("seed", "must be a nonnegative integer")
    if "out" in cfg and not isinstance(cfg["out"], str):
        err("out", "must be a path string")

    rows = cfg.get("workspace", UNIT_SQUARE)
    workspace = None
    if not (_passes(check_points, rows) and np.ndim(rows) == 2 and len(rows) >= 3):
        err("workspace", "need at least 3 finite [x, y] vertices")
    else:
        try:
            workspace = ConvexPolygon(rows)
        except ValueError as exc:
            err("workspace", str(exc))

    phi = _check_density(cfg.get("density"), path.parent, workspace, err)
    agents = _check_agents(cfg.get("agents"), pipeline, workspace, err)
    params = _check_params(cfg.get("params"), pipeline, agents and agents["n"], err)
    services = (_build_services(agents["services"], params["orientations"], err)
                if not errors and pipeline == "poi_assign" else None)
    if errors:
        return ValidationReport(errors)
    config = {**cfg, "workspace": rows, "agents": agents, "params": params}
    return ValidationReport(errors, config, workspace, phi, services)


# ------------------------------------------------------------ construction

def _build_density(spec: dict, workspace: ConvexPolygon, base: Path) -> DensityField:
    kind = spec["kind"]
    if kind == "uniform":
        return UniformDensity(workspace)
    if kind == "gmm":
        return GmmDensity(workspace, spec["weights"], spec["means"], spec["covariances"])
    if kind == "image":
        return from_pgm(base / spec["path"], workspace)
    return load_grid_csv(base / spec["path"], workspace)


def _build_services(specs, orientations: int, err) -> list:
    """Each service at the run's ``orientations`` angles, evenly spaced from 0;
    err under agents.services[i] for a footprint too small or thin to price."""
    from .assign import GaussianService, IsotropicService

    models = {"disk": IsotropicService, "gaussian": GaussianService}
    thetas = tuple(np.linspace(0.0, 2.0 * np.pi, orientations, endpoint=False))
    services = []
    for i, spec in enumerate(specs):
        kind = spec["kind"]
        try:
            services.append(models[kind](spec[SERVICES[kind][0]], orientations=thetas))
        except ValueError as exc:
            err(f"agents.services[{i}]", str(exc))
    return services


def _initial_positions(resolved, phi: DensityField) -> np.ndarray:
    agents = resolved["agents"]
    if agents["positions"] == "sample":
        return phi.sample(agents["n"], resolved["seed"])
    return np.array(agents["positions"], dtype=float)


# ----------------------------------------------------------------- output

def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=lambda o: o.tolist()) + "\n")


def write_csv(path, header: str, rows) -> None:
    """Write an artifact CSV: floats as their shortest round-trip repr, the rest by str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v)!r}" if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


# -------------------------------------------------------------- pipelines

def _run_lloyd(resolved, report: ValidationReport, out: Path) -> None:
    params = resolved["params"]
    phi, workspace = report.density, report.workspace
    power = resolved["pipeline"] == "power_lloyd"
    positions = _initial_positions(resolved, phi)
    radii = resolved["agents"]["radii"] if power else None
    result = run_descent(phi, positions, radii, max_iters=params["iters"], tol=params["tol"],
                         levels=params["levels"])
    render_scene(out / "render_initial.svg", phi, workspace,
                 agents=positions, power_radii=radii, cells=result.initial.cells,
                 title="initial")
    records = []
    previous = None
    for i, ((pos, cost), starved) in enumerate(zip(result.trajectory, result.starved)):
        shift = 0.0 if previous is None else float(
            np.linalg.norm(pos - previous, axis=1).max())
        records.append({"iteration": i, "cost": float(cost), "max_shift": shift,
                        "starved": len(starved)})
        previous = pos
    _write_jsonl(out / "metrics.jsonl", records)

    final = result.positions
    rho = np.zeros(len(final)) if radii is None else np.array(radii, dtype=float)
    write_csv(out / "final.csv", "agent,x,y,power_radius",
              [(i, p[0], p[1], r) for i, (p, r) in enumerate(zip(final, rho))])
    render_scene(out / "render_final.svg", phi, workspace, agents=final,
                 power_radii=rho if power else None, cells=result.partition.cells,
                 title=f"final, cost {result.trajectory[-1][1]:.6g}")
    if params["require_convergence"] and not result.converged:
        raise NoConvergence(
            f"descent still moving after {params['iters']} iterations")


def _extract_pois(resolved, phi, workspace):
    from . import poi as poi_mod

    params = resolved["params"]
    seed = resolved["seed"]
    if params["method"] == "svgd":
        return poi_mod.svgd(phi, params["k"], bandwidth_policy=params["bandwidth"],
                            iters=params["svgd_iters"], seed=seed), [], None
    data = phi.sample(params["samples"], seed)
    if params["method"] == "kmeans":
        fit = poi_mod.kmeans(data, params["k"], seed=seed, workspace=workspace)
        return fit.centers, list(fit.inertia_trace), None
    fit = poi_mod.gmm_em(data, params["k"], seed=seed, workspace=workspace)
    return fit.means, list(fit.log_likelihoods), fit


def _run_poi_assign(resolved, report: ValidationReport, out: Path) -> None:
    from . import assign as assign_mod

    params = resolved["params"]
    phi, workspace, models = report.density, report.workspace, report.services
    points, trace, gmm_fit = _extract_pois(resolved, phi, workspace)
    records = [{"iteration": i, "objective": float(v), "stage": "extract"}
               for i, v in enumerate(trace)]

    if params["cost"] == "footprint":
        values, thetas = assign_mod.build_cost_matrix(
            models, points,
            lambda model, pt: assign_mod.footprint_cost(phi, model, pt,
                                                        levels=params["levels"]))
    else:
        components = list(zip(gmm_fit.means, gmm_fit.covariances))
        values, thetas = assign_mod.build_cost_matrix(
            models, components, lambda model, c: assign_mod.kld_cost(model, *c))

    pairs, total = assign_mod.solve_assignment(values)
    records.append({"iteration": len(trace), "objective": total, "stage": "assign"})
    _write_jsonl(out / "metrics.jsonl", records)
    write_csv(out / "cost_matrix.csv", "agent,poi,cost,theta",
              ((i, j, values[i, j], thetas[i, j]) for i, j in np.ndindex(values.shape)))
    write_csv(out / "assignment.csv", "agent,poi", pairs.tolist())

    positions = _initial_positions(resolved, phi)
    rows = [(i, positions[i, 0], positions[i, 1], j, points[j, 0], points[j, 1],
             thetas[i, j], values[i, j]) for i, j in pairs.tolist()]
    write_csv(out / "final.csv", "agent,x,y,poi,poi_x,poi_y,theta,cost", rows)
    render_scene(out / "render_final.svg", phi, workspace, agents=positions,
                 pois=points, assignment=pairs, title=f"assignment cost {total:.6g}")


def _run_submodular(resolved, report: ValidationReport, out: Path) -> None:
    from . import assign as assign_mod, poi as poi_mod, submod

    params = resolved["params"]
    phi, workspace = report.density, report.workspace
    n = resolved["agents"]["n"]
    data = phi.sample(params["samples"], resolved["seed"])
    fit = poi_mod.kmeans(data, params["k"], seed=resolved["seed"],
                         workspace=workspace)
    candidates = fit.centers
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
    pairs, _ = assign_mod.solve_assignment(cdist(positions, chosen, "sqeuclidean"))
    rows = [(i, positions[i, 0], positions[i, 1], j, chosen[j, 0], chosen[j, 1])
            for i, j in pairs.tolist()]
    write_csv(out / "final.csv", "agent,x,y,site,site_x,site_y", rows)
    render_scene(out / "render_final.svg", phi, workspace, agents=positions,
                 pois=chosen, assignment=pairs,
                 title=f"greedy utility {trace.values[-1]:.6g}")


def _run_swarm(resolved, report: ValidationReport, out: Path) -> None:
    from . import swarm

    params = resolved["params"]
    phi, workspace = report.density, report.workspace
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


_DESCENT = {"iters": 200, "tol": 1e-6, "levels": 2, "require_convergence": False}
# name -> (runner, parameter defaults); a REQUIRED default has to be set
PIPELINES = {
    "lloyd": (_run_lloyd, _DESCENT),
    "power_lloyd": (_run_lloyd, _DESCENT),
    "poi_assign": (_run_poi_assign,
                   {"k": REQUIRED, "method": "kmeans", "samples": 2000,
                    "cost": "footprint", "orientations": 8, "levels": 2,
                    "bandwidth": "median", "svgd_iters": 500}),
    "submodular_assign": (_run_submodular,
                          {"k": REQUIRED, "samples": 2000, "matroid": "uniform",
                           "d_max": None}),
    "swarm": (_run_swarm,
              {"iters": REQUIRED, "tau": 0.5, "batch": None, "resolution": None,
               "metric_every": 1, "snapshot_every": 0, "epsilon": None}),
}


# --------------------------------------------------------------------- cli

def run(config_path, seed=None, out=None) -> int:
    """Validate, then execute one scenario on what validation built; returns the exit code."""
    report = validate(config_path)
    try:  # the override follows the config seed's rule
        seed = None if seed is None else check_count(seed, "--seed", 0)
    except ValueError as exc:
        report.errors.append({"field": "--seed", "message": str(exc)})
    if not report.ok:
        print(report.to_json(), file=sys.stderr)
        return EXIT_CONFIG
    config_path = Path(config_path)
    cfg = report.config
    resolved = {
        **cfg,
        "config": str(config_path),
        "seed": int(seed if seed is not None else cfg.get("seed", 0)),
        "out": str(out if out is not None else cfg.get(
            "out", str(config_path.parent / f"{config_path.stem}_out"))),
    }
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    versions = {"coverkit": __version__, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__}
    with open(out_dir / "manifest.json", "w") as fh:
        fh.write(json.dumps({**resolved, "versions": versions}, indent=2, sort_keys=True,
                           default=lambda o: o.tolist()) + "\n")

    try:
        PIPELINES[resolved["pipeline"]][0](resolved, report, out_dir)
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
    for sub_parser in (run_parser, val_parser):
        sub_parser.add_argument("--log-level", default="INFO",
                                choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                                help="lowest level of log line printed (default INFO)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "validate":
        report = validate(args.config)
        print(report.to_json())
        return EXIT_OK if report.ok else EXIT_CONFIG
    return run(args.config, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
