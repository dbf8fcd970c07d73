"""Config validation, CLI exit codes, and end-to-end scenario artifacts."""

import copy
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

import coverkit
from coverkit import assign, runner
from coverkit.assign import GaussianService, IsotropicService, footprint_cost, solve_assignment
from coverkit.coverage import build_partition
from coverkit.density import GmmDensity, cell_moments
from coverkit.errors import NonFiniteCost
from coverkit.geometry import ConvexPolygon
from coverkit.render import render_scene
from coverkit.runner import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, MAX_LEVELS, main, run,
                             validate)


def write_cfg(tmp_path, cfg, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def lloyd_cfg(n=3, **params):
    return {
        "pipeline": "lloyd",
        "seed": 4,
        "density": {"kind": "uniform"},
        "agents": {"n": n},
        "params": {"iters": 60, "tol": 1e-5, **params},
    }


def read_metrics(out_dir):
    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


# ------------------------------------------------------------- validation

def test_well_formed_config_validates_clean(tmp_path):
    report = validate(write_cfg(tmp_path, lloyd_cfg()))
    assert report.ok
    assert report.errors == []


def test_unknown_pipeline_is_flagged(tmp_path):
    cfg = lloyd_cfg()
    cfg["pipeline"] = "annealing"
    report = validate(write_cfg(tmp_path, cfg))
    assert not report.ok
    assert report.errors[0]["field"] == "pipeline"


def test_radii_length_mismatch_names_the_field(tmp_path):
    cfg = lloyd_cfg(n=4)
    cfg["pipeline"] = "power_lloyd"
    cfg["agents"]["radii"] = [0.1, 0.2, 0.3]
    report = validate(write_cfg(tmp_path, cfg))
    fields = {e["field"]: e["message"] for e in report.errors}
    assert "agents.radii" in fields
    assert "expected 4" in fields["agents.radii"]


def test_more_agents_than_pois_is_infeasible(tmp_path):
    cfg = {
        "pipeline": "poi_assign",
        "density": {"kind": "uniform"},
        "agents": {"n": 5, "services": [{"kind": "disk", "radius": 0.1}] * 5},
        "params": {"k": 3},
    }
    report = validate(write_cfg(tmp_path, cfg))
    assert any("infeasible assignment shape" in e["message"] for e in report.errors)


def test_missing_density_file_fails_before_any_output(tmp_path):
    cfg = lloyd_cfg()
    cfg["density"] = {"kind": "image", "path": "nowhere.pgm"}
    cfg["out"] = str(tmp_path / "results")
    code = run(write_cfg(tmp_path, cfg))
    assert code == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("values", [np.zeros((3, 4)), [[1.0, np.nan], [2.0, 3.0]]],
                         ids=["all_zero", "nan"])
def test_unusable_grid_data_fails_before_any_output(tmp_path, values):
    np.savetxt(tmp_path / "grid.csv", values, delimiter=",")
    cfg = lloyd_cfg()
    cfg["density"] = {"kind": "grid", "path": "grid.csv"}
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    assert [e["field"] for e in validate(path).errors] == ["density.path"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("radius", [float("inf"), 10 ** 400, 1e200, 1.3e154],
                         ids=["inf", "huge_int", "1e200", "1.3e154"])
def test_non_finite_power_radius_fails_before_any_output(tmp_path, radius):
    cfg = lloyd_cfg(n=4)
    cfg["pipeline"] = "power_lloyd"
    cfg["agents"]["radii"] = [radius, 0.0, 0.0, 0.0]
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    assert [e["field"] for e in validate(path).errors] == ["agents.radii"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def test_gmm_without_mass_over_the_workspace_fails_before_any_output(tmp_path):
    cfg = lloyd_cfg()
    cfg["density"] = {"kind": "gmm", "weights": [1.0], "means": [[6.0, 6.0]],
                      "covariances": [[[0.01, 0.0], [0.0, 0.01]]]}
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    assert [e["field"] for e in validate(path).errors] == ["density"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def test_zero_area_workspace_fails_before_any_output(tmp_path):
    cfg = lloyd_cfg()
    cfg["workspace"] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [e["field"] for e in validate(path).errors] == ["workspace"]
        assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def test_structural_complaints_carry_field_names(tmp_path):
    cfg = {
        "pipeline": "poi_assign",
        "typo_key": 1,
        "density": {"kind": "gmm", "weights": [1.0], "means": [[0.5, 0.5]],
                    "covariances": [[[0.01, 0.0], [0.0, -0.01]]]},
        "agents": {"n": 1, "positions": [[2.0, 2.0]],
                   "services": [{"kind": "disk", "radius": 0.1}]},
        "params": {"k": 2, "cost": "kld", "warp": 9},
    }
    report = validate(write_cfg(tmp_path, cfg))
    fields = {e["field"] for e in report.errors}
    assert {"typo_key", "density.covariances", "agents.positions",
            "params.cost", "params.warp"} <= fields


def test_swarm_rejects_explicit_positions(tmp_path):
    cfg = {
        "pipeline": "swarm",
        "density": {"kind": "uniform"},
        "agents": {"n": 4, "positions": [[0.1, 0.1]] * 4},
        "params": {"iters": 3},
    }
    report = validate(write_cfg(tmp_path, cfg))
    assert any(e["field"] == "agents.positions" for e in report.errors)


def test_yaml_syntax_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("pipeline: [unclosed\n")
    report = validate(path)
    assert not report.ok
    assert report.errors[0]["field"] == "config"


@pytest.mark.parametrize("literal, value", [
    ("1e-6", 1e-6), ("1E-6", 1e-6), ("1e5", 1e5), (".5", 0.5), ("-1.5e+3", -1500.0),
    ("1.0e-6", 1e-6), ('"1e-6"', "1e-6"), ("1e", "1e"), ("e5", "e5"),
])
def test_config_floats_follow_the_yaml_1_2_core_schema(tmp_path, literal, value):
    """PyYAML's YAML 1.1 floats need a dot and a signed exponent; configs
    read 1e-6 as a float all the same, and strings stay strings."""
    parsed = yaml.load(f"tol: {literal}", Loader=runner._ConfigLoader)["tol"]
    assert type(parsed) is type(value) and parsed == value
    path = tmp_path / "scenario.yaml"
    path.write_text("pipeline: lloyd\nseed: 4\ndensity: {kind: uniform}\n"
                    f"agents: {{n: 3}}\nparams: {{iters: 60, tol: {literal}}}\n")
    report = validate(path)
    if isinstance(value, float) and value > 0:
        assert report.ok
        assert report.config["params"]["tol"] == value
    else:
        assert [(e["field"], e["message"]) for e in report.errors] == [
            ("params.tol", "must be a positive number")]


def test_missing_config_file(tmp_path):
    report = validate(tmp_path / "absent.yaml")
    assert not report.ok


# ------------------------------------------------------------- lloyd runs

def test_lloyd_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run(write_cfg(tmp_path, lloyd_cfg()), out=out)
    assert code == EXIT_OK
    for name in ("manifest.json", "metrics.jsonl", "final.csv",
                 "render_initial.svg", "render_final.svg"):
        assert (out / name).exists(), name

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["pipeline"] == "lloyd"

    records = read_metrics(out)
    costs = [r["cost"] for r in records]
    assert all(b - a <= 1e-9 * max(abs(a), 1.0) for a, b in zip(costs, costs[1:]))

    rows = (out / "final.csv").read_text().splitlines()
    assert rows[0] == "agent,x,y,power_radius"
    assert len(rows) == 4


def test_lloyd_run_builds_one_diagram_per_visited_configuration(tmp_path, monkeypatch):
    from coverkit import coverage
    calls = []
    build = coverage.power_cells_from_weights
    monkeypatch.setattr(coverage, "power_cells_from_weights",
                        lambda *args: calls.append(args) or build(*args))
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, lloyd_cfg(iters=4, tol=1e-12)), out=out) == EXIT_OK
    # render_initial.svg draws the first step's diagram, not a second one
    assert len(calls) == len(read_metrics(out)) == 5


def test_initial_frame_draws_the_partition_at_the_initial_positions(tmp_path):
    cfg = {
        "pipeline": "power_lloyd",
        "seed": 2,
        "density": {"kind": "gmm", "weights": [0.6, 0.4],
                    "means": [[0.3, 0.35], [0.7, 0.65]],
                    "covariances": [[[0.015, 0.0], [0.0, 0.015]],
                                    [[0.01, 0.0], [0.0, 0.012]]]},
        # agent 1 sits inside agent 0's power disk: its cell is dominated
        "agents": {"n": 4, "positions": [[0.4, 0.5], [0.45, 0.5], [0.8, 0.5], [0.3, 0.2]],
                   "radii": [0.5, 0.0, 0.1, 0.05]},
        "params": {"iters": 3},
    }
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    density = cfg["density"]
    workspace = ConvexPolygon(runner.UNIT_SQUARE)
    phi = GmmDensity(workspace, density["weights"], density["means"],
                     [np.array(c) for c in density["covariances"]])
    positions = np.array(cfg["agents"]["positions"])
    radii = cfg["agents"]["radii"]
    cells = build_partition(phi, positions, radii).cells
    assert any(c is None for c in cells)
    render_scene(tmp_path / "want.svg", phi, workspace, agents=positions,
                 power_radii=radii, cells=cells, title="initial")
    assert (out / "render_initial.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()


def test_manifest_records_versions(tmp_path):
    assert run(write_cfg(tmp_path, lloyd_cfg(iters=2)), out=tmp_path / "out") == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"] == {"coverkit": coverkit.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.parametrize("make_cfg", [
    lloyd_cfg,
    lambda: poi_cfg(method="svgd", svgd_iters=40),
    lambda: poi_cfg(method="gmm", cost="kld"),
    lambda: submodular_cfg(matroid="partition"),
], ids=["lloyd", "svgd", "gmm-kld", "partition"])
def test_metrics_are_byte_deterministic_and_seed_sensitive(tmp_path, make_cfg):
    cfg_path = write_cfg(tmp_path, make_cfg())
    assert run(cfg_path, out=tmp_path / "a") == EXIT_OK
    assert run(cfg_path, out=tmp_path / "b") == EXIT_OK
    assert run(cfg_path, seed=99, out=tmp_path / "c") == EXIT_OK
    # cost_matrix.csv is written by poi_assign only
    for name in ("metrics.jsonl", "final.csv", "cost_matrix.csv"):
        if (tmp_path / "a" / name).exists():
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    c = (tmp_path / "c" / "metrics.jsonl").read_bytes()
    assert a != c


def test_power_lloyd_draws_dashed_power_disks(tmp_path):
    cfg = {
        "pipeline": "power_lloyd",
        "seed": 2,
        "density": {"kind": "gmm",
                    "weights": [0.4, 0.3, 0.2, 0.1],
                    "means": [[0.25, 0.25], [0.75, 0.3], [0.3, 0.75], [0.7, 0.7]],
                    "covariances": [[[0.01, 0.0], [0.0, 0.01]]] * 4},
        "agents": {"n": 4, "radii": [0.2, 0.15, 0.1, 0.05]},
        "params": {"iters": 40},
    }
    out = tmp_path / "power"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    svg = (out / "render_final.svg").read_text()
    assert "stroke-dasharray" in svg
    rows = (out / "final.csv").read_text().splitlines()
    assert len(rows) == 5


def test_metrics_count_starved_agents(tmp_path):
    cfg = lloyd_cfg(iters=3)
    cfg["pipeline"] = "power_lloyd"
    # agent 1 sits inside agent 0's power disk: its cell is dominated throughout
    cfg["agents"] = {"n": 3, "positions": [[0.4, 0.5], [0.45, 0.5], [0.8, 0.5]],
                     "radii": [0.5, 0.0, 0.1]}
    out = tmp_path / "starved"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    records = read_metrics(out)
    assert len(records) == 4
    assert [r["starved"] for r in records] == [1, 1, 1, 1]


def test_unconverged_descent_exits_3_but_keeps_logs(tmp_path):
    cfg = lloyd_cfg(iters=1, tol=1e-12, require_convergence=True)
    cfg["density"] = {"kind": "gmm", "weights": [1.0], "means": [[0.3, 0.6]],
                      "covariances": [[[0.02, 0.0], [0.0, 0.02]]]}
    out = tmp_path / "partial"
    code = run(write_cfg(tmp_path, cfg), out=out)
    assert code == EXIT_NUMERIC
    assert (out / "metrics.jsonl").exists()
    assert (out / "manifest.json").exists()
    assert len(read_metrics(out)) == 2


def test_density_out_of_reach_exits_3(tmp_path):
    cfg = lloyd_cfg()
    cfg["density"] = {"kind": "gmm", "weights": [1.0], "means": [[1.9, 1.9]],
                      "covariances": [[[0.01, 0.0], [0.0, 0.01]]]}
    out = tmp_path / "unreachable"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_NUMERIC
    assert (out / "manifest.json").exists()


def test_discretization_without_mass_exits_3(tmp_path, capsys):
    # the one live pixel lies between the Gauss-Legendre nodes of the 2x2
    # discretization that four agents get
    np.savetxt(tmp_path / "dot.csv", np.pad([[1.0]], ((49, 50), (49, 50))), delimiter=",")
    cfg = {"pipeline": "swarm", "seed": 0, "density": {"kind": "grid", "path": "dot.csv"},
           "agents": {"n": 4}, "params": {"iters": 2}}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", str(path)]) == EXIT_OK
    out = tmp_path / "dot_out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "numerical failure: total weight must be positive" in err
    assert (out / "manifest.json").exists()


# ------------------------------------------------------- other pipelines

def test_poi_assign_end_to_end(tmp_path):
    cfg = {
        "pipeline": "poi_assign",
        "seed": 6,
        "density": {"kind": "gmm", "weights": [0.6, 0.4],
                    "means": [[0.3, 0.35], [0.7, 0.65]],
                    "covariances": [[[0.015, 0.0], [0.0, 0.015]],
                                    [[0.01, 0.0], [0.0, 0.012]]]},
        "agents": {"n": 2,
                   "services": [{"kind": "disk", "radius": 0.1},
                                {"kind": "gaussian",
                                 "covariance": [[0.01, 0.0], [0.0, 0.003]]}]},
        "params": {"k": 5, "samples": 400},
    }
    out = tmp_path / "poi"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    for name in ("cost_matrix.csv", "assignment.csv", "final.csv",
                 "render_final.svg", "metrics.jsonl"):
        assert (out / name).exists(), name
    rows = (out / "final.csv").read_text().splitlines()
    assert rows[0] == "agent,x,y,poi,poi_x,poi_y,theta,cost"
    assert len(rows) == 3
    stages = {r["stage"] for r in read_metrics(out)}
    assert stages == {"extract", "assign"}


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_poi_assign_artifacts_hold_the_library_results(tmp_path):
    """cost_matrix.csv, assignment.csv and final.csv carry, bit for bit, what
    footprint_cost and solve_assignment return for the run's pois."""
    services = [{"kind": "disk", "radius": 0.1},
                {"kind": "gaussian", "covariance": [[0.01, 0.0], [0.0, 0.003]]}]
    path = write_cfg(tmp_path, {**poi_cfg(), "density": gmm_density(),
                                "agents": {"n": 2, "services": services}})
    out = tmp_path / "poi"
    assert run(path, out=out) == EXIT_OK
    report = validate(path)
    resolved = report.config
    points = runner._extract_pois(resolved, report.density, report.workspace)[0]
    models = [IsotropicService(0.1), GaussianService([[0.01, 0.0], [0.0, 0.003]])]

    header, rows = read_csv(out / "cost_matrix.csv")
    assert header == "agent,poi,cost,theta"
    assert [(int(i), int(j)) for i, j, _, _ in rows] == [(i, j) for i in range(2)
                                                         for j in range(4)]
    values, angles = np.empty((2, 4)), np.empty((2, 4))
    for i, j, cost, theta in rows:
        i, j = int(i), int(j)
        values[i, j], angles[i, j] = footprint_cost(report.density, models[i], points[j])
        assert (float(cost), float(theta)) == (values[i, j], angles[i, j])

    pairs, _ = solve_assignment(values)
    header, rows = read_csv(out / "assignment.csv")
    assert header == "agent,poi"
    assert [[int(i), int(j)] for i, j in rows] == pairs.tolist()

    header, rows = read_csv(out / "final.csv")
    assert header == "agent,x,y,poi,poi_x,poi_y,theta,cost"
    assert [[int(row[0]), int(row[3])] for row in rows] == pairs.tolist()
    for row in rows:
        i, j = int(row[0]), int(row[3])
        assert [float(v) for v in row[4:6]] == points[j].tolist()
        assert (float(row[6]), float(row[7])) == (angles[i, j], values[i, j])


def test_gmm_extraction_with_kld_costs(tmp_path):
    cfg = {
        "pipeline": "poi_assign",
        "seed": 1,
        "density": {"kind": "gmm", "weights": [0.5, 0.5],
                    "means": [[0.3, 0.3], [0.7, 0.7]],
                    "covariances": [[[0.01, 0.0], [0.0, 0.01]],
                                    [[0.012, 0.0], [0.0, 0.008]]]},
        "agents": {"n": 2,
                   "services": [{"kind": "gaussian",
                                 "covariance": [[0.01, 0.0], [0.0, 0.004]]},
                                {"kind": "disk", "radius": 0.08}]},
        "params": {"k": 2, "samples": 600, "method": "gmm", "cost": "kld"},
    }
    out = tmp_path / "kld"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    rows = (out / "final.csv").read_text().splitlines()
    assert len(rows) == 3


def test_submodular_assign_end_to_end(tmp_path):
    cfg = {
        "pipeline": "submodular_assign",
        "seed": 9,
        "density": {"kind": "uniform"},
        "agents": {"n": 2},
        "params": {"k": 6, "samples": 300},
    }
    out = tmp_path / "sub"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    records = read_metrics(out)
    assert [r["round"] for r in records] == [0, 1]
    gains = [r["gain"] for r in records]
    assert gains[0] >= gains[1] - 1e-9
    rows = (out / "final.csv").read_text().splitlines()
    assert rows[0] == "agent,x,y,site,site_x,site_y"
    assert len(rows) == 3


def test_swarm_run_writes_frames_and_trending_metric(tmp_path):
    cfg = {
        "pipeline": "swarm",
        "seed": 3,
        "density": {"kind": "uniform"},
        "agents": {"n": 36},
        "params": {"iters": 4, "tau": 0.5, "resolution": 6,
                   "metric_every": 2, "snapshot_every": 2},
    }
    out = tmp_path / "swarm"
    assert run(write_cfg(tmp_path, cfg), out=out) == EXIT_OK
    frames = sorted(out.glob("render_*.svg"))
    assert len(frames) >= 2
    records = read_metrics(out)
    w2 = [r["w2_sinkhorn"] for r in records if r["w2_sinkhorn"] is not None]
    assert len(w2) >= 2
    assert w2[-1] <= w2[0] + 1e-9
    rows = (out / "final.csv").read_text().splitlines()
    assert len(rows) == 37


# -------------------------------------------------------------------- cli

def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, lloyd_cfg())
    assert main(["validate", str(cfg_path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True

    assert main(["run", str(cfg_path), "--out", str(tmp_path / "cli_out"),
                 "--seed", "12"]) == EXIT_OK
    manifest = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
    assert manifest["seed"] == 12


@pytest.mark.parametrize("level, shown", [("INFO", True), ("WARNING", False)])
def test_cli_log_level_filters_info_lines(tmp_path, level, shown):
    cfg_path = write_cfg(tmp_path, lloyd_cfg(iters=2))
    src = str(Path(coverkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "coverkit", "run", str(cfg_path),
         "--out", str(tmp_path / "out"), "--log-level", level],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ("wrote artifacts to" in proc.stderr) == shown
    assert main(["validate", str(cfg_path), "--log-level", level]) == EXIT_OK


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    cfg = lloyd_cfg()
    del cfg["density"]
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(e["field"] == "density" for e in report["errors"])


def test_shipped_scenarios_validate(tmp_path):
    from tests.conftest import REPO_ROOT

    for name in ("lloyd_uniform.yaml", "four_modes_power.yaml", "poi_disks.yaml",
                 "greedy_sites.yaml", "swarm_portrait.yaml"):
        report = validate(REPO_ROOT / "scenarios" / name)
        assert report.ok, (name, report.errors)


# ------------------------------------------------- validate matches run

SHIPPED = ("lloyd_uniform.yaml", "four_modes_power.yaml", "poi_disks.yaml",
           "greedy_sites.yaml", "swarm_portrait.yaml")
INF, NAN = math.inf, math.nan


def gmm_density(weights=(0.5, 0.5), means=((0.3, 0.3), (0.7, 0.7))):
    return {"kind": "gmm", "weights": list(weights), "means": [list(m) for m in means],
            "covariances": [[[0.01, 0.0], [0.0, 0.01]]] * 2}


def poi_cfg(radius=0.1, **params):
    return {"pipeline": "poi_assign", "seed": 2, "density": {"kind": "uniform"},
            "agents": {"n": 2, "services": [{"kind": "disk", "radius": radius},
                                            {"kind": "disk", "radius": 0.1}]},
            "params": {"k": 4, "samples": 200, **params}}


def submodular_cfg(**params):
    return {"pipeline": "submodular_assign", "seed": 2, "density": {"kind": "uniform"},
            "agents": {"n": 2}, "params": {"k": 4, "samples": 200, **params}}


NON_FINITE = {
    "gmm-weight-inf": ("density.weights",
                       {**lloyd_cfg(), "density": gmm_density(weights=(INF, 0.5))}),
    "gmm-mean-nan": ("density.means",
                     {**lloyd_cfg(), "density": gmm_density(means=((NAN, 0.3), (0.7, 0.7)))}),
    "gmm-mean-inf": ("density.means",
                     {**lloyd_cfg(), "density": gmm_density(means=((0.3, INF), (0.7, 0.7)))}),
    "tol-inf": ("params.tol", lloyd_cfg(tol=INF)),
    "svgd-bandwidth-inf": ("params.bandwidth", poi_cfg(method="svgd", bandwidth=INF)),
    "disk-radius-inf": ("agents.services[0].radius", poi_cfg(radius=INF)),
    "d-max-inf": ("params.d_max", submodular_cfg(d_max=INF)),
    "epsilon-inf": ("params.epsilon",
                    {"pipeline": "swarm", "density": {"kind": "uniform"}, "agents": {"n": 9},
                     "params": {"iters": 2, "epsilon": INF}}),
    "workspace-vertex-inf": ("workspace",
                             {**lloyd_cfg(), "workspace": [[0, 0], [INF, 0], [1, 1], [0, 1]]}),
}


@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_values_fail_both_commands_before_any_output(tmp_path, capsys, name):
    field, cfg = NON_FINITE[name]
    path = write_cfg(tmp_path, {**cfg, "out": str(tmp_path / "results")})
    assert main(["validate", str(path)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().out)
    assert field in [e["field"] for e in report["errors"]]
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def numeric_leaves(node, keys=()):
    """Key paths of every int or float below a parsed YAML node."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield keys + (key,)
        else:
            yield from numeric_leaves(value, keys + (key,))


@pytest.mark.parametrize("scenario", SHIPPED)
def test_every_non_finite_number_is_named_and_refused(tmp_path, scenario):
    from tests.conftest import REPO_ROOT

    base = yaml.safe_load((REPO_ROOT / "scenarios" / scenario).read_text())
    if "path" in base["density"]:
        base["density"]["path"] = str(REPO_ROOT / "scenarios" / base["density"]["path"])
    base["out"] = str(tmp_path / "results")
    leaves = [keys for part in ("density", "agents", "params")
              for keys in numeric_leaves(base[part], (part,))]
    assert leaves
    for keys in leaves:
        leaf = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
        for bad in (INF, -INF, NAN):
            cfg = copy.deepcopy(base)
            node = cfg
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = bad
            path = write_cfg(tmp_path, cfg)
            fields = [e["field"] for e in validate(path).errors]
            assert any(leaf == f or leaf.startswith((f + ".", f + "[")) for f in fields), \
                (leaf, bad, fields)
            assert run(path) == EXIT_CONFIG, (leaf, bad)
            assert not (tmp_path / "results").exists()


def all_nodes(node, keys=()):
    """Key paths of every value below a parsed YAML node, lists and mappings too."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield keys + (key,)
        yield from all_nodes(value, keys + (key,))


@pytest.mark.parametrize("scenario", SHIPPED)
def test_every_node_of_the_wrong_type_is_refused_without_a_crash(tmp_path, monkeypatch,
                                                                 scenario):
    # a list or mapping as a service kind once raised TypeError: unhashable type
    from tests.conftest import REPO_ROOT

    base = yaml.safe_load((REPO_ROOT / "scenarios" / scenario).read_text())
    if "path" in base["density"]:
        base["density"]["path"] = str(REPO_ROOT / "scenarios" / base["density"]["path"])
    monkeypatch.chdir(tmp_path)  # a relative out lands here too
    nodes = list(all_nodes(base))
    assert nodes
    for keys in nodes:
        for bad in ([], {}, True, "x"):
            cfg = copy.deepcopy(base)
            node = cfg
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = bad
            path = write_cfg(tmp_path, cfg)
            report = validate(path)
            if not report.ok:
                assert run(path) == EXIT_CONFIG, (keys, bad)
                assert list(tmp_path.iterdir()) == [path], (keys, bad)


@pytest.mark.parametrize("cfg", [poi_cfg(samples=3), poi_cfg(samples=3, method="gmm"),
                                 submodular_cfg(samples=3)],
                         ids=["kmeans", "gmm", "submodular"])
def test_more_sites_than_samples_fails_before_any_output(tmp_path, cfg):
    path = write_cfg(tmp_path, {**cfg, "out": str(tmp_path / "results")})
    assert [e["field"] for e in validate(path).errors] == ["params.k"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()
    # SVGD draws no samples, so k may exceed them
    assert validate(write_cfg(tmp_path, poi_cfg(samples=3, method="svgd"))).ok


def test_quadrature_levels_are_bounded(tmp_path):
    # validate only: 40 levels would ask for 12 * 4**40 nodes per fan triangle
    assert validate(write_cfg(tmp_path, lloyd_cfg(levels=MAX_LEVELS))).ok
    for levels in (MAX_LEVELS + 1, 40):
        report = validate(write_cfg(tmp_path, lloyd_cfg(levels=levels)))
        assert [e["field"] for e in report.errors] == ["params.levels"]


def edited(cfg, keys, value):
    """A deep copy of cfg with the node at the key path ``keys`` set to value."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


HUGE = 10 ** 400  # an int too large for a float
ROWS = [[0.2, 0.2], [0.5, 0.8], [0.8, 0.3]]
POWER = {**lloyd_cfg(), "pipeline": "power_lloyd",
         "agents": {"n": 3, "radii": [0.1, 0.1, 0.1]}}
GMM = {**lloyd_cfg(), "density": gmm_density()}
GAUSSIAN = edited(poi_cfg(), ("agents", "services", 1),
                  {"kind": "gaussian", "covariance": [[0.01, 0.0], [0.0, 0.01]]})
SWARM = {"pipeline": "swarm", "density": {"kind": "uniform"}, "agents": {"n": 9},
         "params": {"iters": 2}}
SPELLINGS = {"string": "0.5", "bool": True, "huge-int": HUGE, "nan": NAN}
COV = ("density", "covariances", 0)
SERVICE_COV = ("agents", "services", 1, "covariance")
# (id, config, fields validate reports); each kind of number is judged by the
# library's rule for it, behind one guard against YAML strings and bools
BOUNDARIES = [
    *[(f"count-{name}", lloyd_cfg(iters=v), ["params.iters"])
      for name, v in [*SPELLINGS.items(), ("float", 1.5)] if name != "huge-int"],
    ("count-huge-int", lloyd_cfg(iters=HUGE), []),
    ("count-zero-agents", edited(lloyd_cfg(), ("agents", "n"), 0), ["agents.n"]),
    ("count-svgd-iters-0", poi_cfg(method="svgd", svgd_iters=0), []),
    ("count-svgd-iters-negative", poi_cfg(method="svgd", svgd_iters=-1), ["params.svgd_iters"]),
    ("count-resolution-2", edited(SWARM, ("params", "resolution"), 2), []),
    ("count-resolution-1", edited(SWARM, ("params", "resolution"), 1), ["params.resolution"]),
    ("count-levels-0", lloyd_cfg(levels=0), ["params.levels"]),
    ("count-swarm-iters-0", edited(SWARM, ("params", "iters"), 0), ["params.iters"]),
    ("seed-0", {**lloyd_cfg(), "seed": 0}, []),
    ("seed-1e30", {**lloyd_cfg(), "seed": 10 ** 30}, []),
    ("seed-negative", {**lloyd_cfg(), "seed": -1}, ["seed"]),
    *[(f"scalar-{name}", lloyd_cfg(tol=v), ["params.tol"]) for name, v in SPELLINGS.items()],
    ("scalar-1e-6", lloyd_cfg(tol=1e-6), []),
    ("scalar-zero", lloyd_cfg(tol=0), ["params.tol"]),
    ("scalar-tau-1", edited(SWARM, ("params", "tau"), 1), []),
    ("scalar-tau-above-1", edited(SWARM, ("params", "tau"), 1.5), ["params.tau"]),
    *[(f"scalar-radius-{name}", poi_cfg(radius=v), ["agents.services[0].radius"])
      for name, v in SPELLINGS.items()],
    *[(f"points-{name}", edited(lloyd_cfg(), ("agents", "positions"), [[v, 0.5], *ROWS[1:]]),
       ["agents.positions"]) for name, v in SPELLINGS.items()],
    ("points-flat", edited(lloyd_cfg(n=1), ("agents", "positions"), [0.5, 0.5]),
     ["agents.positions"]),
    ("points-three-columns", edited(lloyd_cfg(), ("agents", "positions"),
                                    [r + [0.0] for r in ROWS]), ["agents.positions"]),
    ("points-ragged", edited(lloyd_cfg(), ("agents", "positions"), [ROWS[0], [0.5], ROWS[2]]),
     ["agents.positions"]),
    ("points-empty", edited(lloyd_cfg(), ("agents", "positions"), []), ["agents.positions"]),
    *[(f"workspace-{name}", {**lloyd_cfg(), "workspace": [[0, 0], [1, 0], [1, v], [0, 1]]},
       ["workspace"]) for name, v in SPELLINGS.items()],
    ("workspace-flat", {**lloyd_cfg(), "workspace": [0, 0, 1, 0, 1, 1, 0, 1]}, ["workspace"]),
    ("workspace-three-columns", {**lloyd_cfg(), "workspace": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]},
     ["workspace"]),
    ("workspace-ragged", {**lloyd_cfg(), "workspace": [[0, 0], [1], [1, 1], [0, 1]]},
     ["workspace"]),
    ("workspace-empty", {**lloyd_cfg(), "workspace": []}, ["workspace"]),
    *[(f"means-{name}", edited(GMM, ("density", "means", 0), [v, 0.3]), ["density.means"])
      for name, v in SPELLINGS.items()],
    ("means-flat", edited(GMM, ("density", "means"), [0.3, 0.3]), ["density.means"]),
    ("means-three-columns", edited(GMM, ("density", "means"), [[0.3, 0.3, 0], [0.7, 0.7, 0]]),
     ["density.means"]),
    ("means-ragged", edited(GMM, ("density", "means"), [[0.3, 0.3], [0.7]]), ["density.means"]),
    *[(f"weights-{name}", edited(GMM, ("density", "weights"), [v, 0.5]), ["density.weights"])
      for name, v in SPELLINGS.items()],
    ("weights-empty", edited(GMM, ("density", "weights"), []), ["density.weights"]),
    ("weights-not-a-list", edited(GMM, ("density", "weights"), 0.5), ["density.weights"]),
    ("weights-nested", edited(GMM, ("density", "weights"), [[0.5], [0.5]]), ["density.weights"]),
    ("weights-zero-entry", edited(GMM, ("density", "weights"), [0.0, 1.0]), ["density.weights"]),
    *[(f"covariance-{name}", edited(GMM, COV, [[0.01, v], [v, 0.01]]), ["density.covariances"])
      for name, v in SPELLINGS.items()],
    *[(f"covariance-{name}", edited(GMM, COV, v), ["density.covariances"]) for name, v in [
        ("1x1", [[0.01]]), ("3x3", np.eye(3).tolist()), ("flat-4", [0.01, 0.0, 0.0, 0.01]),
        ("ragged", [[0.01, 0.0], [0.01]]), ("empty", [])]],
    *[(f"service-covariance-{name}", edited(GAUSSIAN, SERVICE_COV, v),
       ["agents.services[1].covariance"]) for name, v in [
        ("1x1", [[0.01]]), ("3x3", np.eye(3).tolist()), ("flat-4", [0.01, 0.0, 0.0, 0.01]),
        ("string", [[0.01, "0"], ["0", 0.01]]), ("huge-int", [[HUGE, 0], [0, 1]])]],
    *[(f"radii-{name}", edited(POWER, ("agents", "radii"), [v, 0.1, 0.1]), ["agents.radii"])
      for name, v in SPELLINGS.items()],
    ("radii-not-a-list", edited(POWER, ("agents", "radii"), 0.1), ["agents.radii"]),
    ("radii-nested", edited(POWER, ("agents", "radii"), [[0.1], [0.1], [0.1]]),
     ["agents.radii"]),
]


@pytest.mark.parametrize("cfg, fields", [row[1:] for row in BOUNDARIES],
                         ids=[row[0] for row in BOUNDARIES])
def test_each_spelling_of_a_number_is_judged_under_its_field(tmp_path, cfg, fields):
    assert [e["field"] for e in validate(write_cfg(tmp_path, cfg)).errors] == fields


def test_negative_seed_fails_before_any_output(tmp_path):
    path = write_cfg(tmp_path, {**lloyd_cfg(), "seed": -1, "out": str(tmp_path / "results")})
    assert [(e["field"], e["message"]) for e in validate(path).errors] == [
        ("seed", "must be a nonnegative integer")]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def test_negative_seed_override_fails_before_any_output(tmp_path, capsys):
    path = write_cfg(tmp_path, lloyd_cfg())
    out = tmp_path / "results"
    assert main(["run", str(path), "--seed", "-5", "--out", str(out)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().err)
    assert [e["field"] for e in report["errors"]] == ["--seed"]
    assert not out.exists()
    assert run(path, seed=0, out=out) == EXIT_OK


@pytest.mark.parametrize("pipeline", ["lloyd", "power_lloyd"])
def test_coincident_positions_fail_before_any_output(tmp_path, pipeline):
    cfg = lloyd_cfg(n=3)
    cfg["pipeline"] = pipeline
    cfg["agents"]["positions"] = [[0.2, 0.2], [0.6, 0.6], [0.2, 0.2 + 1e-10]]
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    report = validate(path)
    assert [e["field"] for e in report.errors] == ["agents.positions"]
    assert "rows 0 and 2 coincide" in report.errors[0]["message"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("pipeline", ["lloyd", "swarm"])
def test_radii_outside_power_lloyd_fail_before_any_output(tmp_path, pipeline):
    cfg = {"pipeline": pipeline, "seed": 1, "density": {"kind": "uniform"},
           "agents": {"n": 3, "radii": [0.1, 0.2, 0.0]}, "params": {"iters": 2},
           "out": str(tmp_path / "results")}
    path = write_cfg(tmp_path, cfg)
    assert [e["field"] for e in validate(path).errors] == ["agents.radii"]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("spec, field", [
    ({"kind": "disk", "radius": 0.1, "falloff": "exponential"},
     "agents.services[1].falloff"),
    ({"kind": "gaussian", "covariance": [[0.01, 0.0], [0.0, 0.01]], "radius": 0.1},
     "agents.services[1].radius"),
], ids=["disk-falloff", "gaussian-radius"])
def test_unknown_service_fields_fail_before_any_output(tmp_path, spec, field):
    cfg = poi_cfg()
    cfg["agents"]["services"][1] = spec
    cfg["out"] = str(tmp_path / "results")
    path = write_cfg(tmp_path, cfg)
    assert [e["field"] for e in validate(path).errors] == [field]
    assert run(path) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("spec", [
    {"kind": "disk", "radius": 1e-10},
    {"kind": "gaussian", "covariance": [[0.01, 0.0], [0.0, 1e-22]]},
], ids=["tiny-disk", "flat-gaussian"])
def test_footprint_too_small_for_a_polygon_fails_before_any_output(tmp_path, capsys, spec):
    cfg = poi_cfg()
    cfg["agents"]["services"][1] = spec
    path = write_cfg(tmp_path, {**cfg, "out": str(tmp_path / "results")})
    assert main(["validate", str(path)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().out)
    assert [e["field"] for e in report["errors"]] == ["agents.services[1]"]
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()


def test_services_are_checked_at_the_run_orientations(tmp_path, capsys):
    # too thin to price at one of 3 orientations, though not at the 8 default ones
    service = {"kind": "gaussian", "covariance": [[2.872759591777463e-18, 0.0], [0.0, 0.01]]}
    cfg = {"pipeline": "poi_assign", "density": {"kind": "uniform"},
           "agents": {"n": 1, "services": [service]},
           "params": {"k": 2, "method": "kmeans", "samples": 50, "orientations": 3},
           "out": str(tmp_path / "results")}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().out)
    assert [e["field"] for e in report["errors"]] == ["agents.services[0]"]
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "results").exists()
    service["covariance"] = [[0.01, 0.0], [0.0, 0.01]]
    services = validate(write_cfg(tmp_path, cfg)).services
    assert services[0].orientations == tuple(np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False))


def test_footprint_covering_the_workspace_is_priced_as_the_workspace(tmp_path, monkeypatch,
                                                                     capfd):
    # a 3-sigma ellipse 3e150 across contains the workspace at every site
    cfg = poi_cfg()
    cfg["agents"]["services"][1] = {"kind": "gaussian",
                                    "covariance": [[1e300, 0.0], [0.0, 1e300]]}
    path = write_cfg(tmp_path, cfg)
    priced = []
    price = assign.footprint_cost
    monkeypatch.setattr(assign, "footprint_cost", lambda phi, model, pt, levels: (
        priced.append((phi, model, pt, levels)) or price(phi, model, pt, levels)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, out=tmp_path / "huge") == EXIT_OK
    assert "Warning" not in capfd.readouterr().err
    rows = np.loadtxt(tmp_path / "huge" / "cost_matrix.csv", delimiter=",", skiprows=1)
    huge = [entry for entry in priced if isinstance(entry[1], GaussianService)]
    assert len(huge) == cfg["params"]["k"] == (rows[:, 0] == 1).sum()
    for (phi, _, pt, levels), row in zip(huge, rows[rows[:, 0] == 1]):
        want = cell_moments(phi, [phi.workspace], np.array([pt]), levels)[2][0]
        assert abs(row[2] - want) <= 1e-12 * want


def raise_non_finite_cost(phi, model, pt, levels):
    raise NonFiniteCost("footprint price is not finite")


def test_non_finite_cost_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(assign, "footprint_cost", raise_non_finite_cost)
    path = write_cfg(tmp_path, poi_cfg())
    assert validate(path).ok
    out = tmp_path / "nan"
    assert run(path, out=out) == EXIT_NUMERIC
    assert (out / "manifest.json").exists()


def test_non_finite_cost_exits_3_without_warnings(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(assign, "footprint_cost", raise_non_finite_cost)
    path = write_cfg(tmp_path, poi_cfg())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, out=tmp_path / "nan") == EXIT_NUMERIC
    assert (tmp_path / "nan" / "manifest.json").exists()
    assert "Warning" not in capfd.readouterr().err


@pytest.mark.parametrize("kind", ["uniform", "gmm", "image", "grid"])
def test_run_builds_the_density_once(tmp_path, monkeypatch, kind):
    (tmp_path / "density.pgm").write_text("P2\n3 2\n255\n10 200 30\n40 50 60\n")
    np.savetxt(tmp_path / "density.csv", [[1.0, 2.0], [3.0, 4.0]], delimiter=",")
    specs = {"uniform": {"kind": "uniform"}, "gmm": gmm_density(),
             "image": {"kind": "image", "path": "density.pgm"},
             "grid": {"kind": "grid", "path": "density.csv"}}
    calls = []
    build = runner._build_density
    monkeypatch.setattr(runner, "_build_density",
                        lambda *args: calls.append(args) or build(*args))
    cfg = {**lloyd_cfg(iters=2), "density": specs[kind]}
    assert run(write_cfg(tmp_path, cfg), out=tmp_path / "out") == EXIT_OK
    assert len(calls) == 1


# (id, config, the (field, message) pairs validate reports) for the branches
# that the tables above do not reach
STRUCTURE = [
    ("density-unknown-field", {**lloyd_cfg(), "density": {"kind": "uniform", "path": "d.csv"}},
     [("density.path", "unknown field for kind uniform")]),
    ("agents-unknown-field", edited(lloyd_cfg(), ("agents", "speed"), 2),
     [("agents.speed", "unknown field")]),
    ("services-outside-poi-assign",
     edited(lloyd_cfg(), ("agents", "services"), [{"kind": "disk", "radius": 0.1}] * 3),
     [("agents.services", "only used by poi_assign")]),
    ("swarm-batch-above-n", edited(SWARM, ("params", "batch"), 10),
     [("params.batch", "cannot exceed agents.n = 9")]),
    ("top-level-list", [lloyd_cfg()], [("config", "top level must be a mapping")]),
    ("out-not-a-string", {**lloyd_cfg(), "out": 5}, [("out", "must be a path string")]),
]


@pytest.mark.parametrize("cfg, pairs", [row[1:] for row in STRUCTURE],
                         ids=[row[0] for row in STRUCTURE])
def test_structural_reports_name_the_field_and_the_fault(tmp_path, cfg, pairs):
    report = validate(write_cfg(tmp_path, cfg))
    assert [(e["field"], e["message"]) for e in report.errors] == pairs


def test_run_writes_beside_the_config_by_default(tmp_path):
    path = write_cfg(tmp_path, lloyd_cfg(iters=2), name="beside.yaml")
    assert run(path) == EXIT_OK
    manifest = json.loads((tmp_path / "beside_out" / "manifest.json").read_text())
    assert manifest["out"] == str(tmp_path / "beside_out")
