"""Config validation, CLI exit codes, and end-to-end scenario artifacts."""

import json

import numpy as np
import pytest
import yaml

from coverkit.runner import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main, run, validate


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


def test_metrics_are_byte_deterministic_and_seed_sensitive(tmp_path):
    cfg_path = write_cfg(tmp_path, lloyd_cfg())
    assert run(cfg_path, out=tmp_path / "a") == EXIT_OK
    assert run(cfg_path, out=tmp_path / "b") == EXIT_OK
    assert run(cfg_path, seed=99, out=tmp_path / "c") == EXIT_OK
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    c = (tmp_path / "c" / "metrics.jsonl").read_bytes()
    assert a == b
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
