"""Swarm transport steps and reconfiguration runs."""

import dataclasses
import warnings

import numpy as np
import pytest

from coverkit import swarm
from coverkit.density import DiscreteMeasure, GmmDensity, UniformDensity, from_pgm
from coverkit.errors import SiteOutsideWorkspace
from coverkit.geometry import ConvexPolygon
from coverkit.swarm import (
    SwarmRun,
    SwarmState,
    run_reconfiguration,
    systematic_resample,
    transport_step,
)
from coverkit.transport import wasserstein_sinkhorn
from tests.oracles import assignment_transport_step


# ---------------------------------------------------------------- oracles

def grid_measure(k):
    """Uniform measure on a k-by-k grid of cell centers in the unit square."""
    ticks = (np.arange(k) + 0.5) / k
    gx, gy = np.meshgrid(ticks, ticks)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return DiscreteMeasure(pts, np.full(k * k, 1.0 / (k * k)))


def square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


# ----------------------------------------------------------- resampling

def test_systematic_resample_uniform_hits_every_atom_once():
    idx = systematic_resample(np.full(16, 1.0 / 16), 16)
    np.testing.assert_array_equal(np.sort(idx), np.arange(16))


def test_systematic_resample_counts_track_weights():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, size=10)
    w /= w.sum()
    n = 500
    counts = np.bincount(systematic_resample(w, n), minlength=10)
    np.testing.assert_allclose(counts, n * w, atol=1.0)


def test_systematic_resample_skips_zero_weight_atoms():
    w = np.array([0.5, 0.0, 0.5])
    idx = systematic_resample(w, 40)
    assert not np.any(idx == 1)


def test_systematic_resample_validation():
    with pytest.raises(ValueError):
        systematic_resample([1.0], 0)
    with pytest.raises(ValueError):
        systematic_resample([0.0, 0.0], 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_systematic_resample_refuses_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        systematic_resample([bad, 1.0], 3)


def test_systematic_resample_refuses_weights_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            systematic_resample([1e308, 1e308], 3)


# --------------------------------------------------------- single steps

def test_state_validates_positions():
    with pytest.raises(SiteOutsideWorkspace):
        SwarmState(np.array([[0.5, 0.5], [1.5, 0.5]]), square())
    with pytest.raises(ValueError):
        SwarmState(np.ones((3, 3)), square())


def test_step_is_a_fixed_point_on_the_target_support():
    target = grid_measure(4)
    state = SwarmState(target.points.copy(), square())
    after = transport_step(state, target, tau=0.7, seed=5)
    np.testing.assert_allclose(after.positions, state.positions, atol=1e-14)
    assert after.w2_estimate == pytest.approx(0.0, abs=1e-12)
    assert after.iteration == 1


def test_full_batch_unit_tau_lands_on_the_target_multiset():
    target = grid_measure(5)
    rng = np.random.default_rng(0)
    state = SwarmState(rng.uniform(0.05, 0.95, size=(25, 2)), square())
    after = transport_step(state, target, tau=1.0, seed=1)
    got = after.positions[np.lexsort(after.positions.T)]
    want = target.points[np.lexsort(target.points.T)]
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_only_the_batch_moves():
    target = grid_measure(4)
    rng = np.random.default_rng(7)
    state = SwarmState(rng.uniform(0.1, 0.9, size=(10, 2)), square())
    after = transport_step(state, target, tau=0.5, batch=3, seed=11)
    changed = np.any(after.positions != state.positions, axis=1)
    assert changed.sum() == 3
    np.testing.assert_array_equal(after.positions[~changed], state.positions[~changed])


def test_step_determinism_and_seed_sensitivity():
    target = grid_measure(4)
    rng = np.random.default_rng(2)
    state = SwarmState(rng.uniform(0.1, 0.9, size=(12, 2)), square())
    a = transport_step(state, target, tau=0.5, batch=6, seed=3)
    b = transport_step(state, target, tau=0.5, batch=6, seed=3)
    c = transport_step(state, target, tau=0.5, batch=6, seed=4)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert np.any(a.positions != c.positions)


def test_full_batch_objective_is_monotone():
    w = square()
    phi = GmmDensity(w, [0.6, 0.4], [[0.3, 0.3], [0.7, 0.6]],
                     [np.eye(2) * 0.02, np.eye(2) * 0.01])
    target = DiscreteMeasure(*_discretized(phi, 8))
    rng = np.random.default_rng(9)
    state = SwarmState(rng.uniform(0.05, 0.95, size=(40, 2)), w)
    objectives = []
    for t in range(25):
        state = transport_step(state, target, tau=0.4, seed=100 + t)
        objectives.append(state.w2_estimate ** 2 * len(state))
    diffs = np.diff(objectives)
    assert np.all(diffs <= 1e-9)
    assert len(state) == 40


def _discretized(phi, k):
    from coverkit.density import discretize

    m = discretize(phi, k, k)
    return m.points, m.weights


def test_positions_stay_inside_after_many_steps():
    w = square()
    phi = GmmDensity(w, [1.0], [[0.08, 0.08]], [np.eye(2) * 0.004])
    target = DiscreteMeasure(*_discretized(phi, 10))
    rng = np.random.default_rng(4)
    state = SwarmState(rng.uniform(0.0, 1.0, size=(30, 2)), w)
    for t in range(15):
        state = transport_step(state, target, tau=0.8, seed=t)
    assert np.all(state.positions >= 0.0) and np.all(state.positions <= 1.0)


def test_step_validation():
    target = grid_measure(3)
    state = SwarmState(target.points.copy(), square())
    with pytest.raises(ValueError):
        transport_step(state, target, tau=0.0)
    with pytest.raises(ValueError):
        transport_step(state, target, tau=1.5)
    with pytest.raises(ValueError):
        transport_step(state, target, tau=0.5, batch=0)
    with pytest.raises(ValueError):
        transport_step(state, target, tau=0.5, batch=10)


# ------------------------------------------------------------- full runs

def test_uniform_target_gives_uniform_occupancy():
    phi = UniformDensity(square())
    run = run_reconfiguration(phi, n_agents=256, iters=3, tau=1.0,
                              seed=12, metric_every=None)
    pos = run.final.positions
    occupancy, _, _ = np.histogram2d(pos[:, 0], pos[:, 1],
                                     bins=8, range=[[0, 1], [0, 1]])
    expected = 256 / 64.0
    sigma = np.sqrt(256 * (1 / 64) * (63 / 64))
    assert np.all(np.abs(occupancy - expected) <= 3.0 * sigma)


def test_tight_gaussian_target_concentrates_the_swarm():
    w = square()
    mean, var = np.array([0.3, 0.3]), 0.0025
    phi = GmmDensity(w, [1.0], [mean], [np.eye(2) * var])
    run = run_reconfiguration(phi, n_agents=400, iters=40, tau=0.5,
                              seed=21, metric_every=None)
    radii = np.linalg.norm(run.final.positions - mean, axis=1)
    fraction = np.mean(radii <= 3.0 * np.sqrt(var))
    assert fraction >= 0.98


def test_portrait_run_shrinks_the_distance(portrait_path):
    phi = from_pgm(portrait_path, square())
    run = run_reconfiguration(phi, n_agents=300, iters=12, tau=0.5,
                              seed=33, metric_every=0)
    first = run.metrics[0]["w2_sinkhorn"]
    last = run.metrics[-1]["w2_sinkhorn"]
    assert first is not None and last is not None
    assert last <= 0.5 * first
    batch_trace = [rec["w2_batch"] for rec in run.metrics[1:9]]
    assert np.all(np.diff(batch_trace) < 0.0)


def test_run_stops_once_the_swarm_settles():
    phi = UniformDensity(square())
    run = run_reconfiguration(phi, n_agents=64, iters=50, tau=1.0,
                              seed=2, metric_every=None)
    # step 1 lands on the atoms, step 2 measures zero displacement
    assert run.final.iteration == 2
    assert len(run.metrics) == 3
    assert run.metrics[-1]["mean_displacement"] == pytest.approx(0.0, abs=1e-12)


def test_metric_cadence():
    phi = UniformDensity(square())
    never = run_reconfiguration(phi, 36, iters=4, tau=0.5, seed=5, metric_every=None)
    assert all(rec["w2_sinkhorn"] is None for rec in never.metrics)

    ends = run_reconfiguration(phi, 36, iters=4, tau=0.5, seed=5, metric_every=0)
    tagged = [rec["iteration"] for rec in ends.metrics if rec["w2_sinkhorn"] is not None]
    assert tagged == [0, ends.final.iteration]

    periodic = run_reconfiguration(phi, 36, iters=5, tau=0.5, seed=5, metric_every=2)
    tagged = [rec["iteration"] for rec in periodic.metrics if rec["w2_sinkhorn"] is not None]
    assert set(tagged) == {0, 2, 4, periodic.final.iteration}


def test_metric_records_carry_sinkhorn_iterations():
    phi = UniformDensity(square())
    run = run_reconfiguration(phi, 36, iters=5, tau=0.5, seed=5, metric_every=2)
    for rec in run.metrics:
        if rec["w2_sinkhorn"] is None:
            assert rec["sinkhorn_iters"] is None
            assert rec["sinkhorn_epsilon"] is None and rec["sinkhorn_residual"] is None
        else:
            assert isinstance(rec["sinkhorn_iters"], int) and rec["sinkhorn_iters"] > 1
            assert isinstance(rec["sinkhorn_epsilon"], float) and rec["sinkhorn_epsilon"] > 0
            assert isinstance(rec["sinkhorn_residual"], float)
            assert 0.0 <= rec["sinkhorn_residual"] <= 1e-4


def _recording_metric_calls(monkeypatch):
    """Patch the swarm's wasserstein_sinkhorn to keep each call's measures, the
    init it was given and its value and plan."""
    calls = []

    def recorded(mu, nu, **kw):
        value, plan = wasserstein_sinkhorn(mu, nu, **kw)
        calls.append((mu, nu, kw.get("init"), value, plan))
        return value, plan

    monkeypatch.setattr(swarm, "wasserstein_sinkhorn", recorded)
    return calls


def test_metric_calls_after_the_first_start_from_the_previous_potentials(monkeypatch):
    phi = UniformDensity(square())
    calls = _recording_metric_calls(monkeypatch)
    run = run_reconfiguration(phi, 36, iters=5, tau=0.5, seed=5, metric_every=2)
    assert len(calls) == 4
    assert calls[0][2] is None
    for (_, _, _, _, before), (_, _, init, _, _) in zip(calls, calls[1:]):
        assert init is before.potentials
    values = [rec["w2_sinkhorn"] for rec in run.metrics if rec["w2_sinkhorn"] is not None]
    assert values == [value for _, _, _, value, _ in calls]


def test_consecutive_runs_give_identical_metrics(portrait_path):
    phi = from_pgm(portrait_path, square())
    runs = [run_reconfiguration(phi, n_agents=120, iters=12, tau=0.5, seed=4,
                                metric_every=3) for _ in range(2)]
    assert sum(rec["w2_sinkhorn"] is not None for rec in runs[0].metrics) >= 4
    assert runs[0].metrics == runs[1].metrics


def test_warm_started_portrait_metrics_are_within_one_percent(portrait_path, monkeypatch):
    # the shipped swarm_portrait scenario; calls 2 to 4 start warm
    phi = from_pgm(portrait_path, square())
    calls = _recording_metric_calls(monkeypatch)
    run_reconfiguration(phi, n_agents=600, iters=30, tau=0.5, seed=1, metric_every=5)
    assert len(calls) == 4
    for mu, nu, init, value, _ in calls[1:]:
        assert init is not None
        reference, _ = wasserstein_sinkhorn(mu, nu, p=2, tol=1e-8)
        assert abs(value - reference) <= 0.01 * reference


def test_run_is_deterministic_and_snapshots_cover_endpoints():
    phi = UniformDensity(square())
    a = run_reconfiguration(phi, 50, iters=6, tau=0.5, seed=9,
                            metric_every=None, snapshot_every=2)
    b = run_reconfiguration(phi, 50, iters=6, tau=0.5, seed=9,
                            metric_every=None, snapshot_every=2)
    assert isinstance(a, SwarmRun)
    np.testing.assert_array_equal(a.final.positions, b.final.positions)
    steps = [t for t, _ in a.snapshots]
    assert steps[0] == 0 and steps[-1] == a.final.iteration
    assert steps == sorted(set(steps))
    np.testing.assert_array_equal(a.snapshots[0][1], a.initial)


def test_run_validation():
    phi = UniformDensity(square())
    with pytest.raises(ValueError):
        run_reconfiguration(phi, 0, iters=3)
    with pytest.raises(ValueError):
        run_reconfiguration(phi, 5, iters=-1)


# ------------------------------------------------------ matching reuse

def _run_both(monkeypatch, phi, n_agents, iters, **kw):
    """The same run with matching reuse and with the fresh-assignment oracle."""
    fast = run_reconfiguration(phi, n_agents, iters, metric_every=None, **kw)
    with monkeypatch.context() as m:
        m.setattr(swarm, "transport_step", assignment_transport_step)
        slow = run_reconfiguration(phi, n_agents, iters, metric_every=None, **kw)
    return fast, slow


def _assert_same_run(fast, slow):
    np.testing.assert_array_equal(fast.final.positions, slow.final.positions)
    assert fast.metrics == slow.metrics  # w2_batch and displacement, exactly
    assert [t for t, _ in fast.snapshots] == [t for t, _ in slow.snapshots]
    for (_, a), (_, b) in zip(fast.snapshots, slow.snapshots):
        np.testing.assert_array_equal(a, b)


def test_reused_matching_equals_fresh_assignments_on_the_portrait(monkeypatch,
                                                                  portrait_path):
    phi = from_pgm(portrait_path, square())
    # the shipped swarm_portrait demo
    fast, slow = _run_both(monkeypatch, phi, 600, 30, tau=0.5, seed=1, snapshot_every=5)
    assert fast.final.iteration > 5
    _assert_same_run(fast, slow)
    for seed in range(5):
        fast, slow = _run_both(monkeypatch, phi, 500, 12, tau=0.5, seed=seed)
        _assert_same_run(fast, slow)


def _count_assignments(monkeypatch):
    calls = []
    solve = swarm.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(swarm, "linear_sum_assignment", counted)
    return calls


def test_full_batch_steps_solve_one_assignment(monkeypatch):
    calls = _count_assignments(monkeypatch)
    target = grid_measure(6)
    state = SwarmState(np.random.default_rng(4).uniform(size=(36, 2)), square())
    for t in range(8):
        state = transport_step(state, target, tau=0.5, seed=t)
    assert calls == [(36, 36)]
    assert state.matching[0] is target


def _step_pair(state, target, **kw):
    fast = transport_step(state, target, tau=0.5, **kw)
    slow = assignment_transport_step(state, target, tau=0.5, **kw)
    np.testing.assert_array_equal(fast.positions, slow.positions)
    assert fast.w2_estimate == slow.w2_estimate
    return fast


def test_partial_batch_solves_afresh_and_carries_no_matching():
    target = grid_measure(7)
    state = SwarmState(np.random.default_rng(6).uniform(size=(40, 2)), square())
    state = _step_pair(state, target)
    assert state.matching is not None
    state = _step_pair(state, target, batch=25, seed=1)
    assert state.matching is None
    state = _step_pair(state, target, seed=2)
    assert state.matching is not None


def test_another_target_object_solves_afresh():
    target = grid_measure(6)
    state = SwarmState(np.random.default_rng(7).uniform(size=(36, 2)), square())
    state = _step_pair(state, target)
    shifted = DiscreteMeasure(0.5 * target.points + 0.2, target.weights)
    moved = _step_pair(state, shifted)
    assert moved.matching[0] is shifted
    # equal atoms in another object are solved again, with the same pairs
    twin = DiscreteMeasure(target.points.copy(), target.weights.copy())
    np.testing.assert_array_equal(_step_pair(state, twin).positions,
                                  transport_step(state, target, tau=0.5).positions)


def test_a_projected_step_solves_afresh():
    # atoms outside the square: the first step projects agents off their
    # rays, and the optimal matching afterwards pairs them differently
    rng = np.random.default_rng(93)
    x = rng.uniform(0.05, 0.95, size=(4, 2))
    target = DiscreteMeasure(rng.uniform(-0.8, 1.8, size=(4, 2)), np.full(4, 0.25))
    state = _step_pair(SwarmState(x, square()), target)
    assert state.matching is None
    _step_pair(state, target)


def test_a_matching_stays_with_the_positions_it_was_made_for(monkeypatch):
    calls = _count_assignments(monkeypatch)
    target = grid_measure(6)
    state = _step_pair(SwarmState(np.random.default_rng(8).uniform(size=(36, 2)),
                                  square()), target)
    assert state.matching is not None and len(calls) == 1
    with pytest.raises(TypeError):
        SwarmState(state.positions, square(), matching=state.matching)
    # replace() drops the matching, so perturbed positions are solved afresh
    nudged = dataclasses.replace(state, positions=0.98 * state.positions[::-1] + 0.01)
    assert nudged.matching is None
    _step_pair(nudged, target)
    assert len(calls) == 2
    # so are positions changed in place: two agents swap their places
    state.positions[[0, 1]] = state.positions[[1, 0]]
    _step_pair(state, target)
    assert len(calls) == 3
