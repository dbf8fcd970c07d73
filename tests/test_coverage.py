"""Coverage cost and Lloyd descent tests.

The oracle at the top reproduces the locational cost with no polygon
machinery at all: label a dense grid by power distance and sum.
"""
import itertools
import logging
import re

import numpy as np
import pytest

from coverkit.coverage import build_partition, equitable_weights, lloyd_step, run_descent
from coverkit.density import GmmDensity, UniformDensity, from_pgm
from coverkit.errors import (DuplicateSites, NoConvergence, NonMonotoneDescent,
                             SiteOutsideWorkspace)
from coverkit.geometry import ConvexPolygon, check_sites, separate
from tests.oracles import fixed_point_equitable_weights
from tests.test_acceptance import WORKSPACE, accept_09_instances


def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def four_mode_density(sigma=0.09):
    modes = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    covs = [np.eye(2) * sigma**2] * 4
    return GmmDensity(unit_square(), np.full(4, 0.25), modes, covs), modes


# ---------------------------------------------------------------- oracles

def riemann_cost(phi, positions, radii=None, power=False, n=1500):
    """Locational cost by dense-grid labeling, independent of any clipping."""
    xmin, xmax, ymin, ymax = phi.workspace.bbox
    dx, dy = (xmax - xmin) / n, (ymax - ymin) / n
    xs = xmin + (np.arange(n) + 0.5) * dx
    ys = ymin + (np.arange(n) + 0.5) * dy
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(phi.eval(pts), dtype=float)
    pos = np.atleast_2d(positions)
    rho = np.zeros(len(pos)) if radii is None else np.asarray(radii, dtype=float)
    d2 = ((pts[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    score = d2 - rho[None, :] ** 2
    labels = np.argmin(score, axis=1)
    f = score[np.arange(len(pts)), labels] if power else d2[np.arange(len(pts)), labels]
    return float(np.sum(vals * f) * dx * dy)


def riemann_mass_fractions(phi, positions, radii, n=700):
    """Cell mass fractions by the same labeling, normalized to kill grid bias."""
    xmin, xmax, ymin, ymax = phi.workspace.bbox
    xs = xmin + (np.arange(n) + 0.5) * (xmax - xmin) / n
    ys = ymin + (np.arange(n) + 0.5) * (ymax - ymin) / n
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(phi.eval(pts), dtype=float)
    pos = np.atleast_2d(positions)
    score = ((pts[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2) - np.asarray(radii) ** 2
    labels = np.argmin(score, axis=1)
    masses = np.bincount(labels, weights=vals, minlength=len(pos))
    return masses / masses.sum()


# ------------------------------------------------------------------ costs

def test_single_agent_at_center_cost():
    phi = UniformDensity(unit_square())
    assert abs(build_partition(phi, [[0.5, 0.5]]).cost - 1.0 / 6.0) < 1e-12


def test_two_agent_cost_is_five_forty_eighths():
    phi = UniformDensity(unit_square())
    pos = np.array([[0.25, 0.5], [0.75, 0.5]])
    h = build_partition(phi, pos).cost
    assert abs(h - 5.0 / 48.0) < 1e-12
    assert abs(h - riemann_cost(phi, pos, n=1000)) < 1e-4


def test_cost_matches_riemann_oracle():
    sq = unit_square()
    rng = np.random.default_rng(21)
    pos = rng.uniform(0.15, 0.85, size=(3, 2))
    uni = UniformDensity(sq)
    h = build_partition(uni, pos).cost
    assert abs(h - riemann_cost(uni, pos, n=2000)) < 2e-3

    gmm = GmmDensity(sq, [0.5, 0.5], [[0.3, 0.4], [0.7, 0.6]],
                     [np.eye(2) * 0.03, np.eye(2) * 0.05])
    h = build_partition(gmm, pos).cost
    assert abs(h - riemann_cost(gmm, pos, n=2000)) < 5e-3


def test_equal_radii_power_cost_identity():
    sq = unit_square()
    c = 0.37
    for phi in (UniformDensity(sq),
                GmmDensity(sq, [1.0], [[0.45, 0.55]], [np.eye(2) * 0.04])):
        pos = [[0.3, 0.4], [0.7, 0.5], [0.5, 0.8]]
        h_p = build_partition(phi, pos, [c, c, c]).cost
        h_v = build_partition(phi, pos).cost
        assert abs(h_p - (h_v - c**2)) < 1e-6


def test_power_cost_matches_riemann_oracle():
    phi = UniformDensity(unit_square())
    pos = np.array([[0.3, 0.5], [0.7, 0.5]])
    rho = np.array([0.4, 0.1])
    h = build_partition(phi, pos, rho).cost
    assert abs(h - riemann_cost(phi, pos, rho, power=True, n=2000)) < 2e-3


def test_cost_validation():
    phi = UniformDensity(unit_square())
    pos = np.array([[0.3, 0.5], [0.7, 0.5]])
    bad_radii = [
        [0.1, 0.2, 0.3],  # one radius too many
        [-0.1, 0.0],
        [np.nan, 0.0],
        [np.inf, 0.0],
        [-np.inf, 0.0],
        [1e200, 0.0],  # the square overflows
        [1.3e154, 0.0],  # the square over EPS_GEO overflows in the clip offsets
    ]
    for radii in bad_radii:
        for call in (build_partition, lloyd_step, run_descent):
            with pytest.raises(ValueError):
                call(phi, pos, radii)
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol"):
            run_descent(phi, pos, tol=tol)
    for bad_pos in ([[0.3, 0.5, 0.1], [0.7, 0.5, 0.1]], np.full((2, 2, 2), 0.5)):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            build_partition(phi, bad_pos)


def test_cost_rejects_cells_outside_the_workspace():
    # every cell the partition integrates lies inside W, so the costs are valid
    sq = unit_square()
    phi = UniformDensity(sq)
    rng = np.random.default_rng(21)
    pos, rho = rng.uniform(0.0, 1.0, (40, 2)), rng.uniform(0.0, 0.05, 40)
    for radii in (None, rho):
        part = build_partition(phi, pos, radii)
        assert np.isfinite(part.cost)
        for cell in part.cells:
            assert cell is None or sq.contains(cell.vertices).all()


# ------------------------------------------------------------- partitions

def test_partition_masses_sum_to_one():
    sq = unit_square()
    rng = np.random.default_rng(6)
    gmm = GmmDensity(sq, [0.4, 0.6], [[0.35, 0.35], [0.7, 0.65]],
                     [np.eye(2) * 0.03, np.eye(2) * 0.04])
    for phi in (UniformDensity(sq), gmm):
        for _ in range(3):
            part = build_partition(phi, rng.uniform(0.1, 0.9, size=(5, 2)))
            assert abs(part.masses.sum() - 1.0) < 1e-4
            for cell, c in zip(part.cells, part.centroids):
                assert cell.contains(c)


def test_dominated_power_cell_is_empty():
    phi = UniformDensity(unit_square())
    pos, rho = [[0.5, 0.5], [0.9, 0.9]], [1.0, 0.0]
    part = build_partition(phi, pos, rho)
    assert part.cells[1] is None
    assert part.masses[1] == 0.0
    np.testing.assert_array_equal(part.centroids[1], [0.9, 0.9])
    moved, _ = lloyd_step(phi, pos, rho)
    np.testing.assert_array_equal(moved[1], [0.9, 0.9])


def test_largest_radius_takes_largest_mass():
    phi = UniformDensity(unit_square())
    pos = [[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]]
    part = build_partition(phi, pos, [0.3, 0.0, 0.0, 0.0])
    assert np.argmax(part.masses) == 0
    assert part.masses[0] > part.masses[1:].max() + 0.05


# ------------------------------------------------------------ Lloyd steps

def test_lloyd_single_agent_jumps_to_center():
    phi = UniformDensity(unit_square())
    moved, part = lloyd_step(phi, [[0.2, 0.3]])
    np.testing.assert_allclose(moved[0], [0.5, 0.5], atol=1e-12)
    # reported cost belongs to the position before the move
    expect = (1.0 / 3 - 0.2 + 0.04) + (1.0 / 3 - 0.3 + 0.09)
    assert abs(part.cost - expect) < 1e-12


def test_lloyd_fixed_point_stays_put():
    phi = UniformDensity(unit_square())
    pos = np.array([[0.25, 0.5], [0.75, 0.5]])
    moved, _ = lloyd_step(phi, pos)
    np.testing.assert_allclose(moved, pos, atol=1e-12)


def test_separate_nudges_coincident_generators():
    sq = unit_square()
    pos = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
    out = separate(sq, pos.copy())
    d = np.linalg.norm(out[0] - out[1])
    assert 0 < d < 1e-5
    assert sq.contains(out).all()
    np.testing.assert_array_equal(out[2], [0.2, 0.2])


def test_overrelaxed_step_projects_and_separates_agents(caplog):
    # agent 0's power disk dominates agent 1, so agent 0's cell is the whole
    # square and the step moves it onto the centroid, where agent 1 holds
    # position; agent 1 must then be nudged apart
    sq = unit_square()
    with caplog.at_level(logging.WARNING, logger="coverkit.coverage"):
        pos, part = lloyd_step(UniformDensity(sq), [[0.3, 0.5], [0.5, 0.5]], [0.6, 0.0])
    assert part.starved == [1]
    assert np.abs(pos[0] - 0.5).max() < 1e-12
    assert 0 < np.linalg.norm(pos[1] - pos[0]) < 1e-5
    assert sq.contains(pos).all()
    check_sites(pos, sq)
    assert [r.levelno for r in caplog.records if "nudged" in r.message] == [logging.WARNING]


# ---------------------------------------------------------------- descent

def test_descent_fixed_point_single_iteration():
    phi = UniformDensity(unit_square())
    res = run_descent(phi, [[0.25, 0.5], [0.75, 0.5]], max_iters=50, tol=1e-9)
    assert res.converged
    assert res.iterations == 1
    np.testing.assert_allclose(res.trajectory[0][0], res.trajectory[1][0])


def test_descent_monotone_and_centroidal():
    sq = unit_square()
    gmm = GmmDensity(sq, [0.5, 0.5], [[0.3, 0.35], [0.7, 0.7]],
                     [np.eye(2) * 0.04, np.eye(2) * 0.05])
    for phi in (UniformDensity(sq), gmm):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            res = run_descent(phi, rng.uniform(0.1, 0.9, size=(n, 2)), max_iters=300,
                              tol=1e-7, levels=3)
            costs = res.costs
            assert (np.diff(costs) <= 1e-6 * np.abs(costs[:-1])).all()
            if res.converged:
                gap = res.positions - res.partition.centroids
                assert np.linalg.norm(gap, axis=1).max() < 1e-4


def test_descent_four_agents_find_four_modes():
    phi, modes = four_mode_density()
    res = run_descent(phi, [[0.35, 0.4], [0.6, 0.35], [0.4, 0.6], [0.65, 0.6]],
                      max_iters=200, tol=1e-6, levels=3)
    final = res.positions
    d = np.linalg.norm(final[:, None, :] - modes[None, :, :], axis=2)
    claimed = d.argmin(axis=1)
    assert sorted(claimed) == [0, 1, 2, 3]
    assert (d.min(axis=1) < 2 * 0.09).all()


def test_descent_three_agents_share_four_modes():
    phi, modes = four_mode_density()
    res = run_descent(phi, [[0.25, 0.5], [0.7, 0.3], [0.7, 0.7]], max_iters=300,
                      tol=1e-6, levels=3)
    final = res.positions
    d = np.linalg.norm(final[:, None, :] - modes[None, :, :], axis=2)
    torn = [i for i in range(3) if d[i].min() > 2 * 0.09]
    assert torn, "expected one agent wedged between two modes"
    for i in torn:
        two = np.sort(d[i])[:2]
        assert two[1] < 1.3 * two[0]


def test_power_and_voronoi_descents_coincide_for_equal_radii():
    sq = unit_square()
    phi = UniformDensity(sq)
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.1, 0.9, size=(4, 2))
        res_v = run_descent(phi, pos, max_iters=30, tol=1e-12)
        res_p = run_descent(phi, pos, np.full(4, 0.25), max_iters=30, tol=1e-12)
        assert len(res_v.trajectory) == len(res_p.trajectory)
        for (pv, _), (pp, _) in zip(res_v.trajectory, res_p.trajectory):
            assert np.abs(pv - pp).max() < 1e-9


def test_descent_validation():
    phi = UniformDensity(unit_square())
    with pytest.raises(ValueError):
        run_descent(phi, [[0.4, 0.4]], max_iters=0)
    with pytest.raises(ValueError):
        run_descent(phi, [[0.4, 0.4]], tol=0.0)


class InflatingDensity(UniformDensity):
    """Pathological test double whose scale grows with every evaluation."""

    def __init__(self, workspace):
        self.calls = 0
        super().__init__(workspace)

    def _raw(self, pts):
        self.calls += 1
        return super()._raw(pts) * (1.0 + 0.5 * self.calls)


def test_descent_raises_on_rising_cost():
    phi = InflatingDensity(unit_square())
    with pytest.raises(NonMonotoneDescent):
        run_descent(phi, [[0.2, 0.2], [0.8, 0.8]], max_iters=10, tol=1e-12)


# --------------------------------------------------------------- gradient

def descent_objective(phi, flat_pos):
    return build_partition(phi, flat_pos.reshape(-1, 2)).cost


def test_gradient_matches_finite_differences():
    sq = unit_square()
    fields = [UniformDensity(sq),
              GmmDensity(sq, [1.0], [[0.45, 0.55]], [np.eye(2) * 0.05])]
    rng = np.random.default_rng(17)
    for phi in fields:
        for n in (2, 4):
            pos = rng.uniform(0.15, 0.85, size=(n, 2))
            part = build_partition(phi, pos)
            g = 2.0 * part.masses[:, None] * (pos - part.centroids)
            flat = pos.ravel()
            fd = np.zeros_like(flat)
            h = 1e-4
            for k in range(len(flat)):
                e = np.zeros_like(flat)
                e[k] = h
                fd[k] = (descent_objective(phi, flat + e)
                         - descent_objective(phi, flat - e)) / (2 * h)
            tol = max(1e-3, 1e-2 * np.linalg.norm(g))
            assert np.abs(g.ravel() - fd).max() < tol


# -------------------------------------------------------------- equitable

def test_equitable_symmetric_pair():
    phi = UniformDensity(unit_square())
    rho = equitable_weights(phi, [[0.3, 0.5], [0.7, 0.5]], tol_mass=1e-6)
    assert abs(rho[0] - rho[1]) < 1e-12
    assert rho.min() == 0.0


def test_equitable_asymmetric_pair_against_grid_oracle():
    phi = UniformDensity(unit_square())
    pos = np.array([[0.2, 0.5], [0.6, 0.5]])
    rho = equitable_weights(phi, pos, tol_mass=1e-4)
    fractions = riemann_mass_fractions(phi, pos, rho, n=900)
    np.testing.assert_allclose(fractions, 0.5, atol=2e-3)


def test_equitable_eight_sites_gmm():
    sq = unit_square()
    phi = GmmDensity(sq, [0.6, 0.4], [[0.35, 0.4], [0.7, 0.65]],
                     [np.eye(2) * 0.05, np.eye(2) * 0.03])
    rng = np.random.default_rng(13)
    gx, gy = np.meshgrid([0.2, 0.4, 0.6, 0.8], [0.3, 0.7])
    pos = np.stack([gx.ravel(), gy.ravel()], axis=1) + rng.uniform(-0.05, 0.05, (8, 2))
    rho = equitable_weights(phi, pos, tol_mass=0.01 / 8)
    part = build_partition(phi, pos, rho)
    assert np.abs(part.masses - 1.0 / 8).max() <= 0.01 / 8
    assert (rho >= 0).all()


def counted_diagrams(monkeypatch):
    """A list that gains one entry per power diagram coverage builds."""
    from coverkit import coverage
    built = []
    kernel = coverage.power_cells_from_weights

    def counting(*args):
        built.append(None)
        return kernel(*args)

    monkeypatch.setattr(coverage, "power_cells_from_weights", counting)
    return built


@pytest.mark.parametrize("positions, error", [
    ([[0.3, 0.5], [0.7, 0.5], [0.3, 0.5]], DuplicateSites),
    ([[0.3, 0.5], [1.3, 0.5]], SiteOutsideWorkspace),
], ids=["coincident", "outside"])
def test_equitable_refuses_bad_sites_before_any_diagram(monkeypatch, positions, error):
    built = counted_diagrams(monkeypatch)
    with pytest.raises(error):
        equitable_weights(UniformDensity(unit_square()), positions, max_iters=3)
    assert built == []


def test_equitable_reports_no_convergence(monkeypatch):
    # test 09's N = 8 mixture cannot reach 1e-12 in these budgets, and the
    # budget bounds the diagrams built. At 300, L-BFGS-B stops short on its own
    # after 179 diagrams (scipy 1.17.1), and nothing goes on from its point
    phi, pos = list(accept_09_instances())[5]
    built = counted_diagrams(monkeypatch)
    for max_iters in (1, 4, 300):
        built.clear()
        with pytest.raises(NoConvergence):
            equitable_weights(phi, pos, tol_mass=1e-12, max_iters=max_iters)
        assert len(built) <= max_iters
    # on the N = 2 mixture its line search ends abnormally after 86 (scipy 1.17.1)
    phi, pos = list(accept_09_instances())[3]
    built.clear()
    with pytest.raises(NoConvergence):
        equitable_weights(phi, pos, tol_mass=1e-12, max_iters=200)
    assert len(built) <= 200


def test_equitable_no_convergence_names_the_mass_error_and_the_diagrams(monkeypatch):
    # on test 09's N = 2 mixture at 1e-8 L-BFGS-B's line search ends abnormally
    # (scipy 1.17.1), and scipy's message ends at "ABNORMAL: "
    phi, pos = list(accept_09_instances())[3]
    built = counted_diagrams(monkeypatch)
    with pytest.raises(NoConvergence) as caught:
        equitable_weights(phi, pos, tol_mass=1e-8)
    found = re.search(r"largest mass error (\S+) after (\d+) diagrams \((.+)\)$",
                      str(caught.value))
    assert found is not None, str(caught.value)
    assert float(found[1]) > 1e-8 and int(found[2]) == len(built) > 0
    assert found[3] and not found[3].endswith(":")


def test_equitable_stops_short_on_a_flat_dual_within_two_hundred_diagrams(monkeypatch):
    # on test 09's N = 4 mixture the dual's value, a quadrature sum, is flat to
    # float precision near 1e-7 while its gradient is not: L-BFGS-B stops after
    # 83 diagrams (scipy 1.17.1), where a second solver after it used to spend
    # the whole default budget of 10,000 diagrams (16 s) before the same verdict
    phi, pos = list(accept_09_instances())[4]
    built = counted_diagrams(monkeypatch)
    with pytest.raises(NoConvergence):
        equitable_weights(phi, pos, tol_mass=1e-7)
    assert len(built) <= 200


def test_equitable_matches_fixed_point_oracle(portrait_path):
    # at 3e-7 both routines reach the tolerance on test 09's six instances (at
    # 1e-7 the new one does not on the N = 4 mixture, where the dual's value is
    # flat to float precision); squared radii differed by at most 6.9e-7 (scipy 1.17.1).
    # On the three raster instances both stop within the default 1e-3 of equal
    # masses, squared radii apart by at most 6.3e-4
    raster = from_pgm(portrait_path, WORKSPACE)
    cases = [(phi, pos, 3e-7, 2e-6) for phi, pos in accept_09_instances()]
    cases += [(raster, raster.sample(n, seed=5), 1e-3, 1e-3) for n in (4, 8, 16)]
    for phi, pos, tol, atol in cases:
        n = len(pos)
        rho = equitable_weights(phi, pos, tol_mass=tol)
        ref = fixed_point_equitable_weights(phi, pos, tol_mass=tol)
        for radii in (rho, ref):
            masses = build_partition(phi, pos, radii).masses
            assert np.abs(masses - 1.0 / n).max() <= tol
        np.testing.assert_allclose(rho**2, ref**2, rtol=0, atol=atol)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_equitable_reaches_a_tight_tolerance_on_a_raster(monkeypatch, portrait_path, n):
    # a raster's cell masses are exact, so the dual is smooth between diagrams:
    # 9, 20 and 31 diagrams here (scipy 1.17.1)
    raster = from_pgm(portrait_path, WORKSPACE)
    pos = raster.sample(n, seed=5)
    built = counted_diagrams(monkeypatch)
    rho = equitable_weights(raster, pos, tol_mass=1e-6)
    assert len(built) <= 100
    assert np.abs(build_partition(raster, pos, rho).masses - 1.0 / n).max() <= 1e-6


@pytest.mark.parametrize("scale", [1e-3, 1e4])
def test_equitable_radii_scale_with_the_workspace(scale):
    # no step constant carries the workspace's scale into the solve; radii
    # differed from scale times the unit-square radii by at most 4.7e-7 of the
    # scale (scipy 1.17.1)
    tol = 1e-6
    pos = UniformDensity(WORKSPACE).sample(8, seed=908)
    unit = equitable_weights(UniformDensity(WORKSPACE), pos, tol_mass=tol)
    phi = UniformDensity(ConvexPolygon(scale * np.asarray(WORKSPACE.vertices)))
    rho = equitable_weights(phi, scale * pos, tol_mass=tol)
    masses = build_partition(phi, scale * pos, rho).masses
    assert np.abs(masses - 1.0 / 8).max() <= tol
    np.testing.assert_allclose(rho / scale, unit, rtol=0, atol=5e-6)


def test_equitable_sixty_four_sites_within_a_hundred_diagrams(monkeypatch):
    # 24 diagrams here and 20-37 on four other seeds (scipy 1.17.1); the
    # bound leaves room for other scipy releases
    phi = UniformDensity(WORKSPACE)
    pos = phi.sample(64, seed=64)
    built = counted_diagrams(monkeypatch)
    rho = equitable_weights(phi, pos)
    assert len(built) <= 100
    assert np.abs(build_partition(phi, pos, rho).masses - 1.0 / 64).max() <= 1e-3


def test_starved_warning_names_a_count_and_the_first_ten(caplog):
    # one large power disk dominates the 15 agents packed around its centre
    ring = 0.5 + 0.05 * np.column_stack([np.cos(np.arange(15)), np.sin(np.arange(15))])
    pos = np.vstack([[0.5, 0.5], ring, [0.9, 0.9]])
    with caplog.at_level(logging.WARNING, logger="coverkit.coverage"):
        _, partition = lloyd_step(UniformDensity(unit_square()), pos, [0.6, *[0.0] * 15, 0.0])
    assert partition.starved == list(range(1, 16))
    (message,) = [r.getMessage() for r in caplog.records if "hold position" in r.message]
    assert message.startswith("15 agents hold position")
    assert message.endswith(str(list(range(1, 11))))


def test_descent_records_starved_agents_per_trajectory_entry():
    # agent 1 sits inside agent 0's power disk, so its cell is dominated
    res = run_descent(UniformDensity(unit_square()), [[0.4, 0.5], [0.45, 0.5], [0.8, 0.5]],
                      [0.5, 0.0, 0.1], max_iters=3)
    assert len(res.starved) == len(res.trajectory)
    assert all(s == [1] for s in res.starved)
    assert res.partition.cells[1] is None


def test_descent_surveys_each_visited_configuration_once(monkeypatch):
    from coverkit import coverage
    calls = []
    build = coverage.power_cells_from_weights
    monkeypatch.setattr(coverage, "power_cells_from_weights",
                        lambda *args: calls.append(args) or build(*args))
    pos, rho = [[0.3, 0.35], [0.7, 0.2], [0.5, 0.8]], [0.05, 0.1, 0.0]
    phi, _ = four_mode_density()
    res = run_descent(phi, pos, rho, max_iters=4, tol=1e-12)
    assert res.iterations == 4
    assert len(calls) == res.iterations + 1
    # the first step's partition is the one at the input positions
    want = build_partition(phi, pos, rho)
    assert [c is None for c in res.initial.cells] == [c is None for c in want.cells]
    for got, ref in zip(res.initial.cells, want.cells):
        np.testing.assert_array_equal(got.vertices, ref.vertices)
    np.testing.assert_array_equal(res.initial.masses, want.masses)


def test_descent_writes_neither_input_and_keeps_its_own_arrays():
    phi, _ = four_mode_density()
    pos = np.array([[0.3, 0.35], [0.7, 0.2], [0.5, 0.8]])
    rho = np.array([0.05, 0.1, 0.0])
    pos_before, rho_before = pos.copy(), rho.copy()
    res = run_descent(phi, pos, rho, max_iters=4, tol=1e-12)
    np.testing.assert_array_equal(pos, pos_before)
    np.testing.assert_array_equal(rho, rho_before)
    np.testing.assert_array_equal(res.trajectory[0][0], pos)
    arrays = [p for p, _ in res.trajectory] + [pos, res.positions]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(res.positions, res.trajectory[-1][0])
