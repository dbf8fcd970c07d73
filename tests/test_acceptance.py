"""Whole-toolkit acceptance gate.

Twelve end-to-end checks, one per shipped guarantee, each printing a single
verdict line with its pinned tolerances so a full run reads as a checklist:

    pytest tests/test_acceptance.py -q -s

Unit-level oracles live next to their modules; this file exercises the
public entry points at realistic sizes and asserts the properties the
toolkit promises, with no knob weakened to make a line turn green.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.stats import chi2

from coverkit.assign import gaussian_kl, rotation, solve_assignment
from coverkit.coverage import build_partition, equitable_weights, run_descent
from coverkit.density import (
    DiscreteMeasure,
    GmmDensity,
    UniformDensity,
    from_pgm,
)
from coverkit.geometry import ConvexPolygon
from coverkit.poi import svgd
from coverkit.submod import (
    exemplar_utility_fn,
    greedy_partition,
    greedy_uniform,
)
from coverkit.swarm import run_reconfiguration
from coverkit.transport import (
    check_w2_identity,
    wasserstein_exact,
    wasserstein_sinkhorn,
)

from tests.conftest import REPO_ROOT
from tests.oracles import PartitionMatroid, UniformMatroid, brute_force_opt, kl_divergence

WORKSPACE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _random_mixture(rng, n_modes=3, eig_range=(0.006, 0.02)):
    means = rng.uniform(0.2, 0.8, size=(n_modes, 2))
    weights = rng.uniform(0.5, 1.5, size=n_modes)
    covs = []
    for _ in range(n_modes):
        eigs = rng.uniform(*eig_range, size=2)
        frame = rotation(rng.uniform(0.0, math.pi))
        covs.append(frame @ np.diag(eigs) @ frame.T)
    return GmmDensity(WORKSPACE, weights, means, covs)


def _random_measure(rng, n_atoms):
    pts = rng.uniform(0.0, 1.0, size=(n_atoms, 2))
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return DiscreteMeasure(pts, w / w.sum())


# ------------------------------------------------------------------ 01


def test_accept_01_descent_monotone_and_stationary():
    worst_rise = -np.inf
    worst_pull = 0.0
    stalled = 0
    for case in range(20):
        rng = np.random.default_rng(100 + case)
        n = 2 + case % 5
        phi = UniformDensity(WORKSPACE) if case % 2 == 0 else _random_mixture(rng)
        pos = rng.uniform(0.1, 0.9, size=(n, 2))
        result = run_descent(phi, pos, max_iters=2000, tol=2e-5)
        stalled += int(not result.converged)
        costs = result.costs
        rises = np.diff(costs) / np.maximum(np.abs(costs[:-1]), 1e-30)
        worst_rise = max(worst_rise, float(rises.max()))
        pull = np.linalg.norm(result.positions - result.partition.centroids, axis=1).max()
        worst_pull = max(worst_pull, float(pull))

    anchor = run_descent(UniformDensity(WORKSPACE), [[0.31, 0.87]], max_iters=60, tol=1e-9)
    center_err = float(np.linalg.norm(anchor.positions[0] - [0.5, 0.5]))
    cost_err = abs(anchor.costs[-1] - 1.0 / 6.0)

    ok = (stalled == 0 and worst_rise <= 1e-6 and worst_pull < 1e-4
          and center_err < 1e-6 and cost_err < 1e-3)
    _verdict("01 locational descent", ok,
             f"20 seeded runs ({stalled} stalled): worst relative cost rise "
             f"{worst_rise:.1e} (<= 1e-6), terminal centroid pull {worst_pull:.1e} "
             f"(< 1e-4); single-agent anchor off center by {center_err:.1e}, "
             f"cost within {cost_err:.1e} of 1/6")


# ------------------------------------------------------------------ 02


def test_accept_02_equal_radius_power_matches_voronoi():
    worst = 0.0
    desynced = 0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        n = 2 + seed % 4
        phi = UniformDensity(WORKSPACE) if seed % 2 == 0 else _random_mixture(rng)
        pos = rng.uniform(0.1, 0.9, size=(n, 2))
        plain = run_descent(phi, pos, max_iters=25, tol=1e-12)
        offset = run_descent(phi, pos, np.full(n, 0.25), max_iters=25, tol=1e-12)
        desynced += int(len(plain.trajectory) != len(offset.trajectory))
        for (pv, _), (pp, _) in zip(plain.trajectory, offset.trajectory):
            worst = max(worst, float(np.abs(pv - pp).max()))
    _verdict("02 equal-radius coincidence", worst <= 1e-9 and desynced == 0,
             f"10 seeds, per-step position mismatch max {worst:.1e} (<= 1e-9), "
             f"{desynced} trajectory-length splits")


# ------------------------------------------------------------------ 03


FOUR_MODES = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
MODE_SIGMA = 0.1


def _four_mode_phi():
    covs = [np.eye(2) * MODE_SIGMA**2] * 4
    return GmmDensity(WORKSPACE, [0.25] * 4, FOUR_MODES, covs)


def test_accept_03_mode_capture_and_compromise():
    phi = _four_mode_phi()
    two_sigma = 2 * MODE_SIGMA

    start4 = [[0.4, 0.3], [0.7, 0.35], [0.3, 0.6], [0.6, 0.7]]
    full = run_descent(phi, start4, max_iters=400, tol=1e-6)
    dists = cdist(full.positions, FOUR_MODES)
    rows, cols = linear_sum_assignment(dists)
    captured = float(dists[rows, cols].max())

    compromise_ok = True
    gaps = {}
    for n, start in ((2, [[0.35, 0.4], [0.65, 0.6]]),
                     (3, [[0.3, 0.3], [0.7, 0.3], [0.5, 0.7]])):
        res = run_descent(phi, start, max_iters=400, tol=1e-6)
        nearest = cdist(res.positions, FOUR_MODES).min(axis=1)
        gaps[n] = float(nearest.max())
        compromise_ok = compromise_ok and nearest.max() > two_sigma

    radii = np.array([0.25, 0.1, 0.1, 0.1])
    heavy = run_descent(phi, start4, radii, max_iters=400, tol=1e-6)
    mass_rank_ok = int(np.argmax(heavy.partition.masses)) == int(np.argmax(radii))

    ok = captured < two_sigma and compromise_ok and mass_rank_ok
    _verdict("03 four-mode capture", ok,
             f"N=4 agents each within 2-sigma of a distinct mode (worst "
             f"{captured:.3f} < {two_sigma}); N=2/N=3 leave an agent "
             f"{gaps[2]:.3f}/{gaps[3]:.3f} from every mode (> {two_sigma}); "
             f"largest radius owns the heaviest cell: {mass_rank_ok}")


# ------------------------------------------------------------------ 04


def test_accept_04_assignment_matches_brute_force():
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng(400 + trial)
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(rows, 9))
        values = rng.uniform(0.0, 10.0, size=(rows, cols))
        solved = solve_assignment(values)[1]
        best = min(sum(values[i, j] for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(cols), rows))
        if abs(solved - best) > 1e-9:
            mismatches += 1
    _verdict("04 assignment exactness", mismatches == 0,
             f"100 random matrices up to 7x8: {mismatches} mismatches vs "
             f"enumeration (tolerance 1e-9)")


# ------------------------------------------------------------------ 05


def _random_spd(rng, eig_range):
    eigs = rng.uniform(*eig_range, size=2)
    frame = rotation(rng.uniform(0.0, math.pi))
    return frame @ np.diag(eigs) @ frame.T


def test_accept_05_gaussian_kl_cross_validation():
    # Pairs live well inside the workspace at comparable scales, so neither
    # boundary truncation nor the support floor contaminates the comparison.
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        mean_a = rng.uniform(0.46, 0.54, size=2)
        mean_b = rng.uniform(0.46, 0.54, size=2)
        cov_a = _random_spd(rng, (0.009, 0.011))
        cov_b = _random_spd(rng, (0.009, 0.011))
        closed = gaussian_kl(mean_a, cov_a, mean_b, cov_b)
        psi = GmmDensity(WORKSPACE, [1.0], [mean_a], [cov_a])
        phi = GmmDensity(WORKSPACE, [1.0], [mean_b], [cov_b])
        quad = kl_divergence(psi, phi, WORKSPACE, levels=5)
        worst = max(worst, abs(closed - quad))

    self_closed = abs(gaussian_kl([0.5, 0.5], np.eye(2) * 0.08,
                                  [0.5, 0.5], np.eye(2) * 0.08))
    same = GmmDensity(WORKSPACE, [1.0], [[0.5, 0.5]], [np.eye(2) * 0.08])
    self_quad = abs(kl_divergence(same, same, WORKSPACE, levels=5))
    self_err = max(self_closed, self_quad)

    ok = worst < 1e-3 and self_err <= 1e-8
    _verdict("05 divergence cross-check", ok,
             f"20 random SPD pairs: closed form vs quadrature off by at most "
             f"{worst:.2e} (< 1e-3); self-divergence {self_err:.1e} (<= 1e-8)")


# ------------------------------------------------------------------ 06


def _cover_instance(rng, n_sets=8, universe=12):
    sets = [frozenset(int(e) for e in
                      rng.choice(universe, size=int(rng.integers(2, 6)),
                                 replace=False))
            for _ in range(n_sets)]

    def f(chosen):
        covered = frozenset()
        for idx in chosen:
            covered = covered | sets[idx]
        return float(len(covered))

    return f, n_sets


def _exemplar_instance(rng, n_candidates=9, n_data=30):
    data = rng.uniform(0.0, 1.0, size=(n_data, 2))
    candidates = rng.uniform(0.0, 1.0, size=(n_candidates, 2))
    return exemplar_utility_fn(candidates, data, d_max=2.0), n_candidates


def test_accept_06_greedy_bounds_and_submodularity():
    ratio_floor = 1.0 - 1.0 / math.e
    failures = []
    for trial in range(50):
        for build in (_cover_instance, _exemplar_instance):
            rng = np.random.default_rng(600 + trial)
            f, width = build(rng)
            ground = range(width)

            greedy = greedy_uniform(f, ground, 3).values[-1]
            _, opt = brute_force_opt(f, UniformMatroid(ground, 3))
            if greedy < ratio_floor * opt - 1e-9:
                failures.append((build.__name__, trial, "uniform"))

            blocks = [[j for j in ground if j % 3 == b] for b in range(3)]
            part_greedy = greedy_partition(f, blocks).values[-1]
            _, part_opt = brute_force_opt(f, PartitionMatroid(blocks))
            if part_greedy < 0.5 * part_opt - 1e-9:
                failures.append((build.__name__, trial, "partition"))

    triples_ok = 0
    rng = np.random.default_rng(666)
    f, width = _exemplar_instance(rng, n_candidates=12, n_data=40)
    for _ in range(1000):
        small = sorted(rng.choice(width, size=int(rng.integers(0, 5)),
                                  replace=False).tolist())
        extra = [j for j in range(width) if j not in small]
        big = sorted(small + rng.choice(extra, size=int(rng.integers(1, 4)),
                                        replace=False).tolist())
        outside = [j for j in range(width) if j not in big]
        x = int(rng.choice(outside))
        gain_small = f(tuple(small) + (x,)) - f(tuple(small))
        gain_big = f(tuple(big) + (x,)) - f(tuple(big))
        if gain_small >= gain_big - 1e-9 and f(tuple(big)) >= f(tuple(small)) - 1e-12:
            triples_ok += 1

    ok = not failures and triples_ok == 1000
    _verdict("06 greedy guarantees", ok,
             f"100 brute-forced instances honor the (1-1/e) and 1/2 floors "
             f"({len(failures)} violations); diminishing-returns triples "
             f"{triples_ok}/1000")


# ------------------------------------------------------------------ 07


def test_accept_07_transport_identity():
    gaps64 = []
    for trial in range(10):
        rng = np.random.default_rng(700 + trial)
        n = 1 + trial % 5
        phi = (UniformDensity(WORKSPACE) if trial % 3 != 1
               else _random_mixture(rng, eig_range=(0.01, 0.03)))
        pos = rng.uniform(0.15, 0.85, size=(n, 2))
        _, _, gap = check_w2_identity(phi, pos, 64)
        gaps64.append((phi, pos, gap))

    refined = 0
    for phi, pos, gap in gaps64[:5]:
        _, _, coarse = check_w2_identity(phi, pos, 32)
        refined += int(gap < coarse)

    worst = max(g for _, _, g in gaps64)
    ok = worst < 0.02 and refined >= 4
    _verdict("07 matching-cost identity", ok,
             f"10 configs at 64x64: worst relative gap {worst:.4f} (< 0.02); "
             f"refinement from 32x32 shrank the gap in {refined}/5 configs (>= 4)")


# ------------------------------------------------------------------ 08


def test_accept_08_metric_axioms_and_entropic_accuracy():
    rng = np.random.default_rng(800)
    sym_worst = 0.0
    self_worst = 0.0
    tri_worst = -np.inf
    for _ in range(10):
        mu = _random_measure(rng, int(rng.integers(10, 18)))
        nu = _random_measure(rng, int(rng.integers(10, 18)))
        om = _random_measure(rng, int(rng.integers(10, 18)))
        d_mn = wasserstein_exact(mu, nu)[0]
        d_nm = wasserstein_exact(nu, mu)[0]
        d_no = wasserstein_exact(nu, om)[0]
        d_mo = wasserstein_exact(mu, om)[0]
        sym_worst = max(sym_worst, abs(d_mn - d_nm))
        self_worst = max(self_worst, wasserstein_exact(mu, mu)[0])
        tri_worst = max(tri_worst, d_mo - (d_mn + d_no))

    sink_worst = 0.0
    for trial in range(3):
        rng = np.random.default_rng(850 + trial)
        mu = _random_measure(rng, 50)
        nu = _random_measure(rng, 50)
        exact = wasserstein_exact(mu, nu)[0]
        eps = 1e-2 * float(np.median(cdist(mu.points, nu.points, "sqeuclidean")))
        approx = wasserstein_sinkhorn(mu, nu, epsilon=eps)[0]
        sink_worst = max(sink_worst, abs(approx - exact) / exact)

    ok = (sym_worst <= 1e-9 and self_worst == 0.0
          and tri_worst <= 1e-7 and sink_worst < 0.02)
    _verdict("08 transport solver", ok,
             f"symmetry gap {sym_worst:.1e} (<= 1e-9), self distance "
             f"{self_worst:.1e} (= 0), triangle slack {tri_worst:.1e} (<= 1e-7); "
             f"entropic vs exact on 50x50 off by {sink_worst:.4f} (< 0.02)")


# ------------------------------------------------------------------ 09


def test_accept_09_equitable_split():
    worst = 0.0
    for kind in ("uniform", "mixture"):
        for n in (2, 4, 8):
            rng = np.random.default_rng(900 + n)
            phi = (UniformDensity(WORKSPACE) if kind == "uniform"
                   else _random_mixture(rng, eig_range=(0.01, 0.03)))
            pos = phi.sample(n, seed=900 + n)
            radii = equitable_weights(phi, pos, tol_mass=2e-4)
            part = build_partition(phi, pos, radii)
            rel = float(np.abs(part.masses - 1.0 / n).max() * n)
            worst = max(worst, rel)
    _verdict("09 equitable split", worst < 0.01,
             f"N in (2,4,8) on uniform and mixture targets: worst cell mass "
             f"off 1/N by {worst * 100:.3f}% (< 1%)")


# ------------------------------------------------------------------ 10


def _endpoint_distance(positions, target):
    mu = DiscreteMeasure(positions, np.full(len(positions), 1.0 / len(positions)))
    eps = 0.1 * float(np.median(cdist(positions, target.points, "sqeuclidean")))
    return wasserstein_sinkhorn(mu, target, epsilon=eps, tol=1e-3, anneal=False)[0]


def test_accept_10_swarm_portrait_and_uniform_occupancy():
    phi = from_pgm(REPO_ROOT / "scenarios" / "portrait.pgm", WORKSPACE)
    worst_ratio = 0.0
    worst_rise = -np.inf
    for seed in range(5):
        run = run_reconfiguration(phi, 2000, iters=14, tau=0.5, seed=seed,
                                  metric_every=None)
        objective = np.array([m["w2_batch"] ** 2 * 2000 for m in run.metrics[1:]])
        worst_rise = max(worst_rise, float(np.diff(objective).max()))
        before = _endpoint_distance(run.initial, run.target)
        after = _endpoint_distance(run.final.positions, run.target)
        worst_ratio = max(worst_ratio, after / before)

    flat = run_reconfiguration(UniformDensity(WORKSPACE), 2000, iters=8,
                               tau=1.0, seed=0, metric_every=None)
    counts, _, _ = np.histogram2d(flat.final.positions[:, 0],
                                  flat.final.positions[:, 1],
                                  bins=8, range=[[0, 1], [0, 1]])
    expected = 2000 / 64.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    bound = float(chi2.ppf(0.99, 63))

    ok = worst_ratio <= 0.10 and worst_rise <= 1e-9 and stat < bound
    _verdict("10 swarm reconfiguration", ok,
             f"portrait target, N=2000, 5 seeds: endpoint distance ratio at worst "
             f"{worst_ratio:.3f} (<= 0.10), full-batch objective rise "
             f"{worst_rise:.1e} (<= 1e-9); uniform occupancy chi-square "
             f"{stat:.1f} < {bound:.1f} (99% level, 63 dof)")


# ------------------------------------------------------------------ 11


def test_accept_11_particle_spread_controls():
    mode = np.array([0.6, 0.4])
    phi = GmmDensity(WORKSPACE, [1.0], [mode], [np.eye(2) * 0.04])
    lone = svgd(phi, 1, step=0.01, iters=400, seed=5)
    mode_err = float(np.linalg.norm(lone[0] - mode))

    def mean_nn(pts):
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min(axis=1)).mean())

    # Twelve particles leave packing headroom for the widest footprint, so
    # the equilibrium spacing can keep responding to the bandwidth.
    broad = GmmDensity(WORKSPACE, [1.0], [[0.5, 0.5]], [np.eye(2) * 0.05])
    ordered = 0
    spacings = []
    for seed in range(1, 6):
        row = [mean_nn(svgd(broad, 12, bandwidth_policy=r, step=0.01,
                            iters=800, seed=seed))
               for r in (0.05, 0.1, 0.2)]
        spacings.append(row)
        ordered += int(row[0] < row[1] < row[2])

    ok = mode_err < 1e-3 and ordered == 5
    mean_row = np.mean(spacings, axis=0)
    _verdict("11 particle extraction", ok,
             f"single particle lands {mode_err:.1e} from the mode (< 1e-3); "
             f"footprint bandwidths (0.05, 0.1, 0.2) widen mean spacing in "
             f"{ordered}/5 seeds (means {mean_row[0]:.3f} < {mean_row[1]:.3f} "
             f"< {mean_row[2]:.3f})")


# ------------------------------------------------------------------ 12


def test_accept_12_descent_gradient_check():
    step = 1e-5
    worst_ratio = 0.0
    worst_err = 0.0
    worst_tol = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1200 + trial)
        n = 2 + trial % 4
        phi = UniformDensity(WORKSPACE) if trial % 2 == 0 else _random_mixture(rng)
        pos = rng.uniform(0.12, 0.88, size=(n, 2))
        part = build_partition(phi, pos)
        grad = 2.0 * part.masses[:, None] * (pos - part.centroids)
        tol = max(1e-3, 1e-2 * float(np.linalg.norm(grad)))

        def cost_at(p):
            return build_partition(phi, p).cost

        err = 0.0
        for i in range(n):
            for axis in range(2):
                fwd = pos.copy()
                fwd[i, axis] += step
                back = pos.copy()
                back[i, axis] -= step
                numeric = (cost_at(fwd) - cost_at(back)) / (2 * step)
                err = max(err, abs(numeric - grad[i, axis]))
        if err / tol > worst_ratio:
            worst_ratio, worst_err, worst_tol = err / tol, err, tol
    _verdict("12 descent gradient", worst_ratio <= 1.0,
             f"20 configs: analytic cell-mass gradient vs central differences, "
             f"worst error {worst_err:.2e} against its max(1e-3, 1e-2*|g|) "
             f"budget {worst_tol:.2e}")
