"""Optimal transport solver tests.

Independent oracles: exhaustive permutation search for equal-count uniform
measures, and the sorted-difference greedy (provably optimal for two source
atoms) for general weights. Neither touches the LP or matching machinery.
The stabilized Sinkhorn stage is checked against the plain log-domain stage
it replaced.
"""
import itertools
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from coverkit import transport
from coverkit.density import DiscreteMeasure, GmmDensity, UniformDensity, discretize
from coverkit.errors import NoConvergence, SizeLimit
from coverkit.geometry import ConvexPolygon
from coverkit.transport import check_w2_identity, wasserstein_exact, wasserstein_sinkhorn

from tests.oracles import simplex_transport_lp, voronoi_measure


def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def rand_measure(rng, n, uniform=False):
    pts = rng.uniform(0, 1, size=(n, 2))
    w = np.ones(n) if uniform else rng.uniform(0.2, 1.0, size=n)
    return DiscreteMeasure(pts, w)


# ---------------------------------------------------------------- oracles

def perm_oracle(mu, nu, p):
    """Exhaustive optimal matching for equal-count uniform measures."""
    m = len(mu)
    d = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=2) ** p
    best = min(sum(d[i, perm[i]] for i in range(m))
               for perm in itertools.permutations(range(m)))
    return (best / m) ** (1.0 / p)


def two_source_oracle(mu, nu, p):
    """Optimal transportation from two atoms: fill the cheaper edge first."""
    c = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=2) ** p
    a, b = mu.weights, nu.weights.copy()
    order = np.argsort(c[0] - c[1])
    take = np.zeros(len(b))
    room = a[0]
    for j in order:
        t = min(room, b[j])
        take[j] = t
        room -= t
    cost = float(take @ c[0] + (b - take) @ c[1])
    return cost ** (1.0 / p)


def log_domain_stage(cost, loga, logb, f, g, eps, budget, tol):
    """Alternating log-domain Sinkhorn updates at one temperature.

    The reported residual is the L1 row-marginal error of the plan held
    before each f-update (column marginals are exact by construction).
    """
    a = np.exp(loga)
    resid = np.inf
    it = 0
    while it < budget:
        fn = -eps * logsumexp((g[None, :] - cost) / eps + logb[None, :], axis=1)
        resid = float(np.abs(a * (np.exp((f - fn) / eps) - 1.0)).sum())
        f = fn
        g = -eps * logsumexp((f[:, None] - cost) / eps + loga[:, None], axis=0)
        it += 1
        if it > 1 and resid <= tol:
            break
    return f, g, it, resid


# ------------------------------------------------------------ exact solver

def test_single_atom_pair():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
    value, plan = wasserstein_exact(mu, nu, p=2)
    assert abs(value - 5.0) < 1e-12
    np.testing.assert_allclose(plan.coupling, [[1.0]])


def test_identical_measures_have_zero_distance():
    rng = np.random.default_rng(1)
    mu = rand_measure(rng, 6)
    value, plan = wasserstein_exact(mu, mu, p=2)
    assert value == 0.0
    np.testing.assert_allclose(plan.coupling, np.diag(mu.weights), atol=1e-12)


def test_translated_corners():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mu = DiscreteMeasure(corners, np.ones(4))
    nu = DiscreteMeasure(corners + [1.0, 0.0], np.ones(4))
    value, _ = wasserstein_exact(mu, nu, p=2)
    assert abs(value - 1.0) < 1e-12


def test_uniform_matching_against_permutation_oracle():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3):
        for _ in range(5):
            mu = rand_measure(rng, 6, uniform=True)
            nu = rand_measure(rng, 6, uniform=True)
            value, _ = wasserstein_exact(mu, nu, p)
            assert abs(value - perm_oracle(mu, nu, p)) < 1e-9


def test_general_weights_against_two_source_oracle():
    rng = np.random.default_rng(4)
    for p in (1, 2):
        for _ in range(5):
            mu = rand_measure(rng, 2)
            nu = rand_measure(rng, 7)
            value, _ = wasserstein_exact(mu, nu, p)
            assert abs(value - two_source_oracle(mu, nu, p)) < 1e-9


def test_plan_marginals():
    rng = np.random.default_rng(5)
    mu, nu = rand_measure(rng, 5), rand_measure(rng, 9)
    _, plan = wasserstein_exact(mu, nu, p=2)
    assert (plan.coupling >= 0).all()
    np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-7)
    np.testing.assert_allclose(plan.coupling.sum(axis=0), nu.weights, atol=1e-7)


def test_zero_weight_atoms_are_carried_not_shipped():
    mu = DiscreteMeasure([[0.0, 0.0], [5.0, 5.0]], [1.0, 0.0])
    nu = DiscreteMeasure([[1.0, 0.0], [9.0, 9.0]], [1.0, 0.0])
    value, plan = wasserstein_exact(mu, nu, p=2)
    assert abs(value - 1.0) < 1e-12
    assert plan.coupling.shape == (2, 2)
    assert plan.coupling[1].sum() == 0.0
    assert plan.coupling[:, 1].sum() == 0.0


def test_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(4):
        mu, nu, ka = (rand_measure(rng, n) for n in (5, 6, 7))
        d_ab, _ = wasserstein_exact(mu, nu, p=2)
        d_ba, _ = wasserstein_exact(nu, mu, p=2)
        assert abs(d_ab - d_ba) < 1e-9
        d_ak, _ = wasserstein_exact(mu, ka, p=2)
        d_kb, _ = wasserstein_exact(ka, nu, p=2)
        assert d_ab <= d_ak + d_kb + 1e-7
        assert wasserstein_exact(mu, mu, p=2)[0] == 0.0


def test_scaling_homogeneity_exact():
    rng = np.random.default_rng(7)
    mu, nu = rand_measure(rng, 5), rand_measure(rng, 8)
    base, _ = wasserstein_exact(mu, nu, p=2)
    s = 2.5
    mus = DiscreteMeasure(mu.points * s, mu.weights)
    nus = DiscreteMeasure(nu.points * s, nu.weights)
    scaled, _ = wasserstein_exact(mus, nus, p=2)
    assert abs(scaled - s * base) < 1e-6 * s * base


def _lp_instances():
    """(cost, a, b) of transportation LPs: two-source, square, oblong, and thin
    (three agents against a 64 x 64 grid, as check_w2_identity builds)."""
    rng = np.random.default_rng(31)
    grid = discretize(GmmDensity(unit_square(), [1.0], [[0.4, 0.6]], [0.05 * np.eye(2)]),
                      64, 64)
    for mu, nu in ((rand_measure(rng, 2), rand_measure(rng, 7)),
                   (rand_measure(rng, 12), rand_measure(rng, 12)),
                   (rand_measure(rng, 25), rand_measure(rng, 30)),
                   (rand_measure(rng, 3), grid)):
        pa, wa, _ = transport._compact(mu)
        pb, wb, _ = transport._compact(nu)
        yield transport._cost_power(pa, pb, 2), wa, wb


def test_interior_point_lp_matches_the_simplex_oracle():
    for cost, a, b in _lp_instances():
        plan = transport._round_to_polytope(transport._transport_lp(cost, a, b), a, b)
        oracle = transport._round_to_polytope(simplex_transport_lp(cost, a, b), a, b)
        # random costs: the optimum is unique, so the vertices agree to the bit
        np.testing.assert_array_equal(plan, oracle)
        assert float((plan * cost).sum()) == float((oracle * cost).sum())


def test_size_limit():
    rng = np.random.default_rng(8)
    mu = DiscreteMeasure(rng.uniform(0, 1, (2001, 2)), np.ones(2001))
    nu = DiscreteMeasure(rng.uniform(0, 1, (2001, 2)), np.ones(2001))
    with pytest.raises(SizeLimit):
        wasserstein_exact(mu, nu, p=2)


def test_order_validation():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        wasserstein_exact(mu, mu, p=0.5)


# --------------------------------------------------------------- sinkhorn

def test_sinkhorn_identical_measures_score_zero():
    rng = np.random.default_rng(10)
    mu = rand_measure(rng, 30)
    d = np.linalg.norm(mu.points[:, None] - mu.points[None, :], axis=2) ** 2
    eps = 1e-3 * float(np.median(d))
    value, _ = wasserstein_sinkhorn(mu, mu, p=2, epsilon=eps)
    assert value < 1e-3
    assert value == 0.0  # the two debiasing terms cancel the cost exactly


def test_sinkhorn_close_to_exact_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(2):
        mu = rand_measure(rng, 50, uniform=True)
        nu = rand_measure(rng, 50, uniform=True)
        exact, _ = wasserstein_exact(mu, nu, p=2)
        d = np.linalg.norm(mu.points[:, None] - nu.points[None, :], axis=2) ** 2
        eps = 1e-2 * float(np.median(d))
        approx, plan = wasserstein_sinkhorn(mu, nu, p=2, epsilon=eps)
        assert abs(approx - exact) / exact < 0.02
        np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-7)
        np.testing.assert_allclose(plan.coupling.sum(axis=0), nu.weights, atol=1e-7)


def test_sinkhorn_scaling_homogeneity():
    rng = np.random.default_rng(12)
    mu, nu = rand_measure(rng, 25), rand_measure(rng, 30)
    base, _ = wasserstein_sinkhorn(mu, nu, p=2)
    s = 3.0
    mus = DiscreteMeasure(mu.points * s, mu.weights)
    nus = DiscreteMeasure(nu.points * s, nu.weights)
    scaled, _ = wasserstein_sinkhorn(mus, nus, p=2)
    assert abs(scaled - s * base) / (s * base) < 0.01


def test_sinkhorn_no_convergence():
    rng = np.random.default_rng(13)
    mu, nu = rand_measure(rng, 20), rand_measure(rng, 20)
    d = np.linalg.norm(mu.points[:, None] - nu.points[None, :], axis=2) ** 2
    with pytest.raises(NoConvergence):
        wasserstein_sinkhorn(mu, nu, p=2, epsilon=1e-5 * float(np.median(d)),
                             max_iters=3, anneal=False)


def _recording(stage, log):
    """Record each stage's iteration count under "main" (the calling thread)
    or "worker" (the debiasing thread), in call order."""
    main = threading.get_ident()

    def recorded(*args):
        out = stage(*args)
        log.setdefault("main" if threading.get_ident() == main else "worker", []).append(out[2])
        return out
    return recorded


def _counting(fn, counter):
    def counted(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return counted


def _oracle_instance(name):
    """(cost, a, b, mu, nu, solver keywords) for one oracle comparison."""
    if name == "uniform_50x50":
        rng = np.random.default_rng(11)
        mu, nu = rand_measure(rng, 50, uniform=True), rand_measure(rng, 50, uniform=True)
        frac, kw = 1e-2, {}
    elif name == "weighted_25x30":
        rng = np.random.default_rng(12)
        mu, nu = rand_measure(rng, 25), rand_measure(rng, 30)
        frac, kw = 0.05, {}
    else:  # small enough in epsilon that the scalings pass ABSORB_LOG
        rng = np.random.default_rng(13)
        mu, nu = rand_measure(rng, 20), rand_measure(rng, 25)
        frac, kw = 3e-3, {"tol": 1e-3, "anneal": False}
    a, b = mu.weights / mu.weights.sum(), nu.weights / nu.weights.sum()
    cost = transport._cost_power(mu.points, nu.points, 2)
    kw = {"epsilon": frac * float(np.median(cost)), "max_iters": 5000, "tol": 1e-4,
          "anneal": True, **kw}
    return cost, a, b, mu, nu, kw


@pytest.mark.parametrize("name", ["uniform_50x50", "weighted_25x30", "absorbing"])
def test_stabilized_sinkhorn_matches_log_domain_oracle(monkeypatch, name):
    cost, a, b, mu, nu, kw = _oracle_instance(name)
    args = (cost, a, b, kw["epsilon"], kw["max_iters"], kw["tol"], kw["anneal"])
    kernels, fallbacks, stages, oracle_stages = [], [], {}, {}
    monkeypatch.setattr(transport, "_gibbs_kernel",
                        _counting(transport._gibbs_kernel, kernels))
    monkeypatch.setattr(transport, "_logsumexp", _counting(transport._logsumexp, fallbacks))
    monkeypatch.setattr(transport, "_sinkhorn_stage",
                        _recording(transport._sinkhorn_stage, stages))
    plan, sharp, iters, resid, _, _ = transport._solve_coupling_cost(*args)
    value, tplan = wasserstein_sinkhorn(mu, nu, p=2, **kw)
    monkeypatch.setattr(transport, "_sinkhorn_stage",
                        _recording(log_domain_stage, oracle_stages))
    oracle_plan, oracle_sharp, oracle_iters, *_ = transport._solve_coupling_cost(*args)
    oracle_value, _ = wasserstein_sinkhorn(mu, nu, p=2, **kw)

    n_stages = len(transport._anneal_schedule(cost, kw["epsilon"], kw["anneal"]))
    # per-stage iteration counts of all four solves: the two cross solves on
    # this thread, the two debiasing self-solves in turn on the worker
    assert stages == oracle_stages
    assert len(stages["main"]) == 2 * n_stages
    assert iters == oracle_iters == sum(stages["main"][:n_stages])
    assert tplan.iterations == sum(stages["main"][n_stages:])
    assert resid <= kw["tol"]
    assert not fallbacks
    if name == "absorbing":  # kernels rebuilt by absorption alone
        assert len(kernels) > len(stages["main"]) + len(stages["worker"])
    assert np.abs(plan - oracle_plan).sum() <= 1e-9  # plans carry unit mass
    assert abs(sharp - oracle_sharp) <= 1e-9 * oracle_sharp
    assert abs(value - oracle_value) <= 1e-9 * oracle_value
    assert np.abs(tplan.coupling - oracle_plan).sum() <= 1e-9


def test_stabilized_sinkhorn_log_domain_fallback_matches_oracle(monkeypatch):
    # the no-convergence instance: K = exp(-C/eps) underflows to zero rows
    rng = np.random.default_rng(13)
    mu, nu = rand_measure(rng, 20), rand_measure(rng, 20)
    cost = transport._cost_power(mu.points, nu.points, 2)
    eps = 1e-5 * float(np.median(cost))
    loga = np.log(mu.weights / mu.weights.sum())
    logb = np.log(nu.weights / nu.weights.sum())
    zeros = np.zeros(20)
    fallbacks = []
    monkeypatch.setattr(transport, "_logsumexp", _counting(transport._logsumexp, fallbacks))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        f, g, it, resid = transport._sinkhorn_stage(cost, loga, logb, zeros, zeros,
                                                    eps, 3, 1e-4)
        with pytest.raises(NoConvergence):
            wasserstein_sinkhorn(mu, nu, p=2, epsilon=eps, max_iters=3, anneal=False)
    assert fallbacks
    assert np.isfinite(f).all() and np.isfinite(g).all()
    of, og, oit, oresid = log_domain_stage(cost, loga, logb, zeros, zeros, eps, 3, 1e-4)
    assert it == oit == 3
    assert abs(resid - oresid) <= 1e-9 * oresid
    scale = np.abs(cost).max()
    np.testing.assert_allclose(f, of, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(g, og, rtol=0, atol=1e-9 * scale)


def test_sinkhorn_plan_diagnostics():
    rng = np.random.default_rng(12)
    mu, nu = rand_measure(rng, 25), rand_measure(rng, 30)
    _, plan = wasserstein_sinkhorn(mu, nu, p=2, epsilon=0.01, tol=1e-5)
    assert plan.epsilon == 0.01
    assert isinstance(plan.iterations, int) and 1 < plan.iterations <= 5000
    assert 0.0 <= plan.residual <= 1e-5
    _, exact = wasserstein_exact(mu, nu, p=2)
    assert exact.epsilon is None and exact.iterations is None and exact.residual is None


@pytest.mark.parametrize("route", ["assignment", "lp", None])
def test_plan_reports_its_route(route):
    rng = np.random.default_rng(5)
    mu = rand_measure(rng, 12, uniform=route == "assignment")
    nu = rand_measure(rng, 12, uniform=route == "assignment")
    if route is None:
        _, plan = wasserstein_sinkhorn(mu, nu, p=2, epsilon=0.05, tol=1e-5)
    else:
        _, plan = wasserstein_exact(mu, nu, p=2)
    assert plan.route == route


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_assignment_route_equals_a_solve_on_the_plain_cost(p, monkeypatch):
    rng = np.random.default_rng(11)
    pairs = [(rand_measure(rng, n, uniform=True), rand_measure(rng, n, uniform=True))
             for n in (1, 5, 40, 300)]
    reduced = [wasserstein_exact(mu, nu, p) for mu, nu in pairs]
    monkeypatch.setattr(transport, "_matching",
                        lambda cost, sources: linear_sum_assignment(cost)[1])
    for (mu, nu), (value, plan) in zip(pairs, reduced):
        cold_value, cold_plan = wasserstein_exact(mu, nu, p)
        assert value == cold_value
        np.testing.assert_array_equal(plan.coupling, cold_plan.coupling)


def test_matching_reduces_the_cost_unless_sources_share_a_coordinate(monkeypatch):
    temperatures = []
    stage = transport._sinkhorn_stage

    def counted(cost, loga, logb, f, g, eps, budget, tol):
        temperatures.append((eps, budget, tol))
        return stage(cost, loga, logb, f, g, eps, budget, tol)

    monkeypatch.setattr(transport, "_sinkhorn_stage", counted)
    rng = np.random.default_rng(2)
    x, y = rng.uniform(size=(30, 2)), rng.uniform(size=(30, 2))
    cost = cdist(x, y, "sqeuclidean")
    reduced = cost.copy()
    cols = transport._matching(reduced, x)
    np.testing.assert_array_equal(cols, linear_sum_assignment(cost)[1])
    scale = cost.mean()
    assert temperatures == [(0.1 * scale, 10, 0.0), (0.025 * scale, 10, 0.0)]
    assert (reduced >= 0.0).all() and (reduced.min(axis=1) == 0.0).all()
    # a shared coordinate, or a cost of zero mean, is solved as it stands
    x[3, 0] = x[7, 0]
    plain = cdist(x, y, "sqeuclidean")
    kept = plain.copy()
    transport._matching(kept, x)
    np.testing.assert_array_equal(kept, plain)
    assert transport._matching(np.zeros((1, 1)), np.zeros((1, 2))).tolist() == [0]
    assert len(temperatures) == 2


def test_sinkhorn_epsilon_validation():
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        wasserstein_sinkhorn(mu, mu, p=2, epsilon=0.0)


def _concurrent_instance():
    """A pair of measures with 260,000 cost entries, near the swarm demo's 345,600."""
    rng = np.random.default_rng(15)
    return rand_measure(rng, 520), rand_measure(rng, 500)


def _half_term(solve_self, points, weights, eps):
    """A cold debiasing half-term at wasserstein_sinkhorn's defaults: (sharp, f, g)."""
    return solve_self(points, weights, 2.0, eps, 5000, 1e-4, True, None)


def _recording_self_solves(monkeypatch):
    """Patch the half-term step to note the thread and the numpy error
    settings of each call; returns (threads, settings, original)."""
    threads, settings = [], []
    solve_self = transport.self_transport_cost

    def recorded(*args):
        threads.append(threading.get_ident())
        settings.append((np.geterr()["divide"], np.geterr()["invalid"]))
        return solve_self(*args)

    monkeypatch.setattr(transport, "self_transport_cost", recorded)
    return threads, settings, solve_self


def test_concurrent_debiasing_equals_the_serial_sum(monkeypatch):
    mu, nu = _concurrent_instance()
    threads, settings, solve_self = _recording_self_solves(monkeypatch)
    before = threading.active_count()
    with np.errstate(divide="raise", invalid="raise"):  # the worker gets these too
        value, plan = wasserstein_sinkhorn(mu, nu, p=2)
    assert threading.active_count() == before
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert settings == [("raise", "raise")] * 2

    pa, wa, _ = transport._compact(mu)
    pb, wb, _ = transport._compact(nu)
    cost = transport._cost_power(pa, pb, 2)
    eps = 0.05 * float(np.median(cost))
    cross, raw, iters, resid, f, g = transport._solve_coupling_cost(cost, wa, wb, eps,
                                                                    5000, 1e-4, True)
    sharp_a, fa, ga = _half_term(solve_self, pa, wa, eps)
    sharp_b, fb, gb = _half_term(solve_self, pb, wb, eps)
    raw = raw - 0.5 * sharp_a - 0.5 * sharp_b
    assert value == max(raw, 0.0) ** 0.5
    np.testing.assert_array_equal(plan.coupling, cross)
    assert (plan.iterations, plan.residual) == (iters, resid)
    for pot, (f_want, g_want) in zip(plan.potentials, ((f, g), (fa, ga), (fb, gb))):
        np.testing.assert_array_equal(pot.f, f_want)
        np.testing.assert_array_equal(pot.g, g_want)


def test_small_instance_debiases_on_the_worker_thread(monkeypatch):
    # 144 pairs: every instance takes the worker route, however small
    rng = np.random.default_rng(16)
    mu, nu = rand_measure(rng, 12), rand_measure(rng, 12)
    threads, _, solve_self = _recording_self_solves(monkeypatch)
    before = threading.active_count()
    value, _ = wasserstein_sinkhorn(mu, nu, p=2, epsilon=0.01)
    assert threading.active_count() == before
    assert len(threads) == 2 and threading.get_ident() not in threads

    cost = transport._cost_power(mu.points, nu.points, 2)
    raw = transport._solve_coupling_cost(cost, mu.weights, nu.weights, 0.01,
                                         5000, 1e-4, True)[1]
    raw = raw - 0.5 * _half_term(solve_self, mu.points, mu.weights, 0.01)[0] \
              - 0.5 * _half_term(solve_self, nu.points, nu.weights, 0.01)[0]
    assert value == max(raw, 0.0) ** 0.5


@pytest.mark.parametrize("failing", [0, 1])
def test_concurrent_self_solve_failure_reaches_the_caller(monkeypatch, failing):
    mu, nu = _concurrent_instance()
    calls = []
    solve_self = transport.self_transport_cost

    def flaky(*args):
        calls.append(len(calls))
        if calls[-1] == failing:
            raise NoConvergence(f"self-solve {failing} ran out")
        return solve_self(*args)

    monkeypatch.setattr(transport, "self_transport_cost", flaky)
    before = threading.active_count()
    with pytest.raises(NoConvergence, match=f"self-solve {failing}"):
        wasserstein_sinkhorn(mu, nu, p=2)
    assert threading.active_count() == before


def test_concurrent_cross_solve_failure_reaches_the_caller():
    mu, nu = _concurrent_instance()
    before = threading.active_count()
    with pytest.raises(NoConvergence):
        wasserstein_sinkhorn(mu, nu, p=2, epsilon=1e-6, max_iters=3, anneal=False)
    assert threading.active_count() == before


# ------------------------------------------------------------- warm start

def _plan_bits(value, plan):
    return (value, plan.coupling.tobytes(), plan.iterations, plan.residual, plan.epsilon)


def test_cold_solve_ignores_potentials_that_do_not_fit():
    rng = np.random.default_rng(21)
    mu, nu = rand_measure(rng, 30), rand_measure(rng, 24)
    cold = wasserstein_sinkhorn(mu, nu, p=2)
    # other atom counts in every pair, and the same counts at another order
    _, other_size = wasserstein_sinkhorn(rand_measure(rng, 29), rand_measure(rng, 25), p=2)
    _, other_p = wasserstein_sinkhorn(mu, nu, p=3)
    for init in (other_size.potentials, other_p.potentials):
        assert _plan_bits(*wasserstein_sinkhorn(mu, nu, p=2, init=init)) == _plan_bits(*cold)


def test_plan_potentials_are_the_final_state_of_each_solve():
    rng = np.random.default_rng(22)
    mu, nu = rand_measure(rng, 30), rand_measure(rng, 24)
    _, plan = wasserstein_sinkhorn(mu, nu, p=2, epsilon=0.02)
    cross, source, target = plan.potentials
    assert all(pot.p == 2.0 and pot.epsilon == 0.02 for pot in plan.potentials)
    assert (len(cross.f), len(cross.g)) == (30, 24)
    assert len(source.f) == len(source.g) == 30 and len(target.f) == len(target.g) == 24
    # the potentials rebuild the unrounded plan of the cross solve, whose last
    # update fits the column marginals
    cost = transport._cost_power(mu.points, nu.points, 2)
    unrounded = transport._plan_from_potentials(cost, np.log(mu.weights), np.log(nu.weights),
                                                cross.f, cross.g, 0.02)
    np.testing.assert_allclose(unrounded.sum(axis=0), nu.weights, rtol=1e-12, atol=0)
    assert np.abs(unrounded.sum(axis=1) - mu.weights).sum() <= 1e-4


def test_warm_start_skips_the_stages_above_the_earlier_temperature(monkeypatch):
    rng = np.random.default_rng(23)
    mu = rand_measure(rng, 40)
    nu = rand_measure(rng, 36)
    moved = DiscreteMeasure(mu.points + rng.normal(0, 0.01, mu.points.shape), mu.weights)
    _, plan0 = wasserstein_sinkhorn(mu, nu, p=2)
    kept = [(pot.epsilon, pot.f.copy(), pot.g.copy()) for pot in plan0.potentials]
    cold = wasserstein_sinkhorn(moved, nu, p=2)
    stages = {}
    monkeypatch.setattr(transport, "_sinkhorn_stage",
                        _recording(transport._sinkhorn_stage, stages))
    value, plan = wasserstein_sinkhorn(moved, nu, p=2, init=plan0.potentials)
    # one stage per solve: the cross solve here, both self-solves on the worker
    assert len(stages["main"]) == 1 and len(stages["worker"]) == 2
    assert plan.iterations == stages["main"][0] < cold[1].iterations
    assert plan.residual <= 1e-4
    assert abs(value - cold[0]) <= 0.01 * cold[0]
    # the earlier plan's potentials are read, never written, also by a warm
    # call that raises; each call's potentials are new objects
    with pytest.raises(NoConvergence):
        wasserstein_sinkhorn(moved, nu, p=2, epsilon=1e-3, max_iters=3, init=plan0.potentials)
    for (eps, f, g), pot in zip(kept, plan0.potentials):
        assert pot.epsilon == eps
        np.testing.assert_array_equal(pot.f, f)
        np.testing.assert_array_equal(pot.g, g)
    for new, old in zip(plan.potentials, plan0.potentials):
        assert new is not old and new.f is not old.f and new.g is not old.g


def test_warm_start_from_unrelated_potentials_follows_the_cold_rule():
    rng = np.random.default_rng(24)
    mu, nu = rand_measure(rng, 30), rand_measure(rng, 24)
    eps = 0.01
    for scale, start_eps in ((1.0, 1e-3), (10.0, 10.0), (0.1, eps)):
        init = tuple(transport.Potentials(2.0, start_eps, rng.normal(0, scale, m),
                                          rng.normal(0, scale, k))
                     for m, k in ((30, 24), (30, 30), (24, 24)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, plan = wasserstein_sinkhorn(mu, nu, p=2, epsilon=eps, init=init)
        assert plan.residual <= 1e-4 and 1 < plan.iterations <= 5000
        exact, _ = wasserstein_exact(mu, nu, p=2)
        assert np.isfinite(value) and abs(value - exact) <= 0.2 * exact
        np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
        with pytest.raises(NoConvergence):
            wasserstein_sinkhorn(mu, nu, p=2, epsilon=eps, max_iters=3, init=init)


def test_self_transport_cost_is_small_and_nonnegative():
    rng = np.random.default_rng(14)
    pts = rng.uniform(0, 1, (20, 2))
    w = np.full(20, 1 / 20)
    c, f, g = transport.self_transport_cost(pts, w, 2.0, 1e-3, 5000, 1e-4, True, None)
    assert 0.0 <= c < 1e-2
    assert f.shape == g.shape == (20,)


# --------------------------------------------- voronoi measure & identity

def test_voronoi_measure_symmetric_pair():
    phi = UniformDensity(unit_square())
    mu = voronoi_measure(phi, [[0.25, 0.5], [0.75, 0.5]])
    np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(mu.points, [[0.25, 0.5], [0.75, 0.5]])


def test_voronoi_measure_single_site():
    phi = UniformDensity(unit_square())
    mu = voronoi_measure(phi, [[0.3, 0.6]])
    np.testing.assert_allclose(mu.weights, [1.0])


def test_voronoi_measure_random_sites_sum():
    phi = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 0.05])
    rng = np.random.default_rng(15)
    mu = voronoi_measure(phi, rng.uniform(0.1, 0.9, (6, 2)))
    assert abs(mu.weights.sum() - 1.0) < 1e-4


def test_w2_identity_single_site():
    phi = UniformDensity(unit_square())
    lhs, rhs, gap = check_w2_identity(phi, [[0.5, 0.5]], 64)
    assert abs(rhs - 1.0 / 6.0) < 1e-9
    assert gap < 0.02


def test_w2_identity_random_sites():
    phi = UniformDensity(unit_square())
    rng = np.random.default_rng(16)
    _, _, gap = check_w2_identity(phi, rng.uniform(0.15, 0.85, (3, 2)), 64)
    assert gap < 0.02


def test_w2_identity_gap_shrinks_with_resolution():
    phi = UniformDensity(unit_square())
    for seed in (17, 18):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.15, 0.85, (3, 2))
        gaps = [check_w2_identity(phi, pos, res)[2] for res in (32, 64, 128)]
        assert gaps[2] < gaps[1] < gaps[0]


def test_w2_identity_resolution_validation():
    phi = UniformDensity(unit_square())
    with pytest.raises(ValueError):
        check_w2_identity(phi, [[0.5, 0.5]], 16)
