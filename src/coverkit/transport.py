"""Discrete p-Wasserstein distances between weighted point sets.

Two solvers share one plan format: an exact one (Hungarian matching for
equal-count uniform measures, a transportation LP otherwise) and an entropic
Sinkhorn approximation in the log domain for swarm-scale instances. Plans are
always rounded onto the transport polytope, so marginal feasibility holds to
float precision regardless of solver tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .coverage import KERNEL_SQUARED, KIND_VORONOI, build_partition, coverage_cost, make_agents
from .density import DensityField, DiscreteMeasure, discretize, write_csv
from .errors import NoConvergence, SizeLimit

SIZE_LIMIT = 4_000_000


@dataclass
class TransportPlan:
    """Coupling between two discrete measures, plus the realized distance."""

    coupling: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure
    value: float
    p: float

    def to_csv(self, path, threshold: float = 0.0) -> None:
        """Write the plan's support as sparse rows `i,j,mass`."""
        rows, cols = np.nonzero(self.coupling > threshold)
        write_csv(path, "i,j,mass",
                  ((i, j, self.coupling[i, j]) for i, j in zip(rows, cols)))


def _check_order(p) -> float:
    p = float(p)
    if p < 1.0:
        raise ValueError("order p must be at least 1")
    return p


def _cost_power(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Euclidean distance to the p-th power (exact for p = 2)."""
    d2 = cdist(x, y, "sqeuclidean")
    if p == 2.0:
        return d2
    return d2 ** (p / 2.0)


def _compact(mu: DiscreteMeasure):
    """Strip zero-weight atoms; keep the index map for re-embedding plans."""
    keep = np.nonzero(mu.weights > 0)[0]
    return mu.points[keep], mu.weights[keep], keep


def _round_to_polytope(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project a nearly feasible plan onto exact marginals (scale, then patch)."""
    rows = plan.sum(axis=1)
    plan = plan * np.minimum(1.0, a / np.maximum(rows, 1e-300))[:, None]
    cols = plan.sum(axis=0)
    plan = plan * np.minimum(1.0, b / np.maximum(cols, 1e-300))[None, :]
    ea = a - plan.sum(axis=1)
    eb = b - plan.sum(axis=0)
    short = ea.sum()
    if short > 1e-300:
        plan = plan + np.outer(ea, eb) / short
    return plan


def _transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact transportation LP between general weight vectors."""
    m, k = cost.shape
    b = b * (a.sum() / b.sum())
    # the solver needs the two marginal sums bit-identical, not merely close
    b[np.argmax(b)] += a.sum() - b.sum()
    n = m * k
    rows = np.concatenate([np.repeat(np.arange(m), k),
                           m + np.tile(np.arange(k), m)])
    cols = np.concatenate([np.arange(n), np.arange(n)])
    mat = csr_matrix((np.ones(2 * n), (rows, cols)), shape=(m + k, n))
    res = linprog(cost.ravel(), A_eq=mat, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return np.maximum(res.x, 0.0).reshape(m, k)


def _embed(plan, src_idx, tgt_idx, m, k):
    full = np.zeros((m, k))
    full[np.ix_(src_idx, tgt_idx)] = plan
    return full


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2):
    """Exact W_p and an optimal plan.

    Equal-count uniform measures go through linear assignment; general
    weights through the transportation LP.
    """
    p = _check_order(p)
    m, k = len(mu), len(nu)
    if m * k > SIZE_LIMIT:
        raise SizeLimit(f"instance has {m}x{k} = {m * k} pairs; limit is {SIZE_LIMIT}")
    pa, wa, ia = _compact(mu)
    pb, wb, ib = _compact(nu)
    cost = _cost_power(pa, pb, p)
    uniform = (len(wa) == len(wb)
               and np.allclose(wa, 1.0 / len(wa), rtol=0, atol=1e-12)
               and np.allclose(wb, 1.0 / len(wb), rtol=0, atol=1e-12))
    if uniform:
        ri, ci = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[ri, ci] = 1.0 / len(wa)
    else:
        plan = _transport_lp(cost, wa, wb)
    plan = _round_to_polytope(plan, wa, wb)
    value = float((plan * cost).sum()) ** (1.0 / p)
    full = _embed(plan, ia, ib, m, k)
    return value, TransportPlan(full, mu, nu, value, p)


def _sinkhorn_stage(cost, loga, logb, f, g, eps, budget, tol):
    """Alternating log-domain updates at one temperature.

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


def _plan_from_potentials(cost, loga, logb, f, g, eps):
    logp = (f[:, None] + g[None, :] - cost) / eps + loga[:, None] + logb[None, :]
    return np.exp(logp)


def _anneal_schedule(cost, epsilon, anneal):
    schedule = [epsilon]
    if anneal:
        e = 0.5 * float(cost.max())
        while e > 2.0 * epsilon:
            schedule.append(e)
            e *= 0.5
        schedule = sorted(schedule, reverse=True)
    return schedule


def _solve_coupling_cost(cost, a, b, epsilon, max_iters, tol, anneal):
    """Rounded entropic plan and its sharp cost; shared by main and self solves."""
    loga, logb = np.log(a), np.log(b)
    f, g = np.zeros(len(a)), np.zeros(len(b))
    budget = max_iters
    resid = np.inf
    for eps in _anneal_schedule(cost, epsilon, anneal):
        stage_tol = tol if eps == epsilon else max(tol, 1e-4)
        f, g, used, resid = _sinkhorn_stage(cost, loga, logb, f, g, eps,
                                            budget, stage_tol)
        budget -= used
        if budget <= 0:
            break
    if resid > tol:
        raise NoConvergence(
            f"sinkhorn marginal residual {resid:.3e} above {tol} "
            f"after {max_iters} iterations")
    plan = _plan_from_potentials(cost, loga, logb, f, g, epsilon)
    plan = _round_to_polytope(plan, a, b)
    return plan, float((plan * cost).sum())


def self_transport_cost(points: np.ndarray, weights: np.ndarray, p=2,
                        epsilon: float = 1e-2, max_iters: int = 5000,
                        tol: float = 1e-4, anneal: bool = True) -> float:
    """Sharp cost of the entropic self-coupling; the debiasing half-term.

    Runs through the same solver as a cross coupling so that debiasing two
    identical measures cancels exactly.
    """
    p = _check_order(p)
    keep = np.nonzero(weights > 0)[0]
    pts, w = points[keep], weights[keep]
    total = w.sum()
    if abs(total - 1.0) > 1e-12:
        w = w / total
    cost = _cost_power(pts, pts, p)
    _, sharp = _solve_coupling_cost(cost, w, w, epsilon, max_iters, tol, anneal)
    return sharp


def wasserstein_sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2,
                         epsilon: float | None = None, max_iters: int = 5000,
                         tol: float = 1e-4, anneal: bool = True,
                         debias: bool = True):
    """Entropic approximation of W_p with annealed temperature.

    tol is the stopping residual on the unrounded row marginals; the rounding
    step then restores feasibility to float precision, so returned plans have
    exact marginals no matter where the iteration stopped. The value is
    debiased with the two self-coupling terms, so identical measures score
    exactly zero. Raises NoConvergence when the iteration budget runs out
    before the residual reaches tol.
    """
    p = _check_order(p)
    pa, wa, ia = _compact(mu)
    pb, wb, ib = _compact(nu)
    cost = _cost_power(pa, pb, p)
    if epsilon is None:
        epsilon = 0.05 * float(np.median(cost))
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    plan, raw = _solve_coupling_cost(cost, wa, wb, epsilon, max_iters, tol, anneal)
    if debias:
        raw = raw - 0.5 * self_transport_cost(pa, wa, p, epsilon, max_iters, tol, anneal) \
                  - 0.5 * self_transport_cost(pb, wb, p, epsilon, max_iters, tol, anneal)
    value = max(raw, 0.0) ** (1.0 / p)
    full = _embed(plan, ia, ib, len(mu), len(nu))
    return value, TransportPlan(full, mu, nu, value, p)


def voronoi_measure(phi: DensityField, positions, levels: int = 2) -> DiscreteMeasure:
    """Atoms at the given sites weighted by their Voronoi cell masses."""
    agents = make_agents(positions)
    part = build_partition(phi, agents, KIND_VORONOI, levels)
    return DiscreteMeasure(np.atleast_2d(np.asarray(positions, dtype=float)),
                           part.masses)


def check_w2_identity(phi: DensityField, positions, grid_resolution: int = 64):
    """Squared Wasserstein distance to the discretized density vs the coverage cost.

    Returns (lhs, rhs, relative gap) where lhs is W2^2 from the exact solver
    and rhs the squared-distance locational cost on the Voronoi partition.
    """
    if grid_resolution < 32:
        raise ValueError("grid resolution below 32 is too coarse for the identity")
    mu = voronoi_measure(phi, positions)
    nu = discretize(phi, grid_resolution, grid_resolution)
    value, _ = wasserstein_exact(mu, nu, p=2)
    lhs = value**2
    agents = make_agents(positions)
    part = build_partition(phi, agents, KIND_VORONOI)
    rhs = coverage_cost(phi, agents, part, kernel=KERNEL_SQUARED)
    gap = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, gap
