"""Discrete p-Wasserstein distances between weighted point sets.

Two solvers share one plan format: an exact one (Hungarian matching for
equal-count uniform measures, a transportation LP otherwise) and an entropic
Sinkhorn approximation for swarm-scale instances. Plans are always rounded
onto the transport polytope, so marginal feasibility holds to float precision
regardless of solver tolerances.

Sinkhorn runs in the stabilized scaling form (Schmitzer 2019, "Stabilized
sparse scaling algorithms for entropy regularized transport problems"): the
dual potentials f, g are absorbed into a Gibbs kernel K = exp((f + g - C)/eps)
and each iteration updates the scalings u, v with two matrix-vector products.
Once a scaling leaves exp(+-ABSORB_LOG) its logarithm is folded back into the
potentials and K is rebuilt. An iteration whose products leave [1e-300, 1e300]
(at tiny eps whole rows of K underflow to zero) runs in the log domain
instead. Either way each iteration is the same update as the plain log-domain
solver's, so iteration counts and results match it to rounding. K and the
final plan are each built in one array, operation by operation in place.

A solve may start from the potentials of an earlier one (Thornton and
Cuturi 2023, "Rethinking initialization of the Sinkhorn algorithm"). Given
Potentials that fit its atom counts and order p, it skips the annealing
stages above their temperature and starts the rest from their f and g; the
stopping rule, the iteration budget and NoConvergence stay those of a cold
solve, so a warm value lies within tol of a cold one but need not equal it.
A solve overwrites the Potentials it was given with its own final state.
Without them every solve starts cold at f = g = 0, and identical measures
score exactly zero.

The debiased distance needs three independent solves: the cross coupling
and the two self-couplings. The two self-solves run one after the other on
a single worker thread, under the caller's numpy error settings, while the
calling thread runs the cross solve; numpy's BLAS and elementwise loops
release the interpreter lock, so on a second CPU the two overlap. The value
is then combined in the serial order, so it is the same to the bit.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .coverage import build_partition
from .density import DensityField, DiscreteMeasure, discretize
from .errors import NoConvergence, SizeLimit
from .geometry import _float_array, check_count, check_points, check_positive, check_weights

SIZE_LIMIT = 4_000_000
# |log u| or |log v| beyond which the Sinkhorn scalings are folded into the
# potentials: keeps K @ (b * v) far from overflow and underflow
ABSORB_LOG = 50.0


@dataclass
class Potentials:
    """Where one entropic solve of order p ended: its temperature and its dual
    potentials f and g, over the compacted (positive-weight) atoms.

    Empty (epsilon, f and g None) until a solve fills it.
    """

    p: float
    epsilon: float | None = None
    f: np.ndarray | None = None
    g: np.ndarray | None = None

    def restarted(self, p: float) -> "Potentials":
        """A copy for the next solve of order p; empty when self has another order."""
        if self.p != p:
            return Potentials(p)
        return Potentials(p, self.epsilon, self.f, self.g)


@dataclass
class TransportPlan:
    """Coupling between two discrete measures, plus the realized distance."""

    coupling: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure
    value: float
    p: float
    # entropic solves only: the final temperature, and the iteration count and
    # final row-marginal residual of the solve that produced this coupling
    epsilon: float | None = None
    iterations: int | None = None
    residual: float | None = None
    # entropic solves only: the final Potentials of the cross solve and of the
    # source and target self-solves, to warm-start the next call
    potentials: tuple[Potentials, Potentials, Potentials] | None = None
    # exact solves only: "assignment" for equal-count uniform measures, which
    # linear assignment solves, and "lp" for the transportation LP
    route: str | None = None


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
    """Project a nearly feasible plan onto exact marginals (scale, then patch).

    Works in place: the returned array is plan itself.
    """
    rows = plan.sum(axis=1)
    plan *= np.minimum(1.0, a / np.maximum(rows, 1e-300))[:, None]
    cols = plan.sum(axis=0)
    plan *= np.minimum(1.0, b / np.maximum(cols, 1e-300))[None, :]
    ea = a - plan.sum(axis=1)
    eb = b - plan.sum(axis=0)
    short = ea.sum()
    if short > 1e-300:
        plan += np.outer(ea, eb) / short
    return plan


def _transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact transportation LP between general weight vectors.

    HiGHS' interior-point method with its default crossover, so the plan is
    a vertex as the simplex method would return. It is several times faster
    on the thin instances of check_w2_identity (a few agents against a fine
    grid), where the dual simplex is slow.
    """
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
                  bounds=(0, None), method="highs-ipm",
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
    p = check_positive(p, "order p", at_least=1.0)
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
    return value, TransportPlan(full, mu, nu, value, p,
                                route="assignment" if uniform else "lp")


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp of a finite array along one axis."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _gibbs_kernel(cost, f, g, eps, out=None):
    """K = exp((f + g - C) / eps), built in out (a fresh array when None)."""
    K = np.add.outer(f, g, out=out)
    np.subtract(K, cost, out=K)
    np.divide(K, eps, out=K)
    return np.exp(K, out=K)


def _usable(product: np.ndarray) -> bool:
    """True when a kernel product can be inverted into a scaling at full precision.

    Entries outside [1e-300, 1e300] are zero, infinite, or close enough to the
    subnormal range that their reciprocals (or the sums that form them) lose
    digits.
    """
    return bool(((product >= 1e-300) & (product <= 1e300)).all())


def _sinkhorn_stage(cost, loga, logb, f, g, eps, budget, tol):
    """Alternating Sinkhorn updates at one temperature, stabilized scaling form.

    The potentials are f + eps*log(u) and g + eps*log(v). Each iteration sets
    u = 1 / (K @ (b*v)), then v = 1 / (K.T @ (a*u)), with K built once from
    f and g. When |log u| or |log v| passes ABSORB_LOG the scalings are folded
    into f and g and K is rebuilt. When a product has an entry that cannot
    be inverted at full precision (zero, infinite or near-subnormal: K
    underflows at small eps), the scalings are folded in and that one
    iteration runs in the log domain with a max-shifted log-sum-exp; K is
    then rebuilt from the new potentials.

    The reported residual is the L1 row-marginal error of the plan held
    before each f-update (column marginals are exact by construction).
    """
    a, b = np.exp(loga), np.exp(logb)
    resid = np.inf
    it = 0
    # every product is range-checked before use, so overflow and underflow
    # in K and its products are expected, not warnings
    with np.errstate(over="ignore", under="ignore"):
        K = _gibbs_kernel(cost, f, g, eps)
        u, v = np.ones(len(a)), np.ones(len(b))
        while it < budget:
            kv = K @ (b * v)
            ktu = K.T @ (a / kv) if _usable(kv) else None
            if ktu is not None and _usable(ktu):
                resid = float(np.abs(a * (u * kv - 1.0)).sum())
                u, v = 1.0 / kv, 1.0 / ktu
                if max(np.abs(np.log(u)).max(), np.abs(np.log(v)).max()) > ABSORB_LOG:
                    f, g = f + eps * np.log(u), g + eps * np.log(v)
                    K = _gibbs_kernel(cost, f, g, eps, out=K)
                    u, v = np.ones(len(a)), np.ones(len(b))
            else:
                f, g = f + eps * np.log(u), g + eps * np.log(v)
                fn = -eps * _logsumexp((g[None, :] - cost) / eps + logb[None, :], axis=1)
                resid = float(np.abs(a * (np.exp((f - fn) / eps) - 1.0)).sum())
                f = fn
                g = -eps * _logsumexp((f[:, None] - cost) / eps + loga[:, None], axis=0)
                K = _gibbs_kernel(cost, f, g, eps, out=K)
                u, v = np.ones(len(a)), np.ones(len(b))
            it += 1
            if it > 1 and resid <= tol:
                break
    return f + eps * np.log(u), g + eps * np.log(v), it, resid


def _plan_from_potentials(cost, loga, logb, f, g, eps):
    """exp((f + g - C)/eps + log a + log b), built in one array."""
    plan = np.add.outer(f, g)
    np.subtract(plan, cost, out=plan)
    np.divide(plan, eps, out=plan)
    np.add(plan, loga[:, None], out=plan)
    np.add(plan, logb[None, :], out=plan)
    return np.exp(plan, out=plan)


def _anneal_schedule(cost, epsilon, anneal):
    schedule = [epsilon]
    if anneal:
        e = 0.5 * float(cost.max())
        while e > 2.0 * epsilon:
            schedule.append(e)
            e *= 0.5
        schedule = sorted(schedule, reverse=True)
    return schedule


def _solve_coupling_cost(cost, a, b, epsilon, max_iters, tol, anneal, warm=None):
    """Rounded entropic plan, its sharp cost, the iterations spent over all
    temperatures and the final row-marginal residual; shared by main and self
    solves.

    warm, when given, is Potentials of the caller's order p. The solve starts
    from them when their f and g have one entry per atom of a and b, skipping
    the stages above their temperature, and overwrites them with its final
    temperature and potentials once it has converged.
    """
    loga, logb = np.log(a), np.log(b)
    schedule = _anneal_schedule(cost, epsilon, anneal)
    if (warm is not None and warm.f is not None
            and len(warm.f) == len(a) and len(warm.g) == len(b)):
        f, g = warm.f, warm.g
        schedule = [e for e in schedule[:-1] if e <= warm.epsilon] + schedule[-1:]
    else:
        f, g = np.zeros(len(a)), np.zeros(len(b))
    budget = max_iters
    resid = np.inf
    for eps in schedule:
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
    if warm is not None:
        warm.epsilon, warm.f, warm.g = epsilon, f, g
    plan = _plan_from_potentials(cost, loga, logb, f, g, epsilon)
    plan = _round_to_polytope(plan, a, b)
    return plan, float((plan * cost).sum()), max_iters - budget, resid


def self_transport_cost(points: np.ndarray, weights: np.ndarray, p=2,
                        epsilon: float = 1e-2, max_iters: int = 5000,
                        tol: float = 1e-4, anneal: bool = True,
                        warm: Potentials | None = None) -> float:
    """Sharp cost of the entropic self-coupling; the debiasing half-term.

    Runs through the same solver as a cross coupling so that debiasing two
    identical measures cancels exactly. warm, Potentials of order p over the
    positive-weight points, warm-starts the solve as in _solve_coupling_cost
    and is overwritten with its final state.
    """
    p = check_positive(p, "order p", at_least=1.0)
    points = check_points(points)
    weights = _float_array(weights, ValueError, "weights must be finite and nonnegative")
    check_weights(weights, len(points))
    check_positive(epsilon, "epsilon")
    check_count(max_iters, "max_iters")
    check_positive(tol, "tol")
    keep = np.nonzero(weights > 0)[0]
    pts, w = points[keep], weights[keep]
    total = w.sum()
    if abs(total - 1.0) > 1e-12:
        w = w / total
    cost = _cost_power(pts, pts, p)
    _, sharp, _, _ = _solve_coupling_cost(cost, w, w, epsilon, max_iters, tol, anneal,
                                          warm)
    return sharp


def wasserstein_sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2,
                         epsilon: float | None = None, max_iters: int = 5000,
                         tol: float = 1e-4, anneal: bool = True,
                         init: tuple[Potentials, Potentials, Potentials] | None = None):
    """Entropic approximation of W_p with annealed temperature.

    tol is the stopping residual on the unrounded row marginals; the rounding
    step then restores feasibility to float precision, so returned plans have
    exact marginals no matter where the iteration stopped. The value is
    debiased with the two self-coupling terms, so a cold solve of identical
    measures scores exactly zero. Raises NoConvergence when the iteration
    budget runs out before the residual reaches tol. The plan records the
    final epsilon and the iteration count and residual of the cross-coupling
    solve; the debiasing self-solves are not counted.

    The plan also carries the final potentials of all three solves. Passing
    them back as init (the potentials of an earlier plan) warm-starts the
    next call: each solve whose atom counts and p match its counterpart
    skips the annealing stages above the earlier final epsilon and starts
    from those potentials; the others start cold. A warm value agrees with
    a cold one within tol, not to the bit. Without init every bit is that
    of a cold solve.
    """
    p = check_positive(p, "order p", at_least=1.0)
    check_count(max_iters, "max_iters")
    check_positive(tol, "tol")
    pa, wa, ia = _compact(mu)
    pb, wb, ib = _compact(nu)
    cost = _cost_power(pa, pb, p)
    if epsilon is None:
        epsilon = 0.05 * float(np.median(cost))
    check_positive(epsilon, "epsilon")
    # one worker runs the two self-solves in turn while this thread runs the
    # cross solve; leaving the block waits for the worker either way
    errors = np.geterr()  # per thread on numpy 1.x, per context on 2.x
    # fresh copies, so the solves never write into an earlier plan's potentials
    if init is None:
        warm = (Potentials(p), Potentials(p), Potentials(p))
    else:
        warm = tuple(pair.restarted(p) for pair in init)

    def solve_self(points, weights, start):
        with np.errstate(**errors):
            return self_transport_cost(points, weights, p, epsilon,
                                       max_iters, tol, anneal, start)

    with ThreadPoolExecutor(max_workers=1) as pool:
        self_a = pool.submit(solve_self, pa, wa, warm[1])
        self_b = pool.submit(solve_self, pb, wb, warm[2])
        try:
            plan, raw, iters, resid = _solve_coupling_cost(cost, wa, wb, epsilon,
                                                           max_iters, tol, anneal,
                                                           warm[0])
            raw = raw - 0.5 * self_a.result() - 0.5 * self_b.result()
        finally:
            self_b.cancel()
    value = max(raw, 0.0) ** (1.0 / p)
    full = _embed(plan, ia, ib, len(mu), len(nu))
    return value, TransportPlan(full, mu, nu, value, p, epsilon, iters, resid, warm)


def check_w2_identity(phi: DensityField, positions, grid_resolution: int = 64):
    """Squared Wasserstein distance to the discretized density vs the coverage cost.

    Returns (lhs, rhs, relative gap) where lhs is W2^2 from the exact solver
    and rhs the squared-distance locational cost on the Voronoi partition.
    """
    check_count(grid_resolution, "grid_resolution", 32)
    part = build_partition(phi, positions)
    rhs = part.cost
    mu = DiscreteMeasure(positions, part.masses)
    nu = discretize(phi, grid_resolution, grid_resolution)
    value, _ = wasserstein_exact(mu, nu, p=2)
    lhs = value**2
    gap = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, gap
