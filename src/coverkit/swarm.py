"""Swarm reconfiguration toward a target density via sampled transport rays.

Each step matches a batch of agents to a stratified draw from the
discretized target with an exact assignment, then slides every matched
agent a fraction tau along its ray. The target draw uses a fixed
stratification offset, so repeated full-batch steps chase one common
target multiset and the matching objective can only shrink.

A full-batch step solves its assignment once and later full-batch steps
toward the same target reuse it. Moving every agent a fraction tau toward
its match is McCann's displacement interpolation (McCann 1997, "A
convexity principle for interacting gases"): the matching that was optimal
for the old positions stays optimal for every point along those rays, so
solving it again would return the same pairs. A step whose projection
into the workspace moved an agent leaves the rays, and the next step
solves afresh.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .density import DensityField, DiscreteMeasure, UniformDensity, discretize
from .errors import SiteOutsideWorkspace
from .geometry import (ConvexPolygon, check_count, check_points, check_positive,
                       check_weights, project_into)
from .transport import wasserstein_sinkhorn

log = logging.getLogger(__name__)

STOP_FRACTION = 1e-4


@dataclass
class SwarmState:
    """Agent positions plus the step counter and latest distance estimate.

    matching is the (target, positions, matched points) triple of the
    full-batch step that produced this state, or None. Only transport_step
    sets it, after construction, so neither the constructor nor
    dataclasses.replace carries it to other positions. The next full-batch
    step toward the same target object moves along it without solving an
    assignment while positions still equal the copy the triple holds.
    """

    positions: np.ndarray
    workspace: ConvexPolygon
    iteration: int = 0
    w2_estimate: float | None = None
    matching: tuple[DiscreteMeasure, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.positions = check_points(self.positions, "positions")
        if not self.workspace.contains(self.positions).all():
            raise SiteOutsideWorkspace("swarm positions must lie in the workspace")

    def __len__(self):
        return len(self.positions)


def systematic_resample(weights, n: int) -> np.ndarray:
    """Stratified index draw: n marks at (i + 1/2)/n against the weight CDF.

    With uniform weights and n equal to the atom count every atom is drawn
    exactly once. The offset is fixed, so repeated draws agree.
    """
    w = check_weights(weights)
    n = check_count(n, "n")
    marks = (np.arange(n) + 0.5) / n
    idx = np.searchsorted(np.cumsum(w), marks, side="left")
    return np.minimum(idx, len(w) - 1)


def transport_step(state: SwarmState, target: DiscreteMeasure, tau: float,
                   batch: int | None = None, seed: int = 0) -> SwarmState:
    """Move a batch of agents a fraction tau along exact transport rays.

    The batch is drawn without replacement; everyone else stays put. The
    returned state's w2_estimate is the root mean squared matched distance
    measured before the move, so it prices the state the step started from.

    A full batch toward the target object of the state's matching reuses
    that matching (see the module docstring) if the positions are still the
    ones it was made for; the returned state carries its matching when the
    batch was full and no agent had to be projected back into the
    workspace.
    """
    tau = check_positive(tau, "tau", at_most=1.0)
    check_count(seed, "seed", 0)
    n = len(state)
    batch = n if batch is None else check_count(batch, "batch")
    if batch > n:
        raise ValueError(f"batch must lie in [1, {n}]")
    full = batch == n
    # a full batch takes every agent, with no permutation drawn
    moving = slice(None) if full else np.sort(np.random.default_rng(seed).permutation(n)[:batch])
    src = state.positions[moving]
    made = state.matching
    if (full and made is not None and made[0] is target
            and np.array_equal(made[1], state.positions)):
        matched = made[2]
    else:
        draws = target.points[systematic_resample(target.weights, batch)]
        _, cols = linear_sum_assignment(cdist(src, draws, "sqeuclidean"))
        matched = draws[cols]
    # the squared distances of cdist, summed in the same order
    objective = float(((src - matched) ** 2).sum(axis=1).sum())
    moved = state.positions.copy()
    moved[moving] = (1.0 - tau) * src + tau * matched
    projected = project_into(state.workspace, moved)
    out = SwarmState(projected, state.workspace, state.iteration + 1,
                     w2_estimate=math.sqrt(objective / batch))
    if full and projected is moved:
        out.matching = (target, projected.copy(), matched)
    return out


@dataclass
class SwarmRun:
    """Trajectory endpoints, periodic snapshots, and per-step metric records."""

    initial: np.ndarray
    final: SwarmState
    target: DiscreteMeasure
    metrics: list
    snapshots: list


def run_reconfiguration(phi_target: DensityField, n_agents: int, iters: int,
                        tau: float = 0.5, batch: int | None = None, seed: int = 0,
                        resolution: int | None = None, metric_every: int | None = 1,
                        epsilon: float | None = None,
                        snapshot_every: int = 0) -> SwarmRun:
    """Drive a uniform-random swarm toward the target density.

    The target is discretized at roughly one atom per agent unless a
    resolution is given. Stops early once the swarm-wide mean displacement
    drops below 1e-4 of the workspace diameter. metric_every controls how
    often the entropic distance to the target is measured: every k steps
    for k > 0, endpoints only for 0, never for None. Each record's
    sinkhorn_iters, sinkhorn_epsilon and sinkhorn_residual are the iteration
    count, final temperature and final row-marginal residual of that
    measurement's cross-coupling solve, None where no measurement was taken.

    Every measurement after the first starts its three Sinkhorn solves from
    the previous one's final potentials (see wasserstein_sinkhorn); only
    those vectors are kept between measurements, never the plan. Its value
    then agrees with a cold solve's within the solver's tol, and the first
    measurement of every run is cold, so equal arguments give equal runs.
    """
    check_count(n_agents, "n_agents")
    check_count(iters, "iters", 0)
    check_count(seed, "seed", 0)
    if metric_every is not None:
        check_count(metric_every, "metric_every", 0)
    check_count(snapshot_every, "snapshot_every", 0)
    workspace = phi_target.workspace
    if resolution is None:
        resolution = max(2, int(math.isqrt(n_agents)))
    target = discretize(phi_target, resolution, resolution)
    master = np.random.default_rng(seed)
    x0 = UniformDensity(workspace).sample(n_agents, int(master.integers(2 ** 31)))
    state = SwarmState(x0, workspace)
    stop_displacement = STOP_FRACTION * workspace.diameter

    potentials = None  # the last measurement's, to warm-start the next
    metrics, snapshots = [], []
    for t in range(iters + 1):
        displacement = 0.0
        if t:
            before = state.positions
            state = transport_step(state, target, tau, batch, seed=int(master.integers(2 ** 31)))
            displacement = float(np.mean(np.linalg.norm(state.positions - before, axis=1)))
        settled = 0 < t < iters and displacement < stop_displacement
        last = settled or t == iters
        record = {"iteration": t, "mean_displacement": displacement,
                  "w2_batch": state.w2_estimate, "w2_sinkhorn": None, "sinkhorn_iters": None,
                  "sinkhorn_epsilon": None, "sinkhorn_residual": None}
        if metric_every is not None and (t == 0 or last or metric_every and t % metric_every == 0):
            mu = DiscreteMeasure(state.positions, np.full(n_agents, 1.0 / n_agents))
            value, plan = wasserstein_sinkhorn(mu, target, p=2, epsilon=epsilon,
                                               init=potentials)
            potentials = plan.potentials
            record.update(w2_sinkhorn=float(value), sinkhorn_iters=plan.iterations,
                          sinkhorn_epsilon=plan.epsilon, sinkhorn_residual=plan.residual)
            del plan  # its coupling would stay alive through the next solve
        metrics.append(record)
        if t == 0 or last or snapshot_every and t % snapshot_every == 0:
            snapshots.append((t, state.positions.copy()))
        if settled:
            log.info("swarm settled after %d steps (mean displacement %.3g)", t, displacement)
            break
    return SwarmRun(initial=x0, final=state, target=target,
                    metrics=metrics, snapshots=snapshots)
