"""Locational costs and Lloyd descent over Voronoi and power partitions.

The descent is the discrete Lloyd map: partition, then move every agent to
its region's density centroid. Power cells handle heterogeneous agents; with
equal radii the construction degenerates to the Voronoi one through the very
same arithmetic, so the two descents produce identical trajectories. Moved
agents go through the ``geometry`` point helpers: ``project_into`` brings
back any that drifted outside the workspace, and ``separate`` nudges apart
any that landed on one another.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

# polygon_quadrature is not called here, but coverbench/tracing.py patches it
# in this module
from .density import MASS_EPS, DensityField, cell_moments, polygon_quadrature  # noqa: F401
from .errors import KernelMismatch, NoConvergence, NonMonotoneDescent
from .geometry import power_cells, power_cells_from_weights, project_into, separate

log = logging.getLogger(__name__)

KIND_VORONOI = "voronoi"
KIND_POWER = "power"
KERNEL_SQUARED = "squared"
KERNEL_POWER = "power"

_KINDS = (KIND_VORONOI, KIND_POWER)
_KERNELS = (KERNEL_SQUARED, KERNEL_POWER)
# the starved warning names this many agents; the full list is in the Partition
_STARVED_LOGGED = 10


@dataclass
class AgentState:
    """One agent: planar position, power radius (0 = homogeneous), stable id."""

    position: np.ndarray
    power_radius: float = 0.0
    id: int = 0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(2)
        self.power_radius = float(self.power_radius)
        if self.power_radius < 0:
            raise ValueError("power radius must be nonnegative")


def make_agents(positions, radii=None) -> list[AgentState]:
    """AgentState list from a position array and optional radii."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if radii is None:
        radii = np.zeros(len(pos))
    radii = np.asarray(radii, dtype=float)
    if len(radii) != len(pos):
        raise ValueError("one radius per agent required")
    return [AgentState(p, r, i) for i, (p, r) in enumerate(zip(pos, radii))]


def positions_of(agents) -> np.ndarray:
    return np.array([a.position for a in agents])


def radii_of(agents) -> np.ndarray:
    return np.array([a.power_radius for a in agents])


@dataclass
class Partition:
    """Cells aligned with the agent list; None marks a dominated power cell.

    Centroid rows for dominated or mass-starved cells repeat the agent
    position, which makes them fixed points of the Lloyd update. starved
    lists those agents.
    """

    kind: str
    cells: list
    masses: np.ndarray
    centroids: np.ndarray
    starved: list = field(init=False)

    def __post_init__(self) -> None:
        self.starved = [i for i, c in enumerate(self.cells)
                        if c is None or self.masses[i] < MASS_EPS]


def _survey(phi: DensityField, agents, kind: str, levels: int):
    """Partition for the current positions plus the matching locational cost."""
    if kind not in _KINDS:
        raise ValueError(f"unknown partition kind: {kind!r}")
    pos = positions_of(agents)
    rho = radii_of(agents) if kind == KIND_POWER else np.zeros(len(agents))
    cells = power_cells(phi.workspace, pos, rho)
    masses, centroids, costs = cell_moments(phi, cells, pos, levels)
    cost = float((costs - rho ** 2 * masses).sum())
    return Partition(kind, list(cells), masses, centroids), cost


def build_partition(phi: DensityField, agents, kind: str = KIND_VORONOI,
                    levels: int = 2) -> Partition:
    """Voronoi or power partition of the workspace with cell masses and centroids."""
    return _survey(phi, agents, kind, levels)[0]


def coverage_cost(phi: DensityField, agents, partition: Partition,
                  kernel: str = KERNEL_SQUARED, levels: int = 2) -> float:
    """Sum over cells of the integrated cost kernel against the density.

    kernel "squared" integrates the squared distance to the agent; "power"
    subtracts the squared power radius on each cell. ValueError when a cell
    has a vertex outside the workspace (beyond EPS_GEO): ``cell_moments``
    integrates only inside it.
    """
    if kernel not in _KERNELS:
        raise ValueError(f"unknown cost kernel: {kernel!r}")
    if len(partition.cells) != len(agents):
        raise ValueError("partition and agent list sizes differ")
    for i, cell in enumerate(partition.cells):
        if cell is not None and not phi.workspace.contains(cell.vertices).all():
            raise ValueError(f"partition cell {i} reaches outside the workspace")
    rho = radii_of(agents)
    if kernel == KERNEL_POWER and partition.kind == KIND_VORONOI and np.ptp(rho) > 0:
        raise KernelMismatch(
            "power kernel on a Voronoi partition of agents with unequal radii")
    masses, _, costs = cell_moments(phi, partition.cells, positions_of(agents), levels)
    if kernel == KERNEL_POWER:
        costs = costs - rho ** 2 * masses
    return float(costs.sum())


def lloyd_step(phi: DensityField, agents, kind: str = KIND_VORONOI,
               relax: float = 1.0, levels: int = 2):
    """One Lloyd update.

    Returns (moved agents, partition at the input positions, cost at the
    input positions). Agents whose cell is dominated or carries no mass hold
    position.
    """
    partition, cost = _survey(phi, agents, kind, levels)
    if partition.starved:
        log.warning("%d agents hold position (empty or mass-starved cell), first %s",
                    len(partition.starved), partition.starved[:_STARVED_LOGGED])
    pos = positions_of(agents)
    new_pos = project_into(phi.workspace, pos + relax * (partition.centroids - pos))
    separated = separate(phi.workspace, new_pos)
    if separated is not new_pos:
        log.warning("agents %s nudged off coincident generators",
                    np.flatnonzero((separated != new_pos).any(axis=1)).tolist())
    moved = [AgentState(p, a.power_radius, a.id) for p, a in zip(separated, agents)]
    return moved, partition, cost


@dataclass
class DescentResult:
    """Final agents and partition plus the per-iteration (positions, cost) path.

    starved[k] lists the agents whose cell was dominated or massless at
    trajectory entry k. initial is the partition at the input positions,
    which the first step surveyed.
    """

    agents: list
    partition: Partition
    trajectory: list
    converged: bool
    starved: list
    initial: Partition

    @property
    def iterations(self) -> int:
        return len(self.trajectory) - 1

    @property
    def costs(self) -> np.ndarray:
        return np.array([c for _, c in self.trajectory])


def _check_monotone(prev: float | None, cost: float) -> None:
    if prev is not None and cost - prev > 1e-6 * max(abs(prev), 1e-12):
        raise NonMonotoneDescent(
            f"cost rose from {prev:.12g} to {cost:.12g}; "
            "raise the quadrature level")


def run_descent(phi: DensityField, agents, kind: str = KIND_VORONOI,
                max_iters: int = 200, tol: float = 1e-6,
                relax: float = 1.0, levels: int = 2) -> DescentResult:
    """Iterate lloyd_step until the largest displacement drops below tol.

    The trajectory records (positions, cost) at every visited configuration,
    including the final one, so it has iterations + 1 entries.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    current = list(agents)
    trajectory = []
    starved = []
    converged = False
    prev = None
    initial = None
    for _ in range(max_iters):
        moved, partition, cost = lloyd_step(phi, current, kind, relax, levels)
        if initial is None:
            initial = partition
        _check_monotone(prev, cost)
        prev = cost
        trajectory.append((positions_of(current), cost))
        starved.append(partition.starved)
        disp = float(np.linalg.norm(positions_of(moved) - positions_of(current),
                                    axis=1).max())
        current = moved
        if disp < tol:
            converged = True
            break
    partition, final_cost = _survey(phi, current, kind, levels)
    _check_monotone(prev, final_cost)
    trajectory.append((positions_of(current), final_cost))
    starved.append(partition.starved)
    return DescentResult(current, partition, trajectory, converged, starved, initial)


def equitable_weights(phi: DensityField, positions, tol_mass: float = 1e-3,
                      max_iters: int = 10000, levels: int = 2) -> np.ndarray:
    """Power radii that split the density into equal-mass cells.

    Damped fixed-point ascent on squared radii: each cell's weight grows in
    proportion to its mass deficit. The returned radii are shifted so the
    smallest is zero, which leaves the diagram unchanged.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n = len(pos)
    target = 1.0 / n
    eta = phi.workspace.area / 2.0
    w = np.zeros(n)
    best = np.inf
    stall = 0
    for _ in range(max_iters):
        cells = power_cells_from_weights(phi.workspace, pos, w)
        masses = cell_moments(phi, cells, pos, levels)[0]
        residual = np.abs(masses - target).max()
        if residual <= tol_mass:
            return np.sqrt(w - w.min())
        # a stalled residual means the step is too long for this density;
        # halve it and keep going
        if residual < best - 1e-15:
            best = residual
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                eta *= 0.5
                stall = 0
        w = w + eta * (target - masses)
    raise NoConvergence(
        f"equitable weights did not reach tolerance {tol_mass} in {max_iters} iterations")
