"""Locational cost and Lloyd descent over power partitions.

Generators are an (n, 2) array of positions with optional power radii. The
radii choose the diagram: None means zeros, which is the Voronoi diagram
through the very same arithmetic, so a descent with equal radii follows the
Voronoi trajectory. The descent is the discrete Lloyd map: partition, then
move every generator to its cell's density centroid. Moved generators go
through the ``geometry`` point helpers: ``project_into`` brings back any that
drifted outside the workspace, and ``separate`` nudges apart any that landed
on one another.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

# polygon_quadrature is not called here, but coverbench/tracing.py patches it
# in this module
from .density import MASS_EPS, DensityField, cell_moments, polygon_quadrature  # noqa: F401
from .errors import NoConvergence, NonMonotoneDescent
from .geometry import (check_count, check_points, check_positive, check_radii, power_cells,
                       power_cells_from_weights, project_into, separate)

log = logging.getLogger(__name__)

# the starved warning names this many generators; the full list is in the Partition
_STARVED_LOGGED = 10


def _checked(positions, radii, tol: float = 1.0, relax: float = 1.0,
             levels: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of positions and radii (zeros for None).

    ValueError for positions that break geometry.check_points or hold no
    point, radii that break geometry.check_radii, a radius count that differs
    from the position count, a tol (only run_descent has one) that breaks
    geometry.check_positive, a relax that is not finite, and levels that are not an int >= 0.
    """
    pos = check_points(np.array(positions, dtype=float), "positions")
    check_count(len(pos), "number of positions")
    rho = np.zeros(len(pos)) if radii is None else check_radii(np.array(radii, dtype=float).ravel())
    if len(rho) != len(pos):
        raise ValueError(f"{len(pos)} positions but {len(rho)} radii")
    check_positive(tol, "tol")
    if not math.isfinite(relax):
        raise ValueError("relax must be finite")
    check_count(levels, "levels", 0)
    return pos, rho


@dataclass
class Partition:
    """Cells aligned with the generators; None marks a dominated power cell.

    Centroid rows for dominated or mass-starved cells repeat the generator
    position, which makes them fixed points of the Lloyd update. starved
    lists those generators. cost is the locational cost: the squared
    distance to each cell's generator minus its squared radius, integrated
    against the density.
    """

    cells: list
    masses: np.ndarray
    centroids: np.ndarray
    cost: float
    starved: list = field(init=False)

    def __post_init__(self) -> None:
        self.starved = [i for i, c in enumerate(self.cells)
                        if c is None or self.masses[i] < MASS_EPS]


def build_partition(phi: DensityField, positions, radii=None,
                    levels: int = 2) -> Partition:
    """Power partition of the workspace, the Voronoi one for radii None, with
    cell masses, centroids and the locational cost."""
    pos, rho = _checked(positions, radii, levels=levels)
    cells = power_cells(phi.workspace, pos, rho)
    masses, centroids, costs = cell_moments(phi, cells, pos, levels)
    return Partition(list(cells), masses, centroids,
                     float((costs - rho ** 2 * masses).sum()))


def lloyd_step(phi: DensityField, positions, radii=None, relax: float = 1.0,
               levels: int = 2) -> tuple[np.ndarray, Partition]:
    """One Lloyd update.

    Returns (new positions, partition at the input positions). Generators
    whose cell is dominated or carries no mass hold position.
    """
    pos, rho = _checked(positions, radii, relax=relax, levels=levels)
    partition = build_partition(phi, pos, rho, levels)
    if partition.starved:
        log.warning("%d agents hold position (empty or mass-starved cell), first %s",
                    len(partition.starved), partition.starved[:_STARVED_LOGGED])
    new_pos = project_into(phi.workspace, pos + relax * (partition.centroids - pos))
    separated = separate(phi.workspace, new_pos)
    if separated is not new_pos:
        log.warning("agents %s nudged off coincident generators",
                    np.flatnonzero((separated != new_pos).any(axis=1)).tolist())
    return separated, partition


@dataclass
class DescentResult:
    """Final positions and partition plus the per-iteration (positions, cost) path.

    starved[k] lists the generators whose cell was dominated or massless at
    trajectory entry k. initial is the partition at the input positions,
    which the first step surveyed.
    """

    positions: np.ndarray
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


def run_descent(phi: DensityField, positions, radii=None, max_iters: int = 200,
                tol: float = 1e-6, relax: float = 1.0, levels: int = 2) -> DescentResult:
    """Iterate lloyd_step until the largest displacement drops below tol.

    The trajectory records (positions, cost) at every visited configuration,
    including the final one, so it has iterations + 1 entries, each its own
    array. The input arrays are not written.
    """
    check_count(max_iters, "max_iters")
    current, rho = _checked(positions, radii, tol, relax, levels)
    trajectory = []
    starved = []
    converged = False
    prev = None
    initial = None
    for _ in range(max_iters):
        moved, partition = lloyd_step(phi, current, rho, relax, levels)
        if initial is None:
            initial = partition
        _check_monotone(prev, partition.cost)
        prev = partition.cost
        trajectory.append((current, partition.cost))
        starved.append(partition.starved)
        disp = float(np.linalg.norm(moved - current, axis=1).max())
        current = moved
        if disp < tol:
            converged = True
            break
    partition = build_partition(phi, current, rho, levels)
    _check_monotone(prev, partition.cost)
    trajectory.append((current, partition.cost))
    starved.append(partition.starved)
    return DescentResult(current.copy(), partition, trajectory, converged, starved, initial)


def equitable_weights(phi: DensityField, positions, tol_mass: float = 1e-3,
                      max_iters: int = 10000, levels: int = 2) -> np.ndarray:
    """Power radii that split the density into equal-mass cells.

    Damped fixed-point ascent on squared radii: each cell's weight grows in
    proportion to its mass deficit. The returned radii are shifted so the
    smallest is zero, which leaves the diagram unchanged. ValueError for
    positions that break geometry.check_points or hold no point.
    """
    check_positive(tol_mass, "tol_mass")
    check_count(max_iters, "max_iters")
    check_count(levels, "levels", 0)
    pos = check_points(positions, "positions")
    n = check_count(len(pos), "number of positions")
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
