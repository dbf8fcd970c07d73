"""Locational cost and Lloyd descent over power partitions.

Generators are an (n, 2) array of positions with optional power radii. The
radii choose the diagram: None means zeros, which is the Voronoi diagram
through the very same arithmetic, so a descent with equal radii follows the
Voronoi trajectory. The descent is the discrete Lloyd map: partition, then
move every generator to its cell's density centroid. Moved generators go
through the ``geometry`` point helpers: ``project_into`` brings back any that
drifted outside the workspace, and ``separate`` nudges apart any that landed
on one another.

Each public entry checks its input once (``_checked``); every partition is the one
step ``_partition``: the power-cell kernel, which trusts that check, then ``cell_moments``.
``equitable_weights`` runs L-BFGS-B on the equal-mass dual. A raster's cells are
integrated exactly, and ``levels`` does not apply to them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .density import MASS_EPS, MAX_LEVELS, DensityField, cell_moments
# polygon_quadrature is not called here, but coverbench/tracing.py patches it
# in this module
from .density import polygon_quadrature  # noqa: F401
from .errors import NoConvergence, NonMonotoneDescent
from .geometry import (check_count, check_points, check_positive, check_radii, check_sites,
                       power_cells_from_weights, project_into, separate)

log = logging.getLogger(__name__)

# the starved warning names this many generators; the full list is in the Partition
_STARVED_LOGGED = 10


def _checked(phi: DensityField, positions, radii, levels: int,
             sites: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of positions and radii (zeros for None).

    ValueError for positions that break geometry.check_points or hold no
    point, radii that break geometry.check_radii, a radius count that differs
    from the position count, and levels that are not an int from 0 to MAX_LEVELS;
    then geometry.check_sites in phi's workspace, unless ``sites`` is False.
    """
    pos = check_points(positions, "positions").copy()
    check_count(len(pos), "number of positions")
    rho = np.zeros(len(pos)) if radii is None else check_radii(radii).copy()
    if len(rho) != len(pos):
        raise ValueError(f"{len(pos)} positions but {len(rho)} radii")
    check_count(levels, "levels", 0, MAX_LEVELS)
    if sites:
        check_sites(pos, phi.workspace)
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


def _partition(phi: DensityField, pos: np.ndarray, w: np.ndarray, levels: int) -> Partition:
    """The partition of checked sites pos with squared-radius weights w."""
    cells = power_cells_from_weights(phi.workspace, pos, w)
    masses, centroids, costs = cell_moments(phi, cells, pos, levels)
    return Partition(cells, masses, centroids, float((costs - w * masses).sum()))


def build_partition(phi: DensityField, positions, radii=None, levels: int = 2) -> Partition:
    """Power partition of the workspace, the Voronoi one for radii None, with
    cell masses, centroids and the locational cost."""
    pos, rho = _checked(phi, positions, radii, levels)
    return _partition(phi, pos, rho * rho, levels)


def lloyd_step(phi: DensityField, positions, radii=None,
               levels: int = 2) -> tuple[np.ndarray, Partition]:
    """One Lloyd update.

    Returns (new positions, partition at the input positions). Generators
    whose cell is dominated or carries no mass hold position.
    """
    pos, rho = _checked(phi, positions, radii, levels)
    partition = _partition(phi, pos, rho * rho, levels)
    if partition.starved:
        log.warning("%d agents hold position (empty or mass-starved cell), first %s",
                    len(partition.starved), partition.starved[:_STARVED_LOGGED])
    new_pos = project_into(phi.workspace, pos + (partition.centroids - pos))
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
                tol: float = 1e-6, levels: int = 2) -> DescentResult:
    """Iterate lloyd_step until the largest displacement drops below tol.

    The trajectory records (positions, cost) at every visited configuration,
    including the final one, so it has iterations + 1 entries, each its own
    array. The input arrays are not written. The first lloyd_step checks the sites.
    """
    check_count(max_iters, "max_iters")
    check_positive(tol, "tol")
    current, rho = _checked(phi, positions, radii, levels, sites=False)
    trajectory = []
    starved = []
    converged = False
    prev = None
    initial = None
    for _ in range(max_iters):
        moved, partition = lloyd_step(phi, current, rho, levels)
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
    partition = _partition(phi, current, rho * rho, levels)
    _check_monotone(prev, partition.cost)
    trajectory.append((current, partition.cost))
    starved.append(partition.starved)
    return DescentResult(current.copy(), partition, trajectory, converged, starved, initial)


def equitable_weights(phi: DensityField, positions, tol_mass: float = 1e-3,
                      max_iters: int = 10000, levels: int = 2) -> np.ndarray:
    """Power radii that split the density into equal-mass cells.

    One L-BFGS-B call over squared radii on the concave dual of Aurenhammer, Hoffmann
    and Aronov (1998), whose gradient is 1/n minus the cell masses. NoConvergence
    unless every mass ends within tol_mass of 1/n in at most max_iters diagrams. Radii
    are shifted so the smallest is zero, which leaves the diagram unchanged. Sites are
    checked once, before the first diagram.
    """
    # here, not at the top: no descent calls this, so a descent run never loads scipy.optimize
    from scipy.optimize import minimize

    check_positive(tol_mass, "tol_mass")
    check_count(max_iters, "max_iters")
    pos, _ = _checked(phi, positions, None, levels)
    n = len(pos)
    built = 0

    def dual(w):
        nonlocal built
        if built == max_iters:
            raise NoConvergence(
                f"equitable weights did not reach tolerance {tol_mass} in {max_iters} diagrams")
        built += 1
        part = _partition(phi, pos, w, levels)
        return -(part.cost + w.sum() / n), part.masses - 1.0 / n

    # scipy's own limits never bind before the diagram count
    res = minimize(dual, np.zeros(n), jac=True, method="L-BFGS-B", options={
        "gtol": tol_mass, "ftol": 0.0, "maxfun": max_iters, "maxiter": max_iters})
    worst = float(np.abs(res.jac).max())
    if worst > tol_mass:
        # scipy may give no reason after its status, as in "ABNORMAL: "
        raise NoConvergence(
            f"equitable weights did not reach tolerance {tol_mass}: largest mass error "
            f"{worst:.3g} after {built} diagrams ({res.message.rstrip(': ')})")
    return np.sqrt(res.x - res.x.min())
