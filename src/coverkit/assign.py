"""Deployment cost models and the bipartite assignment solver.

Three ways to price putting an agent on a point of interest: integrate a
radial falloff over the agent's service footprint, compare service and
target Gaussians in closed form, or register sampled service points onto
the cluster by optimal transport. Whatever the pricing route, the final
matching is an exact rectangular assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .density import (DensityField, DiscreteMeasure, cell_moments, polygon_quadrature,
                      spd_cholesky, write_csv)
from .errors import InfeasibleShape, NonFiniteCost, SiteOutsideWorkspace, SupportViolation
# clip is not called here, but coverbench/tracing.py patches it in this module
from .geometry import ConvexPolygon, clip, intersect  # noqa: F401
from .transport import wasserstein_exact

FOOTPRINT_SIDES = 32
DEFAULT_ORIENTATIONS = tuple(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _unit_ngon(sides: int = FOOTPRINT_SIDES) -> np.ndarray:
    """Regular polygon standing in for the unit circle, scaled to equal area."""
    ang = 2.0 * np.pi * (np.arange(sides) + 0.5) / sides
    scale = np.sqrt(2.0 * np.pi / (sides * np.sin(2.0 * np.pi / sides)))
    return scale * np.column_stack([np.cos(ang), np.sin(ang)])


def _check_orientations(orientations) -> tuple:
    thetas = tuple(float(t) for t in orientations)
    if len(thetas) < 1:
        raise ValueError("need at least one orientation")
    return thetas


class IsotropicService:
    """Rotation-invariant service: radial falloff integrated over a disk."""

    symmetric = True

    def __init__(self, radius: float, falloff=None,
                 orientations=DEFAULT_ORIENTATIONS):
        if not 0.0 < radius < np.inf:
            raise ValueError("footprint radius must be positive and finite")
        self.radius = float(radius)
        self.falloff = falloff if falloff is not None else lambda r: r * r
        self.orientations = _check_orientations(orientations)

    def footprint(self, center, theta: float) -> ConvexPolygon:
        del theta
        return ConvexPolygon(np.asarray(center, float) + self.radius * _unit_ngon())

    def oriented_covariance(self, theta: float) -> np.ndarray:
        """Covariance of the Gaussian whose 3-sigma circle is this disk."""
        del theta
        return (self.radius / 3.0) ** 2 * np.eye(2)

    def samples(self, n: int, seed: int) -> np.ndarray:
        """Points drawn uniformly from the canonical (origin-centred) disk."""
        rng = np.random.default_rng(seed)
        rad = self.radius * np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


class GaussianService:
    """Anisotropic Gaussian service; the footprint is its 3-sigma ellipse."""

    symmetric = False

    def __init__(self, covariance, orientations=DEFAULT_ORIENTATIONS):
        cov = np.asarray(covariance, dtype=float).reshape(2, 2)
        self._chol = spd_cholesky(cov)
        self.covariance = cov
        self.orientations = _check_orientations(orientations)

    def oriented_covariance(self, theta: float) -> np.ndarray:
        rot = rotation(theta)
        return rot @ self.covariance @ rot.T

    def footprint(self, center, theta: float) -> ConvexPolygon:
        ring = 3.0 * _unit_ngon() @ (rotation(theta) @ self._chol).T
        return ConvexPolygon(np.asarray(center, float) + ring)

    def samples(self, n: int, seed: int) -> np.ndarray:
        """Points drawn from the canonical (origin-centred, unrotated) Gaussian."""
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, 2)) @ self._chol.T


def footprint_cost(phi: DensityField, model, poi, levels: int = 2):
    """Cheapest orientation of the model's footprint over a point of interest.

    For each candidate orientation the falloff-weighted density mass
    inside the footprint (clipped to the workspace) is integrated; the
    smallest value wins, first orientation on ties. Rotation-symmetric
    models are integrated once.
    """
    center = np.asarray(poi, dtype=float).reshape(2)
    if not phi.workspace.contains(center):
        raise SiteOutsideWorkspace("point of interest lies outside the workspace")
    thetas = model.orientations[:1] if model.symmetric else model.orientations
    polys = [intersect(model.footprint(center, theta), phi.workspace) for theta in thetas]
    costs = cell_moments(phi, polys, np.broadcast_to(center, (len(polys), 2)), levels,
                         getattr(model, "falloff", None))[2]
    best = int(np.argmin(costs))
    return float(costs[best]), thetas[best]


def kl_divergence(psi: DensityField, phi: DensityField, region: ConvexPolygon,
                  levels: int = 3) -> float:
    """Quadrature divergence of psi from phi over a region.

    ``psi`` is renormalized to unit mass on the region; ``phi`` enters
    as-is, so the result stays nonnegative whenever ``phi`` is a proper
    density. Raises when ``phi`` vanishes under significant psi mass.
    """
    nodes, w = polygon_quadrature(region, levels)
    pv = np.asarray(psi.eval(nodes))
    fv = np.asarray(phi.eval(nodes))
    mass = float(w @ pv)
    if mass <= 0.0:
        raise ValueError("psi carries no mass on the region")
    pv = pv / mass
    floor = phi.floor_value()
    starved = fv < floor
    if float(np.sum(w[starved] * pv[starved])) > 1e-6:
        raise SupportViolation(
            "phi vanishes on a region holding significant psi mass")
    live = pv > 0.0
    ratio = pv[live] / np.maximum(fv[live], floor)
    return float(np.sum(w[live] * pv[live] * np.log(ratio)))


def gaussian_kl(mean0, cov0, mean1, cov1) -> float:
    """Closed-form divergence between two planar Gaussians."""
    mean0 = np.asarray(mean0, dtype=float).reshape(2)
    mean1 = np.asarray(mean1, dtype=float).reshape(2)
    cov0 = np.asarray(cov0, dtype=float).reshape(2, 2)
    cov1 = np.asarray(cov1, dtype=float).reshape(2, 2)
    chol0 = spd_cholesky(cov0)
    chol1 = spd_cholesky(cov1)
    inv1 = np.linalg.inv(cov1)
    diff = mean1 - mean0
    trace = float(np.trace(inv1 @ cov0))
    maha = float(diff @ inv1 @ diff)
    logdet = 2.0 * (np.log(np.diag(chol1)).sum() - np.log(np.diag(chol0)).sum())
    return 0.5 * (trace + maha - 2.0 + logdet)


def kld_cost(model, component_mean, component_cov,
             component_weight: float = 1.0, weight_fn=None):
    """Cheapest orientation of a Gaussian service against a mixture component.

    The service is centred on the component mean, so only the covariance
    mismatch is priced. ``weight_fn`` optionally rescales the cost from
    the component weight (identity multiplier of 1 when omitted).
    """
    mean = np.asarray(component_mean, dtype=float).reshape(2)
    best_cost, best_theta = np.inf, model.orientations[0]
    for theta in model.orientations:
        div = gaussian_kl(mean, model.oriented_covariance(theta), mean, component_cov)
        if div < best_cost:
            best_cost, best_theta = div, theta
    scale = 1.0 if weight_fn is None else float(weight_fn(component_weight))
    return scale * best_cost, best_theta


def ot_registration_cost(model, cluster, n_samples: int = 64, seed: int = 0):
    """Cheapest orientation by transporting service samples onto a cluster.

    Canonical service samples are centred, rotated per orientation,
    shifted to the cluster mean, and priced by exact uniform-weight
    transport against the cluster points.
    """
    points = np.atleast_2d(np.asarray(cluster, dtype=float))
    if points.ndim != 2 or points.shape[1] != 2 or len(points) < 1:
        raise ValueError("cluster must be a nonempty (n, 2) array")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    drawn = model.samples(n_samples, seed)
    centred = drawn - drawn.mean(axis=0)
    shift = points.mean(axis=0)
    target = DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)))

    best_cost, best_theta = np.inf, model.orientations[0]
    for theta in model.orientations:
        placed = centred @ rotation(theta).T + shift
        source = DiscreteMeasure(placed, np.full(n_samples, 1.0 / n_samples))
        cost, _ = wasserstein_exact(source, target, p=2)
        if cost < best_cost:
            best_cost, best_theta = cost, theta
    return best_cost, best_theta


@dataclass
class CostMatrix:
    """Agent-by-poi deployment prices plus the best orientation per entry."""

    values: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("cost matrix must be two-dimensional")
        if self.theta_star.shape != self.values.shape:
            raise ValueError("orientation table must match the cost matrix shape")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteCost("cost matrix entries must be finite")
        rows, cols = self.values.shape
        if rows > cols:
            raise InfeasibleShape(
                f"{rows} agents need at least {rows} points of interest, got {cols}")

    def to_csv(self, path) -> None:
        rows, cols = self.values.shape
        write_csv(path, "agent,poi,cost,theta",
                  ((i, j, self.values[i, j], self.theta_star[i, j])
                   for i in range(rows) for j in range(cols)))


def build_cost_matrix(models, pois, entry) -> CostMatrix:
    """Tabulate ``entry(model, poi) -> (cost, theta)`` over all pairs."""
    pois = np.atleast_2d(np.asarray(pois, dtype=float))
    values = np.empty((len(models), len(pois)))
    thetas = np.empty_like(values)
    for i, model in enumerate(models):
        for j, poi in enumerate(pois):
            values[i, j], thetas[i, j] = entry(model, poi)
    return CostMatrix(values, thetas)


@dataclass
class AssignmentResult:
    """Binary agent-to-poi matching: one poi per agent, one agent per poi."""

    matrix: np.ndarray
    total_cost: float

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.matrix == 1)]

    def to_csv(self, path) -> None:
        write_csv(path, "agent,poi", self.pairs)


def solve_assignment(cost) -> AssignmentResult:
    """Exact minimum-cost matching of agents (rows) to pois (columns)."""
    values = cost.values if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=float)
    if values.ndim != 2:
        raise ValueError("cost matrix must be two-dimensional")
    rows, cols = values.shape
    if rows > cols:
        raise InfeasibleShape(
            f"{rows} agents need at least {rows} points of interest, got {cols}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteCost("cost matrix entries must be finite")
    row_idx, col_idx = linear_sum_assignment(values)
    matrix = np.zeros(values.shape, dtype=int)
    matrix[row_idx, col_idx] = 1
    return AssignmentResult(matrix=matrix, total_cost=float(values[row_idx, col_idx].sum()))
