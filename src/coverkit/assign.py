"""Deployment cost models and the bipartite assignment solver.

Two ways to price putting an agent on a point of interest: integrate a
radial falloff over the agent's service footprint against the density, or
compare the service and a target mixture component as Gaussians in closed
form. Either way one routine tabulates the prices over agents and sites, and
the final matching is an exact rectangular assignment.

A footprint is a reference polygon under the service's linear map, moved to
the point of interest. Footprints that cross the workspace boundary are
clipped and integrated with ``polygon_quadrature`` (through ``cell_moments``);
the rest reuse one ``polygon_quadrature`` rule on the reference polygon,
mapped affinely, so pricing them builds no triangulation at all. One
``footprint_cost`` call prices one site: every orientation of the service
goes through one ``cell_moments`` call. Clipped or not, a footprint's nodes
lie in the workspace, so they are integrated with no point-in-polygon test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .density import DensityField, cell_moments, polygon_quadrature, spd_cholesky, write_csv
from .errors import InfeasibleShape, NonFiniteCost, SiteOutsideWorkspace
# clip is not called here, but coverbench/tracing.py patches it in this module
from .geometry import ConvexPolygon, clip, intersect  # noqa: F401

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


_UNIT_NGON = _unit_ngon()


@functools.lru_cache(maxsize=None)
def _reference_rule(scale: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights over scale * the unit polygon, built once."""
    pts, w = polygon_quadrature((scale * _UNIT_NGON)[None], levels)
    pts.flags.writeable = w.flags.writeable = False
    return pts[0], w[0]


def _check_orientations(orientations) -> tuple:
    thetas = tuple(float(t) for t in orientations)
    if len(thetas) < 1:
        raise ValueError("need at least one orientation")
    return thetas


class _Service:
    """A service whose footprint at orientation theta is the reference polygon
    ``_scale * _UNIT_NGON`` under the linear map ``_footprint_map(theta)``,
    moved to the centre."""

    _scale = 1.0

    def _footprint_map(self, theta: float) -> np.ndarray:
        raise NotImplementedError

    def footprint(self, center, theta: float) -> ConvexPolygon:
        ring = (self._scale * _UNIT_NGON) @ self._footprint_map(theta).T
        return ConvexPolygon(np.asarray(center, float) + ring)

    def _check_footprint(self) -> None:
        """ValueError unless the footprint at the origin is a polygon: every
        edge longer than EPS_GEO and not a sliver. Rotations keep its edges."""
        try:
            self.footprint((0.0, 0.0), 0.0)
        except ValueError as exc:
            raise ValueError(f"footprint is too small or too thin to price: {exc}") from None

    def _quadrature(self, workspace: ConvexPolygon, center, theta: float, levels: int):
        """What ``cell_moments`` integrates for the footprint at one orientation.

        A footprint that no workspace edge clips is the affine image of the
        reference polygon, so its rule is the cached reference rule under the
        footprint map M: offsets ref_pts @ M.T from the centre and weights
        |det M| ref_w. A clipped footprint is returned as a polygon (None
        when nothing is left).
        """
        footprint = self.footprint(center, theta)
        part = intersect(footprint, workspace)
        if part is not footprint:
            return part
        m = self._footprint_map(theta)
        ref_pts, ref_w = _reference_rule(self._scale, levels)
        return ref_pts @ m.T, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) * ref_w


class IsotropicService(_Service):
    """Rotation-invariant service: radial falloff integrated over a disk."""

    symmetric = True

    def __init__(self, radius: float, falloff=None,
                 orientations=DEFAULT_ORIENTATIONS):
        if not 0.0 < radius < np.inf:
            raise ValueError("footprint radius must be positive and finite")
        self.radius = float(radius)
        self.falloff = falloff if falloff is not None else lambda r: r * r
        self.orientations = _check_orientations(orientations)
        self._check_footprint()

    def _footprint_map(self, theta: float) -> np.ndarray:
        del theta
        return self.radius * np.eye(2)

    def oriented_covariance(self, theta: float) -> np.ndarray:
        """Covariance of the Gaussian whose 3-sigma circle is this disk."""
        del theta
        return (self.radius / 3.0) ** 2 * np.eye(2)


class GaussianService(_Service):
    """Anisotropic Gaussian service; the footprint is its 3-sigma ellipse."""

    symmetric = False
    # the standard normal's 3-sigma circle, mapped by rotation @ chol. The 3
    # scales the polygon, not the map: that fixes how the vertices round, and
    # what intersect makes of a footprint 1e150 times the workspace hangs on it
    _scale = 3.0

    def __init__(self, covariance, orientations=DEFAULT_ORIENTATIONS):
        cov = np.asarray(covariance, dtype=float).reshape(2, 2)
        self._chol = spd_cholesky(cov)
        self.covariance = cov
        self.orientations = _check_orientations(orientations)
        self._check_footprint()

    def oriented_covariance(self, theta: float) -> np.ndarray:
        rot = rotation(theta)
        return rot @ self.covariance @ rot.T

    def _footprint_map(self, theta: float) -> np.ndarray:
        return rotation(theta) @ self._chol


def footprint_cost(phi: DensityField, model, poi, levels: int = 2):
    """Cheapest orientation of the model's footprint over a point of interest.

    For each candidate orientation the falloff-weighted density mass
    inside the footprint (clipped to the workspace) is integrated; the
    smallest value wins, first orientation on ties. Rotation-symmetric
    models are integrated once. A price that is not finite (a footprint
    far larger than the workspace) raises NonFiniteCost.
    """
    center = np.asarray(poi, dtype=float).reshape(2)
    if not phi.workspace.contains(center):
        raise SiteOutsideWorkspace("point of interest lies outside the workspace")
    thetas = model.orientations[:1] if model.symmetric else model.orientations
    with np.errstate(all="ignore"):
        rules = [model._quadrature(phi.workspace, center, theta, levels) for theta in thetas]
        costs = cell_moments(phi, rules, np.broadcast_to(center, (len(rules), 2)), levels,
                             getattr(model, "falloff", None))[2]
    if not np.isfinite(costs).all():
        raise NonFiniteCost("footprint price is not finite")
    best = int(np.argmin(costs))
    return float(costs[best]), thetas[best]


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


def kld_cost(model, component_mean, component_cov):
    """Cheapest orientation of a Gaussian service against a mixture component.

    The service is centred on the component mean, so only the covariance
    mismatch is priced.
    """
    mean = np.asarray(component_mean, dtype=float).reshape(2)
    best_cost, best_theta = np.inf, model.orientations[0]
    for theta in model.orientations:
        div = gaussian_kl(mean, model.oriented_covariance(theta), mean, component_cov)
        if div < best_cost:
            best_cost, best_theta = div, theta
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


def build_cost_matrix(models, sites, entry) -> CostMatrix:
    """Tabulate ``entry(model, site) -> (cost, theta)`` over all pairs.

    ``sites`` is any sequence: points of interest for footprint prices,
    mixture components for divergence prices.
    """
    values = np.empty((len(models), len(sites)))
    thetas = np.empty_like(values)
    for i, model in enumerate(models):
        for j, site in enumerate(sites):
            values[i, j], thetas[i, j] = entry(model, site)
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
