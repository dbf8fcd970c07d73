"""Deployment cost models and the bipartite assignment solver.

Two ways to price putting an agent on a point of interest: integrate the
squared distance over the agent's service footprint against the density, or
compare the service and a target mixture component as Gaussians in closed
form. Either way ``build_cost_matrix`` tabulates prices and orientations as
two arrays, and ``solve_assignment`` returns the exact matching as (agent,
poi) pairs with its total cost.

A footprint is a reference polygon under the service's linear map, moved to
the point of interest. The reference polygon is centrally symmetric, so the
footprints at theta and theta + pi are one set: each service prices only the
first orientation of each half-turn class, in listed order, and a disk only
its first. A footprint that reaches past every workspace vertex cuts the
workspace instead of being cut by it, and one that contains the workspace is
priced as the workspace. Other footprints that cross the workspace boundary
are clipped and integrated with ``polygon_quadrature`` (through
``cell_moments``); the rest reuse one ``polygon_quadrature`` rule on the
reference polygon, mapped affinely, so pricing them builds no triangulation
at all (a raster, integrated exactly, takes them as polygons); each mapped
rule is built once and kept while pricing stays with the same service. One
``footprint_cost`` call prices one site: every priced orientation of the
service goes through one ``cell_moments`` call. Clipped or not, a footprint's
nodes lie in the workspace, so they are integrated with no point-in-polygon test.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .density import (MAX_LEVELS, DensityField, GridDensity, cell_moments, polygon_quadrature,
                      spd_cholesky)
from .errors import InfeasibleShape, NonFiniteCost, SiteOutsideWorkspace
from .geometry import (ConvexPolygon, _edge_planes, check_count, check_points,
                       check_positive, clip)

FOOTPRINT_SIDES = 32
# orientations whose difference is within this many radians of a multiple of
# pi give one footprint; it covers the few ulps by which evenly spaced angles
# from np.linspace miss an exact half turn
_HALF_TURN_TOL = 1e-12
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
    """The orientations as a tuple of floats; ValueError unless there is at
    least one and each is finite."""
    thetas = tuple(float(t) for t in orientations)
    if len(thetas) < 1:
        raise ValueError("need at least one orientation")
    if not all(map(math.isfinite, thetas)):
        raise ValueError(f"orientations must be finite, got {thetas}")
    return thetas


class _Service:
    """A service whose footprint at orientation theta is the reference polygon
    ``_scale * _UNIT_NGON`` under the linear map ``_footprint_map(theta)``,
    moved to the centre. Its price integrates the squared distance to the centre."""

    _scale = 1.0

    def _footprint_map(self, theta: float) -> np.ndarray:
        raise NotImplementedError

    def _ring(self, theta: float) -> np.ndarray:
        """The footprint's vertices at the origin."""
        return (self._scale * _UNIT_NGON) @ self._footprint_map(theta).T

    def footprint(self, center, theta: float) -> ConvexPolygon:
        return ConvexPolygon(np.asarray(center, float) + self._ring(theta))

    def _check_footprint(self) -> None:
        """ValueError unless the footprint at the origin is a polygon (edges longer than
        EPS_GEO, not a sliver) at every orientation. Keeps each ring read-only with its
        edge planes and its reach (largest vertex norm) about the centre, and the
        orientations priced: the first of each half-turn class in listed order, only the
        first for a disk. The reference polygon is centrally symmetric, so theta and
        theta + pi give one footprint."""
        self._rings, self._planes, self._reach = {}, {}, {}
        for theta in self.orientations:
            ring = self._ring(theta)
            try:
                poly = ConvexPolygon(ring)
            except ValueError as exc:
                raise ValueError(f"footprint is too small or too thin to price: {exc}") from None
            ring.flags.writeable = False
            self._rings[theta], self._planes[theta] = ring, _edge_planes(poly)
            self._reach[theta] = float(np.hypot(*ring.T).max())
        priced = []
        for theta in self.orientations[:1] if self.symmetric else self.orientations:
            if all(abs(math.remainder(theta - t, math.pi)) > _HALF_TURN_TOL for t in priced):
                priced.append(theta)
        self._priced = tuple(priced)

    def _quadrature(self, workspace: ConvexPolygon, center, theta: float, levels: int):
        """What ``cell_moments`` integrates for the footprint at one orientation.

        A footprint that reaches past every workspace vertex may be many times
        the workspace's size, and cutting it to the workspace would cancel away
        the digits of the price, so the workspace is cut by the footprint's
        planes instead: the rule is the workspace itself when none binds. Any
        other footprint that no workspace edge clips is the affine image of the
        reference polygon, so its rule is this service's mapped rule (see
        ``_mapped_rules``) about the centre, and for levels None (a raster)
        the footprint polygon. Only a clipped remainder becomes a polygon (None
        when nothing is left). ``theta`` must be one of the service's priced
        orientations.
        """
        if self._reach[theta] > np.hypot(*(workspace.vertices - center).T).max():
            normals, offsets = self._planes[theta]
            part = clip(workspace.vertices, normals, offsets + normals @ center)
            if part is workspace.vertices:
                return workspace
        else:
            vertices = center + self._rings[theta]
            part = clip(vertices, *_edge_planes(workspace))
            if part is vertices and levels is not None:
                return _mapped_rules(self, levels)[theta]
        return None if part is None else ConvexPolygon(part)


@functools.lru_cache(maxsize=1)
def _mapped_rules(service: _Service, levels: int) -> dict:
    """The reference rule under the footprint map M of each priced orientation,
    by theta: read-only offsets ref_pts @ M.T from the centre and weights
    |det M| ref_w. ``build_cost_matrix`` prices a row of sites per service, so
    memory holds one service's rules."""
    ref_pts, ref_w = _reference_rule(service._scale, levels)
    rules = {}
    for theta in service._priced:
        m = service._footprint_map(theta)
        offsets = ref_pts @ m.T
        weights = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) * ref_w
        offsets.flags.writeable = weights.flags.writeable = False
        rules[theta] = offsets, weights
    return rules


class IsotropicService(_Service):
    """Rotation-invariant service: the squared distance integrated over a disk."""

    symmetric = True

    def __init__(self, radius: float, orientations=DEFAULT_ORIENTATIONS):
        self.radius = check_positive(radius, "footprint radius")
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
    # what clip makes of a footprint 1e150 times the workspace hangs on it
    _scale = 3.0

    def __init__(self, covariance, orientations=DEFAULT_ORIENTATIONS):
        self._chol = spd_cholesky(covariance)
        self.covariance = np.asarray(covariance, dtype=float)
        self.orientations = _check_orientations(orientations)
        self._check_footprint()

    def oriented_covariance(self, theta: float) -> np.ndarray:
        rot = rotation(theta)
        return rot @ self.covariance @ rot.T

    def _footprint_map(self, theta: float) -> np.ndarray:
        return rotation(theta) @ self._chol


def footprint_cost(phi: DensityField, model, poi, levels: int = 2):
    """Cheapest orientation of the model's footprint over a point of interest,
    first of its half-turn class.

    For each priced orientation (the first of each half-turn class; only the
    first for a disk) the squared distance to the point is integrated
    against the density over the footprint clipped to the workspace; the
    smallest value wins, first orientation on ties. A footprint that reaches
    past every workspace vertex is not cut to the workspace: the workspace is
    cut by the footprint's edge planes, and a footprint that contains it is
    integrated over the workspace itself. Cutting a footprint many times the
    workspace's size would cancel away the digits of the price. A price that
    is not finite raises NonFiniteCost.
    """
    check_count(levels, "levels", 0, MAX_LEVELS)
    center, = check_points(poi, "point of interest", rows=1)
    workspace = phi.workspace
    if not workspace.contains(center):
        raise SiteOutsideWorkspace("point of interest lies outside the workspace")
    thetas = model._priced
    rule_levels = None if isinstance(phi, GridDensity) else levels
    with np.errstate(all="ignore"):
        rules = [model._quadrature(workspace, center, theta, rule_levels) for theta in thetas]
        costs = cell_moments(phi, rules, np.broadcast_to(center, (len(rules), 2)), levels)[2]
    if not np.isfinite(costs).all():
        raise NonFiniteCost("footprint price is not finite")
    best = int(np.argmin(costs))
    return float(costs[best]), thetas[best]


def gaussian_kl(mean0, cov0, mean1, cov1) -> float:
    """Closed-form divergence between two planar Gaussians."""
    mean0, = check_points(mean0, "means", rows=1)
    mean1, = check_points(mean1, "means", rows=1)
    chol0, chol1 = spd_cholesky(cov0), spd_cholesky(cov1)
    inv1 = np.linalg.inv(cov1)
    diff = mean1 - mean0
    trace = float(np.trace(inv1 @ cov0))
    maha = float(diff @ inv1 @ diff)
    logdet = 2.0 * (np.log(np.diag(chol1)).sum() - np.log(np.diag(chol0)).sum())
    return 0.5 * (trace + maha - 2.0 + logdet)


def kld_cost(model, component_mean, component_cov):
    """Cheapest orientation of a Gaussian service against a mixture component,
    first of its half-turn class.

    The service is centred on the component mean, so only the covariance
    mismatch is priced. A half turn leaves the oriented covariance as it is,
    so the orientations priced are those ``footprint_cost`` prices.
    """
    divs = [gaussian_kl(component_mean, model.oriented_covariance(theta), component_mean,
                        component_cov) for theta in model._priced]
    best = int(np.argmin(divs))
    return divs[best], model._priced[best]


def build_cost_matrix(models, sites, entry) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate ``entry(model, site) -> (cost, theta)`` over all pairs.

    ``sites`` is any sequence: points of interest for footprint prices,
    mixture components for divergence prices. Returns (costs, thetas).
    """
    values = np.empty((len(models), len(sites)))
    thetas = np.empty_like(values)
    for i, model in enumerate(models):
        for j, site in enumerate(sites):
            values[i, j], thetas[i, j] = entry(model, site)
    return values, thetas


def _check_table(values: np.ndarray) -> None:
    """ValueError unless two-dimensional, InfeasibleShape for more agents
    (rows) than points of interest (columns), NonFiniteCost for NaN or inf."""
    if values.ndim != 2:
        raise ValueError("cost matrix must be two-dimensional")
    rows, cols = values.shape
    if rows > cols:
        raise InfeasibleShape(
            f"{rows} agents need at least {rows} points of interest, got {cols}")
    if not np.isfinite(values).all():
        raise NonFiniteCost("cost matrix entries must be finite")


def solve_assignment(cost) -> tuple[np.ndarray, float]:
    """Exact minimum-cost matching of agents (rows) to pois (columns): the
    (agents, 2) int array of (agent, poi) pairs in agent order, and their total."""
    values = np.asarray(cost, dtype=float)
    _check_table(values)
    pairs = np.column_stack(linear_sum_assignment(values))
    return pairs, float(values[pairs[:, 0], pairs[:, 1]].sum())
