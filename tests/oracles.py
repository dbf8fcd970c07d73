"""Reference routines that only the tests call.

Exhaustive matroid search is the oracle for the greedy approximation floors,
and the quadrature divergence is the oracle for the closed-form Gaussian
divergence. Where a fast path replaced a direct routine, the direct routine
is kept here as its oracle: the einsum form of the mixture density and its
log-gradient, the point-major (n, J) mixture layout that summed each point's
components along its row, footprint prices integrated over each clipped
footprint polygon, the rule built by broadcasting over the coordinate axis
of stacked triangles, the edge-by-edge loops that tested points against a
polygon and projected stray points onto it, the one-plane clip that built
a polygon after every cut, with its ``HalfPlane``, the power cells clipped
from every lifted-hull neighbour, with those neighbours found by a row-wise
unique of the hull's edge pairs,
the cell moments built one polygon, one rule and one masked eval at a time,
the edge planes recomputed from a region's vertices on every call, the
``intersect`` that made a ``ConvexPolygon`` of every clipped polygon, the
raster normalisation that cut each boundary pixel as one, grown into exact
raster moments pixel by pixel,
the swarm step that solved a fresh assignment at every step, the SVG
writer that mapped one point and wrote one element per Python call,
the transportation LP solved by HiGHS' dual simplex, and the damped
fixed-point ascent that found equal-mass power weights with a step of half
the workspace area, halved after 50 stalled diagrams, and the config loader
on PyYAML's pure-Python parser.
Voronoi cell masses as a discrete measure have no caller in a pipeline
either. None of these runs in a pipeline, so they live here and not in the
package.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np
import yaml
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from coverkit.coverage import _checked, _partition, build_partition
from coverkit.density import (MASS_EPS, RULE_BARY, RULE_WEIGHTS, DensityField,
                              DiscreteMeasure, GmmDensity, GridDensity, cell_moments,
                              polygon_quadrature)
from coverkit.errors import CoverkitError, NoConvergence
from coverkit.geometry import (_VERTICAL, EPS_GEO, ConvexPolygon, _lifted_hull,
                               check_count, check_positive, clip, project_into, ring_moments)
from coverkit.render import AGENT_PALETTE, _band_color
from coverkit.swarm import SwarmState, systematic_resample

_FLOOR_REL = 1e-12
SEARCH_CAP = 1_000_000


class PyConfigLoader(yaml.SafeLoader):
    """``runner._ConfigLoader`` on the pure-Python parser: SafeLoader plus the
    YAML 1.2 core-schema float pattern."""


PyConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"), list("-+0123456789."))


class SupportViolation(CoverkitError):
    """KL divergence requested against a density that vanishes on significant mass."""


class SearchSpaceTooLarge(CoverkitError):
    """Brute-force enumeration would exceed the configured subset budget."""


# ------------------------------------------------------------- quadrature

def fan_quadrature(poly: ConvexPolygon, levels: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """One polygon's nodes and weights: centroid fan, subdivided, nodes by einsum."""
    v = poly.vertices
    tris = np.stack([v, np.roll(v, -1, axis=0), np.broadcast_to(poly.centroid, v.shape)],
                    axis=1)
    for _ in range(levels):
        m01 = 0.5 * (tris[:, 0] + tris[:, 1])
        m12 = 0.5 * (tris[:, 1] + tris[:, 2])
        m20 = 0.5 * (tris[:, 2] + tris[:, 0])
        tris = np.concatenate([np.stack([tris[:, 0], m01, m20], axis=1),
                               np.stack([m01, tris[:, 1], m12], axis=1),
                               np.stack([m20, m12, tris[:, 2]], axis=1),
                               np.stack([m01, m12, m20], axis=1)])
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = np.einsum("rb,tbd->trd", RULE_BARY, tris).reshape(-1, 2)
    return pts, (areas[:, None] * RULE_WEIGHTS[None, :]).reshape(-1)


def _broadcast_subdivide(tris: np.ndarray) -> np.ndarray:
    """Split each triangle of a (P, T, 3, 2) stack into 4 congruent children
    (orientation preserved); the children of one polygon stay in its row."""
    a, b, c = tris[:, :, 0], tris[:, :, 1], tris[:, :, 2]
    m01 = 0.5 * (a + b)
    m12 = 0.5 * (b + c)
    m20 = 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, m01, m20], axis=2),
        np.stack([m01, b, m12], axis=2),
        np.stack([m20, m12, c], axis=2),
        np.stack([m01, m12, m20], axis=2),
    ], axis=1)


def broadcast_polygon_quadrature(rings, levels: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """``polygon_quadrature`` on (P, T, 3, 2) triangle stacks, broadcasting
    every step over the trailing coordinate axis: the same nodes and weights,
    bit for bit."""
    v = np.asarray(rings, dtype=float)
    c = ring_moments(v)[1]
    tris = np.stack([v, np.roll(v, -1, axis=1), np.broadcast_to(c[:, None, :], v.shape)],
                    axis=2)
    for _ in range(levels):
        tris = _broadcast_subdivide(tris)
    e1 = tris[:, :, 1] - tris[:, :, 0]
    e2 = tris[:, :, 2] - tris[:, :, 0]
    areas = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    b = RULE_BARY[:, :, None]
    t = tris[:, :, None]
    pts = (b[:, 0] * t[..., 0, :] + b[:, 1] * t[..., 1, :]) + b[:, 2] * t[..., 2, :]
    w = areas[..., None] * RULE_WEIGHTS
    return pts.reshape(len(v), -1, 2), w.reshape(len(v), -1)


def loop_cell_moments(phi: DensityField, polys, centers, levels: int = 2):
    """``cell_moments`` one entry at a time: the stacked rule of one polygon
    (P = 1) and one masked ``phi.eval`` per polygon, or for a raster's
    polygon ``pixel_moments``."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    masses = np.zeros(len(polys))
    centroids = centers.copy()
    costs = np.zeros(len(polys))
    for i, poly in enumerate(polys):
        if poly is None:
            continue
        if isinstance(phi, GridDensity) and isinstance(poly, ConvexPolygon):
            (masses[i],), centroids[i], (costs[i],) = pixel_moments(phi, [poly], centers[i])
            continue
        if isinstance(poly, ConvexPolygon):
            pts, w = polygon_quadrature(poly.vertices[None], levels)
            pts, w = pts[0], w[0]
            offsets = pts - centers[i]
        else:
            offsets, w = poly
            pts = centers[i] + offsets
        wv = w * np.asarray(phi.eval(pts), dtype=float)
        mass = float(wv.sum())
        costs[i] = wv @ (offsets ** 2).sum(axis=1)
        masses[i] = max(mass, 0.0)
        if mass >= MASS_EPS:
            centroids[i] = wv @ pts / mass
    return masses, centroids, costs


def integrate(fn, poly: ConvexPolygon, levels: int = 2) -> float:
    """Integral of a vectorized scalar function over a polygon."""
    pts, w = fan_quadrature(poly, levels)
    return float(w @ np.asarray(fn(pts), dtype=float))


def floor_value(phi: DensityField) -> float:
    """Density floor used when phi sits in a KL denominator."""
    pts, _ = fan_quadrature(phi.workspace, 3)
    return _FLOOR_REL * float(np.max(phi.eval(pts)))


def kl_divergence(psi: DensityField, phi: DensityField, region: ConvexPolygon,
                  levels: int = 3) -> float:
    """Quadrature divergence of psi from phi over a region.

    ``psi`` is renormalized to unit mass on the region; ``phi`` enters
    as-is, so the result stays nonnegative whenever ``phi`` is a proper
    density. Raises when ``phi`` vanishes under significant psi mass.
    """
    nodes, w = fan_quadrature(region, levels)
    pv = np.asarray(psi.eval(nodes))
    fv = np.asarray(phi.eval(nodes))
    mass = float(w @ pv)
    if mass <= 0.0:
        raise ValueError("psi carries no mass on the region")
    pv = pv / mass
    floor = floor_value(phi)
    starved = fv < floor
    if float(np.sum(w[starved] * pv[starved])) > 1e-6:
        raise SupportViolation(
            "phi vanishes on a region holding significant psi mass")
    live = pv > 0.0
    ratio = pv[live] / np.maximum(fv[live], floor)
    return float(np.sum(w[live] * pv[live] * np.log(ratio)))


# ------------------------------------------------------------- fast paths

def point_major_component_densities(phi: GmmDensity, pts) -> np.ndarray:
    """Weighted component densities in the (n, J) layout, one row per point."""
    dx = pts[:, 0, None] - phi.means[None, :, 0]
    dy = pts[:, 1, None] - phi.means[None, :, 1]
    inv = phi._inv
    maha = (dx * inv[:, 0, 0] * dx + dx * inv[:, 0, 1] * dy
            + dy * inv[:, 1, 0] * dx + dy * inv[:, 1, 1] * dy)
    log_n = -0.5 * (maha + phi._logdet[None, :]) - np.log(2.0 * np.pi)
    return phi.weights[None, :] * np.exp(log_n)


def point_major_raw(phi: GmmDensity, pts) -> np.ndarray:
    """Unnormalized mixture density, each point's components summed along its row."""
    return point_major_component_densities(phi, pts).sum(axis=1)


def point_major_grad_log(phi: GmmDensity, pts) -> np.ndarray:
    """Gradient of the log mixture density in the (n, J) layout."""
    return log_gradient(phi, pts, point_major_component_densities(phi, pts))


def log_gradient(phi: GmmDensity, pts, dens) -> np.ndarray:
    """Gradient of the log mixture density from its (n, J) component densities."""
    d = phi.means[None, :, :] - pts[:, None, :]
    pulls = np.einsum("jde,nje->njd", phi._inv, d)
    return (dens[:, :, None] * pulls).sum(axis=1) / dens.sum(axis=1)[:, None]


def einsum_component_densities(phi: GmmDensity, pts) -> np.ndarray:
    """Weighted component densities, (n, J), with the quadratic form by einsum."""
    d = pts[:, None, :] - phi.means[None, :, :]
    maha = np.einsum("njd,jde,nje->nj", d, phi._inv, d)
    log_n = -0.5 * (maha + phi._logdet[None, :]) - np.log(2.0 * np.pi)
    return phi.weights[None, :] * np.exp(log_n)


def einsum_eval(phi: GmmDensity, pts) -> np.ndarray:
    """Normalized mixture density at (n, 2) points, 0 outside the workspace."""
    vals = phi._norm * einsum_component_densities(phi, pts).sum(axis=1)
    return np.where(phi.workspace.contains(pts), vals, 0.0)


def einsum_grad_log(phi: GmmDensity, pts) -> np.ndarray:
    """Gradient of the log mixture density at (n, 2) points."""
    return log_gradient(phi, pts, einsum_component_densities(phi, pts))


def polygon_footprint_cost(phi: DensityField, model, poi, levels: int = 2):
    """Footprint price by quadrature over every footprint clipped to the workspace."""
    center = np.asarray(poi, dtype=float).reshape(2)
    thetas = model.orientations[:1] if model.symmetric else model.orientations
    polys = [intersect(model.footprint(center, theta), phi.workspace) for theta in thetas]
    costs = cell_moments(phi, polys, np.broadcast_to(center, (len(polys), 2)), levels)[2]
    best = int(np.argmin(costs))
    return float(costs[best]), thetas[best]


def simplex_transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The transportation LP through HiGHS' default (dual simplex) method."""
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


def voronoi_measure(phi: DensityField, positions, levels: int = 2) -> DiscreteMeasure:
    """Atoms at the given sites weighted by their Voronoi cell masses."""
    part = build_partition(phi, positions, levels=levels)
    return DiscreteMeasure(np.atleast_2d(np.asarray(positions, dtype=float)),
                           part.masses)


def fixed_point_equitable_weights(phi: DensityField, positions, tol_mass: float = 1e-3,
                                  max_iters: int = 10000, levels: int = 2) -> np.ndarray:
    """Power radii that split the density into equal-mass cells.

    Damped fixed-point ascent on squared radii: each cell's weight grows in
    proportion to its mass deficit. The returned radii are shifted so the
    smallest is zero, which leaves the diagram unchanged. The positions are
    checked as build_partition checks them, once, before the first diagram.
    """
    check_positive(tol_mass, "tol_mass")
    check_count(max_iters, "max_iters")
    pos, _ = _checked(phi, positions, None, levels)
    n = len(pos)
    target = 1.0 / n
    eta = phi.workspace.area / 2.0
    w = np.zeros(n)
    best = np.inf
    stall = 0
    for _ in range(max_iters):
        masses = _partition(phi, pos, w, levels).masses
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


# -------------------------------------------------------------- enumeration

@dataclass(frozen=True)
class UniformMatroid:
    """Any subset of the ground set with at most ``limit`` elements."""

    ground: tuple
    limit: int

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(self.ground))
        if not 0 <= self.limit <= len(self.ground):
            raise ValueError("limit must lie between 0 and the ground set size")


@dataclass(frozen=True)
class PartitionMatroid:
    """At most one element from each block."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError("every block needs at least one element")
        object.__setattr__(self, "blocks", blocks)


def brute_force_opt(f, constraint):
    """Exhaustive maximizer under a matroid constraint; the greedy oracle."""
    if isinstance(constraint, UniformMatroid):
        count = math.comb(len(constraint.ground), constraint.limit)
        if count > SEARCH_CAP:
            raise SearchSpaceTooLarge(
                f"{count} subsets exceed the {SEARCH_CAP} enumeration cap")
        subsets = itertools.combinations(constraint.ground, constraint.limit)
    elif isinstance(constraint, PartitionMatroid):
        count = math.prod(len(b) for b in constraint.blocks)
        if count > SEARCH_CAP:
            raise SearchSpaceTooLarge(
                f"{count} combinations exceed the {SEARCH_CAP} enumeration cap")
        subsets = itertools.product(*constraint.blocks)
    else:
        raise TypeError("constraint must be a UniformMatroid or PartitionMatroid")

    best_set, best_value = None, -np.inf
    for subset in subsets:
        value = float(f(tuple(subset)))
        if value > best_value:
            best_set, best_value = tuple(subset), value
    return best_set, best_value


# ------------------------------------------------------------- projection

def loop_project_into(poly: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """Nearest boundary point of each outside point, one point and edge at a time."""
    outside = ~poly.contains(pts)
    if not outside.any():
        return pts
    pts = pts.copy()
    verts = poly.vertices
    for idx in np.nonzero(outside)[0]:
        p = pts[idx]
        best, best_d2 = p, np.inf
        for e in range(len(verts)):
            a = verts[e]
            ab = verts[(e + 1) % len(verts)] - a
            t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
            c = a + t * ab
            d2 = ((p - c) ** 2).sum()
            if d2 < best_d2:
                best, best_d2 = c, d2
        pts[idx] = best
    return pts


def loop_contains(poly: ConvexPolygon, q, tol: float = EPS_GEO):
    """``ConvexPolygon.contains`` one edge at a time, on Python floats: the
    same booleans."""
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    pts = q[None, :] if single else q
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    ln = np.hypot(e[:, 0], e[:, 1])
    x, y = pts[:, 0], pts[:, 1]
    ok = np.ones(len(pts), dtype=bool)
    for (vx, vy), (ex, ey), lk in zip(v.tolist(), e.tolist(), ln.tolist()):
        ok &= (ex * (y - vy) - ey * (x - vx)) / lk >= -tol
    return bool(ok[0]) if single else ok


# --------------------------------------------------------------- clipping

@dataclass(frozen=True)
class HalfPlane:
    """The set {q : normal . q <= offset}, with a unit normal."""

    normal: np.ndarray
    offset: float

    @staticmethod
    def from_direction(direction, offset: float) -> "HalfPlane":
        d = np.asarray(direction, dtype=float)
        ln = float(np.hypot(d[0], d[1]))
        if ln <= 0.0:
            raise ValueError("half-plane direction must be nonzero")
        return HalfPlane(d / ln, float(offset) / ln)


def one_plane_clip(poly: ConvexPolygon | None, h: HalfPlane) -> ConvexPolygon | None:
    """Intersect a convex polygon with one half-plane (Sutherland-Hodgman).

    Returns the polygon itself when the plane does not bind, and None when
    the intersection has no area; zero-width slivers collapse.
    """
    if poly is None:
        return None
    v = poly.vertices
    s = v @ h.normal - h.offset
    if (s <= EPS_GEO).all():
        return poly
    if (s >= -EPS_GEO).all():
        return None
    out = []
    n = len(v)
    for i in range(n):
        j = (i + 1) % n
        si, sj = s[i], s[j]
        if si <= 0.0:
            out.append(v[i])
        if (si < 0.0 < sj) or (sj < 0.0 < si):
            t = si / (si - sj)
            out.append(v[i] + t * (v[j] - v[i]))
    return polygon_or_none(out)


def polygon_or_none(points) -> ConvexPolygon | None:
    """Build a polygon from raw clip output, dropping duplicates and slivers."""
    if len(points) < 3:
        return None
    pts = np.asarray(points, dtype=float)
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > EPS_GEO:
            keep.append(i)
    if len(keep) > 1 and np.hypot(*(pts[keep[-1]] - pts[keep[0]])) <= EPS_GEO:
        keep.pop()
    if len(keep) < 3:
        return None
    pts = pts[keep]
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * (x * np.roll(y, -1) - np.roll(x, -1) * y).sum()
    edges = np.roll(pts, -1, axis=0) - pts
    longest = float(np.hypot(edges[:, 0], edges[:, 1]).max())
    if area <= EPS_GEO * longest:
        return None
    return ConvexPolygon(pts)


def edge_planes(region: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals and offsets of a region's edges, recomputed from
    its vertices on every call."""
    a = region.vertices
    e = np.concatenate((a[1:], a[:1])) - a
    n = np.column_stack((e[:, 1], -e[:, 0]))
    ln = np.hypot(n[:, 0], n[:, 1])
    return n / ln[:, None], (n[:, None, :] @ a[:, :, None])[:, 0, 0] / ln


def intersect(poly: ConvexPolygon, region: ConvexPolygon) -> ConvexPolygon | None:
    """Part of a convex polygon inside a convex region; None when it has no
    area, and ``poly`` itself when no edge of the region cuts it."""
    v = clip(poly.vertices, *edge_planes(region))
    return poly if v is poly.vertices else None if v is None else ConvexPolygon(v)


def _pixel_sums(phi: GridDensity, poly: ConvexPolygon, center) -> tuple[float, np.ndarray, float]:
    """The raw values' integrals of 1, q - center and |q - center|^2 over a
    polygon: every pixel of the polygon's bounding box cut to it by
    ``intersect``, and each piece's exact shoelace moments about the center
    weighted by its pixel's value."""
    xmin, _, _, ymax = phi.bbox
    pxmin, pxmax, pymin, pymax = poly.bbox
    cols = range(max(0, math.floor((pxmin - xmin) / phi.dx)),
                 min(phi.nx, math.ceil((pxmax - xmin) / phi.dx)))
    rows = range(max(0, math.floor((ymax - pymax) / phi.dy)),
                 min(phi.ny, math.ceil((ymax - pymin) / phi.dy)))
    sums = np.zeros(5)
    for iy, ix in itertools.product(rows, cols):
        x0, x1 = xmin + phi.dx * ix, xmin + phi.dx * (ix + 1)
        y0, y1 = ymax - phi.dy * (iy + 1), ymax - phi.dy * iy
        piece = intersect(ConvexPolygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]), poly)
        if piece is None:
            continue
        x, y = (piece.vertices - center).T
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        sums += phi.values[iy, ix] * np.array([
            cross.sum() / 2.0, ((x + xn) * cross).sum() / 6.0, ((y + yn) * cross).sum() / 6.0,
            ((x * x + x * xn + xn * xn) * cross).sum() / 12.0,
            ((y * y + y * yn + yn * yn) * cross).sum() / 12.0])
    return sums[0], sums[1:3], sums[3] + sums[4]


def pixel_moments(phi: GridDensity, polys, centers):
    """``cell_moments`` of a raster's polygons pixel by pixel (see
    ``_pixel_sums``): exact up to rounding, and independent of the row-prefix
    boundary integrals that ``GridDensity._moments`` takes."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    masses = np.zeros(len(polys))
    centroids = centers.copy()
    costs = np.zeros(len(polys))
    for i, poly in enumerate(polys):
        if poly is None:
            continue
        mass, first, cost = _pixel_sums(phi, poly, centers[i])
        masses[i] = phi._norm * mass
        costs[i] = phi._norm * cost
        if masses[i] >= MASS_EPS:
            centroids[i] = centers[i] + first / mass
    return masses, centroids, costs


def pixel_loop_norm(phi: GridDensity) -> float:
    """A raster's normalising factor: one over its pixel-by-pixel mass over W."""
    return 1.0 / _pixel_sums(phi, phi.workspace, np.zeros(2))[0]


def clip_planes(poly: ConvexPolygon, normals, offsets) -> ConvexPolygon | None:
    """Clip by a stack of unit half-planes, one ``one_plane_clip`` call each."""
    for n, c in zip(normals, offsets):
        poly = one_plane_clip(poly, HalfPlane(np.array(n, dtype=float), float(c)))
    return poly


def pair_power_neighbours(hull, n: int) -> list[np.ndarray | None]:
    """``_power_neighbours`` by a row-wise ``np.unique`` over the (E, 2) edge pairs."""
    everyone = np.arange(n)
    if hull is None:
        return [np.delete(everyone, i) for i in range(n)]
    tri = hull.simplices[hull.equations[:, 2] <= _VERTICAL]
    edges = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.unique(np.concatenate([edges, edges[:, ::-1]]), axis=0)
    starts = np.searchsorted(pairs[:, 0], everyone)
    ends = np.searchsorted(pairs[:, 0], everyone, side="right")
    found = [pairs[s:e, 1] if e > s else None for s, e in zip(starts, ends)]
    for i in hull.coplanar[:, 0]:
        found[i] = np.delete(everyone, i)
    return found


def neighbour_power_cells(workspace, points, weights):
    """Power cells by clipping the workspace with each site's lifted-hull
    neighbours' radical axes, one ``one_plane_clip`` at a time."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    sq = (P * P).sum(axis=1)
    cells = []
    for i, rivals in enumerate(pair_power_neighbours(_lifted_hull(P, w), len(P))):
        cell = None if rivals is None else workspace
        for j in rivals if rivals is not None else ():
            h = HalfPlane.from_direction(2.0 * (P[j] - P[i]), (sq[j] - sq[i]) - (w[j] - w[i]))
            cell = one_plane_clip(cell, h)
        cells.append(cell)
    return cells


# ------------------------------------------------------------------ swarm

def assignment_transport_step(state: SwarmState, target: DiscreteMeasure, tau: float,
                              batch: int | None = None, seed: int = 0) -> SwarmState:
    """``transport_step`` with a fresh ``linear_sum_assignment`` at every step,
    whatever matching the state carries; the returned state carries none."""
    n = len(state)
    batch = n if batch is None else int(batch)
    rng = np.random.default_rng(seed)
    moving = np.sort(rng.permutation(n)[:batch])
    draws = target.points[systematic_resample(target.weights, batch)]
    src = state.positions[moving]
    cost = cdist(src, draws, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    objective = float(cost[rows, cols].sum())
    moved = state.positions.copy()
    moved[moving] = (1.0 - tau) * src + tau * draws[cols]
    moved = project_into(state.workspace, moved)
    return SwarmState(moved, state.workspace, state.iteration + 1,
                      w2_estimate=math.sqrt(objective / batch))


# ----------------------------------------------------------------- render

class LoopSvgCanvas:
    """The element-at-a-time canvas: one ``map`` and one string per element."""

    def __init__(self, bbox, size: int = 640, margin: int = 24):
        xmin, xmax, ymin, ymax = bbox
        extent = max(xmax - xmin, ymax - ymin)
        self.scale = (size - 2 * margin) / extent
        self.xmin, self.ymax = xmin, ymax
        self.margin = margin
        self.width = 2 * margin + (xmax - xmin) * self.scale
        self.height = 2 * margin + (ymax - ymin) * self.scale
        self.elements: list[str] = []

    def map(self, point) -> tuple[float, float]:
        x, y = float(point[0]), float(point[1])
        return (self.margin + (x - self.xmin) * self.scale,
                self.margin + (self.ymax - y) * self.scale)

    def _points_attr(self, pts) -> str:
        return " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in map(self.map, pts))

    def rect(self, corner, w, h, fill):
        sx, sy = self.map((corner[0], corner[1] + h))
        self.elements.append(
            f'<rect x="{sx:.2f}" y="{sy:.2f}" width="{w * self.scale + 0.4:.2f}" '
            f'height="{h * self.scale + 0.4:.2f}" fill="{fill}"/>')

    def polygon(self, pts, fill="none", stroke="none", width=1.0, dash=None, opacity=None):
        attrs = f'points="{self._points_attr(pts)}" fill="{fill}" stroke="{stroke}"'
        if stroke != "none":
            attrs += f' stroke-width="{width:.2f}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if opacity is not None:
            attrs += f' opacity="{opacity:.2f}"'
        self.elements.append(f"<polygon {attrs}/>")

    def circle(self, center, radius_world, fill="none", stroke="none",
               width=1.0, dash=None, opacity=None, radius_px=None):
        sx, sy = self.map(center)
        r = radius_px if radius_px is not None else radius_world * self.scale
        attrs = f'cx="{sx:.2f}" cy="{sy:.2f}" r="{r:.2f}" fill="{fill}" stroke="{stroke}"'
        if stroke != "none":
            attrs += f' stroke-width="{width:.2f}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if opacity is not None:
            attrs += f' opacity="{opacity:.2f}"'
        self.elements.append(f"<circle {attrs}/>")

    def line(self, a, b, stroke="#555555", width=1.0, dash=None):
        ax, ay = self.map(a)
        bx, by = self.map(b)
        attrs = (f'x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                 f'stroke="{stroke}" stroke-width="{width:.2f}"')
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        self.elements.append(f"<line {attrs}/>")

    def text(self, screen_xy, content, size=13):
        self.elements.append(
            f'<text x="{screen_xy[0]:.2f}" y="{screen_xy[1]:.2f}" '
            f'font-family="sans-serif" font-size="{size}" '
            f'fill="#333333">{escape(content)}</text>')

    def save(self, path) -> None:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width:.0f}" height="{self.height:.0f}" '
                f'viewBox="0 0 {self.width:.0f} {self.height:.0f}">')
        body = "\n".join(self.elements)
        with open(path, "w") as fh:
            fh.write(f"{head}\n{body}\n</svg>\n")


def loop_density_bands(canvas: LoopSvgCanvas, phi, workspace: ConvexPolygon,
                          bands: int, resolution: int) -> None:
    xmin, xmax, ymin, ymax = workspace.bbox
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    cx = xmin + (np.arange(resolution) + 0.5) * dx
    cy = ymin + (np.arange(resolution) + 0.5) * dy
    gx, gy = np.meshgrid(cx, cy)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(phi.eval(pts), dtype=float).reshape(resolution, resolution)
    top = vals.max()
    if top <= 0:
        return
    levels = np.minimum((vals / top * bands).astype(int), bands - 1)

    clip = " ".join(f"{sx:.2f},{sy:.2f}"
                    for sx, sy in map(canvas.map, workspace.vertices))
    canvas.elements.append(
        f'<defs><clipPath id="ws"><polygon points="{clip}"/></clipPath></defs>')
    canvas.elements.append('<g clip-path="url(#ws)">')
    for iy in range(resolution):
        run_start, run_level = 0, levels[iy, 0]
        for ix in range(1, resolution + 1):
            if ix < resolution and levels[iy, ix] == run_level:
                continue
            canvas.rect((xmin + run_start * dx, ymin + iy * dy),
                        (ix - run_start) * dx, dy, _band_color(run_level, bands))
            if ix < resolution:
                run_start, run_level = ix, levels[iy, ix]
    canvas.elements.append("</g>")


def loop_render_scene(path, phi, workspace: ConvexPolygon, *, agents=None,
                 power_radii=None, cells=None, pois=None, assignment=None,
                 swarm_points=None, title=None, bands: int = 16,
                 resolution: int = 128, size: int = 640) -> None:
    """``render_scene`` one element at a time: a ``map`` call per point, a
    ``rect`` and a ``_band_color`` per density run."""
    canvas = LoopSvgCanvas(workspace.bbox, size=size)
    canvas.elements.append(
        f'<rect width="{canvas.width:.0f}" height="{canvas.height:.0f}" fill="#ffffff"/>')
    if phi is not None:
        loop_density_bands(canvas, phi, workspace, bands, resolution)
    canvas.polygon(workspace.vertices, stroke="#222222", width=1.6)

    if cells is not None:
        for cell in cells:
            if cell is not None:
                canvas.polygon(cell.vertices, stroke="#444444", width=1.0)

    if swarm_points is not None:
        for point in np.atleast_2d(swarm_points):
            canvas.circle(point, 0.0, fill="#1f4e8c", opacity=0.55, radius_px=2.0)

    if pois is not None:
        for point in np.atleast_2d(pois):
            x, y = float(point[0]), float(point[1])
            r = 5.0 / canvas.scale
            canvas.polygon([(x - r, y), (x, y + r), (x + r, y), (x, y - r)],
                           fill="#f2b134", stroke="#7a5b0e", width=1.0)

    if agents is not None:
        agents = np.atleast_2d(agents)
        if assignment is not None and pois is not None:
            pois = np.atleast_2d(pois)
            for i, j in assignment:
                canvas.line(agents[i], pois[j], stroke="#666666", width=1.2, dash="5 3")
        for i, point in enumerate(agents):
            color = AGENT_PALETTE[i % len(AGENT_PALETTE)]
            if power_radii is not None and power_radii[i] > 0:
                canvas.circle(point, float(power_radii[i]), stroke=color,
                              width=1.4, dash="6 4")
            canvas.circle(point, 0.0, fill=color, stroke="#ffffff",
                          width=1.2, radius_px=6.0)

    if title:
        canvas.text((canvas.margin, canvas.margin - 8), title)
    canvas.save(path)
