"""Convex polygon primitives: half-plane clipping, Voronoi and power cells, moments.

Cells are built by clipping the workspace against bisector (or radical-axis)
half-planes, one per competing site. O(N) clips per cell is plenty fast for the
agent counts this toolkit targets and follows the set definitions directly.

This module is the one home of the polygon helpers the other layers share:
``ConvexPolygon.contains`` for point-in-polygon tests, ``intersect`` for
clipping a polygon to a region (footprints and raster pixels to the
workspace), and ``project_into`` for pulling stray points back inside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateSites, SiteOutsideWorkspace

EPS_GEO = 1e-9


class ConvexPolygon:
    """Convex polygon with counter-clockwise vertices (used for W and every cell)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ValueError("need at least 3 two-dimensional vertices")
        edges = np.roll(v, -1, axis=0) - v
        if (np.hypot(edges[:, 0], edges[:, 1]) <= EPS_GEO).any():
            raise ValueError("duplicate consecutive vertices")
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if (cross < -EPS_GEO).any():
            raise ValueError("vertices must be convex in counter-clockwise order")
        self.vertices = v

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    @property
    def area(self) -> float:
        return polygon_moments(self)[0]

    @property
    def centroid(self) -> np.ndarray:
        return polygon_moments(self)[1]

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax)."""
        v = self.vertices
        return v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max()

    @property
    def diameter(self) -> float:
        v = self.vertices
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def contains(self, q, tol: float = EPS_GEO):
        """Point-in-polygon test (closure, with distance tolerance).

        Accepts a single point or an (n, 2) array; returns bool or bool array.
        """
        q = np.asarray(q, dtype=float)
        single = q.ndim == 1
        pts = q[None, :] if single else q
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        ln = np.hypot(e[:, 0], e[:, 1])
        # signed distance of each point to each edge line, positive inside
        dx = pts[:, None, 0] - v[None, :, 0]
        dy = pts[:, None, 1] - v[None, :, 1]
        s = (e[None, :, 0] * dy - e[None, :, 1] * dx) / ln[None, :]
        ok = (s >= -tol).all(axis=1)
        return bool(ok[0]) if single else ok


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


def polygon_moments(poly: ConvexPolygon) -> tuple[float, np.ndarray]:
    """Shoelace area and centroid."""
    v = poly.vertices
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def clip(poly: ConvexPolygon | None, h: HalfPlane) -> ConvexPolygon | None:
    """Intersect a convex polygon with a half-plane (Sutherland-Hodgman, one plane).

    Returns None when the intersection has no area; zero-width slivers collapse.
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
    return _polygon_or_none(out)


def intersect(poly: ConvexPolygon, region: ConvexPolygon) -> ConvexPolygon | None:
    """Part of a convex polygon inside a convex region; None when it has no area.

    Clips by one region edge at a time and stops at the first empty result.
    """
    v = region.vertices
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        n = np.array([e[1], -e[0]])  # outward normal of a counter-clockwise edge
        poly = clip(poly, HalfPlane.from_direction(n, n @ a))
        if poly is None:
            return None
    return poly


def project_into(poly: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """Move any point outside the polygon to its nearest boundary point."""
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


def _polygon_or_none(points) -> ConvexPolygon | None:
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


def _check_sites(workspace: ConvexPolygon, points: np.ndarray) -> None:
    if len(points) > 1:
        d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        if d2.min() <= (1e-9) ** 2:
            i, j = np.unravel_index(int(d2.argmin()), d2.shape)
            raise DuplicateSites(f"sites {i} and {j} coincide")
    inside = workspace.contains(points)
    if not np.all(inside):
        bad = int(np.flatnonzero(~np.atleast_1d(inside))[0])
        raise SiteOutsideWorkspace(f"site {bad} at {points[bad].tolist()} is outside the workspace")


def power_cells_from_weights(workspace: ConvexPolygon, points, weights) -> list[ConvexPolygon | None]:
    """Power cells for signed squared-radius weights w_i (radical-axis clipping).

    The diagram only depends on weight differences, so negative weights are fine;
    this is the primitive behind both power_cells and the equitable-weight solver.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    if len(w) != len(P):
        raise ValueError("one weight per site required")
    _check_sites(workspace, P)
    sq = (P * P).sum(axis=1)
    cells: list[ConvexPolygon | None] = []
    for i in range(len(P)):
        cell: ConvexPolygon | None = workspace
        for j in range(len(P)):
            if j == i or cell is None:
                continue
            # {q : |q-p_i|^2 - w_i <= |q-p_j|^2 - w_j}
            direction = 2.0 * (P[j] - P[i])
            offset = (sq[j] - sq[i]) - (w[j] - w[i])
            cell = clip(cell, HalfPlane.from_direction(direction, offset))
        cells.append(cell)
    return cells


def power_cells(workspace: ConvexPolygon, points, radii) -> list[ConvexPolygon | None]:
    """Power diagram cells; a dominated site may get None."""
    r = np.asarray(radii, dtype=float)
    if (r < 0).any():
        raise ValueError("power radii must be nonnegative")
    return power_cells_from_weights(workspace, points, r * r)


def voronoi_cells(workspace: ConvexPolygon, points) -> list[ConvexPolygon]:
    """Voronoi cells of sites inside the workspace (never empty)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    cells = power_cells_from_weights(workspace, P, np.zeros(len(P)))
    for i, cell in enumerate(cells):
        if cell is None:  # cannot happen for distinct in-workspace sites
            raise RuntimeError(f"degenerate Voronoi cell for site {i}")
    return cells  # type: ignore[return-value]


def chord_interval(poly: ConvexPolygon, origin, direction) -> tuple[float, float] | None:
    """Parameter interval [t0, t1] of {origin + t*direction} inside the polygon.

    Returns None when the line misses the polygon. Used for shared-edge tests.
    """
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    # inside means cross(e, q - v) >= 0 for every edge
    num = e[:, 0] * (o[1] - v[:, 1]) - e[:, 1] * (o[0] - v[:, 0])
    den = e[:, 0] * d[1] - e[:, 1] * d[0]
    t0, t1 = -np.inf, np.inf
    for ni, di in zip(num, den):
        if abs(di) < 1e-15:
            if ni < -EPS_GEO:
                return None
            continue
        t = -ni / di
        if di > 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
    if t0 > t1:
        return None
    return float(t0), float(t1)
