"""Convex polygon primitives: half-plane clipping, Voronoi and power cells, moments.

Cells are built by clipping the workspace against radical-axis half-planes
(bisectors when the weights are equal). Only a site's power neighbours can
bound its cell, and they are read off the lifted convex hull (Aurenhammer
1987): site i lifts to (x_i, y_i, |p_i|^2 - w_i), and two sites are
neighbours when they share an edge of a hull facet whose outward normal has
z <= 1e-12, i.e. of a lower or vertical facet. Extra pairs are harmless, as
their half-plane clips nothing. A site on no such edge lies above the lower
hull, so its cell is empty (None), unless qhull lists it as coplanar with a
facet; such a site is clipped against every other site. With fewer than four
sites, a weight that is not finite, or when qhull cannot build the hull
(collinear sites, or cocircular sites with equal weights), every site takes
that all-sites path, which is the plain O(N^2) construction. Either way a
site is clipped in increasing index order of its competitors, so both paths
share one loop. ``power_cells_from_weights`` is the one entry point; the
Voronoi and nonnegative-radius forms call it.

This module is the one home of the polygon and point helpers the other layers
share: ``ConvexPolygon.contains`` for point-in-polygon tests, ``intersect``
for clipping a polygon to a region (footprints and raster pixels to the
workspace), ``project_into`` for pulling stray points back inside,
``coincident_pairs`` and ``check_sites`` for finding and rejecting points
closer than ``EPS_GEO``, and ``separate`` for nudging such points apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .errors import DuplicateSites, SiteOutsideWorkspace

EPS_GEO = 1e-9


class ConvexPolygon:
    """Convex polygon with counter-clockwise vertices (used for W and every cell)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ValueError("need at least 3 two-dimensional vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
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
        x, y = pts[:, 0], pts[:, 1]
        ok = np.ones(len(pts), dtype=bool)
        # signed distance of the points to one edge line at a time, positive inside
        for (vx, vy), (ex, ey), lk in zip(v.tolist(), e.tolist(), ln.tolist()):
            ok &= (ex * (y - vy) - ey * (x - vx)) / lk >= -tol
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
    """Move any point outside the polygon to its nearest boundary point.

    Returns the input array itself when every point is inside.
    """
    outside = ~poly.contains(pts)
    if not outside.any():
        return pts
    pts = pts.copy()
    a = poly.vertices
    ab = np.roll(a, -1, axis=0) - a
    p = pts[outside][:, None, :]
    # nearest point of every edge to every stray point; the first nearest edge wins
    t = np.clip(((p - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    near = a + t[..., None] * ab
    d2 = ((p - near) ** 2).sum(axis=-1)
    pts[outside] = near[np.arange(len(near)), d2.argmin(axis=1)]
    return pts


def coincident_pairs(points) -> np.ndarray:
    """(k, 2) index pairs i < j, in row-major order, of points at most EPS_GEO apart."""
    pts = np.asarray(points, dtype=float)
    i, j = np.triu_indices(len(pts), 1)
    close = pdist(pts) <= EPS_GEO
    return np.column_stack([i[close], j[close]])


def check_sites(points, workspace: ConvexPolygon | None = None) -> None:
    """Raise DuplicateSites for two coincident points, then SiteOutsideWorkspace."""
    pts = np.asarray(points, dtype=float)
    pairs = coincident_pairs(pts)
    if len(pairs):
        raise DuplicateSites(f"sites {pairs[0, 0]} and {pairs[0, 1]} coincide")
    if workspace is not None:
        outside = np.flatnonzero(~workspace.contains(pts))
        if len(outside):
            raise SiteOutsideWorkspace(
                f"site {outside[0]} at {pts[outside[0]].tolist()} is outside the workspace")


def separate(workspace: ConvexPolygon, points: np.ndarray) -> np.ndarray:
    """Nudge coincident points apart; every other point comes back bit-identical.

    Of each coincident pair the later index moves, in increasing index order.
    It takes the first of the spots p + k * step * u, k = 1, 2, ..., that lies
    inside the workspace and more than EPS_GEO from every other point, where u
    points from p to the workspace centroid (+x at the centroid) and step is
    1e-6 of the diameter but at least 4 EPS_GEO. Such spots are more than
    2 EPS_GEO apart, so each of the other n - 1 points blocks at most one of
    them and one of the first n is free; DuplicateSites is raised only when
    each free one lies outside, as in a workspace too thin to hold them.
    Returns the input array itself when nothing coincides.
    """
    pairs = coincident_pairs(points)
    if not len(pairs):
        return points
    out = np.array(points, dtype=float)
    center = workspace.centroid
    step = max(1e-6 * workspace.diameter, 4.0 * EPS_GEO)
    for i in np.unique(pairs[:, 1]):
        toward = center - out[i]
        norm = np.hypot(toward[0], toward[1])
        u = toward / norm if norm > 0.0 else np.array([1.0, 0.0])
        for k in range(1, len(out) + 1):
            spot = out[i] + k * step * u
            gaps = np.hypot(*(out - spot).T)
            gaps[i] = np.inf
            if gaps.min() > EPS_GEO and workspace.contains(spot, tol=0.0):
                out[i] = spot
                break
        else:
            raise DuplicateSites(f"no free spot near site {i} inside the workspace")
    return out


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


def _power_neighbours(P: np.ndarray, w: np.ndarray) -> list[np.ndarray | None]:
    """Per site, the sorted indices of the other sites that may bound its power cell.

    None marks a site lying above the lower lifted hull (an empty cell). A
    coplanar site, and every site when the hull is degenerate or a weight is
    not finite, gets all other indices.
    """
    n = len(P)
    everyone = np.arange(n)
    hull = None
    if n >= 4 and np.isfinite(w).all():
        try:
            hull = ConvexHull(np.column_stack([P, (P * P).sum(axis=1) - w]),
                              qhull_options="Qc")
        except QhullError:
            pass
    if hull is None:
        return [np.delete(everyone, i) for i in range(n)]
    tri = hull.simplices[hull.equations[:, 2] <= 1e-12]
    edges = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.unique(np.concatenate([edges, edges[:, ::-1]]), axis=0)
    starts = np.searchsorted(pairs[:, 0], everyone)
    ends = np.searchsorted(pairs[:, 0], everyone, side="right")
    found: list[np.ndarray | None] = [
        pairs[s:e, 1] if e > s else None for s, e in zip(starts, ends)]
    for i in hull.coplanar[:, 0]:
        found[i] = np.delete(everyone, i)
    return found


def _clip_cell(workspace: ConvexPolygon, P: np.ndarray, sq: np.ndarray, w: np.ndarray,
               i: int, rivals) -> ConvexPolygon | None:
    """Workspace clipped by the radical-axis half-plane of each rival of site i."""
    cell: ConvexPolygon | None = workspace
    for j in rivals:
        # {q : |q-p_i|^2 - w_i <= |q-p_j|^2 - w_j}
        direction = 2.0 * (P[j] - P[i])
        offset = (sq[j] - sq[i]) - (w[j] - w[i])
        cell = clip(cell, HalfPlane.from_direction(direction, offset))
        if cell is None:
            break
    return cell


def power_cells_from_weights(workspace: ConvexPolygon, points, weights) -> list[ConvexPolygon | None]:
    """Power cells for signed squared-radius weights w_i (radical-axis clipping).

    The diagram only depends on weight differences, so negative weights are fine;
    this is the primitive behind both power_cells and the equitable-weight solver.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    if len(w) != len(P):
        raise ValueError("one weight per site required")
    check_sites(P, workspace)
    sq = (P * P).sum(axis=1)
    return [None if rivals is None else _clip_cell(workspace, P, sq, w, i, rivals)
            for i, rivals in enumerate(_power_neighbours(P, w))]


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
