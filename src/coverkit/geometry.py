"""Convex polygon primitives: half-plane clipping, Voronoi and power cells, moments.

Power cells come from the lifted convex hull (Aurenhammer 1987): site i
lifts to (x_i, y_i, |p_i|^2 - w_i), and the lower facets of the hull of the
lifted sites are dual to the vertices of the power diagram. Two routes build
a cell from that one hull:

- Dual vertices, no clip. Each lower facet (i, j, k) is one power vertex;
  cell i's copy is solved from the radical axes of (i, j) and (i, k). A site
  whose lower facets close a fan around it has a bounded cell: its copies,
  sorted by angle about their mean in one ``lexsort`` over all sites. When
  every vertex lies in the workspace and the ring is a proper polygon, the
  cell is finished with no clip.
- Neighbour clip. A cell that crosses the workspace, or belongs to a site on
  the sites' 2-D hull (an open fan, an unbounded cell), is the workspace
  clipped by the radical axes of the site's power neighbours: the sites it
  shares an edge with on a facet whose outward normal has z <= 1e-12 (lower
  or vertical). Extra pairs are harmless, as their half-plane clips nothing.
  Starting from the workspace keeps far-away vertices, such as those of
  nearly collinear hull sites, out of the arithmetic.

A site on no such edge lies above the lower hull, so its cell is empty
(None). With fewer than four sites, a weight that is not finite, when qhull
cannot build the hull (collinear sites, or cocircular sites with equal
weights), or when qhull lists a site as coplanar with a facet, no cell takes
the dual route; a coplanar site, and every site when there is no hull, is
clipped against all other sites, the plain O(N^2) construction. A site's
half-planes are stacked in increasing index order of its competitors and cut
in one ``clip`` call, the one clipper: it cuts a raw (V, 2) vertex array by
a (K, 2) stack of unit normals and K offsets, so only the finished cell
becomes a ``ConvexPolygon``. ``power_cells_from_weights`` is the kernel, which
trusts its caller's sites and weights; ``power_cells`` is the entry that checks them.

This module is the one home of the polygon and point helpers the other layers
share: ``ConvexPolygon``, the one polygon test, which keeps its edges and
edge planes, with ``contains`` for point-in-polygon tests; ``clip`` by
``_edge_planes(region)`` and ``ring_moments`` for cutting a raw vertex array
(a footprint) to a region and measuring what is left;
``project_into`` for pulling stray points back inside, ``coincident_pairs``
and ``check_sites`` for finding and rejecting points closer than ``EPS_GEO``,
and ``separate`` for nudging such points apart. It also holds the one rule
per kind of input that public entry points apply once per call:
``check_points``, ``check_weights``, ``check_positive`` (scalars),
``check_count`` and ``check_radii`` (power radii). Each owns its shape.
"""
from __future__ import annotations

import contextlib
import math
import numbers

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .errors import DuplicateSites, SiteOutsideWorkspace

EPS_GEO = 1e-9
# points per array pass over a point set: per density evaluation in
# density.cell_moments, per block in ConvexPolygon.contains. One pass over
# every cell of a 100-site diagram raised peak memory by about a quarter, and
# passes of about this size were also faster than one
EVAL_NODES = 8192
# a lifted-hull facet whose outward normal has |z| <= _VERTICAL is vertical:
# it bounds no cell, but its edges still join neighbours
_VERTICAL = 1e-12


class ConvexPolygon:
    """Convex polygon with counter-clockwise vertices (used for W and every cell).

    It must not be a sliver: see ``_has_area``, which ``clip`` applies too.
    It keeps the edges its checks compute (and ``_edge_planes``' planes), so
    the vertices must not change after construction.
    """

    __slots__ = ("vertices", "_edges", "_lengths", "_planes")

    def __init__(self, vertices):
        v = check_points(vertices, "vertices")
        if len(v) < 3:
            raise ValueError("need at least 3 two-dimensional vertices")
        edges = np.concatenate((v[1:], v[:1])) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if (lengths <= EPS_GEO).any():
            raise ValueError("duplicate consecutive vertices")
        nxt = np.concatenate((edges[1:], edges[:1]))
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if (cross < -EPS_GEO).any():
            raise ValueError("vertices must be convex in counter-clockwise order")
        if not _has_area(v):
            raise ValueError("vertices must enclose an area above EPS_GEO times the longest edge")
        self.vertices, self._edges, self._lengths, self._planes = v, edges, lengths, None

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    @property
    def area(self) -> float:
        return float(ring_moments(self.vertices[None])[0][0])

    @property
    def centroid(self) -> np.ndarray:
        return ring_moments(self.vertices[None])[1][0]

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
        v, e = self.vertices, self._edges
        vx, vy, ex, ey = v[:, 0, None], v[:, 1, None], e[:, 0, None], e[:, 1, None]
        ln = self._lengths[:, None]
        ok = np.empty(len(pts), dtype=bool)
        # signed distances (ex (y - vy) - ey (x - vx)) / |e| of up to
        # EVAL_NODES points to every edge line, positive inside, as one
        # (V, block) array, so memory stays flat however many points come in
        for lo in range(0, len(pts), EVAL_NODES):
            x, y = pts[lo:lo + EVAL_NODES, 0], pts[lo:lo + EVAL_NODES, 1]
            gap = y - vy
            gap *= ex
            cross = x - vx
            cross *= ey
            gap -= cross
            gap /= ln
            ok[lo:lo + EVAL_NODES] = (gap >= -tol).all(axis=0)
        return bool(ok[0]) if single else ok


def ring_moments(rings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shoelace areas (P,) and centroids (P, 2) of a (P, V, 2) stack of
    counter-clockwise rings, each row summed as it would be alone."""
    nxt = np.concatenate((rings[:, 1:], rings[:, :1]), axis=1)
    x, y, xn, yn = rings[..., 0], rings[..., 1], nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=1)
    centroid = np.stack([((x + xn) * cross).sum(axis=1) / (6.0 * area),
                         ((y + yn) * cross).sum(axis=1) / (6.0 * area)], axis=-1)
    return area, centroid


def clip(vertices: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """Cut a convex (V, 2) vertex array by the half-planes {q : n_k . q <= c_k}, in order.

    Sutherland-Hodgman, one plane at a time, for a (K, 2) stack of unit
    normals n_k and K offsets c_k. A plane binds unless every vertex lies
    within EPS_GEO of its side. After each binding cut, a vertex within
    EPS_GEO of the last one kept is dropped, and so is the last vertex when
    it is that close to the first. Returns the input array itself when no
    plane binds, None once what is left has fewer than three vertices or is
    a sliver (see ``_has_area``), and otherwise the remaining vertices.
    """
    v = vertices
    for n, c in zip(normals, offsets):
        s = v @ n - c
        if s.max() <= EPS_GEO:
            continue
        if s.min() >= -EPS_GEO:
            return None
        s_next = np.concatenate((s[1:], s[:1]))
        cross = ((s < 0.0) & (s_next > 0.0)) | ((s_next < 0.0) & (s > 0.0))
        # t = s_i / (s_i - s_j) on the crossed edges i -> j, 0 on the rest
        t = np.divide(s, s - s_next, out=np.zeros_like(s), where=cross)
        hit = v + t[:, None] * (np.concatenate((v[1:], v[:1])) - v)
        # each kept vertex, then the crossing point of the edge leaving it
        pts = np.stack((v, hit), axis=1).reshape(-1, 2)[
            np.column_stack((s <= 0.0, cross)).ravel()]
        ring = pts[:1].tolist()
        for q in pts[1:].tolist():
            if math.dist(q, ring[-1]) > EPS_GEO:
                ring.append(q)
        if len(ring) > 1 and math.dist(ring[-1], ring[0]) <= EPS_GEO:
            ring.pop()
        if len(ring) < 3:
            return None
        v = np.array(ring)
        if not _has_area(v):
            return None
    return v


def _has_area(v: np.ndarray) -> bool:
    """Whether a counter-clockwise vertex ring's shoelace area exceeds
    EPS_GEO times its longest edge; a ring that does not is a sliver."""
    nxt = np.concatenate((v[1:], v[:1]))
    area = 0.5 * (v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]).sum()
    edges = nxt - v
    return bool(area > EPS_GEO * np.hypot(edges[:, 0], edges[:, 1]).max())


def _edge_planes(region: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals and offsets of a region's edges, as ``clip`` takes them;
    built once per region and kept on it read-only, so its clips share them."""
    if region._planes is None:
        a, e, ln = region.vertices, region._edges, region._lengths
        n = np.column_stack((e[:, 1], -e[:, 0]))  # outward normals of counter-clockwise edges
        # n . a through matmul: a row-wise (n * a).sum(1) rounds differently
        normals, offsets = n / ln[:, None], (n[:, None, :] @ a[:, :, None])[:, 0, 0] / ln
        normals.flags.writeable = offsets.flags.writeable = False
        region._planes = normals, offsets
    return region._planes


def project_into(poly: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """Move any point outside the polygon to its nearest boundary point.

    Returns the input array itself when every point is inside.
    """
    outside = ~poly.contains(pts)
    if not outside.any():
        return pts
    pts = pts.copy()
    a, ab = poly.vertices, poly._edges
    p = pts[outside][:, None, :]
    # nearest point of every edge to every stray point; the first nearest edge wins
    t = np.clip(((p - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    near = a + t[..., None] * ab
    d2 = ((p - near) ** 2).sum(axis=-1)
    pts[outside] = near[np.arange(len(near)), d2.argmin(axis=1)]
    return pts


def coincident_pairs(points) -> np.ndarray:
    """(k, 2) index pairs i < j, in row-major order, of points at most EPS_GEO apart.

    The pair indices cost as much as the distances, so they wait for a close pair.
    """
    pts = np.asarray(points, dtype=float)
    close = np.flatnonzero(pdist(pts) <= EPS_GEO)
    if not len(close):
        return np.empty((0, 2), dtype=np.intp)
    i, j = np.triu_indices(len(pts), 1)
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


def _lifted_hull(P: np.ndarray, w: np.ndarray) -> ConvexHull | None:
    """Convex hull of the sites lifted to (x, y, |p|^2 - w); None with fewer
    than four sites, a weight that is not finite, or when qhull fails."""
    if len(P) < 4 or not np.isfinite(w).all():
        return None
    try:
        return ConvexHull(np.column_stack([P, (P * P).sum(axis=1) - w]), qhull_options="Qc")
    except QhullError:
        return None


def _power_neighbours(hull: ConvexHull | None, n: int) -> list[np.ndarray | None]:
    """Per site, the sorted indices of the other sites that may bound its power cell.

    None marks a site lying above the lower lifted hull (an empty cell). A
    coplanar site, and every site when there is no hull, gets all other
    indices.
    """
    everyone = np.arange(n)
    if hull is None:
        return [np.delete(everyone, i) for i in range(n)]
    tri = hull.simplices[hull.equations[:, 2] <= _VERTICAL].astype(np.int64)
    a, b = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
    # each edge as the keys a*n + b and b*n + a: sorted, they list every site's
    # neighbours in order, as a row-wise unique of the pairs would
    site, other = np.divmod(np.unique(np.concatenate([a * n + b, b * n + a])), n)
    starts = np.searchsorted(site, everyone)
    ends = np.searchsorted(site, everyone, side="right")
    found: list[np.ndarray | None] = [
        other[s:e] if e > s else None for s, e in zip(starts, ends)]
    for i in hull.coplanar[:, 0]:
        found[i] = np.delete(everyone, i)
    return found


def _dual_cells(workspace: ConvexPolygon, P: np.ndarray, w: np.ndarray, sq: np.ndarray,
                hull: ConvexHull) -> dict[int, ConvexPolygon]:
    """The cells that need no clip, read off the lower facets of the lifted hull.

    Each lower facet (i, j, k) is one power vertex, met by the cells of its
    three sites. Cell i's copy is solved from the radical axes of (i, j) and
    (i, k), the very half-planes the clip route cuts by. A site all of whose
    lower-facet edges lie in two lower facets has a closed fan, so its cell
    is the bounded polygon of those copies, in the order of their angle about
    the copies' mean. The cell is finished here when every copy lies in the
    workspace, so that it is the workspace cut by those axes, and
    ``ConvexPolygon`` takes the ring as it stands. Every other site (an open
    fan on the sites' 2-D hull, a vertex outside W, near-coincident vertices
    of nearly cocircular sites) is left to the clip route.
    """
    n = len(P)
    lower = hull.simplices[hull.equations[:, 2] < -_VERTICAL]
    i = lower.ravel()
    j = lower[:, [1, 2, 0]].ravel()
    k = lower[:, [2, 0, 1]].ravel()
    edge = np.minimum(i, j) * n + np.maximum(i, j)
    _, where, counts = np.unique(edge, return_inverse=True, return_counts=True)
    left_out = np.zeros(n, dtype=bool)
    single = counts[where] == 1
    left_out[i[single]] = left_out[j[single]] = True
    dj, dk = 2.0 * (P[j] - P[i]), 2.0 * (P[k] - P[i])
    ej, ek = (sq[j] - sq[i]) - (w[j] - w[i]), (sq[k] - sq[i]) - (w[k] - w[i])
    normals, offsets = _edge_planes(workspace)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = dj[:, 0] * dk[:, 1] - dj[:, 1] * dk[:, 0]
        q = np.column_stack([ej * dk[:, 1] - ek * dj[:, 1],
                             dj[:, 0] * ek - dk[:, 0] * ej]) / det[:, None]
        inside = (q @ normals.T - offsets <= 0.0).all(axis=1)
    left_out[i[~inside]] = True
    keep = ~left_out[i]
    i, q = i[keep], q[keep]
    if not len(i):
        return {}
    count = np.bincount(i, minlength=n)[i]
    mx = np.bincount(i, q[:, 0], minlength=n)[i] / count
    my = np.bincount(i, q[:, 1], minlength=n)[i] / count
    order = np.lexsort((np.arctan2(q[:, 1] - my, q[:, 0] - mx), i))
    i, q = i[order], q[order]
    starts = np.flatnonzero(np.concatenate(([True], i[1:] != i[:-1])))
    cells = {}
    for site, v in zip(i[starts].tolist(), np.split(q, starts[1:])):
        with contextlib.suppress(ValueError):  # not a polygon as it stands: left to clip
            cells[site] = ConvexPolygon(v)
    return cells


def power_cells_from_weights(workspace: ConvexPolygon, P, w) -> list[ConvexPolygon | None]:
    """Power cells for signed squared-radius weights w_i, trusting the caller: P is
    an (n, 2) float array of distinct sites inside the workspace, w one float per
    site. The diagram only depends on weight differences, so negative weights are fine.
    """
    sq = (P * P).sum(axis=1)
    hull = _lifted_hull(P, w)
    done = {} if hull is None or len(hull.coplanar) else _dual_cells(workspace, P, w, sq, hull)
    cells: list[ConvexPolygon | None] = []
    for i, rivals in enumerate(_power_neighbours(hull, len(P))):
        if i in done or rivals is None:
            cells.append(done.get(i))
            continue
        # {q : |q-p_i|^2 - w_i <= |q-p_j|^2 - w_j} for each rival j
        d = 2.0 * (P[rivals] - P[i])
        ln = np.hypot(d[:, 0], d[:, 1])
        v = clip(workspace.vertices, d / ln[:, None],
                 ((sq[rivals] - sq[i]) - (w[rivals] - w[i])) / ln)
        cells.append(workspace if v is workspace.vertices else None if v is None
                     else ConvexPolygon(v))
    return cells


def _float_array(values, error, message: str) -> np.ndarray:
    """``values`` as a float array for the array rules; ``error(message)``, not
    numpy's bare error, on a ragged array or an int too large for a float."""
    try:
        return np.asarray(values, dtype=float)
    except (OverflowError, ValueError):
        raise error(message) from None


def check_radii(radii) -> np.ndarray:
    """Power radii as a flat float vector; ValueError unless it is one and every
    r is nonnegative with r*r/EPS_GEO finite.

    The cell clips divide squared-radius differences by site distances, which
    exceed EPS_GEO. The rule is tested on Python floats, so a huge radius
    fails the test instead of overflowing.
    """
    refusal = f"power radii must be a vector of nonnegative numbers r with r*r/{EPS_GEO:g} finite"
    r = _float_array(radii, ValueError, refusal)
    if r.ndim != 1 or not all(0.0 <= x and math.isfinite(x * x / EPS_GEO) for x in r.tolist()):
        raise ValueError(refusal)
    return r


def check_points(points, name: str = "points", error=ValueError, rows=None) -> np.ndarray:
    """Points as an (n, 2) float array, one point as one row; error unless
    they have that shape (n = ``rows`` when given) and every entry is finite."""
    pts = np.atleast_2d(_float_array(points, error, f"{name} must be finite, in an (n, 2) array"))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise error(f"{name} must be an (n, 2) array, not {pts.shape}")
    if rows is not None and len(pts) != rows:
        raise error(f"{name} must be an (n, 2) array with n = {rows}, not {pts.shape}")
    if not np.isfinite(pts).all():
        raise error(f"{name} must be finite")
    return pts


def check_weights(weights, size: int | None = None, error=ValueError) -> np.ndarray:
    """A weight vector divided by its sum; error unless it is one-dimensional
    (of ``size`` entries when given), finite and nonnegative, with a sum that
    is positive and finite. The sum may overflow without a numpy warning."""
    w = _float_array(weights, error, "weights must be finite and nonnegative numbers in a vector")
    if w.ndim != 1 or size is not None and len(w) != size:
        raise error(f"weights must be a vector{'' if size is None else f' of {size}'}, "
                    f"not shape {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise error("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise error("total weight overflows")
    if total <= 0:
        raise error("total weight must be positive")
    return w / total


def check_positive(value, name: str, at_least: float | None = None,
                   at_most: float = math.inf) -> float:
    """A real scalar as a float; ValueError unless it is finite, at most
    ``at_most``, and positive or, when given, at least ``at_least``. NaN
    fails every comparison, and so does anything that is not a real number,
    a bool, or an int too large for a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and x <= at_most
            and (x > 0.0 if at_least is None else x >= at_least)):
        rule = "positive" if at_least is None else f"at least {at_least:g}"
        if at_most < math.inf:
            rule += f" and at most {at_most:g}"
        raise ValueError(f"{name} must be finite and {rule}, got {value!r}")
    return x


def check_count(value, name: str, at_least: int = 1, at_most: float = math.inf,
                error=ValueError) -> int:
    """A count as an int; error unless it is an integer, not a bool or a
    float, of at least ``at_least`` and at most ``at_most``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, not {value!r}")
    if value < at_least:
        raise error(f"{name} must be at least {at_least}, got {value!r}")
    if value > at_most:
        raise error(f"{name} must be at most {at_most}, got {value!r}")
    return int(value)


def power_cells(workspace: ConvexPolygon, points, radii) -> list[ConvexPolygon | None]:
    """Power diagram cells; a dominated site may get None. The sites follow
    check_points and check_sites, the radii check_radii, one per site."""
    P = check_points(points, "sites")
    r = check_radii(radii)
    if len(r) != len(P):
        raise ValueError("one radius per site required")
    check_sites(P, workspace)
    return power_cells_from_weights(workspace, P, r * r)
