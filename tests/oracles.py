"""Reference routines that only the tests call.

Exhaustive matroid search is the oracle for the greedy approximation floors,
and the quadrature divergence is the oracle for the closed-form Gaussian
divergence. Where a fast path replaced a direct routine, the direct routine
is kept here as its oracle: the einsum form of the mixture density and its
log-gradient, footprint prices integrated over each clipped footprint
polygon, the edge-by-edge loop that projected stray points onto a polygon,
and the one-plane clip that built a polygon after every cut, with its
``HalfPlane``. Voronoi cell masses as a discrete measure have no caller in a
pipeline either. None of these runs in a pipeline, so they live here and not
in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from coverkit.coverage import KIND_VORONOI, build_partition, make_agents
from coverkit.density import (DensityField, DiscreteMeasure, GmmDensity, cell_moments,
                              polygon_quadrature)
from coverkit.errors import CoverkitError
from coverkit.geometry import EPS_GEO, ConvexPolygon, intersect

_FLOOR_REL = 1e-12
SEARCH_CAP = 1_000_000


class SupportViolation(CoverkitError):
    """KL divergence requested against a density that vanishes on significant mass."""


class SearchSpaceTooLarge(CoverkitError):
    """Brute-force enumeration would exceed the configured subset budget."""


# ------------------------------------------------------------- quadrature

def integrate(fn, poly: ConvexPolygon, levels: int = 2) -> float:
    """Integral of a vectorized scalar function over a polygon."""
    pts, w = polygon_quadrature(poly, levels)
    return float(w @ np.asarray(fn(pts), dtype=float))


def floor_value(phi: DensityField) -> float:
    """Density floor used when phi sits in a KL denominator."""
    pts, _ = polygon_quadrature(phi.workspace, 3)
    return _FLOOR_REL * float(np.max(phi.eval(pts)))


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
    floor = floor_value(phi)
    starved = fv < floor
    if float(np.sum(w[starved] * pv[starved])) > 1e-6:
        raise SupportViolation(
            "phi vanishes on a region holding significant psi mass")
    live = pv > 0.0
    ratio = pv[live] / np.maximum(fv[live], floor)
    return float(np.sum(w[live] * pv[live] * np.log(ratio)))


# ------------------------------------------------------------- fast paths

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
    dens = einsum_component_densities(phi, pts)
    d = phi.means[None, :, :] - pts[:, None, :]
    pulls = np.einsum("jde,nje->njd", phi._inv, d)
    return (dens[:, :, None] * pulls).sum(axis=1) / dens.sum(axis=1)[:, None]


def polygon_footprint_cost(phi: DensityField, model, poi, levels: int = 2):
    """Footprint price by quadrature over every footprint clipped to the workspace."""
    center = np.asarray(poi, dtype=float).reshape(2)
    thetas = model.orientations[:1] if model.symmetric else model.orientations
    polys = [intersect(model.footprint(center, theta), phi.workspace) for theta in thetas]
    costs = cell_moments(phi, polys, np.broadcast_to(center, (len(polys), 2)), levels,
                         getattr(model, "falloff", None))[2]
    best = int(np.argmin(costs))
    return float(costs[best]), thetas[best]


def voronoi_measure(phi: DensityField, positions, levels: int = 2) -> DiscreteMeasure:
    """Atoms at the given sites weighted by their Voronoi cell masses."""
    part = build_partition(phi, make_agents(positions), KIND_VORONOI, levels)
    return DiscreteMeasure(np.atleast_2d(np.asarray(positions, dtype=float)),
                           part.masses)


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


def clip_planes(poly: ConvexPolygon, normals, offsets) -> ConvexPolygon | None:
    """Clip by a stack of unit half-planes, one ``one_plane_clip`` call each."""
    for n, c in zip(normals, offsets):
        poly = one_plane_clip(poly, HalfPlane(np.array(n, dtype=float), float(c)))
    return poly
