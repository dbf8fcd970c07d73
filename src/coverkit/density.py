"""Priority densities over a convex workspace.

A DensityField wraps one backing (uniform, grid/image, or Gaussian mixture),
renormalized so the workspace integral is 1: smooth backings through the
toolkit quadrature, rasters exactly through pixel overlap areas.
Integration uses a fixed symmetric degree-6 triangle rule with two uniform
refinement levels by default: deterministic, cheap, and accurate enough for
the cell sizes produced by the descent loops (tests carry dense-grid oracles).

``cell_moments`` is the one place where polygon quadrature nodes meet
``DensityField.eval``: every per-cell mass, centroid and locational cost in
the toolkit (Lloyd cells, equitable weights, footprint prices) comes from it.
``spd_cholesky`` is the one covariance check, and ``write_csv`` the one
artifact CSV writer, next to the CSV loaders.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvalOutsideSupport, NoConvergence
# clip is not called here, but coverbench/tracing.py patches it in this module
from .geometry import EPS_GEO, ConvexPolygon, clip, intersect  # noqa: F401

MASS_EPS = 1e-12
_FLOOR_REL = 1e-12
_ACCEPT_FLOOR = 1e-3  # see DensityField._sample_rejection
_PROBE_PROPOSALS = 10_000
_SYMMETRY_REL = 1e-12  # see spd_cholesky

# Symmetric degree-6 rule on the triangle: 12 points as barycentric triples,
# weights normalized to sum to 1 (multiply by the triangle area to integrate).
_RULE_GROUPS = (
    (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
    (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
)
_RULE_6PERM = (0.082851075618374, (0.053145049844817, 0.310352451033784, 0.636502499121399))


def _build_rule():
    bary, weights = [], []
    for w, (a, b, _) in _RULE_GROUPS:
        for perm in ((a, b, b), (b, a, b), (b, b, a)):
            bary.append(perm)
            weights.append(w)
    w, (a, b, c) = _RULE_6PERM
    for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        bary.append(perm)
        weights.append(w)
    return np.array(bary), np.array(weights)


RULE_BARY, RULE_WEIGHTS = _build_rule()


def _subdivide(tris: np.ndarray) -> np.ndarray:
    """Split each triangle into 4 congruent children (orientation preserved)."""
    m01 = 0.5 * (tris[:, 0] + tris[:, 1])
    m12 = 0.5 * (tris[:, 1] + tris[:, 2])
    m20 = 0.5 * (tris[:, 2] + tris[:, 0])
    out = np.concatenate([
        np.stack([tris[:, 0], m01, m20], axis=1),
        np.stack([m01, tris[:, 1], m12], axis=1),
        np.stack([m20, m12, tris[:, 2]], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return out


def triangulate_fan(poly: ConvexPolygon) -> np.ndarray:
    """Fan triangulation of a convex polygon from its area centroid, (T, 3, 2)."""
    v = poly.vertices
    c = poly.centroid
    nxt = np.roll(v, -1, axis=0)
    return np.stack([v, nxt, np.broadcast_to(c, v.shape)], axis=1)


def polygon_quadrature(poly: ConvexPolygon, levels: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights over a polygon; weights sum to its area."""
    tris = triangulate_fan(poly)
    for _ in range(levels):
        tris = _subdivide(tris)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = np.einsum("rb,tbd->trd", RULE_BARY, tris).reshape(-1, 2)
    w = (areas[:, None] * RULE_WEIGHTS[None, :]).reshape(-1)
    return pts, w


def integrate(fn, poly: ConvexPolygon, levels: int = 2) -> float:
    """Integral of a vectorized scalar function over a polygon."""
    pts, w = polygon_quadrature(poly, levels)
    return float(w @ np.asarray(fn(pts), dtype=float))


@dataclass
class DiscreteMeasure:
    """Weighted point set with weights normalized to sum to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(self.points):
            raise ValueError("one weight per point required")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.weights = w / total

    def __len__(self):
        return len(self.points)


class DensityField:
    """Base class: normalized density over a convex workspace.

    eval() is vectorized over (n, 2) arrays and returns 0 outside the workspace.
    """

    def __init__(self, workspace: ConvexPolygon):
        self.workspace = workspace
        self._norm = 1.0
        self._floor = None

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _normalize(self, levels: int = 2) -> None:
        pts, w = polygon_quadrature(self.workspace, levels)
        total = float(w @ self._raw(pts))
        if total <= 0:
            raise ValueError("density integrates to zero over the workspace")
        self._norm = 1.0 / total

    def eval(self, q) -> np.ndarray | float:
        q = np.asarray(q, dtype=float)
        single = q.ndim == 1
        pts = q[None, :] if single else q
        vals = self._norm * self._raw(pts)
        vals = np.where(self.workspace.contains(pts), vals, 0.0)
        return float(vals[0]) if single else vals

    def grad_log(self, q) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> np.ndarray:
        raise NotImplementedError

    def floor_value(self) -> float:
        """Density floor used when this field sits in a KL denominator."""
        if self._floor is None:
            pts, _ = polygon_quadrature(self.workspace, 3)
            self._floor = _FLOOR_REL * float(np.max(self._norm * self._raw(pts)))
        return self._floor

    def _sample_rejection(self, n, rng, propose):
        """Draw n workspace points given a batch proposal function.

        Raises NoConvergence when the acceptance rate is below _ACCEPT_FLOOR
        after at least _PROBE_PROPOSALS proposals, so it never proposes more
        than max(_PROBE_PROPOSALS, n / _ACCEPT_FLOOR) points plus one batch.
        The check only counts, so the draws of a run that succeeds do not change.
        """
        chunks, got, tried = [], 0, 0
        while got < n:
            if tried >= _PROBE_PROPOSALS and got < _ACCEPT_FLOOR * tried:
                raise NoConvergence(
                    f"rejection sampling kept {got} of {tried} proposals; the "
                    "density puts almost no mass inside the workspace")
            pts = propose(max(n - got, 16))
            tried += len(pts)
            keep = self.workspace.contains(pts)
            pts = pts[keep]
            chunks.append(pts)
            got += len(pts)
        return np.concatenate(chunks)[:n]


class UniformDensity(DensityField):
    """Constant density 1/area(W) on the workspace."""

    def __init__(self, workspace: ConvexPolygon):
        super().__init__(workspace)
        self._normalize()

    def _raw(self, pts):
        return np.ones(len(pts))

    def grad_log(self, q):
        q = np.asarray(q, dtype=float)
        if not np.all(self.workspace.contains(np.atleast_2d(q))):
            raise EvalOutsideSupport("uniform density vanishes outside the workspace")
        return np.zeros_like(q)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        xmin, xmax, ymin, ymax = self.workspace.bbox

        def propose(m):
            return rng.uniform([xmin, ymin], [xmax, ymax], size=(m, 2))

        return self._sample_rejection(n, rng, propose)


class GmmDensity(DensityField):
    """Gaussian mixture density restricted to the workspace."""

    def __init__(self, workspace: ConvexPolygon, weights, means, covariances):
        super().__init__(workspace)
        w = np.asarray(weights, dtype=float)
        if (w <= 0).any():
            raise ValueError("mixture weights must be positive")
        self.weights = w / w.sum()
        self.means = np.atleast_2d(np.asarray(means, dtype=float))
        covs = np.asarray(covariances, dtype=float).reshape(-1, 2, 2)
        if not (len(self.weights) == len(self.means) == len(covs)):
            raise ValueError("weights, means, covariances must have equal length")
        self.covariances = covs
        self._chol = np.stack([spd_cholesky(c) for c in covs])
        self._inv = np.stack([np.linalg.inv(c) for c in covs])
        self._logdet = np.array([2.0 * np.log(np.diag(L)).sum() for L in self._chol])
        self._normalize()

    def _component_densities(self, pts):
        d = pts[:, None, :] - self.means[None, :, :]  # (n, J, 2)
        maha = np.einsum("njd,jde,nje->nj", d, self._inv, d)
        log_n = -0.5 * (maha + self._logdet[None, :]) - np.log(2.0 * np.pi)
        return self.weights[None, :] * np.exp(log_n)

    def _raw(self, pts):
        return self._component_densities(pts).sum(axis=1)

    def grad_log(self, q):
        q = np.asarray(q, dtype=float)
        single = q.ndim == 1
        pts = q[None, :] if single else q
        dens = self._component_densities(pts)
        total = dens.sum(axis=1)
        if (total < 1e-300).any():
            raise EvalOutsideSupport("mixture density underflows at a query point")
        d = self.means[None, :, :] - pts[:, None, :]
        pulls = np.einsum("jde,nje->njd", self._inv, d)
        g = (dens[:, :, None] * pulls).sum(axis=1) / total[:, None]
        return g[0] if single else g

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)

        def propose(m):
            comp = rng.choice(len(self.weights), size=m, p=self.weights)
            z = rng.standard_normal((m, 2))
            return self.means[comp] + np.einsum("nde,ne->nd", self._chol[comp], z)

        return self._sample_rejection(n, rng, propose)


class GridDensity(DensityField):
    """Piecewise-constant density on a raster over the workspace bounding box.

    Row 0 of the value array maps to the TOP of the workspace (image convention).
    """

    def __init__(self, workspace: ConvexPolygon, values, bbox=None):
        super().__init__(workspace)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("grid values must be a 2-d array")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        if (vals < 0).any():
            raise ValueError("grid values must be nonnegative")
        self.values = vals
        self.bbox = tuple(bbox) if bbox is not None else workspace.bbox
        self.ny, self.nx = vals.shape
        xmin, xmax, ymin, ymax = self.bbox
        wx0, wx1, wy0, wy1 = workspace.bbox
        if wx0 < xmin - EPS_GEO or wx1 > xmax + EPS_GEO or wy0 < ymin - EPS_GEO or wy1 > ymax + EPS_GEO:
            raise ValueError("grid bbox must cover the workspace")
        self.dx = (xmax - xmin) / self.nx
        self.dy = (ymax - ymin) / self.ny
        self._normalize_raster()

    def _normalize_raster(self):
        """Exact mass over W: full pixel areas in the bulk, clipped on the boundary.

        The triangle rule undersamples at pixel discontinuities, so piecewise
        constants get an exact treatment instead.
        """
        xmin, xmax, _, ymax = self.bbox
        xs = xmin + self.dx * np.arange(self.nx + 1)
        ys = ymax - self.dy * np.arange(self.ny + 1)
        gx, gy = np.meshgrid(xs, ys)
        corners = np.stack([gx.ravel(), gy.ravel()], axis=1)
        inside = self.workspace.contains(corners).reshape(self.ny + 1, self.nx + 1)
        full = inside[:-1, :-1] & inside[:-1, 1:] & inside[1:, :-1] & inside[1:, 1:]
        areas = np.where(full, self.dx * self.dy, 0.0)
        for iy, ix in zip(*np.nonzero(~full)):
            x0, x1 = xs[ix], xs[ix + 1]
            y0, y1 = ys[iy + 1], ys[iy]
            pix = intersect(ConvexPolygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]),
                            self.workspace)
            if pix is not None:
                areas[iy, ix] = pix.area
        total = float((self.values * areas).sum())
        if total <= 0:
            raise ValueError("density integrates to zero over the workspace")
        self._norm = 1.0 / total

    def _indices(self, pts):
        xmin, _, _, ymax = self.bbox
        ix = np.clip(((pts[:, 0] - xmin) / self.dx).astype(int), 0, self.nx - 1)
        iy = np.clip(((ymax - pts[:, 1]) / self.dy).astype(int), 0, self.ny - 1)
        return ix, iy

    def _raw(self, pts):
        ix, iy = self._indices(pts)
        return self.values[iy, ix]

    def pixel_center(self, ix, iy):
        xmin, _, _, ymax = self.bbox
        return np.stack([xmin + (np.asarray(ix) + 0.5) * self.dx,
                         ymax - (np.asarray(iy) + 0.5) * self.dy], axis=-1)

    def grad_log(self, q):
        """Central difference with step = one grid cell, at the nearest cell center."""
        q = np.asarray(q, dtype=float)
        single = q.ndim == 1
        pts = q[None, :] if single else q
        ix, iy = self._indices(pts)
        mid = self.values[iy, ix]
        if (mid < 1e-300).any():
            raise EvalOutsideSupport("grid density vanishes at a query point")
        ixp, ixm = np.minimum(ix + 1, self.nx - 1), np.maximum(ix - 1, 0)
        iyp, iym = np.minimum(iy + 1, self.ny - 1), np.maximum(iy - 1, 0)
        gx = (self.values[iy, ixp] - self.values[iy, ixm]) / ((ixp - ixm) * self.dx * mid)
        # row index grows downward, so +1 in iy is -dy in y
        gy = (self.values[iym, ix] - self.values[iyp, ix]) / ((iyp - iym) * self.dy * mid)
        g = np.stack([gx, gy], axis=-1)
        return g[0] if single else g

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        p = self.values.ravel()
        p = p / p.sum()
        xmin, _, _, ymax = self.bbox

        def propose(m):
            flat = rng.choice(self.values.size, size=m, p=p)
            iy, ix = np.divmod(flat, self.nx)
            jit = rng.random((m, 2))
            x = xmin + (ix + jit[:, 0]) * self.dx
            y = ymax - (iy + jit[:, 1]) * self.dy
            return np.stack([x, y], axis=1)

        return self._sample_rejection(n, rng, propose)


def read_pgm(path) -> np.ndarray:
    """Parse a PGM image (P2 ASCII or P5 binary) into a float array."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file: {path}")

    # header tokens (width, height, maxval), skipping '#' comments
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(int(data[start:pos]))
    width, height, maxval = tokens
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        img = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    else:
        img = np.array(data[pos:].split(), dtype=float)[: width * height]
    return img.reshape(height, width).astype(float)


def from_pgm(path, workspace: ConvexPolygon) -> GridDensity:
    """Image-backed density: pixel value = unnormalized density, row 0 = top."""
    return GridDensity(workspace, read_pgm(path))


def load_grid_csv(path, workspace: ConvexPolygon) -> GridDensity:
    """Grid-backed density from a CSV of values (rows top to bottom)."""
    return GridDensity(workspace, np.loadtxt(path, delimiter=",", ndmin=2))


def load_points_csv(path) -> np.ndarray:
    """Point cloud from a CSV with one x,y pair per line."""
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.shape[1] != 2:
        raise ValueError("point cloud CSV must have two columns")
    return pts


def write_csv(path, header: str, rows) -> None:
    """Write an artifact CSV: floats as their shortest round-trip repr, the rest by str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v)!r}" if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


def spd_cholesky(cov) -> np.ndarray:
    """Lower Cholesky factor of a covariance; ValueError unless it is finite,
    symmetric to _SYMMETRY_REL relative and positive definite.

    np.linalg.cholesky reads only the lower triangle, so it cannot see asymmetry.
    """
    c = np.asarray(cov, dtype=float)
    scale = max(1.0, float(np.abs(c).max()))
    if not np.isfinite(c).all() or np.abs(c - c.T).max() > _SYMMETRY_REL * scale:
        raise ValueError("covariance must be symmetric positive definite")
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be symmetric positive definite") from None


def cell_moments(phi: DensityField, polys, centers, levels: int = 2, falloff=None):
    """Mass, centroid and falloff cost of each polygon under phi.

    The cost of polygon i integrates falloff(|q - centers[i]|) phi(q) over it;
    the default falloff is the squared distance, which makes the cost the
    second moment about the generator. Returns (masses, centroids, costs) as
    arrays aligned with polys. A None polygon has zero mass and cost. The
    centroid repeats the center when the mass is below MASS_EPS.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    masses = np.zeros(len(polys))
    centroids = centers.copy()
    costs = np.zeros(len(polys))
    for i, poly in enumerate(polys):
        if poly is None:
            continue
        pts, w = polygon_quadrature(poly, levels)
        wv = w * np.asarray(phi.eval(pts), dtype=float)
        mass = float(wv.sum())
        if falloff is None:
            kernel = ((pts - centers[i]) ** 2).sum(axis=1)
        else:
            kernel = falloff(np.linalg.norm(pts - centers[i], axis=1))
        costs[i] = wv @ kernel
        masses[i] = max(mass, 0.0)
        if mass >= MASS_EPS:
            centroids[i] = wv @ pts / mass
    return masses, centroids, costs


def cell_mass_centroid(phi: DensityField, cell: ConvexPolygon,
                       levels: int = 2) -> tuple[float, np.ndarray | None]:
    """Mass and centroid of a cell under phi; centroid is None below the mass floor."""
    masses, centroids, _ = cell_moments(phi, [cell], np.zeros((1, 2)), levels)
    return float(masses[0]), centroids[0] if masses[0] >= MASS_EPS else None


# 3-point Gauss-Legendre on [-1/2, 1/2], tensorized per raster cell
_GL_X = np.array([-np.sqrt(3.0 / 5.0) / 2.0, 0.0, np.sqrt(3.0 / 5.0) / 2.0])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


def discretize(phi: DensityField, nx: int, ny: int) -> DiscreteMeasure:
    """Weighted point cloud on an nx-by-ny grid of cell centers over bbox(W)."""
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    xmin, xmax, ymin, ymax = phi.workspace.bbox
    dx, dy = (xmax - xmin) / nx, (ymax - ymin) / ny
    cx = xmin + (np.arange(nx) + 0.5) * dx
    cy = ymin + (np.arange(ny) + 0.5) * dy
    gx, gy = np.meshgrid(cx, cy)
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ox, oy = np.meshgrid(_GL_X * dx, _GL_X * dy)
    offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
    w9 = np.outer(_GL_W, _GL_W).ravel()
    pts = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    vals = np.asarray(phi.eval(pts), dtype=float).reshape(len(centers), 9)
    masses = (vals @ w9) * dx * dy
    masses = np.maximum(masses, 0.0)
    return DiscreteMeasure(centers, masses)
