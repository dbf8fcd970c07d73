"""Priority densities over a convex workspace.

A DensityField wraps one backing (uniform, grid/image, or Gaussian mixture),
renormalized so the workspace integral is 1. Integration uses a fixed
symmetric degree-6 triangle rule with two uniform refinement levels by
default: deterministic, cheap, and accurate enough for the cell sizes
produced by the descent loops (tests carry dense-grid oracles). A raster's
polygons are integrated exactly instead (``GridDensity._moments``), and
``levels`` does not apply to them.

``polygon_quadrature`` builds the rules for a (P, V, 2) stack of polygons at
once: each is fanned from its area centroid and subdivided along a leading
polygon axis, so a polygon's nodes come out in the order they would alone,
and one polygon is the stack of P = 1. Rules are built one coordinate at a
time: the fan's corners are contiguous (P, T) arrays of x and of y through
subdivision, areas and node placement, which write into one (P, T, 12, 2)
node array. The same steps broadcast over a trailing axis of length 2 give
the same bits two to three times slower.

``cell_moments`` is the one place where polygons meet the density: every
per-cell mass, centroid and locational cost in the toolkit (Lloyd cells,
equitable weights, footprint prices) comes from it, and so does the
workspace mass that ``DensityField.__init__`` normalizes by. It groups
its polygons by vertex count and builds their rules stacked, or takes ready
ones: ``assign`` builds one rule per level for a reference footprint and
hands over its affine image for every footprint that the workspace does not
clip. Its nodes lie in the workspace by construction, so each slab of about
``EVAL_NODES`` nodes takes one unmasked evaluation (no point-in-polygon
test, unlike the public ``eval``) and one row-wise reduction to masses,
first moments about each centre and costs; a raster's polygons get the same
three from ``GridDensity._moments``. The Gaussian mixture evaluates one
component at a time, each as a contiguous row of n values computed in place
into reused buffers, and adds the rows in order.
``spd_cholesky`` is the one covariance check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvalOutsideSupport, InvalidDensity, NoConvergence
from .geometry import (EVAL_NODES, ConvexPolygon, _float_array, _grid_centers, check_count,
                       check_points, check_weights, ring_moments)
# clip is not called here, but coverbench/tracing.py patches it in this module
from .geometry import clip  # noqa: F401

MASS_EPS = 1e-12
_ACCEPT_FLOOR = 1e-3  # see DensityField.sample
_PROBE_PROPOSALS = 10_000
_SYMMETRY_REL = 1e-12  # see spd_cholesky
_NOT_SPD = "covariance must be symmetric positive definite"
_LOG_2PI = float(np.log(2.0 * np.pi))

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


def _subdivide(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Split each triangle (a, b, c) of a (P, T) stack of one coordinate into
    4 congruent children (orientation preserved), the children of one
    polygon in its row: [a, m01, m20], [m01, b, m12], [m20, m12, c] and
    [m01, m12, m20], each block T triangles long."""
    m01 = 0.5 * (a + b)
    m12 = 0.5 * (b + c)
    m20 = 0.5 * (c + a)
    return (np.concatenate([a, m01, m20, m01], axis=1),
            np.concatenate([m01, b, m12, m12], axis=1),
            np.concatenate([m20, m12, c, m20], axis=1))


# Quadrature cuts each of a polygon's fan triangles into 4**levels with 12
# nodes each: at 6, one 32-sided footprint has 1.6M nodes, and pricing it on a
# two-component mixture peaks 240 MB above baseline (1.3 s on a 2-CPU host).
# Every further level takes four times the memory and time, so each public
# entry that takes levels refuses more than this.
MAX_LEVELS = 6


def polygon_quadrature(rings, levels: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature over a (P, V, 2) stack of counter-clockwise vertex rings.

    Each polygon is fanned from its area centroid, every triangle split into
    4 ``levels`` times, and the degree-6 rule placed on each. Returns (P, n, 2)
    nodes and (P, n) weights, n = 12 V 4**levels, and each row's weights sum
    to its polygon's area. One polygon is the stack of P = 1. Every step is
    elementwise or a reduction along a row, so a polygon's nodes and weights
    do not depend on what else is in the stack.
    """
    v = np.asarray(rings, dtype=float)
    c = ring_moments(v)[1]
    nxt = np.concatenate((v[:, 1:], v[:, :1]), axis=1)
    corners = [(v[..., k], nxt[..., k], np.broadcast_to(c[:, k, None], v.shape[:2]))
               for k in range(2)]
    for _ in range(levels):
        corners = [_subdivide(*abc) for abc in corners]
    (ax, bx, cx), (ay, by, cy) = corners
    areas = 0.5 * np.abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    pts = np.empty((*areas.shape, len(RULE_BARY), 2))
    # RULE_BARY @ (a, b, c) with the products summed left to right; a BLAS
    # product rounds nodes differently, which moves every normalized density
    b0, b1, b2 = RULE_BARY.T
    for k, (a, b, c) in enumerate(corners):
        pts[..., k] = (b0 * a[..., None] + b1 * b[..., None]) + b2 * c[..., None]
    w = areas[..., None] * RULE_WEIGHTS
    return pts.reshape(len(v), -1, 2), w.reshape(len(v), -1)


@dataclass
class DiscreteMeasure:
    """Weighted point set with weights normalized to sum to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = check_points(self.points, error=InvalidDensity)
        self.weights = check_weights(self.weights, len(self.points), InvalidDensity)

    def __len__(self):
        return len(self.points)


class DensityField:
    """Base class: normalized density over a convex workspace.

    eval() is vectorized over (n, 2) arrays and returns 0 outside the workspace.
    """

    def __init__(self, workspace: ConvexPolygon):
        """Scale to unit mass over the workspace, integrated by ``cell_moments``
        once a subclass has set up the state its ``_raw`` reads; InvalidDensity
        when the mass is not positive or so small that its reciprocal overflows."""
        self.workspace = workspace
        self._norm = 1.0
        total = float(cell_moments(self, [workspace], np.zeros((1, 2)))[0][0])
        if not (total > 0 and math.isfinite(1.0 / total)):
            raise InvalidDensity("density integrates to zero over the workspace")
        self._norm = 1.0 / total

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _query(q) -> tuple[np.ndarray, bool]:
        """Query points as check_points rows, and whether q was one flat point."""
        return check_points(q, "query points"), np.ndim(q) == 1

    def eval(self, q) -> np.ndarray | float:
        pts, single = self._query(q)
        vals = self._norm * self._raw(pts)
        vals = np.where(self.workspace.contains(pts), vals, 0.0)
        return float(vals[0]) if single else vals

    def grad_log(self, q) -> np.ndarray:
        raise NotImplementedError

    def _propose(self, rng: np.random.Generator, m: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n workspace points by rejection from the backing's proposals,
        seeded by seed; n >= 1 and seed >= 0 are check_count integers.

        Raises NoConvergence when the acceptance rate is below _ACCEPT_FLOOR
        after at least _PROBE_PROPOSALS proposals, so it never proposes more
        than max(_PROBE_PROPOSALS, n / _ACCEPT_FLOOR) points plus one batch.
        The check only counts, so the draws of a run that succeeds do not change.
        """
        n = check_count(n, "n")
        rng = np.random.default_rng(check_count(seed, "seed", 0))
        chunks, got, tried = [], 0, 0
        while got < n:
            if tried >= _PROBE_PROPOSALS and got < _ACCEPT_FLOOR * tried:
                raise NoConvergence(
                    f"rejection sampling kept {got} of {tried} proposals; the "
                    "density puts almost no mass inside the workspace")
            pts = self._propose(rng, max(n - got, 16))
            tried += len(pts)
            keep = self.workspace.contains(pts)
            pts = pts[keep]
            chunks.append(pts)
            got += len(pts)
        return np.concatenate(chunks)[:n]


class UniformDensity(DensityField):
    """Constant density 1/area(W) on the workspace."""

    def _raw(self, pts):
        return np.ones(len(pts))

    def grad_log(self, q):
        pts, single = self._query(q)
        if not self.workspace.contains(pts).all():
            raise EvalOutsideSupport("uniform density vanishes outside the workspace")
        return np.zeros(2) if single else np.zeros_like(pts)

    def _propose(self, rng, m):
        xmin, xmax, ymin, ymax = self.workspace.bbox
        return rng.uniform([xmin, ymin], [xmax, ymax], size=(m, 2))


class GmmDensity(DensityField):
    """Gaussian mixture density restricted to the workspace."""

    def __init__(self, workspace: ConvexPolygon, weights, means, covariances):
        self.weights = check_weights(weights, error=InvalidDensity)
        if not (self.weights > 0).all():
            raise InvalidDensity("mixture weights must be positive")
        self.means = check_points(means, "mixture means", InvalidDensity)
        covs = _float_array(covariances, InvalidDensity, _NOT_SPD)
        if not (len(self.weights),) == (len(self.means),) == covs.shape[:1]:
            raise InvalidDensity("weights, means, covariances must have equal length")
        self.covariances = covs
        self._chol = np.stack([spd_cholesky(c) for c in covs])
        self._inv = np.stack([np.linalg.inv(c) for c in covs])
        self._logdet = np.array([2.0 * np.log(np.diag(L)).sum() for L in self._chol])
        super().__init__(workspace)

    def _components(self, pts):
        """Each component's weighted density at (n, 2) points as one row of n
        values, with the offsets dx, dy of the points from its mean and its
        inverse covariance.

        Rows come one component at a time, and every row is computed in place
        into the same four buffers: a row and its offsets hold only until the
        next one is drawn. Fresh temporaries cost time on every call: on a
        2-CPU Linux host, (J, n) ones made 8192 nodes of a 4-component mixture
        2.5 times slower (1.1 ms against 0.45 ms), and the 18 fresh rows of
        each component made 12,288 nodes of a 2-component mixture about 1.5
        times slower than these buffers."""
        x, y = pts[:, 0], pts[:, 1]
        dx, dy, row, term = np.empty((4, len(pts)))
        for (mx, my), inv, logdet, w in zip(self.means.tolist(), self._inv.tolist(),
                                            self._logdet.tolist(), self.weights.tolist()):
            (a, b), (c, d) = inv
            np.subtract(x, mx, out=dx)
            np.subtract(y, my, out=dy)
            # d^T inv d term by term, in the order einsum("njd,jde,nje") sums it:
            # dx*a*dx + dx*b*dy + dy*c*dx + dy*d*dy, each product left to right
            np.multiply(dx, a, out=row)
            row *= dx
            for u, coef, v in ((dx, b, dy), (dy, c, dx), (dy, d, dy)):
                np.multiply(u, coef, out=term)
                term *= v
                row += term
            # w * exp(-0.5 * (maha + logdet) - log 2 pi)
            row += logdet
            row *= -0.5
            row -= _LOG_2PI
            np.exp(row, out=row)
            row *= w
            yield row, dx, dy, inv

    def _raw(self, pts):
        # rows added in order: below 8 components these are the bits of
        # numpy's sum along a short contiguous axis
        rows = (row for row, *_ in self._components(pts))
        total = next(rows).copy()
        for row in rows:
            total += row
        return total

    def grad_log(self, q):
        pts, single = self._query(q)
        # each density times inv (mean - q), in the order einsum("jde,nje->njd")
        # sums it; the columns are added in component order
        terms = ((dens, dens * (a * -dx + b * -dy), dens * (c * -dx + d * -dy))
                 for dens, dx, dy, ((a, b), (c, d)) in self._components(pts))
        total, gx, gy = next(terms)
        total = total.copy()
        for dens, px, py in terms:
            total += dens
            gx += px
            gy += py
        if (total < 1e-300).any():
            raise EvalOutsideSupport("mixture density underflows at a query point")
        g = np.stack([gx / total, gy / total], axis=1)
        return g[0] if single else g

    def _propose(self, rng, m):
        comp = rng.choice(len(self.weights), size=m, p=self.weights)
        z = rng.standard_normal((m, 2))
        return self.means[comp] + np.einsum("nde,ne->nd", self._chol[comp], z)


class GridDensity(DensityField):
    """Piecewise-constant density on a raster over the workspace bounding box.

    Row 0 of the value array maps to the TOP of the workspace (image convention).
    """

    def __init__(self, workspace: ConvexPolygon, values):
        vals = _float_array(values, InvalidDensity, "grid values must be finite in a 2-d array")
        if vals.ndim != 2 or vals.size == 0:
            raise InvalidDensity("grid values must be a 2-d array")
        if not np.isfinite(vals).all():
            raise InvalidDensity("grid values must be finite")
        if (vals < 0).any():
            raise InvalidDensity("grid values must be nonnegative")
        self.values = vals
        self.bbox = workspace.bbox
        self.ny, self.nx = vals.shape
        xmin, xmax, ymin, ymax = self.bbox
        self.dx = (xmax - xmin) / self.nx
        self.dy = (ymax - ymin) / self.ny
        # row prefixes of the values times pixel k's integrals of 1, 2s and 3s^2, rows
        # bottom up: integers for an integer image, so their differences are exact
        self._up, k = vals[::-1], np.arange(self.nx, dtype=float)
        terms = self._up * np.stack([np.ones(self.nx), 2 * k + 1, 3 * k * (k + 1) + 1])[:, None]
        self._prefix = np.concatenate((np.zeros((3, self.ny, 1)), terms.cumsum(axis=2)), axis=2)
        super().__init__(workspace)

    def _moments(self, rings: np.ndarray, origins: np.ndarray) -> np.ndarray:
        """Exact integrals of the raw values times (1, x, y, x^2, y^2) over a (P, V, 2) stack
        of counter-clockwise rings, x and y from each ring's row of (P, 2) origins, as (P, 5)
        rows: by Green's theorem, those of F dy, G dy, y F dy, H dy and y^2 F dy around the
        ring, F, G and H integrating phi, s phi and s^2 phi along a row (a summed-area table,
        Crow 1984). Edges are cut at pixel lines; between them the integrands are cubic or
        less, so Simpson's rule is exact. Each ring works in pixel units from the pixel
        corner at its lower left, so no digits go to the mass left of it."""
        scale, corner = np.array([self.dx, self.dy]), np.array(self.bbox[::2])
        a = (rings - corner) / scale
        ref = np.minimum(np.maximum(np.floor(a.min(axis=1)), 0.0), (self.nx - 1, self.ny - 1))
        a -= ref[:, None]
        a, b = a.reshape(-1, 2), np.roll(a, -1, axis=1).reshape(-1, 2)
        # each edge's ends and its crossings of pixel lines, as (edge, t)
        es, ts = [np.arange(len(a))] * 2, [np.zeros(len(a)), np.ones(len(a))]
        for d in range(2):
            lo, hi = np.floor(np.minimum(a[:, d], b[:, d])), np.ceil(np.maximum(a[:, d], b[:, d]))
            count = np.maximum(hi - lo - 1.0, 0.0).astype(int)
            e = np.repeat(es[0], count)
            line = lo[e] + 1.0 + (np.arange(len(e)) - np.repeat(count.cumsum() - count, count))
            es.append(e)
            ts.append((line - a[e, d]) / (b[e, d] - a[e, d]))
        e, t = np.concatenate(es), np.concatenate(ts)
        order = np.lexsort((t, e))
        e, t = e[order], t[order]
        piece = e[1:] == e[:-1]
        e, t0, t1 = e[:-1][piece], t[:-1][piece], t[1:][piece]
        ring = e // rings.shape[1]
        # Simpson's points of each piece, its ends and midpoint, as (3, pieces) arrays
        pts = a[e] + np.stack((t0, 0.5 * (t0 + t1), t1))[..., None] * (b[e] - a[e])
        u, y = pts[..., 0], pts[..., 1]
        ri, rj = ref[ring].T.astype(int)
        i = np.minimum(np.maximum(np.floor(u[1]).astype(int) + ri, 0), self.nx - 1)
        j = np.minimum(np.maximum(np.floor(y[1]).astype(int) + rj, 0), self.ny - 1)
        # F, 2G and 3H at pixel i's left edge, from the ring's corner
        q0, q1, q2 = self._prefix[:, j, i] - self._prefix[:, j, ri]
        q1, q2 = q1 - 2 * ri * q0, q2 - 3 * ri * (q1 - ri * q0)
        val, k = self._up[j, i], i - ri
        s = u - k
        f = q0 + val * s
        terms = (f, q1 + val * s * (2 * k + s), y * f, q2 + val * s * (3 * k * (k + s) + s * s),
                 y * y * f)
        m, mx, my, mxx, myy = (np.bincount(ring, (g[0] + 4.0 * g[1] + g[2]) * (y[2] - y[0]) / 6.0,
                                           len(rings)) for g in terms)
        du, dv = ((origins - corner) / scale - ref).T
        return (self.dx * self.dy) * np.column_stack((
            m, self.dx * (mx / 2.0 - du * m), self.dy * (my - dv * m),
            self.dx ** 2 * (mxx / 3.0 - du * (mx - du * m)),
            self.dy ** 2 * (myy - dv * (2.0 * my - dv * m))))

    def _indices(self, pts):
        xmin, _, _, ymax = self.bbox
        ix = np.clip(((pts[:, 0] - xmin) / self.dx).astype(int), 0, self.nx - 1)
        iy = np.clip(((ymax - pts[:, 1]) / self.dy).astype(int), 0, self.ny - 1)
        return ix, iy

    def _raw(self, pts):
        ix, iy = self._indices(pts)
        return self.values[iy, ix]

    def grad_log(self, q):
        """Central difference with step = one grid cell, at the nearest cell center."""
        pts, single = self._query(q)
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

    def _propose(self, rng, m):
        p = self.values.ravel()
        p = p / p.sum()
        xmin, _, _, ymax = self.bbox
        flat = rng.choice(self.values.size, size=m, p=p)
        iy, ix = np.divmod(flat, self.nx)
        jit = rng.random((m, 2))
        x = xmin + (ix + jit[:, 0]) * self.dx
        y = ymax - (iy + jit[:, 1]) * self.dy
        return np.stack([x, y], axis=1)


def read_pgm(path) -> np.ndarray:
    """Parse a PGM image (P2 ASCII or P5 binary) into a float array."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise InvalidDensity(f"not a PGM file: {path}")

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


def spd_cholesky(cov) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 covariance; InvalidDensity unless it is
    2x2, finite, symmetric to _SYMMETRY_REL relative and positive definite.

    np.linalg.cholesky reads only the lower triangle, so it cannot see asymmetry.
    """
    c = _float_array(cov, InvalidDensity, _NOT_SPD)
    if c.shape != (2, 2):
        raise InvalidDensity(f"covariance must be a 2x2 array, not shape {c.shape}")
    scale = max(1.0, float(np.abs(c).max()))
    if not np.isfinite(c).all() or np.abs(c - c.T).max() > _SYMMETRY_REL * scale:
        raise InvalidDensity(_NOT_SPD)
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise InvalidDensity(_NOT_SPD) from None


def _rowwise(op, stack: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """op(stack[i, j], centers[i]) for a (P, N, 2) stack and (P, 2) centers.

    One coordinate at a time: broadcasting over the length-2 axis is about
    three times slower than two strided (P, N) passes, with the same bits.
    """
    out = np.empty_like(stack)
    for k in range(2):
        op(stack[..., k], centers[:, k, None], out=out[..., k])
    return out


def cell_moments(phi: DensityField, polys, centers, levels: int = 2):
    """Mass, centroid and locational cost of each polygon under phi.

    The cost of polygon i integrates |q - centers[i]|^2 phi(q) over it: the
    second moment about the generator. Returns (masses, centroids, costs) as
    arrays aligned with polys. A None polygon has zero mass and cost. The
    centroid repeats the center when the mass is below MASS_EPS.

    An entry may also be a ready quadrature rule (offsets, weights) about its
    center, nodes at center + offsets; footprint prices on a smooth density
    pass their affine-mapped reference rule this way.

    A raster's polygons are integrated exactly (``GridDensity._moments``) and
    ``levels`` does not apply to them; its ready rules are sampled as usual.
    Either way each entry yields its mass m, first moments S about its center
    and cost, and its centroid is center + S / m.

    Every entry must lie in phi's workspace W (to EPS_GEO): power cells and
    footprints clipped by W's edge planes (``clip``), or that no plane cuts,
    all do by construction. The density is therefore evaluated
    without the workspace mask of ``DensityField.eval``, which would keep
    every node; a polygon reaching past W would be priced as if phi went on
    beyond W. ``coverage.build_partition`` integrates only the power cells it
    builds itself.

    Entries are grouped by vertex count (polygons) or node count (rules).
    A raster's polygon group is one slab; other groups are handled in slabs
    of whole entries with about EVAL_NODES nodes: one stacked
    ``polygon_quadrature``, one density evaluation and one row-wise
    reduction per slab. Each row reduces as one polygon alone would.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    masses = np.zeros(len(polys))
    centroids = centers.copy()
    costs = np.zeros(len(polys))
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, poly in enumerate(polys):
        if poly is not None:
            ring = isinstance(poly, ConvexPolygon)
            groups.setdefault((ring, len(poly.vertices if ring else poly[1])), []).append(i)
    for (ring, size), members in groups.items():
        exact = ring and isinstance(phi, GridDensity)
        per_slab = (len(members) if exact else
                    max(1, EVAL_NODES // (12 * 4 ** levels * size if ring else size)))
        for start in range(0, len(members), per_slab):
            idx = np.asarray(members[start:start + per_slab])
            if ring:
                rings = np.stack([polys[i].vertices for i in idx])
            if exact:
                mom = phi._norm * phi._moments(rings, centers[idx])
                mass, first, cost = mom[:, 0], mom[:, 1:3], mom[:, 3] + mom[:, 4]
            else:
                if ring:
                    pts, w = polygon_quadrature(rings, levels)
                    offsets = _rowwise(np.subtract, pts, centers[idx])
                else:
                    offsets = np.stack([polys[i][0] for i in idx])
                    w = np.stack([polys[i][1] for i in idx])
                    pts = _rowwise(np.add, offsets, centers[idx])
                wv = w * (phi._norm * phi._raw(pts.reshape(-1, 2))).reshape(w.shape)
                # squared distances coordinate by coordinate: the bits of a sum over
                # the last axis, with no reduction over an axis of length 2
                ox, oy = offsets[..., 0], offsets[..., 1]
                kernel = ox * ox + oy * oy
                mass = wv.sum(axis=1)
                first = (wv[:, None, :] @ offsets)[:, 0, :]
                cost = (wv[:, None, :] @ kernel[:, :, None])[:, 0, 0]
            masses[idx], costs[idx] = np.maximum(mass, 0.0), cost
            heavy = mass >= MASS_EPS
            centroids[idx[heavy]] += first[heavy] / mass[heavy, None]
    return masses, centroids, costs


# 3-point Gauss-Legendre on [-1/2, 1/2], tensorized per raster cell
_GL_X = np.array([-np.sqrt(3.0 / 5.0) / 2.0, 0.0, np.sqrt(3.0 / 5.0) / 2.0])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


def discretize(phi: DensityField, nx: int, ny: int) -> DiscreteMeasure:
    """Weighted point cloud on an nx-by-ny grid of cell centers over bbox(W).

    Each cell's mass comes from a 3x3 Gauss-Legendre rule, so a density whose
    mass all lies between the nodes gives no mass at all: InvalidDensity.
    A raster's cell masses are sampled too: on swarm_portrait's 24 x 24 grid,
    4.1% of the mass (L1) lands in other cells than exact pixel overlaps put
    it. Exact overlaps wait for a change of their own: they raise that demo's
    final w2_sinkhorn by 17% (0.01856 to 0.02166, seeds 1, 7, 1001 and 4242).
    """
    check_count(nx, "nx", 2, error=InvalidDensity)
    check_count(ny, "ny", 2, error=InvalidDensity)
    centers, dx, dy = _grid_centers(phi.workspace, nx, ny)
    ox, oy = np.meshgrid(_GL_X * dx, _GL_X * dy)
    offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
    w9 = np.outer(_GL_W, _GL_W).ravel()
    pts = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    vals = np.asarray(phi.eval(pts), dtype=float).reshape(len(centers), 9)
    masses = (vals @ w9) * dx * dy
    masses = np.maximum(masses, 0.0)
    return DiscreteMeasure(centers, masses)
