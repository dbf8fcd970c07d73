"""Point-of-interest extraction: k-means, Gaussian-mixture EM, Stein descent.

All three routes are seed-deterministic. K-means and EM work on point
clouds; the Stein sampler works directly on a density field and spreads
its particles either by the usual median heuristic or at a fixed service
footprint scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.special import logsumexp

from .density import DensityField
from .geometry import ConvexPolygon, check_sites, project_into, separate

log = logging.getLogger(__name__)


def _as_points(data) -> np.ndarray:
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if len(pts) == 0:
        raise ValueError("point cloud is empty")
    return pts


@dataclass
class PoiSet:
    """Extracted points of interest plus a record of how they were made.

    ``provenance`` is a plain dict with at least a ``method`` key; the
    extraction routines add their own parameters (cluster count, mixture
    weights and covariances, particle bandwidth). When a workspace is
    supplied every point must lie inside it.
    """

    points: np.ndarray
    provenance: dict = field(default_factory=dict)
    workspace: ConvexPolygon | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must form an (n, 2) array")
        check_sites(self.points, self.workspace)

    def __len__(self):
        return len(self.points)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b, "sqeuclidean")


def _kmeans_pp(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread k initial centers by squared-distance-weighted sampling."""
    centers = np.empty((k, 2))
    centers[0] = pts[rng.integers(len(pts))]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(len(pts), p=d2 / total)
        else:
            idx = rng.integers(len(pts))
        centers[i] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(axis=1))
    return centers


@dataclass
class KMeansResult:
    pois: PoiSet
    labels: np.ndarray
    inertia: float
    inertia_trace: np.ndarray
    iterations: int


def kmeans(data, k: int, seed: int = 0, max_iters: int = 100,
           init_centers=None, workspace: ConvexPolygon | None = None) -> KMeansResult:
    """Lloyd's k-means with seeded k-means++ initialization.

    Runs assign/update sweeps until the labeling stops changing or the
    iteration cap is hit. An empty cluster is re-seeded at the point
    currently farthest from its own center (logged). ``init_centers``
    skips the k-means++ stage for warm starts.
    """
    pts = _as_points(data)
    if k < 1:
        raise ValueError("need at least one cluster")
    if len(pts) < k:
        raise ValueError(f"cannot fill {k} clusters from {len(pts)} points")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if init_centers is not None:
        centers = np.asarray(init_centers, dtype=float).copy()
        if centers.shape != (k, 2):
            raise ValueError(f"init_centers must have shape ({k}, 2)")
    else:
        rng = np.random.default_rng(seed)
        centers = _kmeans_pp(pts, k, rng)

    labels = np.full(len(pts), -1)
    trace = []
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = _sq_dists(pts, centers)
        new_labels = d2.argmin(axis=1)
        own = d2[np.arange(len(pts)), new_labels]
        trace.append(float(own.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
            else:
                worst = int(np.argmax(own))
                log.warning("empty cluster %d re-seeded at data point %d", j, worst)
                centers[j] = pts[worst]
                labels[worst] = j
                own[worst] = 0.0

    d2 = _sq_dists(pts, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(pts)), labels].sum())
    pois = PoiSet(centers, {"method": "kmeans", "k": k}, workspace)
    return KMeansResult(pois=pois, labels=labels, inertia=inertia,
                        inertia_trace=np.array(trace), iterations=iterations)


def _log_gauss(pts: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of a 2-d Gaussian at each point."""
    chol = np.linalg.cholesky(cov)
    diff = pts - mean
    z = np.linalg.solve(chol, diff.T)
    maha = (z ** 2).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (maha + logdet) - np.log(2.0 * np.pi)


@dataclass
class GmmFit:
    pois: PoiSet
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihoods: np.ndarray
    iterations: int


def gmm_em(data, n_components: int, seed: int = 0, max_iters: int = 200,
           reg: float = 1e-6, tol: float = 1e-8, init_means=None,
           workspace: ConvexPolygon | None = None) -> GmmFit:
    """Fit a Gaussian mixture by EM, initialized from k-means.

    Covariances carry a ``reg * I`` ridge throughout. The returned
    log-likelihood trace is non-decreasing up to float noise; iteration
    stops once the gain drops below ``tol`` or the cap is reached. A
    component whose responsibility mass collapses below 1e-10 is
    re-seeded at the worst-covered data point (logged).
    """
    pts = _as_points(data)
    n = len(pts)
    if n_components < 1:
        raise ValueError("need at least one component")
    if n < n_components:
        raise ValueError(f"cannot fit {n_components} components to {n} points")
    if reg <= 0.0:
        raise ValueError("covariance ridge must be positive")
    ridge = reg * np.eye(2)
    global_cov = np.cov(pts.T, bias=True).reshape(2, 2) + ridge

    if init_means is not None:
        means = np.asarray(init_means, dtype=float).copy()
        if means.shape != (n_components, 2):
            raise ValueError(f"init_means must have shape ({n_components}, 2)")
        weights = np.full(n_components, 1.0 / n_components)
        covs = np.repeat(global_cov[None, :, :], n_components, axis=0)
    else:
        warm = kmeans(pts, n_components, seed=seed, max_iters=50)
        means = warm.pois.points.copy()
        weights = np.empty(n_components)
        covs = np.empty((n_components, 2, 2))
        for j in range(n_components):
            mask = warm.labels == j
            weights[j] = max(mask.sum(), 1) / n
            if mask.sum() > 0:
                covs[j] = np.cov(pts[mask].T, bias=True).reshape(2, 2) + ridge
            else:
                covs[j] = global_cov
        weights = weights / weights.sum()

    trace = []
    iterations = 0
    for iterations in range(1, max_iters + 1):
        log_joint = np.empty((n, n_components))
        for j in range(n_components):
            log_joint[:, j] = np.log(weights[j]) + _log_gauss(pts, means[j], covs[j])
        log_norm = logsumexp(log_joint, axis=1)
        ll = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm[:, None])

        mass = resp.sum(axis=0)
        reseeded = False
        for j in range(n_components):
            if mass[j] < 1e-10:
                worst = int(np.argmin(log_norm))
                log.warning("degenerate component %d re-seeded at data point %d",
                            j, worst)
                means[j] = pts[worst]
                covs[j] = global_cov
                weights[j] = 1.0 / n_components
                reseeded = True
        if reseeded:
            weights = weights / weights.sum()
            trace.append(ll)
            continue

        weights = mass / n
        means = (resp.T @ pts) / mass[:, None]
        for j in range(n_components):
            diff = pts - means[j]
            covs[j] = (resp[:, j, None] * diff).T @ diff / mass[j] + ridge

        trace.append(ll)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            break

    pois = PoiSet(means, {"method": "gmm", "n_components": n_components,
                          "weights": weights.copy(), "covariances": covs.copy()},
                  workspace)
    return GmmFit(pois=pois, weights=weights, means=means, covariances=covs,
                  log_likelihoods=np.array(trace), iterations=iterations)


def _bandwidth(x: np.ndarray, policy, floor: float) -> float:
    if isinstance(policy, str):
        if policy != "median":
            raise ValueError(f"unknown bandwidth policy {policy!r}")
        if len(x) < 2:
            return 1.0
        h = float(np.median(pdist(x, "sqeuclidean"))) / np.log(len(x))
        return max(h, floor)
    r = float(policy)
    if r <= 0.0:
        raise ValueError("footprint radius must be positive")
    return r * r


def svgd(phi: DensityField, n_particles: int, bandwidth_policy="median",
         step: float | None = None, iters: int = 500, seed: int = 0) -> PoiSet:
    """Stein variational descent of ``n_particles`` on a density field.

    Each sweep moves every particle along the kernel-averaged density
    log-gradient plus a kernel repulsion term, with the RBF bandwidth set
    per ``bandwidth_policy``: the string ``"median"`` for the adaptive
    median heuristic, or a positive number r to pin the spread at a
    service footprint scale (h = r^2). After every sweep, particles are
    projected back into the workspace and merged ones nudged apart
    (``geometry.project_into``, then ``geometry.separate``).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if step is None:
        step = 0.05 * phi.workspace.diameter ** 2
    if step <= 0.0:
        raise ValueError("step must be positive")
    floor = 1e-12 * phi.workspace.diameter ** 2

    x = phi.sample(n_particles, seed)
    shift = 0.0
    for _ in range(iters):
        h = _bandwidth(x, bandwidth_policy, floor)
        grad = phi.grad_log(x)
        if grad.ndim == 1:
            grad = grad[None, :]
        kernel = np.exp(-_sq_dists(x, x) / h)
        ksum = kernel.sum(axis=1)
        drive = kernel @ grad
        repel = (2.0 / h) * (x * ksum[:, None] - kernel @ x)
        moved = x + (step / n_particles) * (drive + repel)
        moved = project_into(phi.workspace, moved)
        separated = separate(phi.workspace, moved)
        if separated is not moved:
            log.debug("separated %d merged particles",
                      int((separated != moved).any(axis=1).sum()))
        shift = float(np.linalg.norm(separated - x, axis=1).mean())
        x = separated
    log.debug("stein descent finished: mean particle shift %.3g on last sweep", shift)

    h = _bandwidth(x, bandwidth_policy, floor)
    policy_tag = "median" if isinstance(bandwidth_policy, str) else float(bandwidth_policy)
    return PoiSet(x, {"method": "svgd", "n_particles": n_particles,
                      "bandwidth": h, "policy": policy_tag}, phi.workspace)
