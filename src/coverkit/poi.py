"""Point-of-interest extraction: k-means, Gaussian-mixture EM, Stein descent.

All three routes are seed-deterministic and refuse NaN or inf input with
ValueError. K-means and EM work on point clouds; the Stein sampler works
directly on a density field and spreads its particles either by the usual
median heuristic or at a fixed service footprint scale. The extracted
points come back as plain (n, 2) arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .density import DensityField
from .errors import DuplicateSites
from .geometry import (ConvexPolygon, check_count, check_points, check_positive, check_sites,
                       project_into, separate)

log = logging.getLogger(__name__)


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
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    inertia_trace: np.ndarray
    iterations: int


def kmeans(data, k: int, seed: int = 0, max_iters: int = 100,
           workspace: ConvexPolygon | None = None) -> KMeansResult:
    """Lloyd's k-means with seeded k-means++ initialization.

    Runs assign/update sweeps until the labeling stops changing or the
    iteration cap is hit. An empty cluster is re-seeded at the point
    currently farthest from its own center (logged). The (k, 2) centers
    pass geometry.check_sites, against ``workspace`` when one is given.
    Data with fewer distinct rows than k raises DuplicateSites at once,
    since some two centers would have to coincide.
    """
    pts = check_points(data)
    check_count(max_iters, "max_iters")
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    if len(pts) < check_count(k, "k"):
        raise ValueError(f"cannot fill {k} clusters from {len(pts)} points")
    distinct = len(np.unique(pts, axis=0))
    if distinct < k:
        raise DuplicateSites(f"cannot place {k} distinct centers on {distinct} distinct points")
    centers = _kmeans_pp(pts, k, rng)

    labels = np.full(len(pts), -1)
    trace = []
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = cdist(pts, centers, "sqeuclidean")
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

    d2 = cdist(pts, centers, "sqeuclidean")
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(pts)), labels].sum())
    check_sites(centers, workspace)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia,
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
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihoods: np.ndarray
    iterations: int


def gmm_em(data, n_components: int, seed: int = 0, max_iters: int = 200,
           reg: float = 1e-6, tol: float = 1e-8,
           workspace: ConvexPolygon | None = None) -> GmmFit:
    """Fit a Gaussian mixture by EM, initialized from k-means with seed.

    Covariances carry a ``reg * I`` ridge throughout. The returned
    log-likelihood trace is non-decreasing up to float noise; iteration
    stops once the gain drops below ``tol`` or the cap is reached. A
    component whose responsibility mass collapses below 1e-10 is
    re-seeded at the worst-covered data point (logged). The means pass
    geometry.check_sites like k-means centers.
    """
    pts = check_points(data)
    n = len(pts)
    if n < check_count(n_components, "n_components"):
        raise ValueError(f"cannot fit {n_components} components to {n} points")
    check_count(max_iters, "max_iters")
    ridge = check_positive(reg, "reg") * np.eye(2)
    global_cov = np.cov(pts.T, bias=True).reshape(2, 2) + ridge

    warm = kmeans(pts, n_components, seed=seed, max_iters=50)
    means = warm.centers
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

    check_sites(means, workspace)
    return GmmFit(weights=weights, means=means, covariances=covs,
                  log_likelihoods=np.array(trace), iterations=iterations)


def _bandwidth(d2: np.ndarray, upper: np.ndarray, policy, floor: float) -> float:
    """RBF bandwidth: the median heuristic on d2[upper] for "median", else r^2 for a radius r."""
    if isinstance(policy, str):
        if len(d2) < 2:
            return 1.0
        h = float(np.median(d2[upper])) / np.log(len(d2))
        return max(h, floor)
    r = float(policy)
    return r * r


def svgd(phi: DensityField, n_particles: int, bandwidth_policy="median",
         step: float | None = None, iters: int = 500, seed: int = 0) -> np.ndarray:
    """Stein variational descent of ``n_particles`` on a density field.

    Each sweep moves every particle along the kernel-averaged density
    log-gradient plus a kernel repulsion term, with the RBF bandwidth set
    per ``bandwidth_policy``: the string ``"median"`` for the adaptive
    median heuristic, or a positive number r to pin the spread at a
    service footprint scale (h = r^2). After every sweep, particles are
    projected back into the workspace and merged ones nudged apart
    (``geometry.project_into``, then ``geometry.separate``). The particles
    start at ``phi.sample(n_particles, seed)``, and the returned
    (n_particles, 2) positions pass geometry.check_sites.
    """
    check_count(n_particles, "n_particles")
    check_count(iters, "iters", 0)
    if isinstance(bandwidth_policy, str) and bandwidth_policy != "median":
        raise ValueError(f"unknown bandwidth policy {bandwidth_policy!r}")
    if not isinstance(bandwidth_policy, str):
        check_positive(bandwidth_policy, "footprint radius")
    step = check_positive(0.05 * phi.workspace.diameter ** 2 if step is None else step, "step")
    floor = 1e-12 * phi.workspace.diameter ** 2

    x = phi.sample(n_particles, seed)
    upper = np.triu(np.ones((n_particles, n_particles), dtype=bool), 1)
    before = x  # the positions the last sweep started from
    for _ in range(iters):
        d2 = cdist(x, x, "sqeuclidean")
        h = _bandwidth(d2, upper, bandwidth_policy, floor)
        grad = phi.grad_log(x)
        kernel = np.exp(-d2 / h)
        ksum = kernel.sum(axis=1)
        drive = kernel @ grad
        repel = (2.0 / h) * (x * ksum[:, None] - kernel @ x)
        moved = x + (step / n_particles) * (drive + repel)
        moved = project_into(phi.workspace, moved)
        separated = separate(phi.workspace, moved)
        if separated is not moved:
            log.debug("separated %d merged particles",
                      int((separated != moved).any(axis=1).sum()))
        before, x = x, separated
    shift = float(np.linalg.norm(x - before, axis=1).mean())
    log.debug("stein descent finished: mean particle shift %.3g on last sweep", shift)
    check_sites(x, phi.workspace)
    return x
