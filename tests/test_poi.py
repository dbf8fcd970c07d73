"""Tests for point-of-interest extraction."""

import logging

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from coverkit import poi
from coverkit.density import GmmDensity, UniformDensity
from coverkit.errors import DuplicateSites, SiteOutsideWorkspace
from coverkit.geometry import ConvexPolygon
from coverkit.poi import GmmFit, KMeansResult, gmm_em, kmeans, svgd

UNIT = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


# ---------------------------------------------------------------- oracles

def inertia_oracle(pts, centers):
    """Sum of squared distances from each point to its nearest center."""
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


def median_bandwidth_oracle(x):
    """Median pairwise squared distance over log n, by explicit loops."""
    gaps = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            gaps.append(((x[i] - x[j]) ** 2).sum())
    return np.median(gaps) / np.log(len(x))


def ascent_oracle(phi, start, step, iters):
    """Plain gradient ascent on log phi; the single-particle reference."""
    x = np.array(start, dtype=float)
    for _ in range(iters):
        x = x + step * phi.grad_log(x)
    return x


def two_blobs(seed, n_each=40, sigma=0.01):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], sigma, size=(n_each, 2))
    b = rng.normal([1.0, 1.0], sigma, size=(n_each, 2))
    return np.vstack([a, b]), a.mean(axis=0), b.mean(axis=0)


def gauss_phi(mean, var):
    return GmmDensity(UNIT, [1.0], [mean], [np.eye(2) * var])


# ---------------------------------------------------------------- k-means

def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(60, 2))
    res = kmeans(pts, 1, seed=0)
    assert np.allclose(res.centers[0], pts.mean(axis=0), atol=1e-12)
    assert np.all(res.labels == 0)
    assert res.inertia == pytest.approx(inertia_oracle(pts, res.centers), abs=1e-10)


def test_kmeans_two_blobs_recovers_means():
    pts, mean_a, mean_b = two_blobs(seed=7)
    res = kmeans(pts, 2, seed=1)
    centers = res.centers
    order = np.argsort(centers[:, 0])
    assert np.linalg.norm(centers[order[0]] - mean_a) < 0.05
    assert np.linalg.norm(centers[order[1]] - mean_b) < 0.05
    # each blob lands in a single cluster
    assert len(set(res.labels[:40])) == 1
    assert len(set(res.labels[40:])) == 1


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(6, 2))
    res = kmeans(pts, 6, seed=2)
    assert res.inertia <= 1e-18
    # centers are a permutation of the data
    got = res.centers[np.lexsort(res.centers.T)]
    want = pts[np.lexsort(pts.T)]
    assert np.allclose(got, want, atol=0)


def test_kmeans_inertia_trace_monotone():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        pts = rng.uniform(0, 1, size=(80, 2))
        res = kmeans(pts, 4, seed=seed)
        assert np.all(np.diff(res.inertia_trace) <= 1e-12)


def test_kmeans_seed_determinism():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(50, 2))
    a = kmeans(pts, 3, seed=9)
    b = kmeans(pts, 3, seed=9)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_empty_cluster_reseeds(monkeypatch, caplog):
    pts, mean_a, mean_b = two_blobs(seed=19)
    # second center starts far from every point, so its cluster is empty
    monkeypatch.setattr(poi, "_kmeans_pp",
                        lambda pts, k, rng: np.array([[0.0, 0.0], [40.0, 40.0]]))
    with caplog.at_level(logging.WARNING, logger="coverkit.poi"):
        res = kmeans(pts, 2)
    assert any("empty cluster" in r.message for r in caplog.records)
    centers = res.centers
    order = np.argsort(centers[:, 0])
    assert np.linalg.norm(centers[order[0]] - mean_a) < 0.05
    assert np.linalg.norm(centers[order[1]] - mean_b) < 0.05


def test_kmeans_too_few_distinct_rows_raises_at_once(caplog):
    pts = np.vstack([np.full((50, 2), 0.3), [[0.1, 0.2], [0.7, 0.4], [0.5, 0.9]]])
    for data, k in ((np.full((4, 2), 0.3), 2), (pts, 5)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="coverkit.poi"):
            with pytest.raises(DuplicateSites):
                kmeans(data, k)
        assert caplog.records == []


def test_kmeans_distinct_row_check_leaves_valid_results_alone(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(0, 1, size=(60, 2)), 5),
             (np.vstack([np.full((50, 2), 0.3), [[0.1, 0.2], [0.7, 0.4], [0.5, 0.9]]]), 4)]
    got = [kmeans(pts, k, seed=3) for pts, k in cases]
    # without the check (every row counted distinct) the sweeps are the old ones
    monkeypatch.setattr(poi.np, "unique", lambda a, axis=None: a)
    for (pts, k), res in zip(cases, got):
        ref = kmeans(pts, k, seed=3)
        assert res.centers.tobytes() == ref.centers.tobytes()
        assert res.labels.tobytes() == ref.labels.tobytes()
        assert res.inertia_trace.tobytes() == ref.inertia_trace.tobytes()
        assert (res.inertia, res.iterations) == (ref.inertia, ref.iterations)


def test_kmeans_validation():
    pts = np.zeros((4, 2)) + np.arange(4)[:, None]
    with pytest.raises(ValueError):
        kmeans(pts, 0)
    with pytest.raises(ValueError):
        kmeans(pts, 5)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 3)), 2)


# ---------------------------------------------------------------- GMM EM

def test_gmm_single_component_closed_form():
    rng = np.random.default_rng(23)
    pts = rng.normal([0.4, 0.6], 0.1, size=(300, 2))
    reg = 1e-6
    fit = gmm_em(pts, 1, seed=0, reg=reg)
    mean_ref = pts.mean(axis=0)
    diff = pts - mean_ref
    cov_ref = diff.T @ diff / len(pts) + reg * np.eye(2)
    assert np.allclose(fit.means[0], mean_ref, atol=1e-8)
    assert np.allclose(fit.covariances[0], cov_ref, atol=1e-8)
    assert fit.weights[0] == pytest.approx(1.0)


def test_gmm_mean_recovery_within_sampling_error():
    sigma = 0.1
    n = 2000
    rng = np.random.default_rng(31)
    pts = rng.normal([0.5, 0.5], sigma, size=(n, 2))
    fit = gmm_em(pts, 1, seed=0)
    assert np.linalg.norm(fit.means[0] - [0.5, 0.5]) < 3 * sigma / np.sqrt(n) * 2


def test_gmm_two_components_recovered():
    rng = np.random.default_rng(41)
    n = 5000
    half = n // 2
    a = rng.normal([0.2, 0.2], 0.07, size=(half, 2))
    b = rng.normal([0.8, 0.8], 0.07, size=(half, 2))
    pts = np.vstack([a, b])
    fit = gmm_em(pts, 2, seed=3)
    order = np.argsort(fit.means[:, 0])
    assert np.allclose(fit.weights[order], [0.5, 0.5], atol=0.05)
    assert np.linalg.norm(fit.means[order[0]] - a.mean(axis=0)) < 0.05
    assert np.linalg.norm(fit.means[order[1]] - b.mean(axis=0)) < 0.05


def test_gmm_loglik_trace_nondecreasing():
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        pts = rng.uniform(0, 1, size=(150, 2))
        fit = gmm_em(pts, 3, seed=seed)
        assert np.all(np.diff(fit.log_likelihoods) >= -1e-8)


def test_gmm_degenerate_component_reseeds(monkeypatch, caplog):
    rng = np.random.default_rng(47)
    pts = rng.normal([0.5, 0.5], 0.05, size=(120, 2))
    # the k-means warm start puts the second component far from every point
    far = KMeansResult(centers=np.array([[0.5, 0.5], [90.0, 90.0]]),
                       labels=np.zeros(len(pts), dtype=int), inertia=0.0,
                       inertia_trace=np.zeros(1), iterations=1)
    monkeypatch.setattr(poi, "kmeans", lambda *args, **kwargs: far)
    with caplog.at_level(logging.WARNING, logger="coverkit.poi"):
        fit = gmm_em(pts, 2)
    assert any("degenerate component" in r.message for r in caplog.records)
    assert np.isfinite(fit.log_likelihoods[-1])
    assert fit.weights.shape == (2,)
    assert np.all(np.isfinite(fit.means))


def test_gmm_validation():
    pts = np.random.default_rng(0).uniform(0, 1, size=(10, 2))
    with pytest.raises(ValueError):
        gmm_em(pts, 0)
    with pytest.raises(ValueError):
        gmm_em(pts, 11)
    with pytest.raises(ValueError):
        gmm_em(pts, 2, reg=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("extract", [kmeans, gmm_em], ids=["kmeans", "gmm_em"])
def test_extraction_refuses_non_finite_rows(caplog, extract, bad):
    pts = np.random.default_rng(8).uniform(0, 1, size=(30, 2))
    pts[4, 1] = bad
    with caplog.at_level(logging.DEBUG, logger="coverkit.poi"):
        with pytest.raises(ValueError, match="finite"):
            extract(pts, 2)
    assert caplog.records == []


# ---------------------------------------------------------------- SVGD

def test_svgd_single_particle_matches_ascent_oracle():
    phi = gauss_phi([0.6, 0.4], 0.04)
    start = phi.sample(1, 5)
    out = svgd(phi, 1, step=0.01, iters=400, seed=5)
    ref = ascent_oracle(phi, start[0], 0.01, 400)
    assert np.allclose(out[0], ref, atol=1e-12)
    assert np.linalg.norm(out[0] - [0.6, 0.4]) < 1e-3


def test_svgd_cloud_matches_target_moments():
    var = 0.01
    phi = gauss_phi([0.5, 0.5], var)
    pts = svgd(phi, 50, step=0.01, iters=2000, seed=8)
    assert np.linalg.norm(pts.mean(axis=0) - [0.5, 0.5]) < 0.05
    cov = np.cov(pts.T, bias=True)
    target = np.eye(2) * var
    rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert rel < 0.25


def test_svgd_footprint_radius_controls_spread():
    phi = gauss_phi([0.5, 0.5], 0.02)

    def mean_nn(pts):
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        return np.sqrt(d2.min(axis=1)).mean()

    for seed in (1, 2):
        small = svgd(phi, 30, bandwidth_policy=0.05, step=0.01, iters=600, seed=seed)
        large = svgd(phi, 30, bandwidth_policy=0.2, step=0.01, iters=600, seed=seed)
        assert mean_nn(large) > mean_nn(small)


def test_svgd_particles_stay_inside_workspace():
    phi = gauss_phi([0.05, 0.05], 0.01)
    out = svgd(phi, 40, step=0.02, iters=300, seed=3)
    assert np.all(UNIT.contains(out))


@pytest.mark.parametrize("where", ["centroid", "corner"])
def test_svgd_separates_particles_merged_at_one_spot(monkeypatch, caplog, where):
    # two particles drawn onto one spot of a uniform density feel no drive and
    # no mutual repulsion, so only the separation step can pull them apart
    phi = UniformDensity(UNIT)
    spot = UNIT.centroid if where == "centroid" else np.array([1.0, 0.0])
    monkeypatch.setattr(phi, "sample", lambda n, seed: np.repeat(spot[None], n, axis=0))
    with caplog.at_level(logging.DEBUG, logger="coverkit.poi"):
        pois = svgd(phi, 2, iters=1)
    np.testing.assert_array_equal(pois[0], spot)
    assert 0 < np.linalg.norm(pois[1] - spot) < 1e-5
    assert UNIT.contains(pois).all()
    assert [r.levelno for r in caplog.records if "merged" in r.message] == [logging.DEBUG]


def test_svgd_seed_determinism():
    phi = gauss_phi([0.5, 0.5], 0.02)
    a = svgd(phi, 25, step=0.01, iters=50, seed=17)
    b = svgd(phi, 25, step=0.01, iters=50, seed=17)
    assert np.array_equal(a, b)


def test_svgd_zero_iters_reports_median_bandwidth():
    phi = UniformDensity(UNIT)
    out = svgd(phi, 20, iters=0, seed=4)
    assert np.array_equal(out, phi.sample(20, 4))
    upper = np.triu(np.ones((20, 20), dtype=bool), 1)
    got = poi._bandwidth(cdist(out, out, "sqeuclidean"), upper, "median",
                         1e-12 * UNIT.diameter ** 2)
    assert got == pytest.approx(median_bandwidth_oracle(out), rel=1e-12)


def test_median_bandwidth_is_the_pairwise_distance_median_bit_for_bit():
    rng = np.random.default_rng(24)
    for n in (2, 3, 10, 41):
        x = rng.uniform(0.0, 1.0, (n, 2))
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        got = poi._bandwidth(cdist(x, x, "sqeuclidean"), upper, "median", 0.0)
        assert got == float(np.median(pdist(x, "sqeuclidean"))) / np.log(n)


def test_svgd_validation():
    phi = UniformDensity(UNIT)
    with pytest.raises(ValueError):
        svgd(phi, 0)
    with pytest.raises(ValueError):
        svgd(phi, 5, step=-0.1)
    with pytest.raises(ValueError):
        svgd(phi, 5, bandwidth_policy="quartile")
    with pytest.raises(ValueError):
        svgd(phi, 5, bandwidth_policy=-0.2)
    # the policy is checked before the first sweep, so iters=0 refuses it too
    with pytest.raises(ValueError):
        svgd(phi, 5, bandwidth_policy="quartile", iters=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_svgd_refuses_non_finite_radius_and_step(bad):
    phi = UniformDensity(UNIT)
    with pytest.raises(ValueError, match="finite"):
        svgd(phi, 5, bandwidth_policy=bad, iters=1)
    with pytest.raises(ValueError, match="finite"):
        svgd(phi, 5, step=bad, iters=1)


# ------------------------------------------------------ extracted points

def test_kmeans_rejects_duplicate_centers():
    with pytest.raises(DuplicateSites):
        kmeans(np.full((4, 2), 0.3), 2)


def test_kmeans_rejects_centers_outside_workspace():
    pts = np.array([[0.5, 0.5], [0.5, 0.6], [1.5, 0.5], [1.5, 0.6]])
    with pytest.raises(SiteOutsideWorkspace):
        kmeans(pts, 2, workspace=UNIT)


def test_result_types_carry_traces():
    pts = np.random.default_rng(6).uniform(0, 1, size=(40, 2))
    km = kmeans(pts, 2, seed=0)
    assert isinstance(km, KMeansResult)
    assert len(km.inertia_trace) == km.iterations
    fit = gmm_em(pts, 2, seed=0)
    assert isinstance(fit, GmmFit)
    assert len(fit.log_likelihoods) == fit.iterations
