"""Tests for deployment cost models and assignment."""

import itertools
import math
import warnings

import numpy as np
import pytest

from coverkit import assign
from coverkit.assign import (DEFAULT_ORIENTATIONS, GaussianService, IsotropicService,
                             build_cost_matrix, footprint_cost, gaussian_kl, kld_cost,
                             rotation, solve_assignment)
from coverkit.density import GmmDensity, GridDensity, UniformDensity, cell_moments
from coverkit.errors import (CoverkitError, InfeasibleShape, NonFiniteCost,
                             SiteOutsideWorkspace)
from coverkit.geometry import EPS_GEO, ConvexPolygon

from tests.oracles import (SupportViolation, intersect, kl_divergence, pixel_moments,
                           polygon_footprint_cost)

UNIT = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


# ---------------------------------------------------------------- oracles

def brute_assignment(values):
    """Exhaustive minimum over all row-to-column injections."""
    rows, cols = values.shape
    best, best_cols = np.inf, None
    for pick in itertools.permutations(range(cols), rows):
        total = sum(values[i, pick[i]] for i in range(rows))
        if total < best:
            best, best_cols = total, pick
    return best, best_cols


def inside_ccw(verts, pts):
    """Point-in-convex-polygon by cross products, independent of the library."""
    keep = np.ones(len(pts), dtype=bool)
    for k in range(len(verts)):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        edge = b - a
        rel = pts - a
        keep &= edge[0] * rel[:, 1] - edge[1] * rel[:, 0] >= -1e-12
    return keep


def riemann_footprint(phi, verts, center, n=700):
    """Dense-grid integral of |q-center|^2 phi(q) over polygon cap workspace."""
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    xs = np.linspace(xmin, xmax, n + 1)[:-1] + (xmax - xmin) / (2 * n)
    ys = np.linspace(ymin, ymax, n + 1)[:-1] + (ymax - ymin) / (2 * n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    da = (xmax - xmin) * (ymax - ymin) / n**2
    keep = inside_ccw(verts, pts)
    keep &= (pts[:, 0] >= 0) & (pts[:, 0] <= 1) & (pts[:, 1] >= 0) & (pts[:, 1] <= 1)
    pts = pts[keep]
    r2 = ((pts - center) ** 2).sum(axis=1)
    return float((r2 * phi.eval(pts)).sum() * da)


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ------------------------------------------------------- footprint pricing

def test_isotropic_disk_closed_form():
    phi = UniformDensity(UNIT)
    model = IsotropicService(radius=0.2)
    cost, theta = footprint_cost(phi, model, [0.5, 0.5])
    assert theta == model.orientations[0]
    assert cost == pytest.approx(np.pi * 0.2**4 / 2.0, rel=1e-3)


def test_isotropic_cost_position_invariant():
    phi = UniformDensity(UNIT)
    model = IsotropicService(radius=0.15)
    a, _ = footprint_cost(phi, model, [0.5, 0.5])
    b, _ = footprint_cost(phi, model, [0.37, 0.61])
    assert a == pytest.approx(b, rel=1e-11)


def test_symmetric_gaussian_costs_match_across_orientations():
    phi = UniformDensity(UNIT)
    model = GaussianService(np.eye(2) * 0.003)
    costs = []
    for theta in model.orientations:
        single = GaussianService(np.eye(2) * 0.003, orientations=(theta,))
        costs.append(footprint_cost(phi, single, [0.5, 0.5])[0])
    assert np.ptp(costs) < 1e-12 * max(costs)
    best, star = footprint_cost(phi, model, [0.5, 0.5])
    assert best == min(costs)
    assert star in model.orientations


def test_footprint_clipped_at_corner_matches_riemann():
    phi = UniformDensity(UNIT)
    model = IsotropicService(radius=0.3)
    cost, _ = footprint_cost(phi, model, [0.05, 0.05], levels=3)
    verts = model.footprint([0.05, 0.05], 0.0).vertices
    ref = riemann_footprint(phi, verts, np.array([0.05, 0.05]), n=2000)
    assert cost == pytest.approx(ref, rel=1e-3)


def test_footprint_on_smooth_density_matches_riemann():
    phi = GmmDensity(UNIT, [1.0], [[0.45, 0.55]], [np.eye(2) * 0.02])
    model = IsotropicService(radius=0.25)
    cost, _ = footprint_cost(phi, model, [0.4, 0.5], levels=3)
    verts = model.footprint([0.4, 0.5], 0.0).vertices
    ref = riemann_footprint(phi, verts, np.array([0.4, 0.5]))
    assert cost == pytest.approx(ref, rel=2e-3)


def test_elongated_footprint_crosses_a_ridge():
    # density concentrated in a thin horizontal band through the middle
    ridge = GmmDensity(UNIT, [1.0], [[0.5, 0.5]],
                       [np.diag([0.09, 0.0004])])
    model = GaussianService(np.diag([0.01, 0.0009]), orientations=(0.0, np.pi / 2))
    cost_flat, _ = footprint_cost(ridge,
                                  GaussianService(model.covariance, orientations=(0.0,)),
                                  [0.5, 0.5], levels=3)
    cost_up, _ = footprint_cost(ridge,
                                GaussianService(model.covariance, orientations=(np.pi / 2,)),
                                [0.5, 0.5], levels=3)
    ref_flat = riemann_footprint(ridge, model.footprint([0.5, 0.5], 0.0).vertices,
                                 np.array([0.5, 0.5]))
    ref_up = riemann_footprint(ridge, model.footprint([0.5, 0.5], np.pi / 2).vertices,
                               np.array([0.5, 0.5]))
    assert cost_flat == pytest.approx(ref_flat, rel=5e-3)
    assert cost_up == pytest.approx(ref_up, rel=5e-3)
    # the cheap orientation turns the long axis across the band, matching
    # the dense-grid oracle's ordering
    assert ref_up < ref_flat
    best, star = footprint_cost(ridge, model, [0.5, 0.5], levels=3)
    assert star == pytest.approx(np.pi / 2)
    assert best == pytest.approx(cost_up)


def test_footprint_poi_outside_workspace():
    phi = UniformDensity(UNIT)
    with pytest.raises(SiteOutsideWorkspace):
        footprint_cost(phi, IsotropicService(0.1), [1.4, 0.5])


PENTAGON = ConvexPolygon([(0.1, 0.0), (0.9, 0.05), (1.0, 0.6), (0.5, 1.0), (0.0, 0.7)])
MIXTURE = ([0.5, 0.3, 0.2], [[0.35, 0.4], [0.7, 0.6], [0.5, 0.85]],
           [[[0.02, 0.005], [0.005, 0.01]], np.eye(2) * 0.015, [[0.008, -0.002], [-0.002, 0.02]]])


def random_models(rng, orientations):
    """Two disks and two anisotropic Gaussians."""
    models = [IsotropicService(rng.uniform(0.02, 0.35), orientations=orientations),
              IsotropicService(rng.uniform(0.02, 0.2), orientations=orientations)]
    for _ in range(2):
        minor = rng.uniform(2e-4, 2e-3)
        turn = rot(rng.uniform(0.0, np.pi))
        cov = turn @ np.diag([minor * rng.uniform(2.0, 6.0), minor]) @ turn.T
        models.append(GaussianService(cov, orientations=orientations))
    return models


def twinned_orientations(rng):
    thetas = tuple(rng.uniform(0.0, np.pi, 3))
    return thetas + tuple(t + np.pi for t in thetas)


def assert_matches_polygon_oracle(phi, model, center, levels):
    cost, theta = footprint_cost(phi, model, center, levels)
    want, want_theta = polygon_footprint_cost(phi, model, center, levels)
    assert abs(cost - want) <= 1e-12 * abs(want)
    # theta + pi turns a centred footprint into the same set, so it prices the same
    turn = (theta - want_theta) % (2.0 * np.pi)
    assert min(turn, abs(turn - np.pi), 2.0 * np.pi - turn) < 1e-12


def unclipped(phi, model, center):
    return [intersect(fp, phi.workspace) is fp
            for fp in (model.footprint(center, t) for t in model.orientations)]


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("workspace", [UNIT, PENTAGON], ids=["square", "pentagon"])
def test_footprint_cost_matches_polygon_oracle(levels, workspace):
    rng = np.random.default_rng(60 + levels)
    phi = GmmDensity(workspace, *MIXTURE)
    seen = []
    for _ in range(6):
        center = rng.uniform(0.0, 1.0, 2)
        if not workspace.contains(center):
            continue
        for model in random_models(rng, twinned_orientations(rng)):
            assert_matches_polygon_oracle(phi, model, center, levels)
            seen += unclipped(phi, model, center)
    # both routes were taken
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("workspace", [UNIT, PENTAGON], ids=["square", "pentagon"])
def test_footprint_on_a_raster_matches_the_pixel_oracle(workspace):
    # a raster prices every footprint as a polygon, integrated exactly, never
    # through the mapped reference rule
    phi = GridDensity(workspace, np.random.default_rng(81).uniform(0.0, 3.0, (23, 31)))
    rng = np.random.default_rng(80)
    seen = []
    for _ in range(6):
        center = rng.uniform(0.0, 1.0, 2)
        if not workspace.contains(center):
            continue
        for model in random_models(rng, twinned_orientations(rng)):
            cost, _ = footprint_cost(phi, model, center)
            polys = [intersect(model.footprint(center, t), workspace) for t in model._priced]
            want = pixel_moments(phi, polys, np.broadcast_to(center, (len(polys), 2)))[2]
            assert cost == pytest.approx(want.min(), rel=1e-12, abs=0)
            seen += unclipped(phi, model, center)
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_footprint_touching_a_workspace_edge_matches_polygon_oracle(levels):
    """Footprints pushed out through an edge by at most EPS_GEO are not clipped."""
    rng = np.random.default_rng(70 + levels)
    phi = GmmDensity(PENTAGON, *MIXTURE)
    v = PENTAGON.vertices
    seen = []
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        for model in random_models(rng, (rng.uniform(0.0, 2.0 * np.pi),)):
            ring = model.footprint([0.0, 0.0], model.orientations[0]).vertices
            start = a + 0.5 * (b - a) - 0.3 * normal
            reach = (ring @ normal).max() + (start - a) @ normal
            for overshoot in (-EPS_GEO, -3e-10, 0.0, 3e-10, 0.9 * EPS_GEO, 3.0 * EPS_GEO):
                center = start + (overshoot - reach) * normal
                if not PENTAGON.contains(center):
                    continue
                assert_matches_polygon_oracle(phi, model, center, levels)
                seen.append((overshoot, unclipped(phi, model, center)[0]))
    assert any(hit for over, hit in seen if over <= 0.9 * EPS_GEO)
    assert not any(hit for over, hit in seen if over > EPS_GEO)


def twin_class_first(model, theta):
    """The first listed orientation a whole number of half turns from theta."""
    return next(t for t in model.orientations
                if abs(math.remainder(t - theta, math.pi)) <= 1e-12)


def test_each_half_turn_class_is_priced_once():
    even = DEFAULT_ORIENTATIONS
    assert GaussianService(np.eye(2) * 0.01)._priced == even[:4]
    assert IsotropicService(0.1)._priced == even[:1]
    three = tuple(np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False))
    assert GaussianService(np.eye(2) * 0.01, orientations=three)._priced == three
    # evenly spaced angles miss an exact half turn by a few ulps
    for n in (2, 6, 10, 12):
        evens = tuple(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
        assert GaussianService(np.eye(2) * 0.01, orientations=evens)._priced == evens[:n // 2]
    listed = (3.0, 0.5, 3.0 + np.pi, 0.5 - np.pi, 0.5 + 2.0 * np.pi, 1.0, 3.0 - 5e-13)
    assert GaussianService(np.eye(2) * 0.01, orientations=listed)._priced == (3.0, 0.5, 1.0)
    apart = (1.0, 1.0 + np.pi + 3e-12)
    assert GaussianService(np.eye(2) * 0.01, orientations=apart)._priced == apart


def test_footprint_cost_prices_the_first_orientation_of_each_class(monkeypatch):
    rng = np.random.default_rng(83)
    phi = GmmDensity(PENTAGON, *MIXTURE)
    rules = []
    moments = assign.cell_moments
    monkeypatch.setattr(assign, "cell_moments", lambda phi, entries, *rest: (
        rules.append(len(entries)) or moments(phi, entries, *rest)))
    seen = []
    for center in ([0.5, 0.5], [0.45, 0.3], [0.12, 0.62], [0.85, 0.55], [0.5, 0.92]):
        for model in random_models(rng, DEFAULT_ORIENTATIONS):
            cost, theta = footprint_cost(phi, model, center)
            assert rules.pop() == len(model._priced) == (1 if model.symmetric else 4)
            want, want_theta = polygon_footprint_cost(phi, model, center)
            assert abs(cost - want) <= 1e-12 * abs(want)
            assert theta == twin_class_first(model, want_theta)
            seen += unclipped(phi, model, center)
    assert any(seen) and not all(seen)


def test_kld_cost_prices_the_first_orientation_of_each_class(monkeypatch):
    calls = []
    divergence = assign.gaussian_kl
    monkeypatch.setattr(assign, "gaussian_kl", lambda *args: (
        calls.append(args) or divergence(*args)))
    comp_cov = rot(0.4) @ np.diag([0.09, 0.01]) @ rot(0.4).T
    for model, count in ((GaussianService(np.diag([0.05, 0.02])), 4), (IsotropicService(0.3), 1)):
        cost, theta = kld_cost(model, [0.5, 0.5], comp_cov)
        assert len(calls) == count
        divs = [divergence([0.5, 0.5], model.oriented_covariance(t), [0.5, 0.5], comp_cov)
                for t in model.orientations]
        assert cost == min(divs[:count])
        assert theta == twin_class_first(model, model.orientations[int(np.argmin(divs))])
        calls.clear()


COVERING = {
    "disk-2": (IsotropicService, 2.0),
    "disk-1e5": (IsotropicService, 1e5),
    "disk-1e12": (IsotropicService, 1e12),
    "disk-1e20": (IsotropicService, 1e20),
    "gauss-1e300": (GaussianService, np.eye(2) * 1e300),
    "gauss-1e40-1e20": (GaussianService, np.diag([1e40, 1e20])),
    "gauss-1e30-1e10": (GaussianService, np.diag([1e30, 1e10])),
}


@pytest.mark.parametrize("name", COVERING)
@pytest.mark.parametrize("phi", [UniformDensity(UNIT), GmmDensity(PENTAGON, *MIXTURE)],
                         ids=["uniform-square", "mixture-pentagon"])
def test_footprint_covering_the_workspace_is_priced_as_the_workspace(name, phi):
    service, size = COVERING[name]
    for center in ([0.5, 0.5], [0.3, 0.6], [0.12, 0.62], [0.85, 0.55]):
        want = cell_moments(phi, [phi.workspace], np.array([center]), 2)[2][0]
        for theta in DEFAULT_ORIENTATIONS:
            cost, _ = footprint_cost(phi, service(size, orientations=(theta,)), center)
            assert abs(cost - want) <= 1e-12 * want, (center, theta, cost, want)


@pytest.mark.parametrize("center", [[0.5, 0.5], [0.3, 0.6], [0.05, 0.9]])
def test_footprint_short_of_covering_the_workspace_is_clipped(monkeypatch, center):
    """A disk whose inscribed radius misses the covering distance by half of
    EPS_GEO matches the polygon oracle; one that clears it by twice EPS_GEO
    hands ``cell_moments`` the workspace itself."""
    phi = GmmDensity(UNIT, *MIXTURE)
    rules = []
    moments = assign.cell_moments
    monkeypatch.setattr(assign, "cell_moments", lambda phi, entries, *rest: (
        rules.append(entries) or moments(phi, entries, *rest)))
    covering = np.hypot(*(UNIT.vertices - center).T).max()
    # the unit disk's least edge offset about its centre is its inscribed radius
    per_radius = IsotropicService(1.0)._planes[0.0][1].min()
    for margin, clipped in ((0.5 * EPS_GEO, True), (2.0 * EPS_GEO, False)):
        model = IsotropicService((covering + margin) / per_radius)
        cost, _ = footprint_cost(phi, model, center)
        if clipped:
            want, _ = polygon_footprint_cost(phi, model, center)
        else:
            rule, = rules[-1]
            assert rule is UNIT
            want = cell_moments(phi, [UNIT], np.array([center]), 2)[2][0]
        assert abs(cost - want) <= 1e-12 * want


def band_price(center, half_width, axis):
    """The squared distance to the centre integrated over the unit square's band
    |q[axis] - center[axis]| <= half_width, under the uniform density."""
    def moment(lo, hi, c):
        return ((hi - c) ** 3 - (lo - c) ** 3) / 3.0
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    lo[axis], hi[axis] = center[axis] - half_width, center[axis] + half_width
    (x0, y0), (x1, y1) = lo, hi
    return moment(x0, x1, center[0]) * (y1 - y0) + moment(y0, y1, center[1]) * (x1 - x0)


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.2, 0.7)])
@pytest.mark.parametrize("variances, theta", [
    ((1e40, 1e-4), 0.0), ((1e40, 1e-4), np.pi / 2), ((1e300, 1e-4), 0.0),
    ((1e24, 1e-3), 0.0), ((1e24, 1e-3), np.pi / 2)],
    ids=["1e40-0", "1e40-half-pi", "1e300-0", "1e24-0", "1e24-half-pi"])
def test_huge_thin_footprint_prices_its_band(variances, theta, center):
    """A 3-sigma ellipse far longer than the workspace and thinner than it
    prices the band across the workspace that it covers."""
    model = GaussianService(np.diag(variances), orientations=(theta,))
    # the long axis lies along x at theta = 0 and along y at pi / 2
    axis = 1 if theta == 0.0 else 0
    want = band_price(center, 3.0 * math.sqrt(variances[1]), axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost, _ = footprint_cost(UniformDensity(UNIT), model, center)
    assert abs(cost - want) <= 0.01 * want, (cost, want)


def test_huge_thin_footprint_across_a_half_turn_stays_refused():
    with pytest.raises(ValueError, match="too thin"):
        GaussianService(np.diag([1e300, 1e-4]), orientations=(np.pi / 2,))


# ------------------------------------------------------------- divergences

def test_kl_same_density_is_zero():
    phi = GmmDensity(UNIT, [0.6, 0.4], [[0.35, 0.35], [0.65, 0.6]],
                     [np.eye(2) * 0.04, np.eye(2) * 0.04])
    assert abs(kl_divergence(phi, phi, UNIT)) < 1e-8


def test_kl_nonnegative():
    psi = GmmDensity(UNIT, [1.0], [[0.4, 0.6]], [np.eye(2) * 0.01])
    phi = UniformDensity(UNIT)
    region = ConvexPolygon([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9)])
    assert kl_divergence(psi, phi, region) > -1e-9
    assert kl_divergence(phi, psi, region, levels=4) > -1e-9


def test_gaussian_kl_frozen_example():
    val = gaussian_kl([0, 0], np.eye(2), [1, 0], np.eye(2))
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_gaussian_kl_refuses_non_finite_means(bad):
    with pytest.raises(ValueError, match="means must be finite"):
        gaussian_kl([bad, 0.0], np.eye(2), [1.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="means must be finite"):
        gaussian_kl([0.0, 0.0], np.eye(2), [1.0, bad], np.eye(2))


def test_gaussian_kl_self_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 0.05 * np.eye(2)
        mean = rng.uniform(0, 1, 2)
        assert abs(gaussian_kl(mean, cov, mean, cov)) < 1e-10


def test_gaussian_kl_matches_quadrature_smooth():
    m0, c0 = [0.45, 0.5], np.eye(2) * 0.009
    m1, c1 = [0.55, 0.52], np.array([[0.008, 0.001], [0.001, 0.0064]])
    psi = GmmDensity(UNIT, [1.0], [m0], [c0])
    phi = GmmDensity(UNIT, [1.0], [m1], [c1])
    want = gaussian_kl(m0, c0, m1, c1)
    got = kl_divergence(psi, phi, UNIT, levels=4)
    assert got == pytest.approx(want, abs=1e-4)


def test_gaussian_kl_matches_quadrature_grid_backed():
    m0, c0 = np.array([0.42, 0.5]), np.eye(2) * 0.0049
    m1, c1 = np.array([0.58, 0.5]), np.eye(2) * 0.0081
    n = 640
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    def raster(mean, cov):
        inv = np.linalg.inv(cov)
        diff = pts - mean
        maha = np.einsum("nd,de,ne->n", diff, inv, diff)
        vals = np.exp(-0.5 * maha)
        return vals.reshape(n, n)[::-1, :]  # row 0 holds the top of the frame

    psi = GridDensity(UNIT, raster(m0, c0))
    phi = GridDensity(UNIT, raster(m1, c1))
    want = gaussian_kl(m0, c0, m1, c1)
    got = kl_divergence(psi, phi, UNIT, levels=4)
    assert got == pytest.approx(want, abs=1e-3)


def test_kl_support_violation():
    vals = np.ones((64, 64))
    vals[:, :32] = 0.0  # dead left half
    phi = GridDensity(UNIT, vals)
    psi = GmmDensity(UNIT, [1.0], [[0.25, 0.5]], [np.eye(2) * 0.0025])
    with pytest.raises(SupportViolation):
        kl_divergence(psi, phi, UNIT)
    # mass nowhere near the dead zone passes
    safe = GmmDensity(UNIT, [1.0], [[0.8, 0.5]], [np.eye(2) * 0.0009])
    assert kl_divergence(safe, phi, UNIT) >= 0.0


# --------------------------------------------------------------- kld_cost

def test_kld_cost_aligned_is_zero():
    model = GaussianService(np.diag([4.0, 1.0]), orientations=(0.0, np.pi / 2))
    cost, star = kld_cost(model, [0.5, 0.5], np.diag([4.0, 1.0]))
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert star == 0.0


def test_kld_cost_crossed_frozen_value():
    model = GaussianService(np.diag([4.0, 1.0]), orientations=(np.pi / 2,))
    cost, star = kld_cost(model, [0.5, 0.5], np.diag([4.0, 1.0]))
    assert cost == pytest.approx(1.125, abs=1e-9)
    assert star == pytest.approx(np.pi / 2)


def test_kld_cost_principal_axis_alignment():
    rng = np.random.default_rng(11)
    grid = tuple(np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
    for _ in range(3):
        angle = rng.uniform(0, np.pi)
        eigs = np.diag([0.09, 0.01])
        comp_cov = rot(angle) @ eigs @ rot(angle).T
        model = GaussianService(eigs, orientations=grid)
        _, star = kld_cost(model, [0.5, 0.5], comp_cov)
        gap = abs(star - angle) % np.pi
        gap = min(gap, np.pi - gap)
        assert gap <= 2.0 * np.pi / 360 + 1e-12


def test_kld_cost_accepts_disk_services():
    # A disk of radius r stands in for the Gaussian whose 3-sigma circle
    # matches it, so a component with covariance (r/3)^2 I is a free match.
    model = IsotropicService(0.3)
    cost, star = kld_cost(model, [0.5, 0.5], np.eye(2) * 0.01)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert star == model.orientations[0]
    worse, _ = kld_cost(model, [0.5, 0.5], np.eye(2) * 0.04)
    assert worse > 0.1


@pytest.mark.parametrize("cov", [[[0.01, 0.009], [0.0, 0.01]], [[np.nan, 0.0], [0.0, 0.01]]],
                         ids=["asymmetric", "nan"])
def test_covariance_cholesky_cannot_vet_is_rejected(cov):
    # cholesky reads only the lower triangle and passes NaN through
    with pytest.raises(ValueError, match="symmetric"):
        GaussianService(cov)
    with pytest.raises(ValueError, match="symmetric"):
        GmmDensity(UNIT, [1.0], [[0.5, 0.5]], [cov])
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_kl([0.5, 0.5], np.eye(2) * 0.01, [0.5, 0.5], cov)


# ------------------------------------------------------------- assignment

def test_assignment_identity_matrix():
    values = np.ones((3, 3))
    np.fill_diagonal(values, 0.0)
    pairs, total = solve_assignment(values)
    assert np.array_equal(pairs, [[0, 0], [1, 1], [2, 2]])
    assert total == 0.0


def test_assignment_two_by_three_matches_brute_force():
    values = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    pairs, total = solve_assignment(values)
    want, cols = brute_assignment(values)
    assert total == pytest.approx(want)
    assert want == 4.0  # crossed pairing beats the diagonal here
    assert pairs.tolist() == [[0, cols[0]], [1, cols[1]]] or total == want


def test_assignment_random_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(20):
        values = rng.uniform(0, 10, size=(4, 6))
        _, total = solve_assignment(values)
        want, _ = brute_assignment(values)
        assert total == pytest.approx(want, abs=1e-12)


def test_assignment_constraints_hold():
    rng = np.random.default_rng(19)
    values = rng.uniform(0, 1, size=(5, 9))
    pairs, _ = solve_assignment(values)
    assert pairs.shape == (5, 2)
    assert np.array_equal(pairs[:, 0], np.arange(5))  # one poi per agent, in agent order
    assert len(np.unique(pairs[:, 1])) == 5  # one agent per poi


def test_assignment_infeasible_and_invalid():
    with pytest.raises(InfeasibleShape):
        solve_assignment(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.inf, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="two-dimensional"):
        solve_assignment(np.array([1.0, 2.0]))


def test_cost_matrix_pipeline():
    phi = GmmDensity(UNIT, [0.5, 0.5], [[0.3, 0.3], [0.7, 0.7]],
                     [np.eye(2) * 0.01, np.eye(2) * 0.01])
    models = [IsotropicService(0.1), IsotropicService(0.2)]
    pois = np.array([[0.3, 0.3], [0.7, 0.7], [0.5, 0.5]])
    values, thetas = build_cost_matrix(models, pois,
                                       lambda m, p: footprint_cost(phi, m, p))
    assert values.shape == thetas.shape == (2, 3)
    pairs, total = solve_assignment(values)
    assert pairs.shape == (2, 2)
    assert np.issubdtype(pairs.dtype, np.integer)
    assert np.array_equal(pairs[:, 0], [0, 1])
    assert len(set(pairs[:, 1].tolist())) == 2
    assert total == values[pairs[:, 0], pairs[:, 1]].sum()


def test_orientation_set_validation():
    with pytest.raises(ValueError):
        IsotropicService(0.1, orientations=())
    with pytest.raises(ValueError):
        GaussianService(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        IsotropicService(-0.5)


@pytest.mark.parametrize("radius", [np.inf, np.nan])
def test_isotropic_service_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match="finite"):
        IsotropicService(radius)


def test_non_finite_costs_raise_a_typed_error():
    for build in (lambda: solve_assignment(np.array([[np.nan, 1.0]])),
                  lambda: solve_assignment(np.array([[np.inf, 1.0], [0.0, 2.0]]))):
        with pytest.raises(NonFiniteCost) as caught:
            build()
        assert isinstance(caught.value, CoverkitError)
        assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("row", [0, 3])
def test_footprint_cost_refuses_a_non_finite_price(monkeypatch, bad, row):
    """footprint_cost checks its own prices: one non-finite orientation price
    from cell_moments raises NonFiniteCost, whichever orientation it is."""
    moments = assign.cell_moments

    def spoiled(*args):
        masses, centroids, costs = moments(*args)
        costs = costs.copy()
        costs[row] = bad
        return masses, centroids, costs

    monkeypatch.setattr(assign, "cell_moments", spoiled)
    model = GaussianService([[0.004, 0.001], [0.001, 0.002]])
    with pytest.raises(NonFiniteCost, match="footprint price is not finite"):
        footprint_cost(UniformDensity(UNIT), model, [0.5, 0.5])


def test_footprint_prices_do_not_depend_on_the_mapped_rule_cache():
    """Service A's row, then B's, then A's again in one process: every entry
    has the bits of the same entry priced with no mapped rule cached, only the
    service priced last keeps its rules, and those refuse writes."""
    rng = np.random.default_rng(91)
    phi = GmmDensity(PENTAGON, *MIXTURE)
    a = GaussianService([[0.004, 0.001], [0.001, 0.002]], orientations=twinned_orientations(rng))
    b = IsotropicService(0.12)
    sites = [[0.5, 0.5], [0.35, 0.4], [0.12, 0.62], [0.7, 0.6], [0.55, 0.2]]

    def fresh(model, site):
        assign._mapped_rules.cache_clear()
        return footprint_cost(phi, model, site)

    want = {model: [fresh(model, site) for site in sites] for model in (a, b)}
    assert all(any(unclipped(phi, m, s)) for m in (a, b) for s in sites[:2])
    assert not all(all(unclipped(phi, m, s)) for m in (a, b) for s in sites)
    for model in (a, b, a):
        assert [footprint_cost(phi, model, site) for site in sites] == want[model]
        assert assign._mapped_rules.cache_info().currsize == 1
        hits = assign._mapped_rules.cache_info().hits
        rules = assign._mapped_rules(model, 2)
        assert assign._mapped_rules.cache_info().hits == hits + 1
        assert list(rules) == list(model._priced)
        for offsets, weights in rules.values():
            with pytest.raises(ValueError, match="read-only"):
                offsets[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 0.0
