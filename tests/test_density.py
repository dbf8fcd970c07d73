"""Density field and quadrature tests.

Independent oracles live at the top: a closed-form monomial integral on the
reference triangle and a dense masked Riemann sum for general integrands.
"""
import math
import warnings

import numpy as np
import pytest

from coverkit.assign import GaussianService, IsotropicService
from coverkit.density import (
    EVAL_NODES,
    MASS_EPS,
    RULE_BARY,
    RULE_WEIGHTS,
    DiscreteMeasure,
    GmmDensity,
    GridDensity,
    UniformDensity,
    cell_moments,
    discretize,
    from_pgm,
    load_grid_csv,
    polygon_quadrature,
    read_pgm,
)
from coverkit.errors import CoverkitError, EvalOutsideSupport, InvalidDensity, NoConvergence
from coverkit.geometry import EPS_GEO, ConvexPolygon, power_cells

from tests.oracles import (einsum_eval, einsum_grad_log, fan_quadrature, floor_value, integrate,
                           loop_cell_moments, pixel_loop_norm, point_major_grad_log,
                           point_major_raw)


def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def hexagon(cx=0.5, cy=0.5, r=0.45):
    ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    return ConvexPolygon(np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1))


# ---------------------------------------------------------------- oracles

def tri_monomial_exact(a, b):
    """Integral of x^a y^b over the triangle {x >= 0, y >= 0, x + y <= 1}."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def pixel_centers(phi, ix, iy):
    """Centers of raster cells (ix, iy) of a GridDensity; row 0 is the top."""
    xmin, _, _, ymax = phi.bbox
    return np.stack([xmin + (np.asarray(ix) + 0.5) * phi.dx,
                     ymax - (np.asarray(iy) + 0.5) * phi.dy], axis=-1)


def riemann(fn, poly, n=400):
    """Dense midpoint Riemann sum masked to the polygon."""
    xmin, xmax, ymin, ymax = poly.bbox
    dx, dy = (xmax - xmin) / n, (ymax - ymin) / n
    xs = xmin + (np.arange(n) + 0.5) * dx
    ys = ymin + (np.arange(n) + 0.5) * dy
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    keep = poly.contains(pts)
    return float(np.sum(fn(pts[keep])) * dx * dy)


# ------------------------------------------------------------- quadrature

def test_rule_is_a_partition_of_unity():
    assert RULE_WEIGHTS.shape == (12,)
    assert (RULE_WEIGHTS > 0).all()
    assert abs(RULE_WEIGHTS.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(RULE_BARY.sum(axis=1), 1.0, atol=1e-12)


def test_rule_exact_through_degree_six():
    # points on the reference triangle are (b1, b2) in barycentric terms
    x, y = RULE_BARY[:, 1], RULE_BARY[:, 2]
    for a in range(7):
        for b in range(7 - a):
            got = 0.5 * float(RULE_WEIGHTS @ (x**a * y**b))
            assert abs(got - tri_monomial_exact(a, b)) < 1e-14, (a, b)


def test_quadrature_weights_sum_to_area():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ang = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 9)))
        if np.min(np.diff(ang)) < 0.1:
            continue
        poly = ConvexPolygon(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        for levels in (0, 1, 2):
            _, (w,) = polygon_quadrature(poly.vertices[None], levels)
            assert abs(w.sum() - poly.area) < 1e-12 * max(1.0, poly.area)


def test_quadrature_node_count():
    poly = hexagon()
    for levels in (0, 1, 3):
        (pts,), (w,) = polygon_quadrature(poly.vertices[None], levels)
        assert len(pts) == len(w) == 6 * 4**levels * 12


def test_quadrature_exact_polynomials_on_square():
    sq = unit_square()
    (pts,), (w,) = polygon_quadrature(sq.vertices[None], 1)
    for a in range(7):
        for b in range(7 - a):
            got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
            assert abs(got - 1.0 / ((a + 1) * (b + 1))) < 1e-13, (a, b)


def test_quadrature_converges_on_smooth_integrand():
    poly = hexagon()

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3.0 * p[:, 1])

    fine = integrate(fn, poly, levels=5)
    assert abs(integrate(fn, poly, levels=2) - fine) < 1e-9
    assert abs(fine - riemann(fn, poly, n=1500)) < 5e-3


# ---------------------------------------------------------------- uniform

def test_uniform_eval_and_mass():
    phi = UniformDensity(hexagon())
    inside = np.array([[0.5, 0.5], [0.6, 0.4]])
    np.testing.assert_allclose(phi.eval(inside), 1.0 / phi.workspace.area, rtol=1e-12)
    assert phi.eval(np.array([2.0, 2.0])) == 0.0
    assert abs(integrate(phi.eval, phi.workspace) - 1.0) < 1e-12


def test_uniform_grad_log_is_zero():
    phi = UniformDensity(unit_square())
    np.testing.assert_array_equal(phi.grad_log(np.array([0.3, 0.7])), [0.0, 0.0])
    with pytest.raises(EvalOutsideSupport):
        phi.grad_log(np.array([3.0, 3.0]))


def test_uniform_sampling_statistics():
    phi = UniformDensity(unit_square())
    pts = phi.sample(20000, seed=3)
    assert pts.shape == (20000, 2)
    assert phi.workspace.contains(pts).all()
    np.testing.assert_allclose(pts.mean(axis=0), [0.5, 0.5], atol=0.01)
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=4, range=[[0, 1], [0, 1]])
    tv = 0.5 * np.abs(hist.ravel() / len(pts) - 1.0 / 16).sum()
    assert tv < 0.03


def test_uniform_sampling_respects_nonrectangular_workspace():
    tri = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = UniformDensity(tri).sample(500, seed=1)
    assert tri.contains(pts).all()


def test_sampling_is_seed_deterministic():
    sq = unit_square()
    fields = [
        UniformDensity(sq),
        GmmDensity(sq, [1.0], [[0.5, 0.5]], [np.eye(2) * 0.02]),
        GridDensity(sq, np.array([[1.0, 2.0], [3.0, 4.0]])),
    ]
    for phi in fields:
        a = phi.sample(200, seed=11)
        b = phi.sample(200, seed=11)
        c = phi.sample(200, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------- mixture

def test_gmm_eval_ratios_match_closed_form():
    sq = unit_square()
    mu = np.array([0.4, 0.6])
    cov = np.diag([0.02, 0.05])
    phi = GmmDensity(sq, [1.0], [mu], [cov])
    q1, q2 = np.array([0.5, 0.5]), np.array([0.3, 0.7])

    def maha(q):
        d = q - mu
        return d[0] ** 2 / 0.02 + d[1] ** 2 / 0.05

    expect = math.exp(-0.5 * (maha(q1) - maha(q2)))
    assert abs(phi.eval(q1) / phi.eval(q2) - expect) < 1e-12 * expect


def test_gmm_mass_is_one_under_default_quadrature():
    phi = GmmDensity(
        unit_square(),
        [0.3, 0.7],
        [[0.3, 0.3], [0.7, 0.6]],
        [np.eye(2) * 0.02, [[0.03, 0.01], [0.01, 0.02]]],
    )
    assert abs(integrate(phi.eval, phi.workspace) - 1.0) < 1e-12


def test_gmm_normalization_against_riemann():
    phi = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 0.04])
    assert abs(riemann(phi.eval, phi.workspace, n=800) - 1.0) < 1e-3


def test_gmm_grad_log_matches_finite_differences():
    phi = GmmDensity(
        unit_square(),
        [0.4, 0.6],
        [[0.35, 0.4], [0.65, 0.7]],
        [np.eye(2) * 0.03, [[0.05, -0.01], [-0.01, 0.04]]],
    )
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    g = phi.grad_log(pts)
    h = 1e-6
    for q, gq in zip(pts, g):
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (math.log(phi.eval(q + e)) - math.log(phi.eval(q - e))) / (2 * h)
            assert abs(gq[d] - fd) < 1e-4 * max(1.0, abs(fd))


def random_mixture(rng, components, ws):
    covs = []
    for _ in range(components):
        a = rng.normal(size=(2, 2))
        covs.append(0.01 * a @ a.T + 0.002 * np.eye(2))
    return GmmDensity(ws, rng.uniform(0.2, 1.0, components),
                      rng.uniform(0.2, 0.8, (components, 2)), covs)


@pytest.mark.parametrize("components", [1, 2, 5])
def test_gmm_eval_and_grad_log_match_einsum_oracle(components):
    rng = np.random.default_rng(40 + components)
    phi = random_mixture(rng, components, hexagon())
    # points inside the workspace and in the bounding box around it
    pts = rng.uniform(0.0, 1.0, (4000, 2))
    assert 0 < phi.workspace.contains(pts).sum() < len(pts)
    np.testing.assert_allclose(phi.eval(pts), einsum_eval(phi, pts), rtol=1e-13, atol=0)
    got, want = phi.grad_log(pts), einsum_grad_log(phi, pts)
    err = np.linalg.norm(got - want, axis=1)
    assert (err <= 1e-13 * np.linalg.norm(want, axis=1)).all()


@pytest.mark.parametrize("components", [*range(1, 10), 17])
def test_gmm_component_rows_match_point_major_oracle(components):
    """Summing component rows in order gives numpy's bits for a short point
    row below 8 components; from 8 on numpy sums such a row in another order."""
    rng = np.random.default_rng(70 + components)
    phi = random_mixture(rng, components, hexagon())
    pts = rng.uniform(0.0, 1.0, (4000, 2))
    raw, want_raw = phi._raw(pts), point_major_raw(phi, pts)
    grad, want_grad = phi.grad_log(pts), point_major_grad_log(phi, pts)
    if components < 8:
        np.testing.assert_array_equal(raw, want_raw)
        np.testing.assert_array_equal(grad, want_grad)
    else:
        assert (np.abs(raw - want_raw) <= 1e-15 * want_raw).all()
        err = np.linalg.norm(grad - want_grad, axis=1)
        assert (err <= 1e-15 * np.linalg.norm(want_grad, axis=1)).all()


def test_gmm_grad_log_raises_on_underflow():
    phi = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 1e-4])
    with pytest.raises(EvalOutsideSupport):
        phi.grad_log(np.array([0.999, 0.001]))


def test_gmm_sampling_moments():
    mu = np.array([0.5, 0.5])
    cov = np.array([[0.01, 0.004], [0.004, 0.008]])
    phi = GmmDensity(unit_square(), [1.0], [mu], [cov])
    pts = phi.sample(20000, seed=9)
    np.testing.assert_allclose(pts.mean(axis=0), mu, atol=0.005)
    np.testing.assert_allclose(np.cov(pts.T), cov, rtol=0.1, atol=5e-4)


def test_gmm_validation():
    sq = unit_square()
    with pytest.raises(ValueError):
        GmmDensity(sq, [1.0, 1.0], [[0.5, 0.5]], [np.eye(2)])
    with pytest.raises(ValueError):
        GmmDensity(sq, [1.0], [[0.5, 0.5]], [[[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(ValueError):
        GmmDensity(sq, [0.0], [[0.5, 0.5]], [np.eye(2)])


# ------------------------------------------------------------------- grid

def test_grid_orientation_row_zero_is_top():
    phi = GridDensity(unit_square(), np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert phi.eval(np.array([0.25, 0.75])) > 0.0
    assert phi.eval(np.array([0.25, 0.25])) == 0.0
    assert phi.eval(np.array([0.75, 0.75])) == 0.0
    # one live pixel of area 1/4, so the normalized value there is 4
    assert abs(phi.eval(np.array([0.25, 0.75])) - 4.0) < 1e-12


def test_grid_mass_exact_on_rectangle():
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.1, 5.0, size=(5, 8))
    phi = GridDensity(unit_square(), vals)
    centers = pixel_centers(phi, *np.meshgrid(np.arange(8), np.arange(5)))
    total = float(np.sum(phi.eval(centers.reshape(-1, 2))) * (1 / 8) * (1 / 5))
    assert abs(total - 1.0) < 1e-12


def test_grid_mass_exact_on_clipped_workspace():
    rng = np.random.default_rng(3)
    hexa = hexagon()
    phi = GridDensity(hexa, rng.uniform(0.5, 2.0, size=(32, 32)))  # raster over hexa.bbox
    assert abs(riemann(phi.eval, hexa, n=2000) - 1.0) < 5e-3


@pytest.mark.parametrize("seed", range(6))
def test_grid_mass_on_a_random_workspace_equals_the_pixel_polygon_loop(seed):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 7))
    ws = ConvexPolygon(rng.uniform(0.3, 0.7, 2)
                       + rng.uniform(0.1, 0.5, 2) * np.column_stack([np.cos(ang), np.sin(ang)]))
    phi = GridDensity(ws, rng.uniform(0.0, 3.0, size=tuple(rng.integers(3, 41, 2))))
    assert phi._norm == pixel_loop_norm(phi)


def test_grid_refuses_boundary_pixels_no_wider_than_eps_geo():
    # clip drops every cut remainder of a pixel 1e-9 wide as a sliver, so
    # this mass would come out about 500 times too small
    sliver = ConvexPolygon([[0.0, 0.0], [1e-6, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidDensity, match="grid pixels of .* are too small to clip"):
        GridDensity(sliver, np.ones((1, 1000)))
    # no pixel of a raster over a rectangle is cut, so none is too small
    strip = ConvexPolygon([[0.0, 0.0], [1e-6, 0.0], [1e-6, 1.0], [0.0, 1.0]])
    phi = GridDensity(strip, np.ones((2, 1000)))
    assert phi._norm * strip.area == pytest.approx(1.0, rel=1e-12)


def test_grid_grad_log_on_exponential_raster():
    n = 64
    sq = unit_square()
    iy, ix = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    centers = pixel_centers(GridDensity(sq, np.ones((n, n))), ix, iy)
    vals = np.exp(3.0 * centers[..., 0] + 2.0 * centers[..., 1])
    phi = GridDensity(sq, vals)
    h = 1.0 / n
    q = pixel_centers(phi, 20, 40) + np.array([0.3 * h, -0.2 * h])  # off-center snap
    g = phi.grad_log(q)
    # central difference of an exact exponential: sinh(k h) / h per axis
    assert abs(g[0] - math.sinh(3.0 * h) / h) < 1e-9
    assert abs(g[1] - math.sinh(2.0 * h) / h) < 1e-9
    np.testing.assert_allclose(g, [3.0, 2.0], rtol=1e-3)


def test_grid_grad_log_clamps_at_borders():
    phi = GridDensity(unit_square(), np.arange(1.0, 17.0).reshape(4, 4))
    g = phi.grad_log(np.array([[0.01, 0.01], [0.99, 0.99], [0.5, 0.5]]))
    assert np.isfinite(g).all()


def test_grid_grad_log_raises_on_zero_pixel():
    phi = GridDensity(unit_square(), np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(EvalOutsideSupport):
        phi.grad_log(np.array([0.75, 0.75]))


def test_grid_sampling_matches_histogram():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.2, 1.0, size=(16, 16))
    phi = GridDensity(unit_square(), vals)
    pts = phi.sample(100000, seed=8)
    assert phi.workspace.contains(pts).all()
    ix = np.clip((pts[:, 0] * 16).astype(int), 0, 15)
    iy = np.clip(((1.0 - pts[:, 1]) * 16).astype(int), 0, 15)
    hist = np.zeros((16, 16))
    np.add.at(hist, (iy, ix), 1.0)
    p = vals / vals.sum()
    tv = 0.5 * np.abs(hist / len(pts) - p).sum()
    assert tv < 0.05


def test_grid_sampling_avoids_zero_pixels():
    vals = np.ones((8, 8))
    vals[:, :4] = 0.0
    pts = GridDensity(unit_square(), vals).sample(2000, seed=5)
    assert (pts[:, 0] >= 0.5).all()


def test_mass_whose_reciprocal_overflows_is_rejected():
    # 1 / 5e-309 is above the largest double
    with pytest.raises(InvalidDensity):
        GridDensity(unit_square(), [[5e-309]])
    GridDensity(unit_square(), [[1e-307]])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridDensity(unit_square(), -np.ones((2, 2)))
    with pytest.raises(ValueError):
        GridDensity(unit_square(), np.ones(4))


# --------------------------------------------------------------- file I/O

def test_read_pgm_ascii(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50\n")
    np.testing.assert_array_equal(read_pgm(path), [[0, 10, 20], [30, 40, 50]])


def test_read_pgm_binary(tmp_path):
    path = tmp_path / "b.pgm"
    raw = bytes([0, 10, 20, 30, 40, 50])
    path.write_bytes(b"P5\n3 2\n255\n" + raw)
    np.testing.assert_array_equal(read_pgm(path), [[0, 10, 20], [30, 40, 50]])


def test_read_pgm_sixteen_bit(tmp_path):
    path = tmp_path / "c.pgm"
    vals = np.array([[300, 40000], [1, 65535]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
    np.testing.assert_array_equal(read_pgm(path), vals.astype(float))


def test_read_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "d.ppm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_from_pgm_builds_grid_density(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_text("P2\n2 2\n9\n9 0\n0 0\n")
    phi = from_pgm(path, unit_square())
    assert phi.eval(np.array([0.25, 0.75])) > 0.0
    assert phi.eval(np.array([0.75, 0.25])) == 0.0


def test_grid_csv_round_trip(tmp_path):
    path = tmp_path / "g.csv"
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.savetxt(path, vals, delimiter=",")
    phi = load_grid_csv(path, unit_square())
    np.testing.assert_array_equal(phi.values, vals)


# --------------------------------------------------- measures, discretize

def test_discrete_measure_normalizes():
    m = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [2.0, 6.0])
    np.testing.assert_allclose(m.weights, [0.25, 0.75])
    assert len(m) == 2
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0, 0.0]], [-1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0, 0.0]], [0.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0, 0.0]], [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_discrete_measure_refuses_non_finite_points_and_weights(bad):
    with pytest.raises(InvalidDensity, match="points must be finite"):
        DiscreteMeasure([[0.0, 0.0], [bad, 1.0]], [1.0, 1.0])
    with pytest.raises(InvalidDensity, match="weights must be finite"):
        DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [bad, 1.0])


def test_discrete_measure_refuses_weights_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDensity, match="overflows"):
            DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [1e308, 1e308])


def test_discretize_uniform_is_flat():
    mu = discretize(UniformDensity(unit_square()), 4, 4)
    assert len(mu) == 16
    np.testing.assert_allclose(mu.weights, 1.0 / 16, atol=1e-12)
    assert abs(mu.weights.sum() - 1.0) < 1e-12
    xs = np.unique(np.round(mu.points[:, 0], 12))
    np.testing.assert_allclose(xs, [0.125, 0.375, 0.625, 0.875])


def test_discretize_gaussian_peaks_at_center():
    phi = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 0.01])
    mu = discretize(phi, 3, 3)
    assert int(np.argmax(mu.weights)) == 4
    np.testing.assert_allclose(mu.points[4], [0.5, 0.5], atol=1e-12)


def test_discretize_keeps_zero_weight_atoms():
    vals = np.ones((4, 4))
    vals[:, 2:] = 0.0  # right half of the image is empty
    mu = discretize(GridDensity(unit_square(), vals), 4, 4)
    assert len(mu) == 16
    right = mu.points[:, 0] > 0.5
    assert np.all(mu.weights[right] == 0.0)
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_discretize_matches_riemann_masses():
    phi = GmmDensity(unit_square(), [1.0], [[0.4, 0.6]], [np.eye(2) * 0.05])
    mu = discretize(phi, 8, 8)

    def cell_mass(i):
        x, y = mu.points[i]
        cell = ConvexPolygon([[x - 1 / 16, y - 1 / 16], [x + 1 / 16, y - 1 / 16],
                              [x + 1 / 16, y + 1 / 16], [x - 1 / 16, y + 1 / 16]])
        return riemann(phi.eval, cell, n=60)

    for i in (0, 27, 36, 63):
        assert abs(mu.weights[i] - cell_mass(i)) < 1e-5


# --------------------------------------------------------- cell summaries

def test_cell_mass_centroid_uniform_half():
    phi = UniformDensity(unit_square())
    left = ConvexPolygon([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
    (mass,), (c,), _ = cell_moments(phi, [left], np.zeros((1, 2)))
    assert abs(mass - 0.5) < 1e-12
    np.testing.assert_allclose(c, [0.25, 0.5], atol=1e-12)


def test_cell_mass_centroid_gaussian_half_matches_erf_oracle():
    sigma = 0.15
    phi = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * sigma**2])
    left = ConvexPolygon([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
    (mass,), (c,), _ = cell_moments(phi, [left], np.zeros((1, 2)), levels=3)

    # one-dimensional truncated-Gaussian identities; the y factor cancels
    def pdf(x):
        return math.exp(-0.5 * ((x - 0.5) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    prob = 0.5 * math.erf(0.5 / (sigma * math.sqrt(2.0)))
    cx = 0.5 - sigma**2 * (pdf(0.5) - pdf(0.0)) / prob
    assert abs(c[0] - cx) < 1e-3
    assert abs(c[1] - 0.5) < 1e-3
    # the field is renormalized over the square, so compare mass as a fraction
    (total,), _, _ = cell_moments(phi, [phi.workspace], np.zeros((1, 2)), levels=3)
    assert abs(mass / total - 0.5) < 1e-6


def test_cell_mass_centroid_empty_cell():
    phi = GmmDensity(unit_square(), [1.0], [[0.9, 0.9]], [np.eye(2) * 2.5e-5])
    tiny = ConvexPolygon([[0.0, 0.0], [0.01, 0.0], [0.01, 0.01], [0.0, 0.01]])
    center = np.array([0.005, 0.005])
    (mass,), (c,), _ = cell_moments(phi, [tiny], center[None])
    assert mass == 0.0
    # below MASS_EPS there is no centroid: the center stands in for it
    np.testing.assert_array_equal(c, center)


# each case's cost is the squared distance to its center, as its id says
SQUARED_KINDS = pytest.mark.parametrize("kind", ["uniform", "gmm", "grid"],
                                        ids=lambda kind: f"squared-{kind}")


def moments_oracle(phi, polys, centers, levels):
    """One quadrature and one eval per polygon, reduced term by term."""
    out = []
    for poly, center in zip(polys, centers):
        if poly is None:
            out.append((0.0, center, 0.0))
            continue
        pts, w = fan_quadrature(poly, levels)
        vals = phi.eval(pts)
        weight = np.linalg.norm(pts - center, axis=1) ** 2
        mass = float(np.sum(w * vals))
        cost = float(np.sum(w * vals * weight))
        centroid = (w * vals) @ pts / mass if mass >= MASS_EPS else center
        out.append((mass, centroid, cost))
    return out


@SQUARED_KINDS
def test_cell_moments_matches_per_polygon_oracle(kind):
    ws = unit_square()
    if kind == "uniform":
        phi = UniformDensity(ws)
    elif kind == "gmm":
        # modes far from the origin leave the corner cell starved of mass
        phi = GmmDensity(ws, [0.7, 0.3], [[0.6, 0.55], [0.8, 0.3]],
                         [np.eye(2) * 0.01, [[0.012, 0.003], [0.003, 0.008]]])
    else:
        phi = GridDensity(ws, np.random.default_rng(3).uniform(0.0, 2.0, (5, 7)))
    sites = np.array([[0.1, 0.1], [0.5, 0.2], [0.8, 0.6], [0.3, 0.8],
                      [0.55, 0.55], [0.12, 0.14]])
    polys = power_cells(ws, sites, [0.0, 0.05, 0.1, 0.0, 0.02, 0.3])
    polys += [None, ConvexPolygon([[0.0, 0.0], [0.01, 0.0], [0.01, 0.01], [0.0, 0.01]])]
    centers = np.vstack([sites, [[0.2, 0.2], [0.005, 0.005]]])
    assert any(poly is None for poly in polys)

    masses, centroids, costs = cell_moments(phi, polys, centers, 2)
    for i, (mass, centroid, cost) in enumerate(moments_oracle(phi, polys, centers, 2)):
        assert masses[i] == pytest.approx(mass, rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(centroids[i], centroid, rtol=1e-12, atol=0)
        assert costs[i] == pytest.approx(cost, rel=1e-12, abs=1e-300)
    if kind == "gmm":
        assert masses[-1] < MASS_EPS
        np.testing.assert_array_equal(centroids[-1], centers[-1])


def random_ngon(rng, sides):
    """A convex polygon inscribed in a random circle inside the unit square."""
    center = rng.uniform(0.25, 0.75, 2)
    ang = 2.0 * np.pi * (np.arange(sides) + rng.uniform(0.1, 0.9, sides)) / sides
    return ConvexPolygon(center + rng.uniform(0.05, 0.2) * np.column_stack(
        [np.cos(ang), np.sin(ang)])), center


def test_stacked_quadrature_rows_match_one_polygon_rule():
    rng = np.random.default_rng(4)
    polys = [random_ngon(rng, 5)[0] for _ in range(4)]
    pts, w = polygon_quadrature(np.stack([p.vertices for p in polys]), 2)
    for row, poly in enumerate(polys):
        want_pts, want_w = fan_quadrature(poly, 2)
        np.testing.assert_allclose(pts[row], want_pts, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[row], want_w, rtol=1e-14, atol=0)


@SQUARED_KINDS
def test_cell_moments_matches_loop_oracle(kind):
    ws = unit_square()
    if kind == "uniform":
        phi = UniformDensity(ws)
    elif kind == "gmm":
        phi = GmmDensity(ws, [0.7, 0.3], [[0.6, 0.55], [0.8, 0.3]],
                         [np.eye(2) * 0.01, [[0.012, 0.003], [0.003, 0.008]]])
    else:
        phi = GridDensity(ws, np.random.default_rng(3).uniform(0.0, 2.0, (5, 7)))
    rng = np.random.default_rng(8)
    # polygons of 3 to 12 vertices, with more hexagons than one eval slab holds
    entries = [random_ngon(rng, sides) for sides in [*range(3, 13), *[6] * 12]]
    # ready rules about their centers, of two node counts
    for sides in (4, 7, 7):
        poly, center = random_ngon(rng, sides)
        pts, w = fan_quadrature(poly, 2)
        entries.append(((pts - center, w), center))
    entries += [(None, np.array([0.3, 0.3])), (None, np.array([0.6, 0.1]))]
    order = rng.permutation(len(entries))
    polys = [entries[i][0] for i in order]
    centers = np.array([entries[i][1] for i in order])
    assert 12 * 6 * 16 * 13 > EVAL_NODES

    got = cell_moments(phi, polys, centers, 2)
    want = loop_cell_moments(phi, polys, centers, 2)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


PENTAGON = ConvexPolygon([(0.1, 0.0), (0.9, 0.05), (1.0, 0.6), (0.5, 1.0), (0.0, 0.7)])


def edge_gaps(ws, pts):
    """Signed distance of each point to the nearest edge line of ws, positive inside."""
    a = ws.vertices
    e = np.roll(a, -1, axis=0) - a
    rel = pts[:, None, :] - a[None, :, :]
    gaps = (e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0]) / np.hypot(e[:, 0], e[:, 1])
    return gaps[np.arange(len(pts)), np.abs(gaps).argmin(axis=1)]


@SQUARED_KINDS
def test_unmasked_moments_equal_masked_loop_oracle(kind):
    """Every node cell_moments integrates lies in W, so skipping the mask of
    eval changes no bit: clipped cells with vertices a rounding error off W's
    edges, and footprints pushed out through an edge by up to 0.9 EPS_GEO,
    which stay unclipped ready rules."""
    ws = PENTAGON
    if kind == "uniform":
        phi = UniformDensity(ws)
    elif kind == "gmm":
        phi = GmmDensity(ws, [0.6, 0.4], [[0.3, 0.35], [0.7, 0.65]],
                         [np.eye(2) * 0.015, [[0.01, -0.003], [-0.003, 0.012]]])
    else:
        phi = GridDensity(ws, np.random.default_rng(5).uniform(0.0, 2.0, (6, 9)))
    rng = np.random.default_rng(12)
    sites = rng.uniform(0.0, 1.0, (80, 2))
    sites = sites[ws.contains(sites)]
    cells = power_cells(ws, sites, rng.uniform(0.0, 0.01, len(sites)))
    entries = list(zip(cells, sites))
    on_edge = [gap for c in cells if c is not None for gap in edge_gaps(ws, c.vertices)
               if abs(gap) <= 1e-16]
    assert min(on_edge) < 0.0 < max(on_edge)

    # a service's footprints are checked at its own orientations, so each draws its theta
    services = [lambda theta: IsotropicService(0.1, orientations=(theta,)),
                lambda theta: GaussianService([[0.004, 0.001], [0.001, 0.002]],
                                              orientations=(theta,))]
    v = ws.vertices
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        for service in services:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            model = service(theta)
            ring = model.footprint([0.0, 0.0], theta).vertices
            start = a + 0.5 * (b - a) - 0.3 * normal
            reach = (ring @ normal).max() + (start - a) @ normal
            for overshoot in (-EPS_GEO, -3e-10, 0.0, 3e-10, 0.9 * EPS_GEO):
                center = start + (overshoot - reach) * normal
                rule = model._quadrature(ws, center, theta, 2)
                assert isinstance(rule, tuple)
                entries.append((rule, center))
        # a footprint the edge clips, as footprint_cost prices it
        clipped = IsotropicService(0.1)._quadrature(ws, a + 0.5 * (b - a), 0.0, 2)
        assert isinstance(clipped, ConvexPolygon)
        entries.append((clipped, a + 0.5 * (b - a)))
    polys = [e[0] for e in entries]
    centers = np.array([e[1] for e in entries])

    got = cell_moments(phi, polys, centers, 2)
    want = loop_cell_moments(phi, polys, centers, 2)
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x, y)


QUERY_KINDS = {
    "uniform": lambda: UniformDensity(unit_square()),
    "gmm": lambda: GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 0.05]),
    "grid": lambda: GridDensity(unit_square(), [[1.0, 2.0], [3.0, 4.0]]),
}


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_eval_and_grad_log_read_query_points_with_check_points(kind):
    # GmmDensity and UniformDensity once evaluated a (2, 3) array at its
    # first two columns, the mixture's grad_log of a NaN point was [nan, nan],
    # and the raster cast NaN to an index with numpy's invalid-value warning
    phi = QUERY_KINDS[kind]()
    value = phi.eval([0.3, 0.6])
    assert isinstance(value, float) and value == phi.eval([[0.3, 0.6]])[0]
    np.testing.assert_array_equal(phi.grad_log([0.3, 0.6]), phi.grad_log([[0.3, 0.6]])[0])
    assert phi.grad_log(np.full((3, 2), 0.4)).shape == (3, 2)
    bad_queries = ([np.nan, 0.5], [[0.3, 0.6], [0.5, np.inf]], np.zeros((2, 3)),
                   [0.1, 0.2, 0.3], 0.5, [[0.1, 0.2], [0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (phi.eval, phi.grad_log):
            for bad in bad_queries:
                with pytest.raises(ValueError, match="^query points must be"):
                    query(bad)


def test_rejection_sampling_gives_up_on_mass_out_of_reach():
    # nine standard deviations outside the square: no proposal ever lands
    phi = GmmDensity(unit_square(), [1.0], [[1.9, 1.9]], [np.eye(2) * 0.01])
    with pytest.raises(NoConvergence, match="rejection sampling"):
        phi.sample(4, seed=0)


def test_floor_value_scaling():
    phi = UniformDensity(unit_square())
    assert abs(floor_value(phi) - 1e-12) < 1e-24
    peaked = GmmDensity(unit_square(), [1.0], [[0.5, 0.5]], [np.eye(2) * 0.01])
    assert 0.0 < floor_value(peaked) < 1e-10 * peaked.eval(np.array([0.5, 0.5]))


@pytest.mark.parametrize("build", [
    lambda W: GridDensity(W, np.full((3, 3), np.nan)),
    lambda W: GridDensity(W, np.zeros((3, 3))),
    lambda W: GmmDensity(W, [-1.0], [[0.5, 0.5]], [np.eye(2) * 0.01]),
    lambda W: GmmDensity(W, [1.0], [[0.5, 0.5]], [[[0.01, 0.009], [0.0, 0.01]]]),
    lambda W: GmmDensity(W, [1.0], [[6.0, 6.0]], [np.eye(2) * 0.01]),
    lambda W: DiscreteMeasure([[0.5, 0.5]], [0.0]),
    lambda W: discretize(UniformDensity(W), 1, 1),
    # one live pixel between the Gauss-Legendre nodes of a 2x2 discretization
    lambda W: discretize(GridDensity(W, np.pad([[1.0]], ((49, 50), (49, 50)))), 2, 2),
], ids=["nan-grid", "zero-grid", "negative-weight", "asymmetric-covariance",
        "no-mass-over-workspace", "massless-measure", "coarse-discretization",
        "discretization-misses-mass"])
def test_density_errors_are_typed_coverkit_errors(build):
    with pytest.raises(CoverkitError) as caught:
        build(unit_square())
    assert isinstance(caught.value, InvalidDensity)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("weights, means", [
    ([1.0, 1.0], [[np.nan, 0.5], [0.5, 0.5]]),
    ([1.0, 1.0], [[0.5, np.inf], [0.5, 0.5]]),
    ([np.inf, 1.0], [[0.3, 0.3], [0.7, 0.7]]),
    ([np.nan, 1.0], [[0.3, 0.3], [0.7, 0.7]]),
], ids=["nan-mean", "inf-mean", "inf-weight", "nan-weight"])
def test_gmm_rejects_non_finite_parameters(weights, means):
    # unchecked, a NaN mean made eval return NaN and an infinite weight
    # normalized the weights to [nan, 0]
    with pytest.raises(InvalidDensity, match="finite"):
        GmmDensity(unit_square(), weights, means, [np.eye(2) * 0.01] * 2)


def test_gmm_rejects_a_zero_weight():
    with pytest.raises(InvalidDensity, match="mixture weights must be positive"):
        GmmDensity(unit_square(), [1.0, 0.0], [[0.3, 0.3], [0.7, 0.7]], [np.eye(2) * 0.01] * 2)
