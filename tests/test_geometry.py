import numpy as np
import pytest

from coverkit.errors import DuplicateSites, SiteOutsideWorkspace
from coverkit.geometry import (
    ConvexPolygon,
    HalfPlane,
    chord_interval,
    clip,
    intersect,
    polygon_moments,
    power_cells,
    voronoi_cells,
)


def unit_square():
    return ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


# ---------------------------------------------------------------- oracles

def grid_power_labels(points, radii, n=400):
    """Independent oracle: label a dense grid by smallest power distance.

    Lowest index wins ties, matching the documented tie rule.
    """
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs)
    q = np.stack([gx.ravel(), gy.ravel()], axis=1)
    P = np.asarray(points, float)
    r2 = np.asarray(radii, float) ** 2
    d = ((q[:, None, :] - P[None, :, :]) ** 2).sum(-1) - r2[None, :]
    return q, d.argmin(axis=1)


# ---------------------------------------------------------------- clip

def test_clip_axis_aligned_cut():
    out = clip(unit_square(), HalfPlane.from_direction([1, 0], 0.5))
    assert out is not None
    assert np.isclose(out.area, 0.5)
    assert out.vertices[:, 0].max() == pytest.approx(0.5)
    assert out.vertices[:, 0].min() == pytest.approx(0.0)


def test_clip_non_binding_returns_same_polygon():
    sq = unit_square()
    assert clip(sq, HalfPlane.from_direction([1, 0], 2.0)) is sq


def test_clip_disjoint_returns_none():
    assert clip(unit_square(), HalfPlane.from_direction([1, 0], -1.0)) is None


def test_clip_idempotent_on_random_cuts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        direction = rng.normal(size=2)
        offset = rng.uniform(-0.2, 1.2)
        h = HalfPlane.from_direction(direction, offset)
        once = clip(unit_square(), h)
        twice = clip(once, h)
        if once is None:
            assert twice is None
        else:
            assert np.allclose(once.vertices, twice.vertices, atol=1e-12)


def clip_to_edges(poly, region):
    """Clip edge by edge against the region's outward half-planes."""
    v = region.vertices
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        n = np.array([e[1], -e[0]])
        poly = clip(poly, HalfPlane.from_direction(n, n @ a))
    return poly


def test_intersect_matches_edge_by_edge_clip():
    rng = np.random.default_rng(11)
    region = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.3, 0.7], [0.4, 1.1], [-0.2, 0.6]])
    for _ in range(40):
        center = rng.uniform(-0.5, 1.5, 2)
        ang = np.linspace(0.0, 2.0 * np.pi, 9)[:-1] + rng.uniform(0.0, 1.0)
        poly = ConvexPolygon(center + rng.uniform(0.1, 0.6)
                             * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        got, want = intersect(poly, region), clip_to_edges(poly, region)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got.vertices, want.vertices)


def test_intersect_disjoint_and_contained():
    square = unit_square()
    far = ConvexPolygon([[2.0, 2.0], [3.0, 2.0], [3.0, 3.0]])
    assert intersect(far, square) is None
    assert clip_to_edges(far, square) is None
    inner = ConvexPolygon([[0.2, 0.2], [0.6, 0.3], [0.4, 0.7]])
    assert intersect(inner, square) is inner
    np.testing.assert_array_equal(intersect(square, inner).vertices,
                                  clip_to_edges(square, inner).vertices)
    np.testing.assert_allclose(intersect(square, inner).vertices, inner.vertices,
                               atol=1e-15)


def test_halfplane_normalizes():
    h = HalfPlane.from_direction([3, 4], 10.0)
    assert np.isclose(np.hypot(*h.normal), 1.0, atol=1e-12)
    assert np.isclose(h.offset, 2.0)


# ---------------------------------------------------------------- moments

def test_moments_unit_square():
    area, c = polygon_moments(unit_square())
    assert area == pytest.approx(1.0)
    assert np.allclose(c, [0.5, 0.5])


def test_moments_triangle():
    area, c = polygon_moments(ConvexPolygon([[0, 0], [1, 0], [0, 1]]))
    assert area == pytest.approx(0.5)
    assert np.allclose(c, [1 / 3, 1 / 3])


def test_moments_half_rectangle():
    area, c = polygon_moments(ConvexPolygon([[0, 0], [0.5, 0], [0.5, 1], [0, 1]]))
    assert area == pytest.approx(0.5)
    assert np.allclose(c, [0.25, 0.5])


# ---------------------------------------------------------------- polygon validation

def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_polygon_rejects_nonconvex():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0], [0.4, 0.4], [0, 1]])


def test_polygon_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 0], [1, 0], [1, 1]])


def test_contains_handles_boundary():
    sq = unit_square()
    assert sq.contains([0.5, 0.5])
    assert sq.contains([0.0, 0.0])
    assert not sq.contains([1.1, 0.5])
    flags = sq.contains(np.array([[0.2, 0.2], [2.0, 2.0]]))
    assert flags.tolist() == [True, False]


# ---------------------------------------------------------------- voronoi

def test_voronoi_two_sites_split_at_half():
    cells = voronoi_cells(unit_square(), [[0.25, 0.5], [0.75, 0.5]])
    assert np.isclose(cells[0].area, 0.5)
    assert np.isclose(cells[1].area, 0.5)
    assert cells[0].vertices[:, 0].max() == pytest.approx(0.5)


def test_voronoi_single_site_is_whole_workspace():
    cells = voronoi_cells(unit_square(), [[0.3, 0.9]])
    assert np.isclose(cells[0].area, 1.0)


def test_voronoi_quadrants():
    sites = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    cells = voronoi_cells(unit_square(), sites)
    for cell, site in zip(cells, sites):
        assert np.isclose(cell.area, 0.25)
        assert np.allclose(cell.centroid, site)


def test_voronoi_duplicate_sites_raise():
    with pytest.raises(DuplicateSites):
        voronoi_cells(unit_square(), [[0.5, 0.5], [0.5, 0.5]])


def test_voronoi_site_outside_raises():
    with pytest.raises(SiteOutsideWorkspace):
        voronoi_cells(unit_square(), [[0.5, 0.5], [1.5, 0.5]])


def test_voronoi_partition_tiles_workspace():
    rng = np.random.default_rng(3)
    W = unit_square()
    for _ in range(10):
        n = rng.integers(2, 9)
        sites = rng.uniform(0.05, 0.95, size=(n, 2))
        cells = voronoi_cells(W, sites)
        total = sum(c.area for c in cells)
        assert abs(total - 1.0) < 1e-6


def test_voronoi_nearest_site_consistency():
    rng = np.random.default_rng(11)
    W = unit_square()
    sites = rng.uniform(0.1, 0.9, size=(6, 2))
    cells = voronoi_cells(W, sites)
    qs = rng.uniform(0, 1, size=(1000, 2))
    d2 = ((qs[:, None, :] - sites[None, :, :]) ** 2).sum(-1)
    nearest = d2.argmin(axis=1)
    gaps = np.sort(d2, axis=1)
    for q, lab, gap in zip(qs, nearest, gaps):
        # the labeled cell must contain q; near ties, any closest cell may own it
        if gap[1] - gap[0] < 1e-9:
            continue
        assert cells[lab].contains(q, tol=1e-9)


def test_random_point_lies_in_exactly_one_cell_interior():
    rng = np.random.default_rng(5)
    W = unit_square()
    sites = rng.uniform(0.1, 0.9, size=(5, 2))
    cells = voronoi_cells(W, sites)
    qs = rng.uniform(0, 1, size=(500, 2))
    for q in qs:
        hits = [i for i, c in enumerate(cells) if c.contains(q, tol=0.0)]
        strict = [i for i, c in enumerate(cells) if c.contains(q, tol=-1e-9)]
        assert len(hits) >= 1
        assert len(strict) <= 1


# ---------------------------------------------------------------- power cells

def test_power_equal_radii_match_voronoi_vertices():
    rng = np.random.default_rng(2)
    W = unit_square()
    for _ in range(5):
        sites = rng.uniform(0.1, 0.9, size=(5, 2))
        vor = voronoi_cells(W, sites)
        pow_ = power_cells(W, sites, np.full(5, 0.37))
        for a, b in zip(vor, pow_):
            assert b is not None
            assert np.allclose(a.vertices, b.vertices, atol=1e-9)


def test_power_two_sites_split_at_hand_derived_line():
    # radical axis of ((0.25,0.5), rho 0.5) vs ((0.75,0.5), rho 0.1):
    # x = (|p2|^2 - |p1|^2 - rho2^2 + rho1^2) / (2 (p2x - p1x)) = 0.74
    W = unit_square()
    cells = power_cells(W, [[0.25, 0.5], [0.75, 0.5]], [0.5, 0.1])
    assert cells[0] is not None and cells[1] is not None
    assert cells[0].vertices[:, 0].max() == pytest.approx(0.74, abs=1e-9)
    assert cells[1].vertices[:, 0].min() == pytest.approx(0.74, abs=1e-9)

    q, labels = grid_power_labels([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.1], n=200)
    for point, lab in zip(q[::7], labels[::7]):
        assert cells[lab].contains(point, tol=1e-6)


def test_power_dominated_site_gets_empty_cell():
    W = unit_square()
    cells = power_cells(W, [[0.4, 0.5], [0.6, 0.5]], [10.0, 0.0])
    assert cells[0] is not None
    assert cells[1] is None
    assert np.isclose(cells[0].area, 1.0)
    _, labels = grid_power_labels([[0.4, 0.5], [0.6, 0.5]], [10.0, 0.0], n=100)
    assert (labels == 0).all()


def test_power_partition_tiles_and_matches_grid_oracle():
    rng = np.random.default_rng(9)
    W = unit_square()
    for _ in range(5):
        sites = rng.uniform(0.1, 0.9, size=(4, 2))
        radii = rng.uniform(0.0, 0.4, size=4)
        cells = power_cells(W, sites, radii)
        total = sum(c.area for c in cells if c is not None)
        assert abs(total - 1.0) < 1e-6
        q, labels = grid_power_labels(sites, radii, n=150)
        d = ((q[:, None, :] - sites[None, :, :]) ** 2).sum(-1) - (radii**2)[None, :]
        gap = np.sort(d, axis=1)
        clear = (gap[:, 1] - gap[:, 0]) > 1e-6
        for point, lab in zip(q[clear][::11], labels[clear][::11]):
            cell = cells[lab]
            assert cell is not None and cell.contains(point, tol=1e-6)


def test_power_rejects_negative_radius():
    with pytest.raises(ValueError):
        power_cells(unit_square(), [[0.3, 0.5], [0.7, 0.5]], [0.1, -0.2])


# ---------------------------------------------------------------- chords

def test_chord_interval_horizontal_line():
    t = chord_interval(unit_square(), [0.0, 0.5], [1.0, 0.0])
    assert t == pytest.approx((0.0, 1.0))


def test_chord_interval_missing_line():
    assert chord_interval(unit_square(), [0.0, 2.0], [1.0, 0.0]) is None


def test_chord_interval_diagonal():
    t = chord_interval(unit_square(), [0.0, 0.0], [1.0, 1.0])
    assert t == pytest.approx((0.0, 1.0))
