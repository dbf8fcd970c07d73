import contextlib
import re
import sys
import warnings

import numpy as np
import pytest

from coverkit.errors import DuplicateSites, SiteOutsideWorkspace
from coverkit import geometry
from coverkit.geometry import (
    _RING_FAULTS,
    EPS_GEO,
    ConvexPolygon,
    _clip_rows,
    _dual_cells,
    _lifted_hull,
    _polygons,
    _power_neighbours,
    _ring_rule,
    check_sites,
    clip,
    _edge_planes,
    coincident_pairs,
    power_cells,
    power_cells_from_weights,
    project_into,
    separate,
)
from tests.oracles import (HalfPlane, cellwise_power_cells, clip_planes, edge_planes, intersect,
                           loop_project_into, neighbour_power_cells, one_plane_clip,
                           pair_power_neighbours, pdist_coincident_pairs, ring_fault)


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


def all_pairs_power_cells(workspace, points, weights):
    """Oracle: clip each cell against the radical axis of every other site.

    A plane that keeps every vertex of the cell EPS_GEO / 2 or more inside
    cannot bind, and ``one_plane_clip`` would return the cell unchanged, so
    such planes are skipped in bulk and every other one (NaN included) goes
    through it. Rivals come nearest first, so the cell shrinks to its few
    binding planes early and the far ones are skipped without a cut.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    sq = (P * P).sum(axis=1)
    cells = []
    for i in range(len(P)):
        others = np.delete(np.arange(len(P)), i)
        others = others[np.argsort(np.hypot(*(P[others] - P[i]).T), kind="stable")]
        # HalfPlane.from_direction, one row per competitor
        d = 2.0 * (P[others] - P[i])
        ln = np.hypot(d[:, 0], d[:, 1])
        normals = d / ln[:, None]
        offsets = ((sq[others] - sq[i]) - (w[others] - w[i])) / ln
        cell, k = workspace, 0
        while cell is not None and k < len(others):
            near = np.flatnonzero(
                ~(cell.vertices @ normals[k:].T - offsets[k:] <= 0.5 * EPS_GEO).all(axis=0))
            if not len(near):
                break
            k += near[0]
            cell = one_plane_clip(cell, HalfPlane(normals[k], float(offsets[k])))
            k += 1
        cells.append(cell)
    return cells


def assert_same_cells(got, want, tol=1e-12):
    """Same None pattern and vertex counts; vertex sets within Hausdorff tol."""
    assert [c is None for c in got] == [c is None for c in want]
    for i, (a, b) in enumerate(zip(got, want)):
        if a is None:
            continue
        assert len(a.vertices) == len(b.vertices), i
        d = np.linalg.norm(a.vertices[:, None, :] - b.vertices[None, :, :], axis=-1)
        assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= tol, i


# ---------------------------------------------------------------- clip

def unit_plane(direction, offset):
    """One half-plane as the (1, 2) normals and (1,) offsets that clip takes."""
    h = HalfPlane.from_direction(direction, offset)
    return h.normal[None, :], np.array([h.offset])


def test_clip_axis_aligned_cut():
    out = clip(unit_square().vertices, *unit_plane([1, 0], 0.5))
    assert out is not None
    assert np.isclose(ConvexPolygon(out).area, 0.5)
    assert out[:, 0].max() == pytest.approx(0.5)
    assert out[:, 0].min() == pytest.approx(0.0)


def test_clip_non_binding_returns_same_polygon():
    v = unit_square().vertices
    assert clip(v, *unit_plane([1, 0], 2.0)) is v


def test_clip_disjoint_returns_none():
    assert clip(unit_square().vertices, *unit_plane([1, 0], -1.0)) is None


def test_clip_idempotent_on_random_cuts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        direction = rng.normal(size=2)
        offset = rng.uniform(-0.2, 1.2)
        plane = unit_plane(direction, offset)
        once = clip(unit_square().vertices, *plane)
        if once is not None:
            assert np.allclose(once, clip(once, *plane), atol=1e-12)


def random_convex_ring(rng):
    """Vertices of a random convex polygon, counter-clockwise, 3 to 12 of them."""
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 13)))
    radii = rng.uniform(0.5, 2.0, 2)
    ring = rng.uniform(-1.0, 1.0, 2) + radii * np.column_stack([np.cos(ang), np.sin(ang)])
    return ConvexPolygon(ring).vertices


def random_planes(rng, v, k):
    """k unit half-planes: random lines, lines through a vertex, and lines a
    vertex misses by 0.5 or 2 EPS_GEO on either side."""
    normals = rng.normal(size=(k, 2))
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    offsets = normals @ rng.uniform(-1.5, 1.5, 2)
    through = rng.random(k) < 0.5
    corner = v[rng.integers(len(v), size=k)]
    nudge = rng.choice([0.0, 0.5, -0.5, 2.0, -2.0], size=k) * EPS_GEO
    offsets[through] = (normals * corner).sum(1)[through] + nudge[through]
    return normals, offsets


def assert_clip_matches_oracle(v, normals, offsets) -> str:
    """clip equals the one-plane oracle bit for bit; returns 'none', 'same' or 'cut'."""
    got = clip(v, normals, offsets)
    want = clip_planes(ConvexPolygon(v), normals, offsets)
    if want is None:
        assert got is None
        return "none"
    np.testing.assert_array_equal(got, want.vertices)
    assert (got is v) == (want.vertices is v)
    return "same" if got is v else "cut"


def test_clip_matches_one_plane_oracle():
    rng = np.random.default_rng(2024)
    outcomes = {"same": 0, "none": 0, "cut": 0}
    for _ in range(400):
        v = random_convex_ring(rng)
        outcomes[assert_clip_matches_oracle(
            v, *random_planes(rng, v, int(rng.integers(1, 41))))] += 1
    assert min(outcomes.values()) > 0, outcomes


def assert_clip_rows_match_clip(v, stacks) -> list[str]:
    """``_clip_rows`` of ring v by the (normals, offsets) stacks equals ``clip``
    of each stack bit for bit; returns each row's 'none', 'same' or 'cut'."""
    normals = np.concatenate([n for n, _ in stacks]).reshape(-1, 2)
    offsets = np.concatenate([c for _, c in stacks])
    row = np.repeat(np.arange(len(stacks)), [len(c) for _, c in stacks])
    outcomes = []
    for (n, c), got in zip(stacks, _clip_rows(v, normals, offsets, row, len(stacks))):
        want = clip(v, n, c)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
            assert (got is v) == (want is v)
        outcomes.append("none" if want is None else "same" if want is v else "cut")
    return outcomes


def test_clip_rows_match_clip_row_by_row(monkeypatch):
    # rings down to a few EPS_GEO across, so that cuts leave points within
    # EPS_GEO of one another: most are merged on arrays, and a few go
    # through _merge itself
    merge, callers = geometry._merge, []
    monkeypatch.setattr(geometry, "_merge", lambda pts: callers.append(
        sys._getframe(1).f_code.co_name) or merge(pts))
    rng = np.random.default_rng(34)
    outcomes = {"same": 0, "none": 0, "cut": 0}
    for _ in range(300):
        scale = rng.choice([1.0, 2e-8, 6e-9])
        v = random_convex_ring(rng)
        v = v.mean(axis=0) + scale * (v - v.mean(axis=0))
        with contextlib.suppress(ValueError):
            v = ConvexPolygon(v).vertices
            stacks = []
            for _ in range(int(rng.integers(1, 8))):
                normals, offsets = random_planes(rng, v, int(rng.integers(0, 41)))
                # half of the lines pass within a ring's size of its middle
                middle = normals @ v.mean(axis=0) + scale * rng.normal(size=len(offsets))
                offsets = np.where(rng.random(len(offsets)) < 0.5, middle, offsets)
                if len(offsets) and rng.random() < 0.1:
                    offsets[rng.integers(len(offsets))] = rng.choice([np.nan, np.inf, -np.inf])
                stacks.append((normals, offsets))
            for outcome in assert_clip_rows_match_clip(v, stacks):
                outcomes[outcome] += 1
    assert min(outcomes.values()) > 0 and "_merge_rows" in callers, outcomes


def clip_to_edges(poly, region):
    """Clip edge by edge against the region's outward half-planes."""
    v = region.vertices
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        n = np.array([e[1], -e[0]])
        poly = one_plane_clip(poly, HalfPlane.from_direction(n, n @ a))
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


def test_edge_planes_are_built_once_read_only_and_match_the_formula():
    rng = np.random.default_rng(24)
    for _ in range(60):
        region = ConvexPolygon(random_convex_ring(rng))
        normals, offsets = _edge_planes(region)
        again = _edge_planes(region)
        assert again[0] is normals and again[1] is offsets
        assert not (normals.flags.writeable or offsets.flags.writeable)
        want_normals, want_offsets = edge_planes(region)
        np.testing.assert_array_equal(normals, want_normals)
        np.testing.assert_array_equal(offsets, want_offsets)


# ---------------------------------------------------------------- moments

def test_moments_unit_square():
    square = unit_square()
    area, c = square.area, square.centroid
    assert area == pytest.approx(1.0)
    assert np.allclose(c, [0.5, 0.5])


def test_moments_triangle():
    tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
    area, c = tri.area, tri.centroid
    assert area == pytest.approx(0.5)
    assert np.allclose(c, [1 / 3, 1 / 3])


def test_moments_half_rectangle():
    half = ConvexPolygon([[0, 0], [0.5, 0], [0.5, 1], [0, 1]])
    area, c = half.area, half.centroid
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


def test_polygon_rejects_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="need at least 3"):
        ConvexPolygon([[0, 0], [1, 0]])


@pytest.mark.parametrize("ring", [[[0, 0], [1, 0], [2, 0]], [[0, 0], [1, 0], [0.5, 1e-10]]],
                         ids=["collinear", "sliver"])
def test_polygon_rejects_zero_area(ring):
    with pytest.raises(ValueError, match="area"):
        ConvexPolygon(ring)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_polygon_rejects_non_finite_vertices(bad):
    with pytest.raises(ValueError, match="finite"):
        ConvexPolygon([[0, 0], [bad, 0], [1, 1], [0, 1]])


def degenerate_rings(rng):
    """Random convex rings and spoiled copies: a vertex repeated within
    EPS_GEO / 2, a vertex pushed inward (a reflex turn), a ring flattened to
    a sliver, rings a few EPS_GEO across, and a vertex that is not finite."""
    for _ in range(60):
        v = random_convex_ring(rng)
        yield v
        i = int(rng.integers(len(v)))
        yield np.insert(v, i + 1, v[i] + rng.uniform(-0.35, 0.35, 2) * EPS_GEO, axis=0)
        dent = v.copy()
        dent[i] = v.mean(axis=0) + rng.uniform(0.0, 0.9) * (v[i] - v.mean(axis=0))
        yield dent
        flat = v.copy()
        flat[:, 1] = v[:, 1].mean() + rng.choice([0.0, 1e-10, 1e-8]) * (v[:, 1] - v[:, 1].mean())
        yield flat
        yield v.mean(axis=0) + rng.choice([1e-9, 3e-9, 1e-8]) * (v - v.mean(axis=0))
        bad = v.copy()
        bad[i, int(rng.integers(2))] = rng.choice([np.nan, np.inf, -np.inf])
        yield bad
    yield from (np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]),
                np.array([[0.0, 0.0], [np.nan, 0.0]]))


def test_ring_rule_accepts_and_refuses_as_the_one_ring_checks():
    rings = list(degenerate_rings(np.random.default_rng(63)))
    faults = {message: 0 for message in _RING_FAULTS}
    for size in sorted({len(v) for v in rings}):
        group = [v for v in rings if len(v) == size]
        fails, edges, lengths = _ring_rule(np.stack(group))
        for r, (v, poly) in enumerate(zip(group, _polygons(np.stack(group)))):
            want = ring_fault(v)
            first = [m for m, failed in zip(_RING_FAULTS, fails) if failed[r]][:1]
            assert first == ([] if want is None else [want])
            if want is None:
                alone = ConvexPolygon(v)
                for got, ref in ((poly.vertices, v), (poly._edges, alone._edges),
                                 (poly._lengths, alone._lengths), (edges[r], alone._edges)):
                    np.testing.assert_array_equal(got, ref)
            else:
                faults[want] += 1
                assert poly is None
                with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                    ConvexPolygon(v)
    assert min(faults.values()) > 0, faults


def test_contains_handles_boundary():
    sq = unit_square()
    assert sq.contains([0.5, 0.5])
    assert sq.contains([0.0, 0.0])
    assert not sq.contains([1.1, 0.5])
    flags = sq.contains(np.array([[0.2, 0.2], [2.0, 2.0]]))
    assert flags.tolist() == [True, False]


# ---------------------------------------------------------- point helpers

def test_project_into_moves_points_to_the_nearest_boundary_point():
    sq = unit_square()
    pts = np.array([[1.5, 0.25], [0.4, -2.0], [1.5, 1.75], [-0.5, -0.25], [0.3, 0.6]])
    out = project_into(sq, pts)
    # beyond an edge: straight back onto it; beyond a corner: the corner itself
    np.testing.assert_array_equal(out, [[1.0, 0.25], [0.4, 0.0], [1.0, 1.0],
                                        [0.0, 0.0], [0.3, 0.6]])
    np.testing.assert_array_equal(pts[4], [0.3, 0.6])  # the input is not written to


def test_project_into_returns_the_same_array_when_nothing_is_outside():
    pts = np.array([[0.2, 0.3], [1.0, 1.0], [0.0, 0.5]])
    assert project_into(unit_square(), pts) is pts


def test_project_into_matches_the_loop_oracle():
    rng = np.random.default_rng(8)
    v = np.array([[0.0, 0.0], [2.0, -0.5], [3.0, 1.0], [1.5, 2.5], [-0.5, 1.5]])
    pentagon = ConvexPolygon(v)
    pts = rng.uniform(-2.0, 4.5, size=(400, 2))
    pts = np.vstack([pts, v + [[-1e-3, -1e-3], [0, -1], [1, 0], [0, 1], [-1, 0]]])
    got, want = project_into(pentagon, pts), loop_project_into(pentagon, pts)
    assert (~pentagon.contains(pts)).sum() > 200
    # np.dot may fuse a multiply-add, so the two differ by a few ulps of coordinates below 5
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert pentagon.contains(got).all()


def test_coincident_pairs_in_row_major_order():
    pts = np.array([[0.5, 0.5], [0.1, 0.1], [0.5, 0.5 + 1e-10], [0.1, 0.1], [0.5, 0.5]])
    assert coincident_pairs(pts).tolist() == [[0, 2], [0, 4], [1, 3], [2, 4]]
    assert coincident_pairs(pts[:1]).shape == (0, 2)
    assert len(coincident_pairs([[0.0, 0.0], [0.0, 2e-9]])) == 0


def test_coincident_pairs_of_separated_points_is_an_empty_index_array():
    got = coincident_pairs(np.random.default_rng(5).uniform(0.0, 1.0, (50, 2)))
    assert got.shape == (0, 2)
    assert got.dtype == np.intp


def test_coincident_pairs_match_the_pdist_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        if n > 2:
            # copies, and partners at EPS_GEO (1 +- 1e-12) in random directions
            i, j = rng.integers(n, size=(2, n // 3))
            pts[j] = pts[i]
            k = rng.integers(n, size=n // 3)
            ang = rng.uniform(0.0, 2.0 * np.pi, len(k))
            gap = EPS_GEO * (1.0 + rng.choice([-1e-12, 1e-12], len(k)))
            pts[rng.permutation(n)[:len(k)]] = pts[k] + gap[:, None] * np.column_stack(
                [np.cos(ang), np.sin(ang)])
        want = pdist_coincident_pairs(pts)
        assert len(want) or n <= 2
        np.testing.assert_array_equal(coincident_pairs(pts), want)
        bad = pts.copy()
        bad[rng.integers(n, size=2), rng.integers(2, size=2)] = [np.nan, np.inf]
        np.testing.assert_array_equal(coincident_pairs(bad), pdist_coincident_pairs(bad))


def test_check_sites_names_the_first_pair_then_the_first_stray():
    with pytest.raises(DuplicateSites, match="sites 1 and 3 coincide"):
        check_sites([[0.1, 0.1], [0.4, 0.4], [2.0, 2.0], [0.4, 0.4]], unit_square())
    with pytest.raises(SiteOutsideWorkspace, match="site 2 "):
        check_sites([[0.1, 0.1], [0.4, 0.4], [2.0, 2.0]], unit_square())
    check_sites([[0.1, 0.1], [2.0, 2.0]])


def test_separate_at_a_workspace_corner_stays_inside():
    sq = unit_square()
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
    out = separate(sq, pts)
    assert sq.contains(out, tol=0.0).all()
    np.testing.assert_array_equal(out[:2], pts[:2])
    assert 0 < np.linalg.norm(out[2]) < 1e-5
    check_sites(out, sq)
    assert len(power_cells(sq, out, np.zeros(3))) == 3


def test_separate_spreads_a_merged_cluster_and_leaves_the_rest():
    sq = unit_square()
    pts = np.array([[0.2, 0.7]] * 5 + [[0.6, 0.1], [0.6, 0.1 + 1e-10], [0.9, 0.9]])
    out = separate(sq, pts)
    check_sites(out, sq)
    np.testing.assert_array_equal(out[[0, 5, 7]], pts[[0, 5, 7]])
    assert np.abs(out - pts).max() < 1e-5
    np.testing.assert_array_equal(separate(sq, pts), out)  # deterministic


def test_separate_in_a_workspace_too_thin_for_a_spot_raises():
    # both points sit at the centroid, so the spots run along +x, across the
    # 1e-8 width in steps of 1e-6: every one lies outside
    strip = ConvexPolygon([[0, 0], [1e-8, 0], [1e-8, 1], [0, 1]])
    pts = np.array([strip.centroid] * 2)
    with pytest.raises(DuplicateSites, match="no free spot"):
        separate(strip, pts)


def test_separate_returns_the_same_array_when_nothing_coincides():
    pts = np.array([[0.2, 0.3], [0.7, 0.3]])
    assert separate(unit_square(), pts) is pts


# ---------------------------------------------------------------- voronoi

def test_voronoi_two_sites_split_at_half():
    cells = power_cells_from_weights(unit_square(), np.array([[0.25, 0.5], [0.75, 0.5]]),
                                     np.zeros(2))
    assert np.isclose(cells[0].area, 0.5)
    assert np.isclose(cells[1].area, 0.5)
    assert cells[0].vertices[:, 0].max() == pytest.approx(0.5)


def test_voronoi_single_site_is_whole_workspace():
    cells = power_cells_from_weights(unit_square(), np.array([[0.3, 0.9]]), np.zeros(1))
    assert np.isclose(cells[0].area, 1.0)


def test_voronoi_quadrants():
    sites = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    cells = power_cells_from_weights(unit_square(), sites, np.zeros(4))
    for cell, site in zip(cells, sites):
        assert np.isclose(cell.area, 0.25)
        assert np.allclose(cell.centroid, site)


def test_voronoi_duplicate_sites_raise():
    with pytest.raises(DuplicateSites):
        power_cells(unit_square(), [[0.5, 0.5], [0.5, 0.5]], np.zeros(2))


def test_voronoi_site_outside_raises():
    with pytest.raises(SiteOutsideWorkspace):
        power_cells(unit_square(), [[0.5, 0.5], [1.5, 0.5]], np.zeros(2))


def test_power_weights_must_number_one_per_site():
    with pytest.raises(ValueError, match="one radius per site required"):
        power_cells(unit_square(), [[0.25, 0.5], [0.75, 0.5]], np.zeros(3))


def test_voronoi_partition_tiles_workspace():
    rng = np.random.default_rng(3)
    W = unit_square()
    for _ in range(10):
        n = rng.integers(2, 9)
        sites = rng.uniform(0.05, 0.95, size=(n, 2))
        cells = power_cells_from_weights(W, sites, np.zeros(n))
        total = sum(c.area for c in cells)
        assert abs(total - 1.0) < 1e-6


def test_voronoi_nearest_site_consistency():
    rng = np.random.default_rng(11)
    W = unit_square()
    sites = rng.uniform(0.1, 0.9, size=(6, 2))
    cells = power_cells_from_weights(W, sites, np.zeros(6))
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
    cells = power_cells_from_weights(W, sites, np.zeros(5))
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
        vor = power_cells_from_weights(W, sites, np.zeros(5))
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


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 1e200, 1.3e154],
                         ids=["nan", "inf", "-inf", "1e200", "1.3e154"])
def test_power_rejects_radius_whose_square_over_eps_is_not_finite(radius):
    # NaN once gave None for every cell, inf gave one site the whole square,
    # and 1e200 and 1.3e154 overflowed in numpy (a RuntimeWarning)
    sites = [[0.2, 0.5], [0.5, 0.5], [0.8, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="power radii"):
            power_cells(unit_square(), sites, [radius, 0.1, 0.0])
        # the largest radii the rule admits still give a diagram without a warning
        cells = power_cells(unit_square(), sites, [4e149, 0.1, 0.0])
    assert cells[0].area == pytest.approx(1.0) and cells[1:] == [None, None]


# ------------------------------------------------- lifted-hull power cells

def hexagon():
    ang = 2.0 * np.pi * np.arange(6) / 6
    return ConvexPolygon(np.column_stack([2.0 + 1.5 * np.cos(ang), 1.0 + np.sin(ang)]))


def oracle_cases():
    """(name, workspace, sites, weights) covering the degenerate inputs too."""
    rng = np.random.default_rng(20)
    W = unit_square()
    for n in (5, 30, 120):
        sites = rng.uniform(0.02, 0.98, size=(n, 2))
        yield f"random-{n}", W, sites, rng.uniform(0.0, 0.01, n)
        # radii well above the site spacing: most sites are dominated
        yield f"dominated-{n}", W, sites, rng.uniform(0.0, 0.6, n) ** 2
        yield f"negative-{n}", W, sites, rng.uniform(-0.05, 0.05, n)
    g = (np.arange(6) + 0.5) / 6
    grid = np.array([[x, y] for y in g for x in g])
    yield "grid-equal", W, grid, np.zeros(len(grid))
    yield "grid-weighted", W, grid, np.tile([0.0, 0.003], len(grid) // 2)
    # the centre's lifted point lies on the plane of the four square corners
    coplanar = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75], [0.5, 0.5],
                         [0.5, 0.04], [0.04, 0.5], [0.96, 0.5], [0.5, 0.96]])
    yield "coplanar", W, coplanar, np.eye(9)[4] * -0.125
    # shuffled, so that neighbours along the line are not neighbours in index
    line = rng.permutation(np.column_stack([np.linspace(0.1, 0.9, 7), np.full(7, 0.4)]))
    yield "collinear", W, line, rng.uniform(0.0, 0.01, 7)
    yield "collinear-diagonal", W, np.linspace(0.05, 0.95, 9)[:, None] * [1.0, 1.0], np.zeros(9)
    for n in (1, 2, 3):
        yield f"n{n}", W, rng.uniform(0.1, 0.9, size=(n, 2)), rng.uniform(-0.02, 0.02, n)
    hexa = hexagon()
    v = hexa.vertices
    mix = rng.uniform(0.05, 1.0, size=(40, len(v)))
    hex_sites = (mix / mix.sum(axis=1, keepdims=True)) @ v
    yield "hexagon", hexa, hex_sites, rng.uniform(-0.1, 0.1, 40)
    # qhull rejects a NaN lifted point; non-finite weights take the all-sites path
    for name, bad in (("infinite", np.inf), ("nan", np.nan)):
        weights = np.where(np.arange(6) == 2, bad, 0.0)
        yield name, W, rng.uniform(0.1, 0.9, size=(6, 2)), weights
    # nearly cocircular: every grid square's four power vertices lie within
    # about 1e-13 of one another
    g = (np.arange(8) + 0.5) / 8
    grid = np.array([[x, y] for y in g for x in g])
    yield "grid-jittered", W, grid + rng.uniform(-1e-13, 1e-13, grid.shape), np.zeros(len(grid))
    # sites on the workspace's corners and edges, and a few inside
    rim = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.3, 0.0], [0.7, 0.0],
                    [1.0, 0.45], [0.6, 1.0], [0.0, 0.55], [0.0, 0.8]])
    inner = rng.uniform(0.1, 0.9, size=(12, 2))
    yield "rim", W, np.vstack([rim, inner]), rng.uniform(0.0, 0.004, 22)
    sites = rng.uniform(0.05, 0.95, size=(25, 2))
    yield "one-dominates", W, sites, np.eye(25)[7] * 4.0
    for n in (4, 11, 60, 250, 1000):
        yield (f"random-n{n}", W, rng.uniform(0.0, 1.0, size=(n, 2)),
               rng.uniform(0.0, 0.6 / np.sqrt(n), n) ** 2)


def dual_sites(workspace, sites, weights):
    """The sites whose cells the lifted hull's dual vertices finish, unclipped."""
    P = np.asarray(sites, dtype=float)
    w = np.asarray(weights, dtype=float)
    hull = _lifted_hull(P, w)
    if hull is None or len(hull.coplanar):
        return set()
    return set(_dual_cells(workspace, P, w, (P * P).sum(axis=1), hull))


@pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
def test_power_cells_match_all_pairs_oracle(case):
    _, workspace, sites, weights = case
    got = power_cells_from_weights(workspace, sites, weights)
    assert_same_cells(got, all_pairs_power_cells(workspace, sites, weights))
    want = neighbour_power_cells(workspace, sites, weights)
    assert [c is None for c in got] == [c is None for c in want]
    # cells read off the dual vertices are solved, not clipped: within
    # 1e-12 of the clipped cell, with its vertex count
    dual = dual_sites(workspace, sites, weights)
    assert_same_cells([got[i] for i in sorted(dual)], [want[i] for i in sorted(dual)])
    # the rest bit for bit, cutting by the same neighbours one plane and one
    # polygon at a time
    for i, (a, b) in enumerate(zip(got, want)):
        if b is not None and i not in dual:
            np.testing.assert_array_equal(a.vertices, b.vertices)
    assert_same_bits(got, cellwise_power_cells(workspace, sites, weights), workspace)


def assert_same_bits(got, want, workspace):
    """Same None pattern, the workspace itself where want has it, and every
    other cell with the same vertices, edges and edge lengths, bit for bit."""
    assert [c is None for c in got] == [c is None for c in want]
    assert [c is workspace for c in got] == [c is workspace for c in want]
    for a, b in zip(got, want):
        if a is not None:
            for x, y in ((a.vertices, b.vertices), (a._edges, b._edges),
                         (a._lengths, b._lengths)):
                np.testing.assert_array_equal(x, y)


def random_site_sets(rng, count):
    """(workspace, sites, weights): 1 to 120 sites in a square or a pentagon,
    drawn uniformly, on a 0.01 lattice, in clusters 1e-6 across or in a
    strip 1e-4 high, with weights zero, tiny, small or about a cell's area."""
    ang = 2.0 * np.pi * np.arange(5) / 5 + 0.3
    shapes = (unit_square(), ConvexPolygon(np.column_stack([np.cos(ang), np.sin(ang)])))
    for k in range(count):
        workspace = shapes[k % 2]
        lo, hi = workspace.vertices.min(axis=0), workspace.vertices.max(axis=0)
        n = int(rng.integers(1, 121))
        pts = rng.uniform(lo, hi, size=(4 * n, 2))
        if k % 4 == 1:
            pts = np.round(pts, 2)
        elif k % 4 == 2:
            pts = pts[rng.integers(max(1, n // 5), size=4 * n)] + rng.normal(0.0, 1e-6, (4 * n, 2))
        elif k % 4 == 3:
            pts[:, 1] = 0.3 + rng.uniform(0.0, 1e-4, 4 * n)
        pts = pts[workspace.contains(pts, tol=0.0)]
        pts = pts[np.sort(np.unique(np.round(pts / 1e-8), axis=0, return_index=True)[1])][:n]
        scale = rng.choice([0.0, 1e-6, 1e-3, 0.05]) * rng.choice([-1.0, 1.0])
        if len(pts):
            yield workspace, pts, scale * rng.uniform(0.0, 1.0, len(pts))


@pytest.mark.parametrize("seed", range(8))
def test_power_cells_match_the_cellwise_oracle_on_random_sets(seed):
    for workspace, sites, weights in random_site_sets(np.random.default_rng(seed), 16):
        assert_same_bits(power_cells_from_weights(workspace, sites, weights),
                         cellwise_power_cells(workspace, sites, weights), workspace)


def assert_same_neighbours(sites, weights):
    hull = _lifted_hull(np.asarray(sites, dtype=float), np.asarray(weights, dtype=float))
    got = _power_neighbours(hull, len(sites))
    want = pair_power_neighbours(hull, len(sites))
    assert [None if g is None else g.tolist() for g in got] == \
        [None if w is None else w.tolist() for w in want]


@pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
def test_power_neighbours_match_the_pair_oracle(case):
    _, _, sites, weights = case
    assert_same_neighbours(sites, weights)


@pytest.mark.parametrize("seed", range(20))
def test_power_neighbours_match_the_pair_oracle_on_random_hulls(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 400))
    assert_same_neighbours(rng.uniform(0.0, 1.0, size=(n, 2)),
                           rng.uniform(-0.1, 0.1, n) * rng.uniform(0.0, 1.0) ** 2)


def test_oracle_cases_reach_every_path():
    cases = {name: (W, s, w) for name, W, s, w in oracle_cases()}
    cells = {name: power_cells_from_weights(*case) for name, case in cases.items()}
    dual = {name: dual_sites(*case) for name, case in cases.items()}
    assert sum(c is None for c in cells["dominated-120"]) > 60
    assert all(c is not None for c in cells["grid-equal"])
    assert all(c is not None for c in cells["collinear"])
    assert [c is None for c in cells["infinite"]] == [True, True, False, True, True, True]
    assert all(c is None for c in cells["nan"])
    assert [c is None for c in cells["one-dominates"]] == [i != 7 for i in range(25)]
    _, sites, weights = cases["coplanar"]
    hull = _lifted_hull(sites, weights)
    assert len(hull.coplanar)
    assert _power_neighbours(hull, len(sites))[4].tolist() == [0, 1, 2, 3, 5, 6, 7, 8]
    # the degenerate inputs all take the clip route
    for name in ("coplanar", "collinear", "collinear-diagonal", "n1", "n2", "n3",
                 "infinite", "nan"):
        assert not dual[name], name
    # and the dual route finishes most inner cells
    assert len(dual["random-n1000"]) > 800
    assert dual["rim"] and not dual["rim"] & set(range(10))
