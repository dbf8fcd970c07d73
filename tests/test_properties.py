"""Property tests over random convex workspaces and sites (needs hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.spatial import ConvexHull, QhullError  # noqa: E402
from scipy.spatial.distance import pdist  # noqa: E402

from coverkit.density import (GmmDensity, GridDensity, UniformDensity,  # noqa: E402
                              cell_moments, discretize, polygon_quadrature)
from coverkit.errors import InvalidDensity  # noqa: E402
from coverkit.geometry import (EPS_GEO, EVAL_NODES, ConvexPolygon, check_sites,  # noqa: E402
                               coincident_pairs, power_cells_from_weights, separate)
from tests.oracles import (broadcast_polygon_quadrature, loop_contains,  # noqa: E402
                           neighbour_power_cells)
from tests.test_geometry import (all_pairs_power_cells, assert_clip_matches_oracle,  # noqa: E402
                                  assert_clip_rows_match_clip, assert_same_cells, dual_sites)

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
corner_sets = st.lists(st.tuples(coords, coords), min_size=3, max_size=10)
# sites as convex combinations of the workspace corners, so they lie inside
mixes = st.lists(st.lists(st.floats(0.01, 1.0), min_size=10, max_size=10),
                 min_size=1, max_size=8)


def hull_polygon(points):
    """Counter-clockwise convex hull of the points, or None when degenerate."""
    try:
        hull = ConvexHull(np.asarray(points, dtype=float))
    except QhullError:
        return None
    if hull.volume < 1e-2:
        return None
    try:
        return ConvexPolygon(hull.points[hull.vertices])
    except ValueError:
        return None


def draw_case(corners, mix):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    v = workspace.vertices
    w = np.asarray(mix)[:, :len(v)]
    sites = (w / w.sum(axis=1, keepdims=True)) @ v
    gaps = np.linalg.norm(sites[:, None] - sites[None, :], axis=-1)
    assume(gaps[np.triu_indices(len(sites), 1)].min(initial=np.inf) > 1e-6)
    assume(workspace.contains(sites).all())
    return workspace, sites


@settings(max_examples=60, deadline=None)
@given(corners=corner_sets, mix=mixes, spread=st.floats(0.0, 0.3))
def test_power_cell_areas_sum_to_workspace_area(corners, mix, spread):
    workspace, sites = draw_case(corners, mix)
    weights = spread * np.linspace(0.0, 1.0, len(sites)) ** 2
    cells = power_cells_from_weights(workspace, sites, weights)
    total = sum(cell.area for cell in cells if cell is not None)
    assert total == pytest.approx(workspace.area, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(corners=corner_sets, mix=mixes,
       raw=st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
def test_power_cells_match_all_pairs_oracle(corners, mix, raw):
    workspace, sites = draw_case(corners, mix)
    weights = np.asarray(raw[:len(sites)])
    assert_same_cells(power_cells_from_weights(workspace, sites, weights),
                      all_pairs_power_cells(workspace, sites, weights))


# enough sites that most cells are inner ones, read off the dual vertices
crowds = st.lists(st.lists(st.floats(0.01, 1.0), min_size=10, max_size=10),
                  min_size=4, max_size=60)


@settings(max_examples=40, deadline=None)
@given(corners=corner_sets, mix=crowds,
       raw=st.lists(st.floats(-1.0, 1.0), min_size=60, max_size=60))
def test_dual_cells_match_neighbour_oracle(corners, mix, raw):
    workspace, sites = draw_case(corners, mix)
    # weights up to about a cell's area, so that some sites are dominated
    weights = np.asarray(raw[:len(sites)]) * workspace.area / len(sites)
    got = power_cells_from_weights(workspace, sites, weights)
    want = neighbour_power_cells(workspace, sites, weights)
    assert_same_cells(got, want)
    for i in set(range(len(sites))) - dual_sites(workspace, sites, weights):
        if want[i] is not None:
            np.testing.assert_array_equal(got[i].vertices, want[i].vertices)


# (angle of the normal, vertex index, miss in EPS_GEO, free offset): an even
# index puts the line through that vertex, missed by the given amount
planes = st.lists(st.tuples(st.floats(0.0, 2.0 * np.pi), st.integers(0, 19),
                            st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]), coords),
                  min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(corners=corner_sets, planes=planes)
def test_clip_matches_one_plane_oracle(corners, planes):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    v = workspace.vertices
    angle, corner, miss, free = (np.array(x) for x in zip(*planes))
    normals = np.column_stack([np.cos(angle), np.sin(angle)])
    through = (normals * v[corner % len(v)]).sum(axis=1) + miss * EPS_GEO
    assert_clip_matches_oracle(v, normals, np.where(corner % 2 == 0, through, free))


# offsets that are not finite as well: NaN cuts everything away, +inf
# nothing and -inf everything
wild = st.one_of(coords, st.sampled_from([np.nan, np.inf, -np.inf]))
plane_rows = st.lists(st.lists(st.tuples(st.floats(0.0, 2.0 * np.pi), st.integers(0, 19),
                                         st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]), wild),
                               max_size=40), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(corners=corner_sets, rows=plane_rows)
def test_clip_rows_match_clip(corners, rows):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    v = workspace.vertices
    stacks = []
    for planes in rows:
        angle, corner, miss, free = (np.array(x, dtype=float).reshape(-1) for x in
                                     (zip(*planes) if planes else ([], [], [], [])))
        normals = np.column_stack([np.cos(angle), np.sin(angle)])
        corner = corner.astype(int)
        through = (normals * v[corner % len(v)]).sum(axis=1) + miss * EPS_GEO
        stacks.append((normals, np.where(corner % 2 == 0, through, free)))
    assert_clip_rows_match_clip(v, stacks)


@settings(max_examples=60, deadline=None)
@given(corners=corner_sets, mix=mixes)
def test_uniform_cell_masses_sum_to_one(corners, mix):
    workspace, sites = draw_case(corners, mix)
    cells = power_cells_from_weights(workspace, sites, np.zeros(len(sites)))
    masses, _, _ = cell_moments(UniformDensity(workspace), cells, sites)
    assert masses.sum() == pytest.approx(1.0, rel=1e-9)


resolutions = st.integers(2, 40)


@settings(max_examples=60, deadline=None)
@given(corners=corner_sets, nx=resolutions, ny=resolutions,
       means=st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
       spreads=st.lists(st.tuples(st.floats(1e-3, 0.5), st.floats(1e-3, 0.5),
                                  st.floats(-0.9, 0.9)), min_size=4, max_size=4),
       weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
def test_discretize_gmm_masses_sum_to_one(corners, nx, ny, means, spreads, weights):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    k = len(means)
    covs = [[[a * a, r * a * b], [r * a * b, b * b]] for a, b, r in spreads[:k]]
    try:
        measure = discretize(GmmDensity(workspace, weights[:k], means, covs), nx, ny)
    except InvalidDensity:  # no mass over the workspace or on the grid nodes
        assume(False)
    assert abs(measure.weights.sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(corners=corner_sets, nx=resolutions, ny=resolutions,
       values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=64),
       cols=st.integers(1, 8))
def test_discretize_grid_masses_sum_to_one(corners, nx, ny, values, cols):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    rows = len(values) // cols
    assume(rows >= 1)
    try:
        measure = discretize(
            GridDensity(workspace, np.reshape(values[:rows * cols], (rows, cols))), nx, ny)
    except InvalidDensity:  # no mass over the workspace or on the grid nodes
        assume(False)
    assert abs(measure.weights.sum() - 1.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(corners=corner_sets, mix=mixes, copies=st.lists(st.integers(0, 7), max_size=4),
       vertices=st.lists(st.integers(0, 9), max_size=4), at_centroid=st.integers(0, 3))
def test_separate_leaves_distinct_points_inside(corners, mix, copies, vertices, at_centroid):
    workspace = hull_polygon(corners)
    assume(workspace is not None)
    v = workspace.vertices
    w = np.asarray(mix)[:, :len(v)]
    sites = (w / w.sum(axis=1, keepdims=True)) @ v
    # forced duplicates: copies of sites, vertices twice over, the centroid
    extra = ([sites[i % len(sites)] for i in copies] + [v[i % len(v)] for i in vertices] * 2
             + [workspace.centroid] * at_centroid)
    points = np.vstack([sites, *extra]) if extra else sites
    out = separate(workspace, points)
    assert workspace.contains(out).all()
    assert pdist(out).min(initial=np.inf) > EPS_GEO
    check_sites(out, workspace)
    lonely = np.setdiff1d(np.arange(len(points)), coincident_pairs(points))
    np.testing.assert_array_equal(out[lonely], points[lonely])
    np.testing.assert_array_equal(separate(workspace, points), out)


def inscribed_rings(rng, count, sides):
    """(count, sides, 2) counter-clockwise convex rings inscribed in circles
    of radius 1e-3 to 10 about centres 1e-6 to 1e3 from the origin."""
    ang = 2.0 * np.pi * (np.arange(sides) + rng.uniform(0.1, 0.9, (count, sides))) / sides
    turn = rng.uniform(0.0, 2.0 * np.pi, (count, 1))
    centres = 10.0 ** rng.uniform(-6.0, 3.0, (count, 1, 1)) * np.stack(
        [np.cos(turn), np.sin(turn)], axis=-1)
    radii = 10.0 ** rng.uniform(-3.0, 1.0, (count, 1, 1))
    return centres + radii * np.stack([np.cos(ang), np.sin(ang)], axis=-1)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 8), sides=st.integers(3, 40), levels=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_quadrature_matches_broadcast_oracle_bit_for_bit(count, sides, levels, seed):
    rings = inscribed_rings(np.random.default_rng(seed), count, sides)
    pts, w = polygon_quadrature(rings, levels)
    want_pts, want_w = broadcast_polygon_quadrature(rings, levels)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(w, want_w)


@settings(max_examples=100, deadline=None)
@given(sides=st.integers(3, 12), per_edge=st.integers(1, 12),
       tol=st.sampled_from([EPS_GEO, 0.0, 1e-6, -EPS_GEO]), seed=st.integers(0, 2**32 - 1))
def test_contains_matches_edge_loop_oracle(sides, per_edge, tol, seed):
    rng = np.random.default_rng(seed)
    poly = ConvexPolygon(inscribed_rings(rng, 1, sides)[0])
    a = poly.vertices
    ab = np.concatenate((a[1:], a[:1])) - a
    outward = np.column_stack([ab[:, 1], -ab[:, 0]]) / np.hypot(ab[:, 0], ab[:, 1])[:, None]
    # points on every edge (its two ends included), then the same points
    # tol inside and tol outside along the outward normal
    t = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, per_edge)))[:, None, None]
    on_edge = (a + t * ab).reshape(-1, 2)
    shift = np.tile(outward, (len(t), 1)) * abs(tol)
    pts = np.vstack([on_edge, on_edge - shift, on_edge + shift])
    got = poly.contains(pts, tol)
    assert np.array_equal(got, loop_contains(poly, pts, tol))
    for p, inside in zip(pts, got.tolist()):
        assert poly.contains(p, tol) is loop_contains(poly, p, tol) is inside
    # more points than one block holds, the last block a partial one
    many = np.tile(pts, (EVAL_NODES // len(pts) + 2, 1))
    assert np.array_equal(poly.contains(many, tol), np.tile(got, len(many) // len(pts)))
