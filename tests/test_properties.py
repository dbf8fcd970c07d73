"""Property tests over random convex workspaces and sites (needs hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.spatial import ConvexHull, QhullError  # noqa: E402

from coverkit.density import UniformDensity, cell_moments  # noqa: E402
from coverkit.geometry import ConvexPolygon, power_cells_from_weights  # noqa: E402

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
@given(corners=corner_sets, mix=mixes)
def test_uniform_cell_masses_sum_to_one(corners, mix):
    workspace, sites = draw_case(corners, mix)
    cells = power_cells_from_weights(workspace, sites, np.zeros(len(sites)))
    masses, _, _ = cell_moments(UniformDensity(workspace), cells, sites)
    assert masses.sum() == pytest.approx(1.0, rel=1e-9)
