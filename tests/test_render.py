"""SVG output structure, byte equality with the loop writer, argument checks."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from coverkit.coverage import build_partition
from coverkit.density import GmmDensity, GridDensity, UniformDensity, from_pgm
from coverkit.geometry import ConvexPolygon
from coverkit.render import render_scene
from tests.oracles import loop_render_scene

NS = "{http://www.w3.org/2000/svg}"


def square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def two_mode_phi(w):
    return GmmDensity(w, [0.5, 0.5], [[0.3, 0.3], [0.7, 0.7]],
                      [np.eye(2) * 0.01, np.eye(2) * 0.02])


def test_scene_parses_and_carries_the_expected_elements(tmp_path):
    w = square()
    phi = two_mode_phi(w)
    agents = np.array([[0.3, 0.3], [0.7, 0.7], [0.5, 0.2]])
    cells = build_partition(phi, agents).cells
    path = tmp_path / "scene.svg"
    render_scene(path, phi, w, agents=agents, power_radii=[0.2, 0.1, 0.0],
                 cells=cells, title="demo")
    root = ET.parse(path).getroot()

    rects = list(root.iter(f"{NS}rect"))
    assert len(rects) > 10  # background plus banded density runs

    circles = list(root.iter(f"{NS}circle"))
    dots = [c for c in circles if c.get("r") == "6.00"]
    dashed = [c for c in circles if c.get("stroke-dasharray")]
    assert len(dots) == 3
    assert len(dashed) == 2  # zero radius draws no power disk

    polygons = list(root.iter(f"{NS}polygon"))
    outlines = [p for p in polygons if p.get("fill") == "none"]
    assert len(outlines) >= 4  # workspace plus three cells

    texts = list(root.iter(f"{NS}text"))
    assert any("demo" in (t.text or "") for t in texts)

    clip = list(root.iter(f"{NS}clipPath"))
    assert len(clip) == 1


def test_assignment_lines_and_poi_markers(tmp_path):
    w = square()
    phi = UniformDensity(w)
    agents = np.array([[0.2, 0.2], [0.8, 0.8]])
    pois = np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]])
    path = tmp_path / "assign.svg"
    render_scene(path, phi, w, agents=agents, pois=pois,
                 assignment=[(0, 1), (1, 2)])
    root = ET.parse(path).getroot()
    lines = list(root.iter(f"{NS}line"))
    assert len(lines) == 2
    diamonds = [p for p in root.iter(f"{NS}polygon") if p.get("fill") == "#f2b134"]
    assert len(diamonds) == 3


def test_swarm_points_are_translucent_dots(tmp_path):
    w = square()
    pts = np.random.default_rng(0).uniform(0, 1, size=(40, 2))
    path = tmp_path / "swarm.svg"
    render_scene(path, UniformDensity(w), w, swarm_points=pts)
    root = ET.parse(path).getroot()
    dots = [c for c in root.iter(f"{NS}circle") if c.get("opacity")]
    assert len(dots) == 40


def test_render_is_deterministic(tmp_path):
    w = square()
    phi = two_mode_phi(w)
    agents = np.array([[0.4, 0.4], [0.6, 0.6]])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_scene(a, phi, w, agents=agents)
    render_scene(b, phi, w, agents=agents)
    assert a.read_bytes() == b.read_bytes()


def test_none_cells_are_skipped(tmp_path):
    w = square()
    path = tmp_path / "cells.svg"
    cell = ConvexPolygon([(0, 0), (0.5, 0), (0.5, 1), (0, 1)])
    render_scene(path, UniformDensity(w), w, agents=np.array([[0.25, 0.5]]),
                 cells=[cell, None])
    root = ET.parse(path).getroot()
    outlines = [p for p in root.iter(f"{NS}polygon") if p.get("fill") == "none"]
    assert len(outlines) == 2  # workspace + one cell, clip path not counted


# ------------------------------------------------------- loop-writer oracle

def pentagon():
    t = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    return ConvexPolygon(np.stack([0.5 + 0.5 * np.cos(t), 0.5 + 0.5 * np.sin(t)], axis=1))


WORKSPACES = {
    "square": square,
    "pentagon": pentagon,
    # dx != dy, and a bbox away from the origin
    "wide": lambda: ConvexPolygon([(-0.5, 0.2), (1.5, 0.2), (1.5, 1.2), (-0.5, 1.2)]),
}


def make_density(kind, w, tmp_path):
    if kind == "gmm":
        return two_mode_phi(w)
    if kind == "uniform":
        return UniformDensity(w)
    if kind == "image":
        (tmp_path / "d.pgm").write_text("P2\n3 2\n255\n10 200 30\n40 50 60\n")
        return from_pgm(tmp_path / "d.pgm", w)
    return None


def full_scene(phi, w):
    """Every layer: cells with a dominated None, zero and non-zero power
    radii, points of interest with an assignment, swarm dots, and a title
    with XML characters."""
    agents = np.array([[0.4, 0.5], [0.45, 0.5], [0.8, 0.6], [0.3, 0.3]])
    radii = [0.5, 0.0, 0.1, 0.05]
    cells = build_partition(UniformDensity(w) if phi is None else phi, agents, radii).cells
    assert cells[1] is None
    return dict(agents=agents, power_radii=radii, cells=cells,
                pois=np.array([[0.5, 0.5], [0.6, 0.3], [0.35, 0.6]]),
                assignment=[(0, 1), (2, 0), (3, 2)],
                swarm_points=np.random.default_rng(3).uniform(0.3, 0.7, size=(30, 2)),
                title='cost <1 & "q" > 0\'s')


def assert_same_bytes(tmp_path, phi, w, **kwargs):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    render_scene(got, phi, w, **kwargs)
    loop_render_scene(want, phi, w, **kwargs)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("workspace", sorted(WORKSPACES))
@pytest.mark.parametrize("density", ["gmm", "uniform", "image", "none"])
def test_frame_matches_the_loop_writer_byte_for_byte(tmp_path, density, workspace):
    w = WORKSPACES[workspace]()
    phi = make_density(density, w, tmp_path)
    assert_same_bytes(tmp_path, phi, w, **full_scene(phi, w))


@pytest.mark.parametrize("resolution", [1, 3, 128])
@pytest.mark.parametrize("bands", [1, 2, 16])
def test_bands_and_resolution_match_the_loop_writer(tmp_path, bands, resolution):
    w = WORKSPACES["wide"]()
    phi = two_mode_phi(w)
    assert_same_bytes(tmp_path, phi, w, bands=bands, resolution=resolution,
                      **full_scene(phi, w))


def test_density_that_no_band_sample_hits_draws_no_bands_and_no_outlines(tmp_path):
    # the 128-grid samples fall on pixel lines of the 256 raster, and each
    # reads the pixel after the line, never pixel [0, 0]
    w = square()
    values = np.zeros((256, 256))
    values[0, 0] = 1.0
    phi = GridDensity(w, values)
    assert_same_bytes(tmp_path, phi, w, cells=[None, None])
    svg = (tmp_path / "got.svg").read_text()
    assert svg.count("<rect") == 1 and svg.count("<polygon") == 1


@pytest.mark.parametrize("name", ["bands", "resolution"])
def test_bands_or_resolution_below_one_is_refused(tmp_path, name):
    w = square()
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        render_scene(path, UniformDensity(w), w, **{name: 0})
    assert not path.exists()


# each layer is refused by its input rule: points by check_points, radii by check_radii
@pytest.mark.parametrize("name,value,message", [
    ("agents", [[np.nan, 0.5]], "agents must be finite"),
    ("agents", [[0.5, np.inf]], "agents must be finite"),
    ("power_radii", [np.nan], "power radii must be a vector of nonnegative"),
    ("pois", [[0.5, -np.inf]], "pois must be finite"),
    ("swarm_points", [[np.nan, np.nan]], "swarm_points must be finite"),
], ids=["agents-nan", "agents-inf", "power_radii-nan", "pois-inf", "swarm_points-nan"])
def test_non_finite_points_are_refused(tmp_path, name, value, message):
    w = square()
    path = tmp_path / "bad.svg"
    kwargs = {name: value}
    if name == "power_radii":
        kwargs["agents"] = [[0.5, 0.5]]
    with pytest.raises(ValueError, match=f"^{message}"):
        render_scene(path, UniformDensity(w), w, **kwargs)
    assert not path.exists()
