"""Self-contained SVG snapshots: density bands, cells, agents, matchings.

No plotting dependency; elements are written as plain strings with fixed
decimal formatting so identical scenes produce identical bytes.

Each layer of a frame is written in array form. Its points go to the screen
in one ``SvgCanvas.map`` pass, and its elements are formatted from the
``.tolist()`` values in one list comprehension. The density bands are the
runs of one level along each grid row, found in one numpy step. The
arithmetic is the element-at-a-time writer's, operation for operation, so
the bytes are too: ``loop_render_scene`` in ``tests/oracles.py`` keeps that
writer, and the render tests hold every frame to it byte for byte.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .geometry import ConvexPolygon, check_count, check_points, check_radii

AGENT_PALETTE = ("#d1495b", "#00798c", "#edae49", "#6a4c93",
                 "#2e933c", "#e26d5c", "#5f0f40", "#386fa4")
BAND_LOW = np.array([252.0, 252.0, 250.0])
BAND_HIGH = np.array([44.0, 66.0, 134.0])
SIZE, MARGIN = 640, 24  # pixels: a frame's longer side, the margin around the workspace


def _band_color(level: int, bands: int) -> str:
    t = level / max(bands - 1, 1)
    r, g, b = np.rint(BAND_LOW + t * (BAND_HIGH - BAND_LOW)).astype(int)
    return f"#{r:02x}{g:02x}{b:02x}"


def _pairs(sx, sy) -> list[str]:
    """One "x,y" string per screen point."""
    return [f"{x:.2f},{y:.2f}" for x, y in zip(sx.tolist(), sy.tolist())]


class SvgCanvas:
    """World-to-screen mapping plus an element buffer, y axis up."""

    def __init__(self, bbox):
        xmin, xmax, ymin, ymax = bbox
        extent = max(xmax - xmin, ymax - ymin)
        self.scale = (SIZE - 2 * MARGIN) / extent
        self.xmin, self.ymax = xmin, ymax
        self.width = 2 * MARGIN + (xmax - xmin) * self.scale
        self.height = 2 * MARGIN + (ymax - ymin) * self.scale
        self.elements: list[str] = []

    def map(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Screen x and y arrays of an (n, 2) array of world points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return (MARGIN + (pts[:, 0] - self.xmin) * self.scale,
                MARGIN + (self.ymax - pts[:, 1]) * self.scale)

    def polygons(self, vertex_arrays, attrs: str) -> None:
        """One polygon per vertex array, all mapped in one pass."""
        if not vertex_arrays:
            return
        pairs = _pairs(*self.map(np.concatenate(vertex_arrays)))
        ends = np.cumsum([len(v) for v in vertex_arrays]).tolist()
        self.elements.extend(f'<polygon points="{" ".join(pairs[a:b])}" {attrs}/>'
                             for a, b in zip([0] + ends[:-1], ends))

    def save(self, path) -> None:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width:.0f}" height="{self.height:.0f}" '
                f'viewBox="0 0 {self.width:.0f} {self.height:.0f}">')
        body = "\n".join(self.elements)
        with open(path, "w") as fh:
            fh.write(f"{head}\n{body}\n</svg>\n")


def _circle(x: float, y: float, r: float, attrs: str) -> str:
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" {attrs}/>'


def _append_density_bands(canvas: SvgCanvas, phi, workspace: ConvexPolygon,
                          bands: int, resolution: int, clip: str) -> None:
    xmin, xmax, ymin, ymax = workspace.bbox
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    cx = xmin + (np.arange(resolution) + 0.5) * dx
    cy = ymin + (np.arange(resolution) + 0.5) * dy
    gx, gy = np.meshgrid(cx, cy)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(phi.eval(pts), dtype=float).reshape(resolution, resolution)
    top = vals.max()
    if top <= 0:
        return
    levels = np.minimum((vals / top * bands).astype(int), bands - 1)

    # a run of one level starts at a row's first cell or at a level change,
    # and ends where the next one starts or at the row's end
    starts = np.ones(levels.shape, dtype=bool)
    starts[:, 1:] = levels[:, 1:] != levels[:, :-1]
    ends = np.ones(levels.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    iy, first = np.nonzero(starts)
    stop = np.nonzero(ends)[1] + 1
    colors = [_band_color(level, bands) for level in range(bands)]
    # each run is a rect from its lower-left corner: the top-left corner
    # goes to the screen, and the size is scaled and padded by 0.4 px
    sx, sy = canvas.map(np.stack([xmin + first * dx, ymin + iy * dy + dy], axis=1))
    widths = (stop - first) * dx * canvas.scale + 0.4
    height = f"{dy * canvas.scale + 0.4:.2f}"

    canvas.elements.append(
        f'<defs><clipPath id="ws"><polygon points="{clip}"/></clipPath></defs>')
    canvas.elements.append('<g clip-path="url(#ws)">')
    canvas.elements.extend(
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{height}" '
        f'fill="{colors[level]}"/>'
        for x, y, w, level in zip(sx.tolist(), sy.tolist(), widths.tolist(),
                                  levels[iy, first].tolist()))
    canvas.elements.append("</g>")


def render_scene(path, phi, workspace: ConvexPolygon, *, agents=None,
                 power_radii=None, cells=None, pois=None, assignment=None,
                 swarm_points=None, title=None, bands: int = 16,
                 resolution: int = 128) -> None:
    """Write one SVG frame of the scenario.

    agents are drawn as colored dots, power_radii as dashed circles around
    them, cells as outlines, pois as diamonds, and assignment as (agent,
    poi) index pairs joined by lines. swarm_points are small translucent
    dots for large crowds. ValueError when bands or resolution is not an
    integer of at least 1, when agents, pois or swarm_points break
    geometry.check_points, when power_radii break geometry.check_radii or do
    not hold one radius per agent, or when an assignment pair is not an
    integer index into agents and pois.
    """
    check_count(bands, "bands")
    check_count(resolution, "resolution")
    agents, pois, swarm_points = (None if value is None else check_points(value, name)
                                  for name, value in (("agents", agents), ("pois", pois),
                                                      ("swarm_points", swarm_points)))
    counts = [0 if x is None else len(x) for x in (agents, pois)]
    if power_radii is not None:
        power_radii = check_radii(power_radii)
        if len(power_radii) != counts[0]:
            raise ValueError(f"{len(power_radii)} power radii for {counts[0]} agents")
    if assignment is not None and len(assignment):
        pairs = np.asarray(assignment)
        if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
                or (pairs < 0).any() or (pairs >= counts).any()):
            raise ValueError(f"assignment must be (agent, poi) index pairs into "
                             f"{counts[0]} agents and {counts[1]} pois")
    canvas = SvgCanvas(workspace.bbox)
    canvas.elements.append(
        f'<rect width="{canvas.width:.0f}" height="{canvas.height:.0f}" fill="#ffffff"/>')
    clip = " ".join(_pairs(*canvas.map(workspace.vertices)))
    if phi is not None:
        _append_density_bands(canvas, phi, workspace, bands, resolution, clip)
    canvas.elements.append(
        f'<polygon points="{clip}" fill="none" stroke="#222222" stroke-width="1.60"/>')

    if cells is not None:
        canvas.polygons([c.vertices for c in cells if c is not None],
                        'fill="none" stroke="#444444" stroke-width="1.00"')

    if swarm_points is not None:
        sx, sy = canvas.map(swarm_points)
        canvas.elements.extend(
            _circle(x, y, 2.0, 'fill="#1f4e8c" stroke="none" opacity="0.55"')
            for x, y in zip(sx.tolist(), sy.tolist()))

    if pois is not None:
        diamond = 5.0 / canvas.scale * np.array([[-1.0, 0.0], [0.0, 1.0],
                                                 [1.0, 0.0], [0.0, -1.0]])
        canvas.polygons(list(pois[:, None, :] + diamond),
                        'fill="#f2b134" stroke="#7a5b0e" stroke-width="1.00"')

    if agents is not None:
        ax, ay = (v.tolist() for v in canvas.map(agents))
        if assignment is not None and pois is not None:
            px, py = (v.tolist() for v in canvas.map(pois))
            canvas.elements.extend(
                f'<line x1="{ax[i]:.2f}" y1="{ay[i]:.2f}" x2="{px[j]:.2f}" '
                f'y2="{py[j]:.2f}" stroke="#666666" stroke-width="1.20" '
                f'stroke-dasharray="5 3"/>'
                for i, j in assignment)
        for i, (x, y) in enumerate(zip(ax, ay)):
            color = AGENT_PALETTE[i % len(AGENT_PALETTE)]
            if power_radii is not None and power_radii[i] > 0:
                canvas.elements.append(_circle(
                    x, y, float(power_radii[i]) * canvas.scale,
                    f'fill="none" stroke="{color}" stroke-width="1.40" '
                    f'stroke-dasharray="6 4"'))
            canvas.elements.append(_circle(
                x, y, 6.0, f'fill="{color}" stroke="#ffffff" stroke-width="1.20"'))

    if title:
        canvas.elements.append(
            f'<text x="{MARGIN:.2f}" y="{MARGIN - 8:.2f}" '
            f'font-family="sans-serif" font-size="13" '
            f'fill="#333333">{escape(title)}</text>')
    canvas.save(path)
