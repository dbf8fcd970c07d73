"""Span tracing of coverkit's layers from outside the package.

The traced run replaces the public functions of each ``src/coverkit`` module
with timing wrappers, at the module attribute where their callers look them
up (``from .x import f`` binds ``f`` in the importing module, so a function
can need patching in several places). Each call records one span; spans are
kept in memory and written out once at the end. Nothing under ``src/``
changes, and ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import itertools
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer name -> (module[:Class], attribute) pairs that callers look up.
# coverage.partition, coverage.descent and swarm.reconfigure report no metric
# of their own; their spans keep pipeline work out of runner.other_s.
LAYERS = {
    "geometry.cells": [("coverkit.geometry", "power_cells_from_weights"),
                       ("coverkit.coverage", "power_cells_from_weights")],
    "geometry.clip": [("coverkit.geometry", "clip"), ("coverkit.density", "clip"),
                      ("coverkit.assign", "clip")],
    "density.build": [("coverkit.runner", "UniformDensity"),
                      ("coverkit.runner", "GmmDensity"),
                      ("coverkit.runner", "from_pgm"),
                      ("coverkit.runner", "load_grid_csv")],
    "density.eval": [("coverkit.density:DensityField", "eval")],
    "density.quadrature": [("coverkit.density", "polygon_quadrature"),
                           ("coverkit.coverage", "polygon_quadrature"),
                           ("coverkit.assign", "polygon_quadrature")],
    "density.discretize": [("coverkit.swarm", "discretize"),
                           ("coverkit.transport", "discretize")],
    "coverage.partition": [("coverkit.runner", "build_partition")],
    "coverage.descent": [("coverkit.runner", "run_descent")],
    "coverage.lloyd_step": [("coverkit.coverage", "lloyd_step")],
    "poi.extract": [("coverkit.poi", "svgd"), ("coverkit.poi", "kmeans"),
                    ("coverkit.poi", "gmm_em")],
    "assign.footprint": [("coverkit.assign", "footprint_cost")],
    "assign.cost_matrix": [("coverkit.assign", "build_cost_matrix")],
    "assign.solve": [("coverkit.assign", "solve_assignment")],
    "transport.sinkhorn": [("coverkit.swarm", "wasserstein_sinkhorn")],
    "transport.self_cost": [("coverkit.transport", "self_transport_cost")],
    "swarm.reconfigure": [("coverkit.swarm", "run_reconfiguration")],
    "swarm.transport_step": [("coverkit.swarm", "transport_step")],
    "render.scene": [("coverkit.runner", "render_scene")],
    "runner.validate": [("coverkit.runner", "validate")],
}
ROOT_SPAN = "runner.run"

# Layers whose call counts and whose busy seconds the traced run reports.
COUNTS = ("geometry.cells", "geometry.clip", "density.eval", "density.quadrature",
          "coverage.lloyd_step", "assign.footprint", "transport.sinkhorn",
          "transport.self_cost", "swarm.transport_step", "render.scene")
TIMES = ("geometry.cells", "density.eval", "density.quadrature", "density.discretize",
         "density.build", "coverage.lloyd_step", "poi.extract", "assign.footprint",
         "assign.cost_matrix", "assign.solve", "transport.sinkhorn",
         "transport.self_cost", "swarm.transport_step", "render.scene",
         "runner.validate")
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in COUNTS},
    "density.eval.points": "count",
    **{f"{name}.s": "s" for name in TIMES},
    "coverage.lloyd_step.self_s": "s",
    "runner.other_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records (id, parent, name, start, end, run) spans while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.eval_points: dict[int, int] = defaultdict(int)
        self.run_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span named name."""
        stack, spans = self._stack, self.spans
        count_points = name == "density.eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            if count_points:
                q = np.asarray(args[1] if len(args) > 1 else kwargs["q"])
                self.eval_points[self.run_id] += 1 if q.ndim == 1 else len(q)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.run_id))
        return traced

    def install(self) -> None:
        for name, sites in LAYERS.items():
            for where, attr in sites:
                module, _, cls = where.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as CSV, once, after the traced runs."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,run\n")
            for sid, parent, name, start, end, run in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{run}\n")

    def metrics(self, run_id: int) -> dict:
        """Per-layer counts, times and self times of one traced run."""
        spans = {s[0]: s for s in self.spans if s[5] == run_id}
        calls = defaultdict(int)
        seconds = defaultdict(float)
        child_seconds = defaultdict(float)
        for sid, parent, name, start, end, _ in spans.values():
            calls[name] += 1
            child_seconds[parent] += end - start
            # a recursive call (gmm_em -> kmeans) is already inside its caller
            p = parent
            while p != -1 and spans[p][2] != name:
                p = spans[p][1]
            if p == -1:
                seconds[name] += end - start

        def self_time(name):
            return sum(end - start - child_seconds[sid]
                       for sid, _, n, start, end, _ in spans.values() if n == name)

        out = {f"{name}.calls": calls[name] for name in COUNTS}
        out.update({f"{name}.s": seconds[name] for name in TIMES})
        out["density.eval.points"] = self.eval_points[run_id]
        out["coverage.lloyd_step.self_s"] = self_time("coverage.lloyd_step")
        out["runner.other_s"] = self_time(ROOT_SPAN)
        return out
