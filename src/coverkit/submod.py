"""Greedy set-function maximization under matroid constraints.

The greedy drivers only ever call the utility through its subset
evaluator, so any deterministic nonnegative set function works. Matroid
constraints come in two shapes: pick at most N elements overall, or pick
at most one element from each agent's block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import _float_array, check_count, check_positive


@dataclass
class GreedyTrace:
    """Elements in pick order with the marginal gain and running value."""

    chosen: list
    gains: np.ndarray
    values: np.ndarray


def _greedy(f, rounds) -> GreedyTrace:
    """One pick per round: the first strict maximizer of the marginal gain
    among that round's candidates, in candidate order.

    ``rounds(chosen)`` yields the candidate lists. It is consumed one round
    at a time, so a round may depend on ``chosen``, the picks so far.
    """
    chosen: list = []
    gains, values = [], []
    current = float(f(()))
    for candidates in rounds(chosen):
        best_gain, best_item, best_value = -np.inf, None, None
        for item in candidates:
            value = f(tuple(chosen) + (item,))
            gain = value - current
            if gain > best_gain:
                best_gain, best_item, best_value = gain, item, value
        chosen.append(best_item)
        gains.append(best_gain)
        values.append(best_value)
        current = best_value
    return GreedyTrace(chosen=chosen, gains=np.array(gains), values=np.array(values))


def greedy_uniform(f, ground, n_pick: int) -> GreedyTrace:
    """Sequential greedy under a cardinality cap.

    Each round picks the element of largest marginal gain; ties go to
    the earliest element in ground-set order.
    """
    items = list(ground)
    if check_count(n_pick, "n_pick", 0) > len(items):
        raise ValueError(f"cannot pick {n_pick} of {len(items)} elements")
    return _greedy(f, lambda chosen: ([it for it in items if it not in chosen]
                                      for _ in range(n_pick)))


def greedy_partition(f, blocks) -> GreedyTrace:
    """Sequential greedy picking one element per block, blocks in index order."""
    blocks = [list(b) for b in blocks]
    if any(len(b) == 0 for b in blocks):
        raise ValueError("every block needs at least one element")
    return _greedy(f, lambda chosen: blocks)


def _as_cloud(points, name: str) -> np.ndarray:
    """Points as rows, a flat vector as 1-d points; ValueError unless every
    entry is a finite number."""
    pts = _float_array(points, ValueError, f"{name} must be finite numbers")
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


def exemplar_utility(chosen, data, d_max: float) -> float:
    """Drop in summed data-to-nearest-exemplar distance versus a phantom.

    Every data point starts at Euclidean distance ``d_max`` (the phantom
    exemplar); adding real exemplars can only shrink its nearest distance,
    so the utility is monotone and submodular. An infinite ``d_max`` would
    make every gain inf - inf = nan, so it is refused, and so are non-finite
    points.
    """
    check_positive(d_max, "d_max")
    data = _as_cloud(data, "data")
    chosen = _as_cloud(chosen, "chosen exemplars")
    if len(data) == 0 or len(chosen) == 0:
        return 0.0
    nearest = np.minimum(cdist(data, chosen).min(axis=1), d_max)
    return float(np.sum(d_max - nearest))


def exemplar_utility_fn(candidates, data, d_max: float):
    """Index-subset evaluator over candidate exemplars, for the greedy drivers."""
    check_positive(d_max, "d_max")
    candidates = _as_cloud(candidates, "candidates")
    data = _as_cloud(data, "data")

    def f(index_subset) -> float:
        idx = list(index_subset)
        if not idx:
            return 0.0
        return exemplar_utility(candidates[idx], data, d_max)

    return f
