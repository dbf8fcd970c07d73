"""Public entry points refuse bad points, weights, scalars and counts at the entry.

Each row is an input that an entry point once took without a typed error: it
returned NaN, drew from negative weights, truncated or ignored a fractional
or negative count, ran its whole iteration budget on a NaN tolerance, read
True as 1.0, or raised a bare TypeError or OverflowError from deep inside.
The rules live in ``geometry`` (``check_points``,
``check_weights``, ``check_positive`` and ``check_count``), and each row must
now raise the ValueError or CoverkitError it names, with no numpy warning.
"""

import os
import warnings

import numpy as np
import pytest

from coverkit.assign import GaussianService, IsotropicService, footprint_cost
from coverkit.coverage import build_partition, equitable_weights, lloyd_step, run_descent
from coverkit.density import (DiscreteMeasure, GmmDensity, InvalidDensity, UniformDensity,
                              discretize)
from coverkit.geometry import ConvexPolygon
from coverkit.poi import gmm_em, kmeans, svgd
from coverkit.render import render_scene
from coverkit.submod import greedy_uniform
from coverkit.swarm import SwarmState, run_reconfiguration, systematic_resample, transport_step
from coverkit.transport import self_transport_cost, wasserstein_exact, wasserstein_sinkhorn

NAN = float("nan")
SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
PHI = UniformDensity(SQUARE)
_rng = np.random.default_rng(3)
DATA = _rng.uniform(0.0, 1.0, (20, 2))
MU = DiscreteMeasure(_rng.uniform(0.0, 1.0, (5, 2)), np.ones(5))
NU = DiscreteMeasure(_rng.uniform(0.0, 1.0, (6, 2)), np.arange(1.0, 7.0))
SITES = [[0.2, 0.3], [0.7, 0.4], [0.5, 0.8]]
NAN_ROW = np.array([[0.1, 0.2], [NAN, 0.5], [0.9, 0.9]])


def _step(batch):
    state = SwarmState(np.array(SITES), SQUARE)
    return transport_step(state, discretize(PHI, 3, 3), 0.5, batch=batch)


GAPS = [
    ("sinkhorn-epsilon-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, epsilon=NAN)),
    ("sinkhorn-tol-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, tol=NAN)),
    ("sinkhorn-p-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, p=NAN)),
    ("exact-p-inf", ValueError, lambda: wasserstein_exact(MU, NU, p=np.inf)),
    ("exact-p-string", ValueError, lambda: wasserstein_exact(MU, NU, p="2")),
    ("self-cost-nan-point", ValueError, lambda: self_transport_cost(NAN_ROW, np.ones(3) / 3)),
    ("self-cost-nan-weight", ValueError,
     lambda: self_transport_cost(DATA[:3], np.array([NAN, 0.5, 0.5]))),
    ("self-cost-epsilon-nan", ValueError,
     lambda: self_transport_cost(DATA[:3], np.ones(3) / 3, epsilon=NAN)),
    ("self-cost-tol-nan", ValueError,
     lambda: self_transport_cost(DATA[:3], np.ones(3) / 3, tol=NAN)),
    ("self-cost-p-nan", ValueError,
     lambda: self_transport_cost(DATA[:3], np.ones(3) / 3, p=NAN)),
    ("gmm-reg-nan", ValueError, lambda: gmm_em(DATA, 2, reg=NAN)),
    ("resample-negative-weight", ValueError, lambda: systematic_resample([1.0, -0.5, 1.0], 3)),
    ("mixture-weights-overflow", InvalidDensity,
     lambda: GmmDensity(SQUARE, [1e308, 1e308], SITES[:2], [np.eye(2) * 0.01] * 2)),
    ("measure-three-columns", InvalidDensity,
     lambda: DiscreteMeasure(np.zeros((3, 3)), [1.0, 1.0, 1.0])),
    ("discretize-fractional-count", InvalidDensity, lambda: discretize(PHI, 2.5, 3)),
    ("discretize-fractional-ny", InvalidDensity, lambda: discretize(PHI, 3, 2.5)),
    ("resample-fractional-count", ValueError, lambda: systematic_resample([1.0, 1.0], 2.5)),
    ("step-fractional-batch", ValueError, lambda: _step(1.5)),
    ("kmeans-fractional-k", ValueError, lambda: kmeans(DATA, 2.5)),
    ("kmeans-fractional-max-iters", ValueError, lambda: kmeans(DATA, 2, max_iters=1.5)),
    ("gmm-fractional-components", ValueError, lambda: gmm_em(DATA, 2.5)),
    ("svgd-fractional-particles", ValueError, lambda: svgd(PHI, 2.5, iters=1)),
    ("svgd-fractional-iters", ValueError, lambda: svgd(PHI, 3, iters=1.5)),
    ("reconfiguration-fractional-agents", ValueError, lambda: run_reconfiguration(PHI, 2.5, 1)),
    ("reconfiguration-fractional-iters", ValueError,
     lambda: run_reconfiguration(PHI, 4, 1.5, metric_every=None)),
    ("descent-fractional-max-iters", ValueError,
     lambda: run_descent(PHI, SITES, max_iters=1.5)),
    ("greedy-fractional-pick", ValueError,
     lambda: greedy_uniform(lambda chosen: float(len(chosen)), range(3), 1.5)),
    ("render-fractional-bands", ValueError,
     lambda: render_scene(os.devnull, PHI, SQUARE, bands=2.5)),
    ("equitable-tol-mass-nan", ValueError,
     lambda: equitable_weights(PHI, SITES, tol_mass=NAN, max_iters=3)),
    ("gmm-fractional-max-iters", ValueError, lambda: gmm_em(DATA, 2, max_iters=1.5)),
    ("equitable-fractional-max-iters", ValueError,
     lambda: equitable_weights(PHI, SITES, max_iters=1.5)),
    ("equitable-fractional-levels", ValueError,
     lambda: equitable_weights(PHI, SITES, max_iters=3, levels=1.5)),
    ("sinkhorn-fractional-max-iters", ValueError,
     lambda: wasserstein_sinkhorn(MU, NU, max_iters=2.5)),
    ("self-cost-fractional-max-iters", ValueError,
     lambda: self_transport_cost(DATA[:3], np.ones(3) / 3, max_iters=2.5)),
    ("reconfiguration-fractional-metric-every", ValueError,
     lambda: run_reconfiguration(PHI, 4, 1, metric_every=1.5)),
    ("reconfiguration-negative-metric-every", ValueError,
     lambda: run_reconfiguration(PHI, 4, 1, metric_every=-1)),
    ("reconfiguration-fractional-snapshot-every", ValueError,
     lambda: run_reconfiguration(PHI, 4, 1, metric_every=None, snapshot_every=0.5)),
    ("reconfiguration-negative-snapshot-every", ValueError,
     lambda: run_reconfiguration(PHI, 4, 1, metric_every=None, snapshot_every=-1)),
    ("partition-fractional-levels", ValueError, lambda: build_partition(PHI, SITES, levels=1.5)),
    ("lloyd-fractional-levels", ValueError, lambda: lloyd_step(PHI, SITES, levels=1.5)),
    ("descent-fractional-levels", ValueError, lambda: run_descent(PHI, SITES, levels=1.5)),
    ("footprint-negative-levels", ValueError,
     lambda: footprint_cost(PHI, IsotropicService(0.1), [0.5, 0.5], levels=-1)),
    ("service-radius-bool", ValueError, lambda: IsotropicService(True)),
    ("service-radius-huge-int", ValueError, lambda: IsotropicService(10**400)),
    ("step-tau-bool", ValueError,
     lambda: transport_step(SwarmState(np.array(SITES), SQUARE), discretize(PHI, 3, 3), True)),
    ("footprint-orientation-nan", ValueError,
     lambda: footprint_cost(PHI, IsotropicService(0.1, orientations=(NAN,)), [0.5, 0.5])),
    ("service-orientation-inf", ValueError,
     lambda: IsotropicService(0.1, orientations=(0.0, np.inf))),
    ("service-orientation-negative-inf", ValueError,
     lambda: GaussianService(np.eye(2) * 0.01, orientations=(-np.inf,))),
    ("equitable-no-positions", ValueError,
     lambda: equitable_weights(PHI, np.zeros((0, 2)), max_iters=3)),
    ("equitable-three-columns", ValueError,
     lambda: equitable_weights(PHI, np.zeros((3, 3)), max_iters=3)),
    ("render-assignment-out-of-range", ValueError,
     lambda: render_scene(os.devnull, None, SQUARE, agents=[[0.2, 0.2]], pois=[[0.5, 0.5]],
                          assignment=[(0, 3)])),
    ("render-one-radius-two-agents", ValueError,
     lambda: render_scene(os.devnull, None, SQUARE, agents=SITES[:2], power_radii=[0.1])),
    ("render-radius-negative", ValueError,
     lambda: render_scene(os.devnull, None, SQUARE, agents=SITES[:2], power_radii=[0.1, -0.1])),
    ("descent-no-positions", ValueError, lambda: run_descent(PHI, np.zeros((0, 2)))),
    ("lloyd-no-positions", ValueError, lambda: lloyd_step(PHI, np.zeros((0, 2)))),
    ("partition-no-positions", ValueError, lambda: build_partition(PHI, np.zeros((0, 2)))),
]


@pytest.mark.parametrize("expected, call", [row[1:] for row in GAPS],
                         ids=[row[0] for row in GAPS])
def test_entry_point_refuses_bad_input(expected, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected):
            call()
