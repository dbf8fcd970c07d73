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

from coverkit.assign import (GaussianService, IsotropicService, footprint_cost, gaussian_kl,
                            kld_cost)
from coverkit.coverage import build_partition, equitable_weights, lloyd_step, run_descent
from coverkit.density import (MAX_LEVELS, DiscreteMeasure, GmmDensity, GridDensity,
                              InvalidDensity, UniformDensity, discretize, spd_cholesky)
from coverkit.geometry import ConvexPolygon, check_points, check_radii, check_weights, power_cells
from coverkit.poi import gmm_em, kmeans, svgd
from coverkit.render import render_scene
from coverkit.submod import greedy_uniform
from coverkit.swarm import SwarmState, run_reconfiguration, systematic_resample, transport_step
from coverkit.transport import wasserstein_exact, wasserstein_sinkhorn

NAN = float("nan")
SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
PHI = UniformDensity(SQUARE)
_rng = np.random.default_rng(3)
DATA = _rng.uniform(0.0, 1.0, (20, 2))
MU = DiscreteMeasure(_rng.uniform(0.0, 1.0, (5, 2)), np.ones(5))
NU = DiscreteMeasure(_rng.uniform(0.0, 1.0, (6, 2)), np.arange(1.0, 7.0))
SITES = [[0.2, 0.3], [0.7, 0.4], [0.5, 0.8]]
HUGE = 10**400  # an int too large for a float
EYE = np.eye(2) * 0.01


def _step(batch):
    state = SwarmState(np.array(SITES), SQUARE)
    return transport_step(state, discretize(PHI, 3, 3), 0.5, batch=batch)


GAPS = [
    ("sinkhorn-epsilon-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, epsilon=NAN)),
    ("sinkhorn-tol-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, tol=NAN)),
    ("sinkhorn-p-nan", ValueError, lambda: wasserstein_sinkhorn(MU, NU, p=NAN)),
    ("exact-p-inf", ValueError, lambda: wasserstein_exact(MU, NU, p=np.inf)),
    ("exact-p-string", ValueError, lambda: wasserstein_exact(MU, NU, p="2")),
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
    # one level past the bound asks for four times MAX_LEVELS' memory
    ("partition-levels-above-max", ValueError,
     lambda: build_partition(PHI, SITES, levels=MAX_LEVELS + 1)),
    ("lloyd-levels-above-max", ValueError, lambda: lloyd_step(PHI, SITES, levels=MAX_LEVELS + 1)),
    ("descent-levels-above-max", ValueError,
     lambda: run_descent(PHI, SITES, levels=MAX_LEVELS + 1)),
    ("equitable-levels-above-max", ValueError,
     lambda: equitable_weights(PHI, SITES, max_iters=3, levels=MAX_LEVELS + 1)),
    ("footprint-levels-above-max", ValueError,
     lambda: footprint_cost(PHI, IsotropicService(0.1), [0.5, 0.5], levels=MAX_LEVELS + 1)),
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
    ("points-huge-int", ValueError, lambda: check_points([[HUGE, 0]])),
    ("weights-huge-int", ValueError, lambda: check_weights([HUGE, 1.0])),
    ("radii-huge-int", ValueError, lambda: check_radii([0.1, HUGE])),
    ("polygon-huge-int", ValueError, lambda: ConvexPolygon([(0, 0), (HUGE, 0), (1, 1)])),
    ("covariance-huge-int", InvalidDensity, lambda: spd_cholesky([[HUGE, 0], [0, 1]])),
    ("measure-point-huge-int", InvalidDensity, lambda: DiscreteMeasure([[HUGE, 0]], [1.0])),
    ("measure-weight-huge-int", InvalidDensity, lambda: DiscreteMeasure([[0, 0]], [HUGE])),
    ("mixture-weight-huge-int", InvalidDensity,
     lambda: GmmDensity(SQUARE, [HUGE], SITES[:1], [EYE])),
    ("mixture-mean-huge-int", InvalidDensity,
     lambda: GmmDensity(SQUARE, [1.0], [[HUGE, 0.5]], [EYE])),
    ("mixture-covariance-huge-int", InvalidDensity,
     lambda: GmmDensity(SQUARE, [1.0], SITES[:1], [[[HUGE, 0], [0, 0.01]]])),
]


@pytest.mark.parametrize("expected, call", [row[1:] for row in GAPS],
                         ids=[row[0] for row in GAPS])
def test_entry_point_refuses_bad_input(expected, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected):
            call()


# Each rule owns its shape: a caller hands it the raw argument, and the rule
# refuses it with its own message. Each row once slipped past a caller's
# conversion: a numpy broadcast, reshape, overflow or ragged-array error, a
# TypeError, Python's unpacking error, or a (2, 3) array drawn as three points.
SHAPES = [
    ("power-cells-three-column-sites", ValueError, r"sites must be an \(n, 2\) array",
     lambda: power_cells(SQUARE, np.column_stack([DATA[:5], DATA[:5, 0]]), np.zeros(5))),
    ("power-cells-column-radii", ValueError, "power radii must be a vector",
     lambda: power_cells(SQUARE, DATA[:6], np.full((6, 1), 0.01))),
    ("power-cells-scalar-radius", ValueError, "power radii must be a vector",
     lambda: power_cells(SQUARE, DATA[:6], 0.01)),
    ("power-cells-huge-site", ValueError, "sites must be finite",
     lambda: power_cells(SQUARE, [[HUGE, 0.5], [0.5, 0.5]], [0.0, 0.0])),
    ("partition-huge-position", ValueError, "positions must be finite",
     lambda: build_partition(PHI, [[HUGE, 0.5], [0.5, 0.5]])),
    ("partition-huge-radius", ValueError, "power radii must be a vector of nonnegative",
     lambda: build_partition(PHI, SITES, [0.0, HUGE, 0.0])),
    ("render-agents-three-columns", ValueError, r"agents must be an \(n, 2\) array",
     lambda: render_scene(os.devnull, None, SQUARE, agents=np.full((2, 3), 0.5))),
    ("render-pois-three-columns", ValueError, r"pois must be an \(n, 2\) array",
     lambda: render_scene(os.devnull, None, SQUARE, pois=np.full((2, 3), 0.5))),
    ("render-swarm-three-columns", ValueError, r"swarm_points must be an \(n, 2\) array",
     lambda: render_scene(os.devnull, None, SQUARE, swarm_points=np.full((2, 3), 0.5))),
    ("render-pois-three-numbers", ValueError, r"pois must be an \(n, 2\) array",
     lambda: render_scene(os.devnull, None, SQUARE, pois=[0.2, 0.5, 0.8])),
    ("render-huge-agent", ValueError, "agents must be finite",
     lambda: render_scene(os.devnull, None, SQUARE, agents=[[HUGE, 0.5]])),
    ("grid-huge-value", InvalidDensity, "grid values must be finite",
     lambda: GridDensity(SQUARE, [[1.0, HUGE], [1.0, 1.0]])),
    ("footprint-three-number-site", ValueError, r"point of interest must be an \(n, 2\)",
     lambda: footprint_cost(PHI, IsotropicService(0.1), [0.5, 0.5, 0.5])),
    ("kld-three-number-mean", ValueError, r"means must be an \(n, 2\) array",
     lambda: kld_cost(IsotropicService(0.3), [0.5, 0.5, 0.5], EYE)),
    ("service-covariance-3x3", InvalidDensity, "covariance must be a 2x2 array",
     lambda: GaussianService(np.eye(3))),
    ("service-covariance-huge-int", InvalidDensity, "covariance must be symmetric",
     lambda: GaussianService([[HUGE, 0], [0, 1]])),
    ("kl-covariance-3x3", InvalidDensity, "covariance must be a 2x2 array",
     lambda: gaussian_kl([0.5, 0.5], np.eye(3), [0.5, 0.5], EYE)),
    ("kl-covariance-huge-int", InvalidDensity, "covariance must be symmetric",
     lambda: gaussian_kl([0.5, 0.5], EYE, [0.5, 0.5], [[HUGE, 0], [0, 1]])),
    ("cholesky-3x3", InvalidDensity, "covariance must be a 2x2 array",
     lambda: spd_cholesky(np.eye(3))),
    ("cholesky-1x1", InvalidDensity, "covariance must be a 2x2 array",
     lambda: spd_cholesky([[1.0]])),
    ("mixture-ragged-covariances", InvalidDensity, "covariance must be symmetric positive",
     lambda: GmmDensity(SQUARE, [1.0], SITES[:1], [[[0.01, 0], [0]]])),
    ("measure-ragged-points", InvalidDensity, r"points must be finite, in an \(n, 2\)",
     lambda: DiscreteMeasure([[0.1, 0.2], [0.3]], [1.0, 1.0])),
    ("grid-ragged-values", InvalidDensity, "grid values must be finite in a 2-d array",
     lambda: GridDensity(SQUARE, [[1.0, 2.0], [1.0]])),
    ("footprint-two-points", ValueError, r"point of interest must be an \(n, 2\) array with n = 1",
     lambda: footprint_cost(PHI, IsotropicService(0.1), [[0.5, 0.5], [0.4, 0.4]])),
    ("kl-scalar-means", ValueError, r"means must be an \(n, 2\) array",
     lambda: gaussian_kl(0.5, EYE, 0.5, EYE)),
]


@pytest.mark.parametrize("expected, message, call", [row[1:] for row in SHAPES],
                         ids=[row[0] for row in SHAPES])
def test_each_rule_refuses_a_raw_argument_of_the_wrong_shape(expected, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected, match=f"^{message}"):
            call()


# One seed rule: every seeded entry takes a nonnegative integer and nothing
# else, and sample takes n >= 1. None once drew from OS entropy, True ran as
# seed 1, -1, 2.5 or a string raised numpy's bare error from its bit
# generator, and n = 0 numpy's "need at least one array to concatenate".
SEEDED = [
    ("kmeans", lambda seed: kmeans(DATA, 2, seed=seed)),
    ("gmm", lambda seed: gmm_em(DATA, 2, seed=seed)),
    ("svgd", lambda seed: svgd(PHI, 3, iters=1, seed=seed)),
    ("step", lambda seed: transport_step(SwarmState(np.array(SITES), SQUARE),
                                         discretize(PHI, 3, 3), 0.5, batch=2, seed=seed)),
    ("reconfiguration", lambda seed: run_reconfiguration(PHI, 4, 1, metric_every=None,
                                                         seed=seed)),
    ("sample", lambda seed: PHI.sample(3, seed)),
]
SEEDS = [(f"{entry}-seed-{label}", "seed", lambda call=call, seed=seed: call(seed))
         for entry, call in SEEDED
         for label, seed in (("none", None), ("bool", True), ("negative", -1),
                             ("fractional", 2.5))]
SEEDS += [
    ("sample-seed-string", "seed", lambda: PHI.sample(3, "x")),
    ("sample-zero-n", "n", lambda: PHI.sample(0, 1)),
    ("sample-fractional-n", "n", lambda: PHI.sample(2.5, 1)),
]


@pytest.mark.parametrize("name, call", [row[1:] for row in SEEDS], ids=[row[0] for row in SEEDS])
def test_each_seeded_entry_refuses_anything_but_a_count(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()
