"""Greedy selection against exhaustive search and hand-built utilities."""

import itertools
import math

import numpy as np
import pytest

from coverkit.submod import (
    GreedyTrace,
    exemplar_utility,
    exemplar_utility_fn,
    greedy_partition,
    greedy_uniform,
)

from tests.oracles import (
    PartitionMatroid,
    SearchSpaceTooLarge,
    UniformMatroid,
    brute_force_opt,
)

GAIN_SLACK = 1e-9


# ---------------------------------------------------------------- oracles

def exemplar_oracle(chosen, data, d_max):
    """Phantom-referenced utility computed with plain loops."""
    total = 0.0
    for d in data:
        best = d_max
        for p in chosen:
            best = min(best, abs(float(p) - float(d)))
        total += d_max - best
    return total


def cover_fn(sets):
    """Coverage utility over a family of index sets."""

    def f(subset):
        covered = set()
        for i in subset:
            covered |= sets[i]
        return float(len(covered))

    return f


def modular_fn(weights):
    def f(subset):
        return float(sum(weights[i] for i in subset))

    return f


def random_cover_instance(seed, n_sets=8, universe=12):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_sets):
        size = int(rng.integers(1, universe // 2 + 1))
        sets.append(set(rng.choice(universe, size=size, replace=False).tolist()))
    return sets


# ------------------------------------------------------- uniform greedy

def test_modular_utility_selects_top_weights():
    weights = [0.3, 2.0, 1.1, 0.9, 3.7, 0.2]
    trace = greedy_uniform(modular_fn(weights), range(6), 3)
    assert trace.chosen == [4, 1, 2]
    assert trace.values[-1] == pytest.approx(3.7 + 2.0 + 1.1)
    np.testing.assert_allclose(trace.gains, [3.7, 2.0, 1.1])


def test_full_budget_selects_everything():
    weights = [1.0, 5.0, 2.0]
    trace = greedy_uniform(modular_fn(weights), range(3), 3)
    assert sorted(trace.chosen) == [0, 1, 2]


def test_ties_go_to_the_earliest_element():
    trace = greedy_uniform(modular_fn([5.0, 5.0, 3.0]), range(3), 2)
    assert trace.chosen == [0, 1]


def test_trace_is_consistent_with_reevaluation():
    sets = random_cover_instance(3)
    f = cover_fn(sets)
    trace = greedy_uniform(f, range(len(sets)), 4)
    assert isinstance(trace, GreedyTrace)
    assert len(trace.chosen) == len(trace.gains) == len(trace.values) == 4
    for k in range(4):
        assert trace.values[k] == pytest.approx(f(tuple(trace.chosen[: k + 1])))
    assert np.sum(trace.gains) == pytest.approx(trace.values[-1] - f(()))


def test_greedy_is_deterministic():
    sets = random_cover_instance(11)
    f = cover_fn(sets)
    a = greedy_uniform(f, range(len(sets)), 3)
    b = greedy_uniform(f, range(len(sets)), 3)
    assert a.chosen == b.chosen
    np.testing.assert_array_equal(a.gains, b.gains)


def test_greedy_meets_coverage_ratio_on_random_instances():
    ratio = 1.0 - 1.0 / math.e
    for seed in range(10):
        sets = random_cover_instance(seed)
        f = cover_fn(sets)
        trace = greedy_uniform(f, range(len(sets)), 3)
        _, opt = brute_force_opt(f, UniformMatroid(range(len(sets)), 3))
        assert trace.values[-1] >= ratio * opt - GAIN_SLACK


def test_greedy_can_be_strictly_suboptimal_yet_in_bound():
    # A coverage family where the large set is a trap for the first pick.
    sets = [{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}]
    f = cover_fn(sets)
    trace = greedy_uniform(f, range(3), 2)
    _, opt = brute_force_opt(f, UniformMatroid(range(3), 2))
    assert opt == pytest.approx(6.0)
    assert trace.values[-1] == pytest.approx(5.0)
    assert trace.values[-1] >= (1.0 - 1.0 / math.e) * opt


def test_uniform_budget_validation():
    f = modular_fn([1.0, 2.0])
    with pytest.raises(ValueError):
        greedy_uniform(f, range(2), 3)
    with pytest.raises(ValueError):
        greedy_uniform(f, range(2), -1)


# ----------------------------------------------------- partition greedy

def partitioned_exemplar_instance(seed):
    """Per-agent candidate spots scored against one shared data cloud."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(40, 2))
    spots = {}
    blocks = []
    for agent in range(3):
        block = []
        for j in range(2):
            key = (agent, j)
            spots[key] = rng.uniform(0.0, 1.0, size=2)
            block.append(key)
        blocks.append(block)
    d_max = 2.0 * math.sqrt(2.0)

    def f(subset):
        if not subset:
            return 0.0
        pts = np.array([spots[key] for key in subset])
        return exemplar_utility(pts, data, d_max)

    return f, blocks


def test_partition_greedy_picks_one_per_block():
    f, blocks = partitioned_exemplar_instance(0)
    trace = greedy_partition(f, blocks)
    agents = [key[0] for key in trace.chosen]
    assert agents == [0, 1, 2]
    for agent, j in trace.chosen:
        assert (agent, j) in blocks[agent]


def test_partition_greedy_meets_half_ratio():
    for seed in range(10):
        f, blocks = partitioned_exemplar_instance(seed)
        trace = greedy_partition(f, blocks)
        _, opt = brute_force_opt(f, PartitionMatroid(blocks))
        assert trace.values[-1] >= 0.5 * opt - GAIN_SLACK


def test_partition_validation():
    f = modular_fn([1.0])
    with pytest.raises(ValueError):
        greedy_partition(f, [[0], []])


# ----------------------------------------------------- exemplar utility

def test_exemplar_utility_frozen_example():
    value = exemplar_utility([1.0], [0.0, 1.0, 10.0], d_max=20.0)
    assert value == pytest.approx(50.0, abs=1e-12)


def test_exemplar_utility_empty_set_is_zero():
    assert exemplar_utility([], [0.0, 1.0], d_max=5.0) == 0.0


@pytest.mark.parametrize("d_max", [math.inf, math.nan, 0.0])
def test_exemplar_utility_rejects_unusable_phantom_distance(d_max):
    # an infinite phantom made every gain nan, so greedy_uniform picked None
    with pytest.raises(ValueError, match="d_max"):
        exemplar_utility([1.0], [0.0, 1.0], d_max)
    with pytest.raises(ValueError, match="d_max"):
        exemplar_utility_fn([[0.2, 0.2]], [[0.0, 0.0]], d_max)


def test_exemplar_utility_matches_loop_oracle():
    rng = np.random.default_rng(7)
    data = rng.uniform(-3.0, 3.0, size=12)
    for _ in range(20):
        chosen = rng.uniform(-3.0, 3.0, size=rng.integers(1, 5))
        got = exemplar_utility(chosen, data, d_max=10.0)
        assert got == pytest.approx(exemplar_oracle(chosen, data, 10.0), abs=1e-10)


def test_exemplar_phantom_caps_far_points():
    # A data point farther than d_max contributes nothing.
    value = exemplar_utility([0.0], [100.0], d_max=1.0)
    assert value == 0.0


def test_exemplar_monotone_and_submodular_triples():
    rng = np.random.default_rng(42)
    candidates = rng.uniform(0.0, 1.0, size=(9, 2))
    data = rng.uniform(0.0, 1.0, size=(30, 2))
    f = exemplar_utility_fn(candidates, data, d_max=2.0)
    universe = list(range(len(candidates)))
    for _ in range(300):
        size_b = int(rng.integers(1, len(universe)))
        b = set(rng.choice(universe, size=size_b, replace=False).tolist())
        size_a = int(rng.integers(0, len(b) + 1))
        a = set(rng.choice(sorted(b), size=size_a, replace=False).tolist())
        outside = [i for i in universe if i not in b]
        if not outside:
            continue
        x = int(rng.choice(outside))
        fa, fb = f(tuple(a)), f(tuple(b))
        fax, fbx = f(tuple(a | {x})), f(tuple(b | {x}))
        assert fa <= fb + 1e-12
        assert fax - fa >= fbx - fb - GAIN_SLACK


def test_exemplar_greedy_matches_brute_force_ratio_in_plane():
    ratio = 1.0 - 1.0 / math.e
    for seed in range(5):
        rng = np.random.default_rng(seed)
        candidates = rng.uniform(0.0, 1.0, size=(8, 2))
        data = rng.uniform(0.0, 1.0, size=(25, 2))
        f = exemplar_utility_fn(candidates, data, d_max=2.0 * math.sqrt(2.0))
        trace = greedy_uniform(f, range(8), 3)
        _, opt = brute_force_opt(f, UniformMatroid(range(8), 3))
        assert trace.values[-1] >= ratio * opt - GAIN_SLACK


# ----------------------------------------------------------- brute force

def test_brute_force_uniform_matches_direct_enumeration():
    weights = [0.3, 2.0, 1.1, 0.9]
    f = modular_fn(weights)
    chosen, value = brute_force_opt(f, UniformMatroid(range(4), 2))
    assert value == pytest.approx(2.0 + 1.1)
    assert sorted(chosen) == [1, 2]


def test_brute_force_partition_matches_direct_enumeration():
    f, blocks = partitioned_exemplar_instance(2)
    chosen, value = brute_force_opt(f, PartitionMatroid(blocks))
    best = max(
        (float(f(combo)) for combo in itertools.product(*blocks)),
    )
    assert value == pytest.approx(best, abs=1e-12)
    assert f(chosen) == pytest.approx(value, abs=1e-12)


def test_brute_force_rejects_huge_uniform_search():
    f = modular_fn(list(range(40)))
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_opt(f, UniformMatroid(range(40), 10))


def test_brute_force_rejects_huge_partition_search():
    blocks = [list(range(8)) for _ in range(7)]
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_opt(modular_fn(list(range(8))), PartitionMatroid(blocks))


def test_brute_force_rejects_unknown_constraint():
    with pytest.raises(TypeError):
        brute_force_opt(modular_fn([1.0]), "pick-anything")


def test_matroid_validation():
    with pytest.raises(ValueError):
        UniformMatroid(range(3), 4)
    with pytest.raises(ValueError):
        PartitionMatroid([[0], []])
