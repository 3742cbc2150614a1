import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp._kernels import LIMIT, _certify, greedy_hour, round_robin
from grasp.scheduler import SchedulerState, green_aware_decide, reset_hour, round_robin_decide


def sequential_greedy(capacity, jobs):
    """Loads of `jobs` green-aware decisions over one hour's capacities."""
    state = SchedulerState(1.0)  # energy / 1.0 is the capacity itself
    for c in capacity.tolist():
        state.add_dc(c)
    for _ in range(jobs):
        green_aware_decide(state)
    return state.assigned


def random_instances(n, seed):
    # values drawn from a small grid so exact ties are common
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(1, 9))
        jobs = int(rng.integers(0, 60))
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 7.0, 7.5])
        scores0 = rng.choice(grid, size=m) * float(rng.choice([0.1, 1.0, 13.0]))
        yield scores0, jobs


def test_numpy_kernel_matches_loop():
    for scores0, jobs in random_instances(400, seed=2):
        assert greedy_hour(scores0, jobs).tolist() == sequential_greedy(scores0, jobs)


def test_greedy_edges():
    assert greedy_hour(np.array([1.0]), 0).tolist() == [0]
    assert greedy_hour(np.array([0.0, 0.0]), 3).tolist() == [2, 1]
    assert greedy_hour(np.array([-4.0, -2.0]), 1).tolist() == [0, 1]
    assert greedy_hour(np.zeros((2, 3)), 4).tolist() == [[2, 1, 1], [2, 1, 1]]


def test_greedy_swaps_where_keys_round_into_ties():
    # sites 1 and 2 lead site 0 by two ulps, so the level starts the loads
    # at [4, 4, 4], one over, and by exact keys site 0's last key c - 3
    # ranks lowest; but every key c - 3 rounds to the same float, so the
    # tie ranks site 2 lowest and its job is the one that comes off
    c = np.array([float.fromhex(h) for h in ("0x1.929a6494ef746p-1", "0x1.929a6494ef748p-1",
                                              "0x1.929a6494ef748p-1")])
    assert sequential_greedy(c, 11) == [4, 4, 3]
    assert greedy_hour(c, 11).tolist() == [4, 4, 3]
    assert greedy_hour(np.stack([c, c[::-1]]), 11).tolist() == [[4, 4, 3], [4, 4, 3]]


@pytest.mark.parametrize("k", [1.0, 7.0, 191.0])
@pytest.mark.parametrize("jobs", [0, 1, 12, 900])
def test_bundled_hours_match_loop(site_profiles, k, jobs):
    energy = np.stack([p.wh for p in site_profiles], axis=1)
    lit = energy.max(axis=1) > 0
    dawn = np.flatnonzero(lit[1:] & ~lit[:-1]) + 1
    dusk = np.flatnonzero(lit[:-1] & ~lit[1:])
    # the whole year where the replay is quick; at 900 jobs every dawn and
    # dusk hour, where capacities are small and fractional, and a spread
    hours = np.arange(len(energy))
    if jobs > 12:
        hours = np.unique(np.concatenate([dawn, dusk, hours[::97]]))
    capacity = energy[hours] / k
    loads = greedy_hour(capacity, jobs)
    assert loads.shape == capacity.shape
    for row, got in zip(capacity, loads):
        assert got.tolist() == sequential_greedy(row, jobs)


def test_certify_finishes_a_start_one_job_off_per_site():
    rng = np.random.default_rng(5)
    for scores0, jobs in random_instances(300, seed=6):
        want = sequential_greedy(scores0, jobs)
        start = np.clip(np.array(want) + rng.integers(-1, 2, len(want)), 0, jobs)
        while start.sum() > jobs:  # lower a raised site, so each stays within one
            start[rng.choice(np.flatnonzero(start > want))] -= 1
        got = _certify(scores0[None, :], start[None, :], jobs)
        assert got[0].tolist() == want


def test_certify_raises_past_its_round_bound():
    # m + 2 jobs from nothing need m + 2 fills, two more than m rounds
    for m in (1, 3, 8):
        cap = np.zeros((2, m))
        with pytest.raises(RuntimeError, match="more than %d" % m):
            _certify(cap, np.zeros((2, m), dtype=np.int64), m + 2)
    assert _certify(np.zeros((1, 3)), np.zeros((1, 3), dtype=np.int64), 3).tolist() == [[1, 1, 1]]


# capacities just under LIMIT, where a float key c - i is off by up to 1/32
# and replaying 2**47 decisions is out of reach
NEAR = math.nextafter(LIMIT, 0.0)
HUGE = st.floats(-NEAR, NEAR) | st.sampled_from([NEAR, -NEAR, 0.0, 2.0**47 + 0.5, 2.0**47 - 1 / 3])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_is_optimal_past_the_oracle(data):
    m = data.draw(st.integers(1, 8))
    jobs = data.draw(st.integers(0, 2**48 - 1) | st.sampled_from([2**48 - 1, 2**47]))
    base = data.draw(HUGE)
    # rows of independent values, and rows a few ulps or whole jobs apart
    near = st.builds(lambda k, step: min(max(base + k * step, -NEAR), NEAR),
                     st.integers(-3, 3), st.sampled_from([2**-5, 2**-4, 0.5, 1.0, 3.0]))
    rows = data.draw(st.lists(st.lists(HUGE | near, min_size=m, max_size=m), min_size=1, max_size=4))
    capacity = np.array(rows)
    loads = greedy_hour(capacity, jobs)
    assert ((loads >= 0) & (loads <= jobs)).all()
    assert (loads.sum(axis=1) == jobs).all()
    # in the order (key desc, index asc), the worst taken key ranks above
    # the best untaken one: the loads are the top `jobs` keys
    taken = np.where(loads > 0, capacity - (loads - 1), np.inf)
    untaken = np.where(loads < jobs, capacity - loads, -np.inf)
    for t, u in zip(taken.tolist(), untaken.tolist()):
        worst = max((-key, d) for d, key in enumerate(t))
        best = min((-key, d) for d, key in enumerate(u))
        assert worst < best


def test_round_robin_closed_form():
    # cursor 0, then 6 % 4 = 2: the remainder moves round
    assert round_robin(2, 4, 6).tolist() == [[2, 2, 1, 1], [1, 1, 2, 2]]
    assert round_robin(2, 3, 0).tolist() == [[0, 0, 0], [0, 0, 0]]


def test_round_robin_matches_sequential():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        jobs = int(rng.integers(0, 40))
        st = SchedulerState(1.0)
        for _ in range(m):
            st.add_dc()
        for loads in round_robin(3, m, jobs):
            reset_hour(st)
            for _ in range(jobs):
                round_robin_decide(st)
            assert loads.tolist() == st.assigned


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), hours=st.integers(1, 30), jobs=st.integers(0, 300))
def test_round_robin_properties(m, hours, jobs):
    loads = round_robin(hours, m, jobs)
    assert loads.shape == (hours, m)
    assert (loads.sum(axis=1) == jobs).all()
    assert (loads.max(axis=1) - loads.min(axis=1) <= (1 if jobs % m else 0)).all()
    for h in range(hours):
        heavy = {d for d in range(m) if loads[h, d] == jobs // m + 1}
        cursor = h * jobs % m
        assert heavy == ({(cursor + i) % m for i in range(jobs % m)} if jobs % m else set())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_greedy_numpy_equivalence_property(data):
    hours = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    jobs = data.draw(st.integers(0, 30))
    # scaled grids make rounded keys tie across sites
    scale = data.draw(st.sampled_from([1.0, 1 / 3, 1 / 7, 0.1]))
    grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 3.0, 5.0, 7.0])
    capacity = np.array([[data.draw(grid) for _ in range(m)] for _ in range(hours)]) * scale
    loads = greedy_hour(capacity, jobs)
    assert loads.shape == (hours, m)
    for row, got in zip(capacity, loads):
        assert got.tolist() == sequential_greedy(row, jobs)
