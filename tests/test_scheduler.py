import numpy as np
import pytest

from grasp.errors import EmptyFleet, ValidationError
from grasp.scheduler import (
    SchedulerState,
    get_scheduler,
    green_aware_decide,
    reset_hour,
    round_robin_decide,
)


def state(energy, k=1.0, assigned=None, cursor=0):
    st = SchedulerState(k)
    for e in energy:
        st.add_dc(e)
    if assigned is not None:
        st.assigned[:] = assigned
    st.rr_cursor = cursor
    return st


def test_empty_fleet():
    empty = SchedulerState(1.0)
    with pytest.raises(EmptyFleet):
        green_aware_decide(empty)
    with pytest.raises(EmptyFleet):
        round_robin_decide(empty)


def test_add_dc_grows_state():
    st = SchedulerState(2.0)
    assert st.add_dc(10.0) == 0
    assert st.add_dc() == 1
    assert st.energy_wh == [10.0, 0.0]
    assert st.assigned == [0, 0]


def test_green_picks_highest_spare_capacity():
    st = state([30.0, 20.0, 10.0], k=10.0)
    assert green_aware_decide(st) == (0, 3.0)
    assert green_aware_decide(st) == (0, 2.0)
    assert green_aware_decide(st) == (1, 2.0)
    assert st.assigned == [2, 1, 0]


def test_green_scores_subtract_assigned():
    st = state([0.0, 0.0, 0.0], assigned=[2, 1, 2])
    assert green_aware_decide(st) == (1, -1.0)


def test_green_tie_breaks_low_index():
    st = state([10.0, 10.0], k=10.0)
    assert green_aware_decide(st) == (0, 1.0)
    assert green_aware_decide(st) == (1, 1.0)


def test_green_with_no_energy_degrades_to_round_robin():
    st = state([0.0, 0.0, 0.0])
    picks = [green_aware_decide(st)[0] for _ in range(10)]
    assert picks == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]


def test_green_matches_argmax_replay():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        st = state(rng.choice([0.0, 0.5, 1.0, 2.5, 8.0], size=m), k=float(rng.choice([0.5, 1.0, 3.0])))
        for _ in range(int(rng.integers(0, 25))):
            before = np.array(st.energy_wh) / st.job_energy_wh - np.array(st.assigned)
            pick, score = green_aware_decide(st)
            assert pick == int(np.argmax(before))
            assert score == before[pick]


def test_round_robin_cycles_and_keeps_cursor():
    st = state([5.0, 0.0, 1.0], cursor=1)
    decisions = [round_robin_decide(st) for _ in range(5)]
    assert decisions == [(1, 0.0), (2, 0.0), (0, 0.0), (1, 0.0), (2, 0.0)]
    assert st.rr_cursor == 0
    assert st.assigned == [1, 2, 2]


def test_reset_hour():
    st = state([1.0, 2.0], assigned=[5, 7], cursor=1)
    reset_hour(st)
    assert st.assigned == [0, 0]
    assert st.rr_cursor == 1
    assert st.energy_wh == [1.0, 2.0]


def test_state_validation():
    with pytest.raises(ValidationError):
        SchedulerState(0.0)


def test_get_scheduler():
    assert get_scheduler("green_aware") is green_aware_decide
    assert get_scheduler("round_robin") is round_robin_decide
    with pytest.raises(ValidationError):
        get_scheduler("fifo")
