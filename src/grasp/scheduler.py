"""Job placement policies.

Both schedulers share one mutable state: the latest reported green energy
per data center and the number of jobs already placed there during the
current hour.  The green-aware policy sends each job to the data center
with the most spare green capacity, measured in jobs: reported energy
divided by the per-job energy, minus jobs already assigned.  Ties go to
the lowest index, so with no energy anywhere it degrades into an exact
round robin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFleet, LengthMismatch, ValidationError


class SchedulerState:
    """Per-hour scheduling state over the registered data centers."""

    def __init__(self, energy_wh, job_energy_wh, assigned=None, rr_cursor=0):
        self.energy_wh = np.asarray(energy_wh, dtype=np.float64)
        if assigned is None:
            assigned = np.zeros(self.energy_wh.shape[0], dtype=np.int64)
        self.assigned = np.asarray(assigned, dtype=np.int64)
        if self.assigned.shape != self.energy_wh.shape:
            raise LengthMismatch(
                f"assigned has shape {self.assigned.shape}, energy {self.energy_wh.shape}"
            )
        if job_energy_wh <= 0:
            raise ValidationError("job_energy_wh", "must be > 0")
        self.job_energy_wh = float(job_energy_wh)
        self.rr_cursor = int(rr_cursor)

    @property
    def m(self):
        return self.energy_wh.shape[0]

    @classmethod
    def empty(cls, job_energy_wh):
        return cls(np.zeros(0), job_energy_wh)

    def add_dc(self, energy_wh=0.0):
        """Grow the fleet by one data center; returns its column index."""
        self.energy_wh = np.append(self.energy_wh, float(energy_wh))
        self.assigned = np.append(self.assigned, 0)
        return self.m - 1


@dataclass
class Decision:
    """One placement: chosen column and the score vector that chose it."""

    dc_index: int
    scores: np.ndarray


def green_aware_decide(state):
    """Place one job on the data center with the highest spare green capacity.

    Score per data center: energy_wh / job_energy_wh - assigned.  The
    lowest index wins ties.
    """
    if state.m == 0:
        raise EmptyFleet("no data centers registered")
    scores = state.energy_wh / state.job_energy_wh - state.assigned
    pick = int(np.argmax(scores))  # first occurrence of the max: lowest index wins
    state.assigned[pick] += 1
    return Decision(dc_index=pick, scores=scores)


def round_robin_decide(state):
    """Place one job on the next data center in cyclic order."""
    if state.m == 0:
        raise EmptyFleet("no data centers registered")
    pick = state.rr_cursor % state.m
    state.rr_cursor = (pick + 1) % state.m
    state.assigned[pick] += 1
    return Decision(dc_index=pick, scores=np.zeros(state.m))


SCHEDULERS = {
    "green_aware": green_aware_decide,
    "round_robin": round_robin_decide,
}


def get_scheduler(name):
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ValidationError("scheduler", f"unknown scheduler {name!r}") from None


def reset_hour(state):
    """Start a new hour: zero assignments; energy and cursor kept."""
    state.assigned[:] = 0
