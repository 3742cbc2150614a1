"""Job placement policies, one decision at a time.

This module is the one statement of each policy: protocol mode calls it
per client request, and the tests replay it to check fast mode's kernels.
Both schedulers share one mutable state: the latest reported green energy
per data center and the number of jobs already placed there during the
current hour.  The green-aware policy sends each job to the data center
with the most spare green capacity, measured in jobs: reported energy
divided by the per-job energy, minus jobs already assigned.  Ties go to
the lowest index, so with no energy anywhere it degrades into an exact
round robin.  A decision returns `(dc_index, score)`.
"""

from .errors import EmptyFleet, ValidationError


class SchedulerState:
    """Per-hour scheduling state over the registered data centers.

    It starts with no data centers; `add_dc` grows `energy_wh` and
    `assigned`, two lists indexed by data center.
    """

    def __init__(self, job_energy_wh):
        if job_energy_wh <= 0:
            raise ValidationError("job_energy_wh", "must be > 0")
        self.job_energy_wh = float(job_energy_wh)
        self.energy_wh = []
        self.assigned = []
        self.rr_cursor = 0

    def add_dc(self, energy_wh=0.0):
        """Grow the fleet by one data center; returns its index."""
        self.energy_wh.append(float(energy_wh))
        self.assigned.append(0)
        return len(self.assigned) - 1


def green_aware_decide(state):
    """Place one job on the data center with the highest spare green capacity.

    Score per data center: energy_wh / job_energy_wh - assigned.  The
    lowest index wins ties.
    """
    if not state.assigned:
        raise EmptyFleet("no data centers registered")
    k = state.job_energy_wh
    scores = [e / k - a for e, a in zip(state.energy_wh, state.assigned)]
    best = max(scores)
    pick = scores.index(best)  # first occurrence of the max: lowest index wins
    state.assigned[pick] += 1
    return pick, best


def round_robin_decide(state):
    """Place one job on the next data center in cyclic order; scores 0."""
    m = len(state.assigned)
    if not m:
        raise EmptyFleet("no data centers registered")
    pick = state.rr_cursor % m
    state.rr_cursor = (pick + 1) % m
    state.assigned[pick] += 1
    return pick, 0.0


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
    state.assigned[:] = [0] * len(state.assigned)
