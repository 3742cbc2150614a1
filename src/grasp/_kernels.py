"""Hot loops behind the year-scale experiments.

One simulated year at realistic load is millions of sequential placement
decisions, far too many for the per-decision scheduler API.  The kernels
here place every hour of a year at once, as array code: `greedy_hour`
gives exactly the loads of `jobs` calls to `scheduler.green_aware_decide`,
and `round_robin` is the closed form of `round_robin_decide` with the
cursor carried across hours.
"""

import numpy as np

# Capacities and job counts must stay below this for `greedy_hour`: then
# every float it computes is below 2**50 in magnitude and each float
# subtraction lies within 1/16 of the exact difference.
LIMIT = 2.0**48
BLOCK = 1024


def greedy_hour(capacity, jobs):
    """Greedy placement of `jobs` jobs per hour, along the last axis.

    A 1-D `capacity` is one hour over m data centers and an (hours, m)
    matrix is a year; loads come back in the same shape.  Values and
    `jobs` must be finite and below LIMIT in magnitude.

    `green_aware_decide` gives the (i+1)-th job on site d the key
    c[d] - i and takes the best key each time, the lower index winning
    ties.  Keys fall with i, so its loads count per site the top
    `jobs` candidates F in the order (key desc, site asc).  Here a
    bisection finds per hour a level t whose first loads
    clip(ceil(c - t), 0, jobs) sum to at most `jobs`.  A fix-up then adds
    to each short hour its best untaken candidate (key c - loads), and in
    each full hour whose worst taken candidate (key c - (loads - 1)) ranks
    below its best untaken one, swaps the two.  It stops only when no
    hour acts, and then the taken set is F, whatever the level was.

    Round bound.  Float errors here are below e = 1/16 (see LIMIT), so
    c - i counts at t if c - i > t + e and only if c - i > t - e.  The
    bisection keeps count(lo) >= jobs >= count(hi) and ends at
    hi - lo <= 1/2.  With v the key of the worst member of F, every key
    counted at t >= v + 2e is above v, and fewer than `jobs` keys are;
    so lo < v + 2e and hi < v + 1/2 + 2e.  Fill: the member of F at
    i = F_d - 2 has c - i >= v + 1 - e > hi + e, so every site starts at
    F_d - 1 or more and the fill adds at most one job per site.  Swap: a
    site starting at F_d + 2 counts i = F_d + 1, so the key at i = F_d,
    at most v, exceeds hi + 1 - 2e; then all of F counts as well and
    count(hi) > jobs.  So each site is at most one swap off.  A fill adds
    a member of F; a swap trades the worst taken candidate, outside F,
    for the best untaken one, in F.  Each acting round thus adds one of
    the at most m missing members of F to every unfinished hour.
    """
    shape = np.shape(capacity)
    cap = np.asarray(capacity, dtype=np.float64).reshape(-1, shape[-1])
    loads = np.empty(cap.shape, dtype=np.int64)
    # blocks of hours keep the (hours, m) temporaries small
    for start in range(0, len(cap), BLOCK):
        loads[start : start + BLOCK] = _greedy_rows(cap[start : start + BLOCK], int(jobs))
    return loads.reshape(shape)


def _greedy_rows(cap, jobs):
    m = cap.shape[1]

    def first_loads(level):
        return np.clip(np.ceil(cap - level[:, None]), 0, jobs)

    hi = cap.max(axis=1)
    lo = hi - (jobs + 1)
    for _ in range((jobs + 1).bit_length() + 2):
        mid = lo + (hi - lo) * 0.5
        fits = first_loads(mid).sum(axis=1) <= jobs
        hi = np.where(fits, mid, hi)
        lo = np.where(fits, lo, mid)
    loads = first_loads(hi).astype(np.int64)

    rows = np.arange(cap.shape[0])
    for rounds in range(m + 1):
        c, load = cap[rows], loads[rows]
        untaken = np.where(load < jobs, c - load, -np.inf)
        taken = np.where(load > 0, c - (load - 1), np.inf)
        best = untaken.argmax(axis=1)
        worst = m - 1 - taken[:, ::-1].argmin(axis=1)  # the last of the lowest keys
        at = np.arange(len(rows))
        u, w = untaken[at, best], taken[at, worst]
        short = load.sum(axis=1) < jobs
        swap = ~short & ((w < u) | ((w == u) & (worst > best)))
        act = short | swap
        if not act.any():
            break
        assert rounds < m, "greedy_hour fix-up exceeded its round bound"
        loads[rows[swap], worst[swap]] -= 1
        rows = rows[act]
        loads[rows, best[act]] += 1
    return loads


def round_robin(hours, m, jobs):
    """Round-robin loads, shape (hours, m), with the cursor carried over.

    The cursor at hour h is h * jobs % m; every data center gets
    jobs // m and the remainder lands on the jobs % m positions starting
    at the cursor.
    """
    cursor = np.arange(hours, dtype=np.int64)[:, None] * jobs % m
    offsets = np.arange(m) - cursor
    offsets %= m
    return jobs // m + (offsets < jobs % m)
