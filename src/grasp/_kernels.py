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
# every key c - i it compares is below 2**49 in magnitude and lies within
# 1/32 of the exact difference.
LIMIT = 2.0**48
BLOCK = 1024


def greedy_hour(capacity, jobs):
    """Greedy placement of `jobs` jobs per hour, along the last axis.

    A 1-D `capacity` is one hour over m data centers and an (hours, m)
    matrix is a year; loads come back in the same shape.  Values and
    `jobs` must be finite and below LIMIT in magnitude, and m below 2**14.

    `green_aware_decide` gives the (i+1)-th job on site d the key
    c[d] - i and takes the best key each time, the lower index winning
    ties.  Keys fall with i, so its loads count per site the top `jobs`
    candidates F in the order (key desc, site asc).

    Start.  Sort an hour's capacities, s_1 >= ... >= s_m, with cumulative
    sums S_j, and let t_j = (S_j - jobs) / j.  The level t = t_a, where a
    is the largest j with s_j > t_j, solves sum(max(c - t, 0)) = jobs.
    The loads clip(ceil(c - t), 0, jobs) take every key above t; each of
    the a sites above t rounds its share c - t up by less than one, so
    they overshoot `jobs` by o < a.  A site's last taken key
    c - (loads - 1) lies in (t, t + 1], below its other taken keys, so F
    is these loads less one job at each of the o sites whose last keys
    rank lowest; one argsort finds them.  With jobs = 0, a = 0 and every
    load is 0.

    Float error.  Each c = n + f splits exactly into an integer n and a
    fraction f in [0, 1).  The integer parts are summed in int64, exactly:
    with |n| <= 2**48 and m < 2**14 every integer here stays below 2**63,
    where a float sum of m capacities could pass 2**50 and lose whole
    jobs.  Only the fractions, each below 1, are summed as floats, so the
    test for a, the level q + phi (q an integer, phi in [0, 2)) and each
    c - t = (n - q) + (f - phi) are off by at most d = (m + 3)**2 * 2**-53,
    below 2**-24; a misjudged a is one whose t_j lies within d of t.  So
    the start takes per site the keys above a threshold within d of t.
    A site's share then rises by at most d, and a site with no share takes
    at most one job, so o < P + m * d <= P + 1, with P the sites holding a
    job: the rank step always finds its o sites and leaves at most `jobs`.

    Certificate.  `_certify` then adds to each short hour its best
    untaken candidate (key c - loads), and in each full hour whose worst
    taken candidate (key c - (loads - 1)) ranks below its best untaken
    one, swaps the two.  It stops only when no hour acts, and then the
    taken set is F, whatever the start was.  A fill adds a member of F; a
    swap trades the worst taken candidate, outside F, for the best
    untaken one, in F; so each acting round adds one missing member of F
    to every unfinished hour.

    Round bound.  Under LIMIT a float key lies within e = 1/32 of the
    exact one.  At least `jobs` keys lie above t, so every member of F
    has a float key above t - e, and a site's second untaken key, at most
    t + d - 1 exactly, is never in F.  Nor is its first untaken key x
    where the rank step took the site's last key y: if x were in F, fewer
    than `jobs` keys would rank above it, so at least o + 1 of the start's
    jobs + o keys would rank below x; all lie within d + 2e of t, so they
    are last keys, and they all rank below y, which then was not among
    the o lowest.  So the start lacks at most one member of F per site,
    and the loop acts for at most m rounds; more raises.  On the bundled
    sites it acts for none.
    """
    shape = np.shape(capacity)
    cap = np.asarray(capacity, dtype=np.float64).reshape(-1, shape[-1])
    loads = np.empty(cap.shape, dtype=np.int64)
    # blocks of hours keep the (hours, m) temporaries small
    for start in range(0, len(cap), BLOCK):
        loads[start : start + BLOCK] = _greedy_rows(cap[start : start + BLOCK], int(jobs))
    return loads.reshape(shape)


def _greedy_rows(cap, jobs):
    hours, m = cap.shape
    # sites along the first axis, so that per-site steps are whole rows
    c = np.ascontiguousarray(cap.T)
    s = np.ascontiguousarray(np.sort(cap, axis=1).T[::-1])
    n = np.floor(s)
    f = s - n
    n = n.astype(np.int64)
    whole, frac = n.cumsum(axis=0), f.cumsum(axis=0)
    j = np.arange(1, m + 1)[:, None]
    # s_j > t_j, i.e. sum(s_i - s_j for i <= j) < jobs
    above = (whole - j * n - jobs) + (frac - j * f) < 0
    a = np.maximum(above.sum(axis=0), 1)  # a = 0 only with jobs = 0: any level clips to 0
    cols = np.arange(hours)
    num = whole[a - 1, cols] - jobs
    q = num // a
    phi = (num - q * a + frac[a - 1, cols]) / a
    n = np.floor(c)  # c - t = (n - q) + (f - phi)
    loads = n.astype(np.int64) - q + np.ceil(c - n - phi).astype(np.int64)
    np.minimum(np.maximum(loads, 0, out=loads), jobs, out=loads)

    # one job off each of the `over` lowest-ranked last keys, ranked by
    # key ascending and the higher index first: off the `over`-th lowest
    # and every site that ranks lower still
    over = loads.sum(axis=0) - jobs
    last = np.where(loads > 0, c - (loads - 1), np.inf)
    lowest = m - 1 - np.argsort(last[::-1], axis=0, kind="stable")
    site = lowest[np.maximum(over, 1) - 1, cols]
    key = np.where(over > 0, last[site, cols], -np.inf)
    loads -= (last < key) | ((last == key) & (np.arange(m)[:, None] >= site))
    return _certify(cap, loads.T, jobs)


def _certify(cap, loads, jobs):
    """Make `loads` the greedy loads of `cap` by fills and swaps.

    `loads` must sum to at most `jobs` per row.  Each acting round adds
    one missing member of F (see `greedy_hour`) to every unfinished row,
    so more than m rounds means the start missed more than m members:
    that raises rather than return loads the loop did not finish.
    """
    m = cap.shape[1]
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
            return loads
        if rounds == m:
            raise RuntimeError("greedy_hour: the start missed more than %d greedy loads" % m)
        loads[rows[swap], worst[swap]] -= 1
        rows = rows[act]
        loads[rows, best[act]] += 1


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
