"""End-to-end checks of the shipped behavior.

Each test covers one headline property of the package and prints a
single PASS/FAIL line; run with -v (or -rA) to see them all.
"""

import math
import re
import time

import numpy as np
import pytest

from grasp.cli import main as cli_main
from grasp.datafiles import data_path
from grasp.energy import synth_profile
from grasp.experiment import run_year
from grasp.model import load_topology, read_json
from grasp.netsim import run_scenario


def check(ok, label):
    line = ("PASS " if ok else "FAIL ") + label
    print(line)
    assert ok, line


def test_criterion_1_degenerate_round_robin():
    # with no energy anywhere, the greedy policy must split the load evenly
    profiles = [synth_profile("zero", 0.0) for _ in range(9)]
    start = time.perf_counter()
    rep = run_year(profiles, "green_aware", 1.0, 900, hours=24)
    took = time.perf_counter() - start
    even = bool(np.all(rep.per_dc_load == 100))
    check(
        even and took < 1.0,
        "criterion 1: all-zero energy gives exactly 100 jobs per DC per hour "
        "(even=%s, %.3f s)" % (even, took),
    )


def test_criterion_2_dominance_and_gap_narrowing(site_profiles):
    start = time.perf_counter()
    r = {
        (sched, k): run_year(site_profiles, sched, k, 900).r_avg
        for sched in ("green_aware", "round_robin")
        for k in (1.0, 200.0)
    }
    took = time.perf_counter() - start
    gap_1 = r[("green_aware", 1.0)] - r[("round_robin", 1.0)]
    gap_200 = r[("green_aware", 200.0)] - r[("round_robin", 200.0)]
    check(
        gap_1 >= 0.0 and gap_200 >= 0.0 and gap_1 > gap_200 and took < 30.0,
        "criterion 2: green-aware dominates and the gap narrows with k "
        "(gap@k=1 %.6f, gap@k=200 %.6f, %.2f s)" % (gap_1, gap_200, took),
    )


def test_criterion_3_load_monotonicity(site_profiles):
    loads = [100, 300, 500, 700, 900]
    start = time.perf_counter()
    curves = {
        sched: [run_year(site_profiles, sched, 1.0, n).r_avg for n in loads]
        for sched in ("green_aware", "round_robin")
    }
    took = time.perf_counter() - start
    worst = 0.0
    for values in curves.values():
        for lo, hi in zip(values[1:], values[:-1]):
            worst = max(worst, lo - hi)  # positive means an increase
    check(
        worst <= 1e-9 and took < 60.0,
        "criterion 3: r_avg non-increasing across loads %s "
        "(worst increase %.3e, %.2f s)" % (loads, worst, took),
    )


def brute_force_ng(caps, jobs):
    """Best n_g over every one of the m^jobs assignment sequences."""
    m = len(caps)
    total = m**jobs
    idx = np.arange(total)
    counts = np.zeros((total, m), dtype=np.int64)
    for _ in range(jobs):
        idx, digit = np.divmod(idx, m)
        counts[np.arange(total), digit] += 1
    return float(np.minimum(counts, caps).sum(axis=1).max()) if jobs else 0.0


def test_criterion_4_greedy_matches_brute_force():
    from grasp._kernels import greedy_hour

    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        jobs = int(rng.integers(0, 11))
        # quarter-Wh caps are exact in float64, so equality can be exact too
        caps = rng.integers(0, 4 * (jobs + 2), size=m) / 4.0
        loads = greedy_hour(caps, jobs)
        got = float(np.minimum(caps, loads).sum())
        if got != brute_force_ng(caps, jobs):
            failures += 1
    took = time.perf_counter() - start
    check(
        failures == 0 and took < 10.0,
        "criterion 4: greedy n_g equals the brute-force optimum on 200 random "
        "instances (%d mismatches, %.2f s)" % (failures, took),
    )


def geni_hour_report():
    return run_scenario(data_path("scenario_geni_1h.json"), seed=0)


def test_criterion_5_packet_in_accounting():
    rep = geni_hour_report()
    registrations = sum(1 for line in rep.trace if "ev=register " in line)
    discovery_receipts = sum(1 for line in rep.trace if "ev=packet_in" in line and "kind=discover" in line)
    flows = {m.group(1) for m in (re.search(r"ev=decision flow=(\S+)", l) for l in rep.trace) if m}
    expected = registrations + discovery_receipts + len(flows)
    check(
        rep.packet_in_count == expected,
        "criterion 5: packet-ins == registrations + discovery receipts + distinct "
        "flows (%d == %d + %d + %d)" % (rep.packet_in_count, registrations, discovery_receipts, len(flows)),
    )


def test_criterion_6_discovery_completeness():
    rep = geni_hour_report()
    topo = load_topology(data_path("geni.topo.json"))
    check(
        set(rep.controller.adjacency) == topo.switch_link_pairs(),
        "criterion 6: discovered adjacency equals the wired link set in both "
        "directions (%d directed pairs)" % len(rep.controller.adjacency),
    )


def test_criterion_7_idle_timeout_from_trace():
    rep = geni_hour_report()
    scenario = read_json(data_path("scenario_geni_1h.json"))
    timeout = 2.0

    # Forward rules stay warm through data packets; reverse rules are last
    # hit by the response at flow open.  With 1 s expiry sweeps, each rule
    # must vanish at the first whole second >= its last hit + timeout.
    expected = set()
    for i, spec in enumerate(scenario["clients"]):
        ip = "10.2.0.%d" % (i + 1)
        for f in spec["flows"]:
            open_at = float(f["open_at"])
            last = max([open_at] + [float(t) for t in f.get("data_at", ())])
            expected.add((ip, "reverse", float(math.ceil(open_at + timeout))))
            expected.add((ip, "forward", float(math.ceil(last + timeout))))

    observed = set()
    expire_lines = 0
    for line in rep.trace:
        m = re.match(r"t=([0-9.]+) ev=expire sw=\S+ match=(\S+)", line)
        if m:
            expire_lines += 1
            match = m.group(2)
            direction = "forward" if match.endswith("->*") else "reverse"
            ip = match.replace("->*", "").replace("*->", "")
            observed.add((ip, direction, float(m.group(1))))

    ok = observed == expected and expire_lines >= len(expected) > 0

    # nothing but the permanent table-miss rules outlives the traffic
    for snap in rep.snapshots.values():
        ok = ok and all("idle=0" in line for line in snap.split("\n"))

    # c5 reuses its ip for a second flow after expiry: that needs a new decision
    c5_decisions = sum(1 for line in rep.trace if "ev=decision" in line and ("flow=f7" in line or "flow=f8" in line))
    ok = ok and c5_decisions == 2
    check(
        ok,
        "criterion 7: every eviction lands exactly one sweep after idle_timeout, "
        "no rule survives, re-opened flow takes a fresh packet-in "
        "(%d evictions over %d rule lifetimes)" % (expire_lines, len(expected)),
    )


def protocol_matches_fast(site_profiles, hours, report_period):
    """Per policy, whether the bundled 24 h scenario's workload, run in
    protocol mode for `hours`, delivers the same per-hour, per-DC jobs that
    fast mode places."""
    results = {}
    for sched in ("green_aware", "round_robin"):
        scen = read_json(data_path("scenario_geni_24h.json"))
        scen["config"]["scheduler"] = sched
        scen["config"]["report_period"] = report_period
        scen["horizon"] = hours * 3600.0
        rep = run_scenario(scen, base_dir=data_path(), seed=0)
        hourly = np.zeros((hours, 9), dtype=np.int64)
        for _, dc_id, t in rep.deliveries:
            hourly[int(t // 3600.0), dc_id] += 1
        fast = run_year(site_profiles, sched, 1.0, 12, hours=hours)
        results[sched] = np.array_equal(hourly, fast.per_dc_load)
    return results


def test_criterion_8_protocol_fast_cross_check(site_profiles):
    # the bundled 24 h scenario's workload, run for a week
    hours = 168
    results = protocol_matches_fast(site_profiles, hours, 60.0)
    check(
        results["green_aware"] and results["round_robin"],
        "criterion 8: %d h protocol run and fast mode place identical per-DC "
        "loads (green %s, round robin %s)" % (hours, results["green_aware"], results["round_robin"]),
    )


@pytest.mark.slow
def test_criterion_8_year_protocol_fast_cross_check(site_profiles):
    # the same workload for a whole year, energy reported hourly
    hours = 8760
    start = time.perf_counter()
    results = protocol_matches_fast(site_profiles, hours, 3600.0)
    check(
        results["green_aware"] and results["round_robin"],
        "criterion 8: %d h protocol run and fast mode place identical per-DC loads "
        "(green %s, round robin %s, %.1f s)"
        % (hours, results["green_aware"], results["round_robin"], time.perf_counter() - start),
    )


def test_criterion_9_seeded_runs_are_byte_identical(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main(["run", "--energy-dir", data_path("sites"), "--hours", "72",
                         "--out", str(d / "metrics.csv")]) == 0
        assert cli_main(["sweep", "--mode", "k", "--range", "1:2:1", "--hours", "48",
                         "--energy-dir", data_path("sites"),
                         "--out", str(d / "sweep.csv"), "--svg", str(d / "sweep.svg")]) == 0
        assert cli_main(["scenario", "--seed", "5", "--scenario",
                         data_path("scenario_geni_1h.json"),
                         "--trace-out", str(d / "trace.txt")]) == 0
        assert cli_main(["gen-energy", "--shape", "sinusoid",
                         "--peak-wh", "80", "--out", str(d / "energy.csv")]) == 0
        pairs.append(sorted(p for p in d.iterdir()))
    names = [p.name for p in pairs[0]]
    identical = all(a.read_bytes() == b.read_bytes() for a, b in zip(*pairs))
    check(
        identical and len(names) == 5,
        "criterion 9: reruns of run/sweep/gen-energy and same-seed reruns of scenario are "
        "byte-identical (%s)" % ", ".join(names),
    )
