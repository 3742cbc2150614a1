"""End-to-end checks of the shipped behavior.

Each test covers one headline property of the package and prints a
single PASS/FAIL line; run with -v (or -rA) to see them all.
"""

import math
import os
import re
import subprocess
import sys
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import grasp
from grasp.cli import main as cli_main
from grasp.datafiles import data_path
from grasp.energy import synth_profile
from grasp.experiment import run_year
from grasp.model import SWITCH, NodeId, load_topology, read_json
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


def test_criterion_4_greedy_matches_brute_force(brute_force_ng):
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
        if loads.sum() != jobs or got != brute_force_ng(caps, jobs):
            failures += 1
    took = time.perf_counter() - start
    check(
        failures == 0 and took < 10.0,
        "criterion 4: greedy n_g equals the brute-force optimum on 200 random "
        "instances (%d mismatches, %.2f s)" % (failures, took),
    )


def geni_hour_report():
    """The 1 h demo's report and its trace lines."""
    trace = []
    return run_scenario(data_path("scenario_geni_1h.json"), seed=0, emit=trace.append), trace


def test_criterion_5_packet_in_accounting():
    rep, trace = geni_hour_report()
    registrations = sum(1 for line in trace if "ev=register " in line)
    discovery_receipts = sum(1 for line in trace if "ev=packet_in" in line and "kind=discover" in line)
    reports = sum(1 for line in trace if "ev=packet_in" in line and "kind=report" in line)
    flows = {m.group(1) for m in (re.search(r"ev=decision flow=(\S+)", l) for l in trace) if m}
    expected = registrations + discovery_receipts + reports + len(flows)
    check(
        rep.packet_in_count == expected,
        "criterion 5: packet-ins == registrations + discovery receipts + energy reports + "
        "distinct flows (%d == %d + %d + %d + %d)"
        % (rep.packet_in_count, registrations, discovery_receipts, reports, len(flows)),
    )


def test_criterion_6_discovery_completeness():
    rep, _ = geni_hour_report()
    topo = load_topology(data_path("geni.topo.json"))
    wired = {(NodeId(SWITCH, i), peer) for i, table in enumerate(topo.ports)
             for peer, _ in table.values() if peer.kind == SWITCH}
    discovered = {(sw, peer) for sw, ports in rep.controller.adjacency.items() for peer in ports}
    check(
        discovered == wired,
        "criterion 6: discovered adjacency equals the wired link set in both "
        "directions (%d directed pairs)" % len(discovered),
    )


def test_criterion_7_idle_timeout_from_trace():
    _, trace = geni_hour_report()
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
    for line in trace:
        m = re.match(r"t=([0-9.]+) ev=expire sw=\S+ match=(\S+)", line)
        if m:
            expire_lines += 1
            match = m.group(2)
            direction = "forward" if match.endswith("->*") else "reverse"
            ip = match.replace("->*", "").replace("*->", "")
            observed.add((ip, direction, float(m.group(1))))

    ok = observed == expected and expire_lines >= len(expected) > 0

    # nothing but the permanent table-miss rules outlives the traffic
    snapshot = [line for line in trace if " ev=snapshot " in line]
    ok = ok and len(snapshot) > 0 and all("idle=0" in line for line in snapshot)

    # c5 reuses its ip for a second flow after expiry: that needs a new decision
    c5_decisions = sum(1 for line in trace if "ev=decision" in line and ("flow=f7" in line or "flow=f8" in line))
    ok = ok and c5_decisions == 2
    check(
        ok,
        "criterion 7: every eviction lands exactly one sweep after idle_timeout, "
        "no rule survives, re-opened flow takes a fresh packet-in "
        "(%d evictions over %d rule lifetimes)" % (expire_lines, len(expected)),
    )


def hourly_deliveries(rep, hours):
    """A protocol run's deliveries as an (hours, 9) array of per-hour, per-DC jobs."""
    bins = [int(t // 3600.0) * 9 + dc_id for _, dc_id, t in rep.deliveries]
    return np.bincount(bins, minlength=hours * 9).reshape(hours, 9)


def hourly_loads(site_profiles, sched, hours, **config):
    """Per-hour, per-DC jobs of the bundled 24 h scenario's workload, run
    for `hours` under `sched` with `config` overrides: those protocol mode
    delivers, then those fast mode places."""
    scen = read_json(data_path("scenario_geni_24h.json"))
    scen["config"].update(config, scheduler=sched)
    scen["horizon"] = hours * 3600.0
    rep = run_scenario(scen, base_dir=data_path(), seed=0)
    return hourly_deliveries(rep, hours), run_year(site_profiles, sched, 1.0, 12, hours=hours).per_dc_load


def test_criterion_8_protocol_fast_cross_check(site_profiles):
    # the bundled 24 h scenario's workload, run for a week
    hours = 168
    results = {
        sched: np.array_equal(*hourly_loads(site_profiles, sched, hours, report_period=60.0))
        for sched in ("green_aware", "round_robin")
    }
    check(
        results["green_aware"] and results["round_robin"],
        "criterion 8: %d h protocol run and fast mode place identical per-DC "
        "loads (green %s, round robin %s)" % (hours, results["green_aware"], results["round_robin"]),
    )


# A sink-less year of the 24 h demo's workload under policy argv[1], energy
# reported hourly, in an interpreter free of pytest and hypothesis.  It prints
# its per-hour, per-DC deliveries, then its peak RSS in KiB: VmHWM, as Linux's
# ru_maxrss keeps the peak of the process that started it across exec.
YEAR_CHILD = """
import resource, sys
import numpy as np
from grasp.datafiles import data_path
from grasp.model import read_json
from grasp.netsim import run_scenario
scen = read_json(data_path("scenario_geni_24h.json"))
scen["config"].update(scheduler=sys.argv[1], report_period=3600.0)
scen["horizon"] = 8760 * 3600.0
rep = run_scenario(scen, base_dir=data_path(), seed=0)
try:
    with open("/proc/self/status") as fh:
        peak_kib = int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
except OSError:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1)
print(*np.bincount([int(t // 3600.0) * 9 + dc for _, dc, t in rep.deliveries], minlength=8760 * 9))
print(peak_kib)
"""


def test_criterion_8_year_protocol_fast_cross_check(site_profiles):
    # each policy's year runs in its own child while this process runs fast mode
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(grasp.__file__)))
    children = {
        sched: subprocess.Popen([sys.executable, "-c", YEAR_CHILD, sched], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for sched in ("green_aware", "round_robin")
    }
    fast = {sched: run_year(site_profiles, sched, 1.0, 12, hours=8760).per_dc_load for sched in children}
    outputs = {sched: child.communicate(timeout=600) for sched, child in children.items()}
    results = {}
    for sched, (out, err) in outputs.items():
        assert children[sched].returncode == 0, err
        loads, peak_kib = out.splitlines()
        same = np.array_equal(np.array(loads.split(), dtype=np.int64).reshape(8760, 9), fast[sched])
        results[sched] = (same, int(peak_kib) / 1024)
    check(
        all(same and peak_mb < 90.0 for same, peak_mb in results.values()),
        "criterion 8: 8760 h protocol runs without a trace sink place fast mode's per-DC loads, "
        "under 90 MB (green %s at %.1f MB, round robin %s at %.1f MB)"
        % (*results["green_aware"], *results["round_robin"]),
    )


def test_criterion_8_modes_part_when_a_flow_rides_the_last_rule(site_profiles):
    # each client opens a flow every 1,200 s; rules that idle out only after
    # 1,500 s carry the second flow of each hour to the first one's data
    # center, where fast mode places it afresh
    protocol, fast = hourly_loads(site_profiles, "green_aware", 24, flow_idle_timeout=1500.0)
    apart = int((protocol != fast).any(axis=1).sum())
    check(
        apart == 24
        and protocol[0].tolist() == [2, 2, 2, 2, 2, 2, 0, 0, 0]
        and fast[0].tolist() == [2, 2, 2, 1, 1, 1, 1, 1, 1]
        and protocol.sum(axis=1).tolist() == fast.sum(axis=1).tolist() == [12] * 24,
        "criterion 8: with flows closer than flow_idle_timeout the modes place "
        "differently in %d of 24 h, with the same 12 jobs each hour" % apart,
    )


@st.composite
def demo_workloads(draw):
    """The 24 h demo's fabric and agents under a drawn workload of 24-72 h,
    inside both preconditions of the modes' agreement.  At most 4 flows per
    client-hour open an hour's first flow 720 s in, after a report period
    of at most 600 s has brought that hour's energy; a client's flows are
    then at least 720 s apart, against a 2 s idle timeout."""
    hours = draw(st.integers(24, 72))
    names = draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c4", "c5", "c6"]), min_size=1, max_size=6, unique=True))
    clients = [
        {
            "client": name,
            "rate_per_hour": draw(st.integers(1, 4)),
            "hours": draw(st.lists(st.integers(0, hours - 1), unique=True, max_size=hours)),
            "data_packets": draw(st.integers(0, 2)),
        }
        for name in names
    ]
    config = {
        "scheduler": draw(st.sampled_from(["green_aware", "round_robin"])),
        "job_energy_wh": draw(st.sampled_from([0.3, 1.0, 191.0]) | st.floats(0.3, 191.0)),
        "report_period": draw(st.sampled_from([60.0, 600.0]) | st.floats(60.0, 600.0)),
    }
    return hours, config, clients


@settings(max_examples=5, deadline=None)
@given(workload=demo_workloads())
def test_criterion_8_modes_agree_on_generated_workloads(site_profiles, workload):
    hours, config, clients = workload
    scen = read_json(data_path("scenario_geni_24h.json"))
    scen["config"].update(config)
    scen["horizon"] = hours * 3600.0
    scen["clients"] = clients
    protocol = hourly_deliveries(run_scenario(scen, base_dir=data_path(), seed=0), hours)

    # fast mode places a fixed number of jobs an hour, so each hour is its own
    # run; round robin's cursor carries over every job placed before the hour,
    # where fast mode's carries over the same number each hour
    sched, k = config["scheduler"], config["job_energy_wh"]
    fast = np.zeros_like(protocol)
    placed = 0
    for h in range(hours):
        jobs = sum(c["rate_per_hour"] for c in clients if h in c["hours"])
        if sched == "green_aware":
            fast[h] = run_year(site_profiles, sched, k, jobs, hours=h + 1).per_dc_load[h]
        else:
            fast[h] = np.roll(run_year(site_profiles, sched, k, jobs, hours=1).per_dc_load[0], placed)
        placed += jobs
    assert protocol.tolist() == fast.tolist()


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


def test_criterion_10_1h_demo_is_green_aware():
    # the demo runs at midday, so reports steer placement away from round robin
    reports, traces = {}, {}
    for sched in ("green_aware", "round_robin"):
        scen = read_json(data_path("scenario_geni_1h.json"))
        scen["config"] = read_json(data_path(scen["config"]))
        scen["config"]["scheduler"] = sched
        traces[sched] = []
        reports[sched] = run_scenario(scen, base_dir=data_path(), seed=0, emit=traces[sched].append)
    green, rr = (reports[s].per_dc_jobs.tolist() for s in ("green_aware", "round_robin"))
    decisions = [line for line in traces["green_aware"] if "ev=decision" in line]
    scores = [float(line.rsplit("score=", 1)[1]) for line in decisions]
    check(
        green != rr and len(scores) == 10 and max(scores) > 0,
        "criterion 10: the 1 h demo places by green energy, not round robin "
        "(green %s, round robin %s, best score %.3f)" % (green, rr, max(scores, default=0.0)),
    )
