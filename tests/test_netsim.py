import contextlib
import gc
import heapq
import io
import json
import math
import numbers
import os
import tempfile
import time
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasp.cli import main as cli_main
from grasp.controller import FlowMod, Packet, match_text
from grasp.datafiles import data_path
from grasp.errors import GraspError, ScriptError
from grasp.model import NodeId, SWITCH
from grasp import netsim
from grasp.netsim import FlowTable, Simulation, idle_deadline, load_scenario, run_scenario

SW = NodeId(SWITCH, 0)


def mod(priority=10, src=None, dst=None, port=1, timeout=2.0):
    return FlowMod(
        switch=SW,
        priority=priority,
        match_src=src,
        match_dst=dst,
        actions=(("output", port),),
        idle_timeout=timeout,
    )


def pkt(src=1, dst=2):
    return Packet(kind="data", eth_src=0, eth_dst=0, ip_src=src, ip_dst=dst)


def test_lookup_priority_and_install_order():
    table = FlowTable()
    table.install(mod(priority=0, port=99, timeout=0.0), now=0.0)
    table.install(mod(priority=10, src=1, port=5), now=0.0)
    assert table.lookup(pkt(src=1), 0.1).actions[0][1] == 5
    assert table.lookup(pkt(src=3), 0.1).actions[0][1] == 99  # falls to the miss rule
    table.install(mod(priority=10, src=None, dst=2, port=7), now=0.0)
    # equal priority, both match: the earlier install wins
    assert table.lookup(pkt(src=1, dst=2), 0.2).actions[0][1] == 5


def test_idle_timeout_arithmetic():
    table = FlowTable()
    table.install(mod(src=1, timeout=2.0), now=0.0)
    assert table.lookup(pkt(src=1), 1.0) is not None  # hit refreshes the clock
    live = table.lookup(pkt(src=1), 2.5)  # 1.5 s idle, still there
    assert live is not None
    # idle exactly the timeout: gone (2.5 + 2.0 = 4.5)
    assert table.lookup(pkt(src=1), 4.5) is None
    assert not table.rules


def test_idle_timeout_boundary_is_inclusive():
    table = FlowTable()
    table.install(mod(src=1, timeout=2.0), now=10.0)
    assert table.expire(11.999) == []
    dead = table.expire(12.0)
    assert len(dead) == 1


def test_permanent_rules_never_expire():
    table = FlowTable()
    table.install(mod(priority=0, timeout=0.0), now=0.0)
    assert table.expire(1e9) == []
    assert table.lookup(pkt(), 1e9) is not None


def test_install_replaces_same_match():
    table = FlowTable()
    table.install(mod(src=1, port=5), now=0.0)
    table.install(mod(src=1, port=6), now=1.5)
    assert len(table.rules) == 1
    assert table.lookup(pkt(src=1), 1.6).actions[0][1] == 6


def test_expire_traces_itself():
    trace = []
    table = FlowTable(SW, trace)
    table.install(mod(src=1), now=0.0)
    table.install(mod(priority=0, timeout=0.0), now=0.0)
    table.expire(1.999)
    assert trace == []
    table.expire(2.0)
    assert trace == ["t=2.000 ev=expire sw=s0 match=0.0.0.1->*"]


class ListFlowTable:
    """The list-scanning flow table the indexed one replaced: a replace
    filters the list and appends, every call scans every rule."""

    def __init__(self, trace):
        self.trace = trace
        self.rules = []

    def install(self, mod, now):
        key = (mod.priority, mod.match_src, mod.match_dst)
        self.rules = [r for r in self.rules if (r[0], r[1], r[2]) != key]
        self.rules.append([mod.priority, mod.match_src, mod.match_dst, mod.actions, mod.idle_timeout, now])

    def expire(self, now):
        dead = [r for r in self.rules if r[4] > 0 and now - r[5] >= r[4]]
        self.rules = [r for r in self.rules if not (r[4] > 0 and now - r[5] >= r[4])]
        for r in dead:
            self.trace.append("t=%.3f ev=expire sw=%s match=%s" % (now, SW, match_text(r[1], r[2])))
        return [tuple(r) for r in dead]

    def lookup(self, packet, now):
        self.expire(now)
        best = None
        for r in self.rules:
            hit = r[1] in (None, packet.ip_src) and r[2] in (None, packet.ip_dst)
            if hit and (best is None or r[0] > best[0]):
                best = r
        if best is not None:
            best[5] = now
        return best and tuple(best)

    def dump(self):
        line = "prio=%d match=%s idle=%g last_hit=%.3f"
        return sorted(line % (r[0], match_text(r[1], r[2]), r[4], r[5]) for r in self.rules)


def rule_fields(rule):
    if rule is None:
        return None
    return (rule.priority, rule.match_src, rule.match_dst, rule.actions, rule.idle_timeout, rule.last_hit)


# negative, out of order, and one ulp either side of where a 0.3 s or 2.0 s
# idle timeout falls due
TABLE_TIMES = st.builds(
    lambda t, side: t if side == 0 else math.nextafter(t, side * math.inf),
    st.sampled_from([-2.0, -0.3, -0.0, 0.0, 0.3, 0.6, 1.7, 2.0, 2.3, 2.6, 4.0, 4.3]),
    st.sampled_from([-1, 0, 1]),
)
ADDRESS = st.sampled_from([None, 1, 2])


@st.composite
def table_ops(draw):
    """Install, lookup and expire calls; installs reuse a few (priority,
    src, dst) keys, so replacements are common."""
    keys = draw(st.lists(st.tuples(st.sampled_from([0, 5, 10]), ADDRESS, ADDRESS), min_size=1, max_size=4))
    install = st.tuples(st.just("install"), st.sampled_from(keys), st.sampled_from([0.0, 0.3, 2.0]),
                        st.integers(1, 4), TABLE_TIMES)
    lookup = st.tuples(st.just("lookup"), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]), TABLE_TIMES)
    return draw(st.lists(install | lookup | st.tuples(st.just("expire"), TABLE_TIMES), min_size=4, max_size=40))


@settings(max_examples=300, deadline=None)
@given(ops=table_ops())
# a replaced rule expires after the rules installed before its replacement
@example(ops=[("install", (10, 1, None), 0.3, 1, 0.0), ("install", (10, None, 1), 0.3, 1, 0.0),
              ("install", (10, 1, None), 0.3, 2, 0.0), ("expire", 4.0)])
def test_indexed_flow_table_matches_list_scan(ops):
    table, oracle = FlowTable(SW, []), ListFlowTable([])
    for op in ops:
        if op[0] == "install":
            _, (priority, src, dst), timeout, port, now = op
            m = mod(priority=priority, src=src, dst=dst, port=port, timeout=timeout)
            table.install(m, now)
            oracle.install(m, now)
        elif op[0] == "lookup":
            _, src, dst, now = op
            assert rule_fields(table.lookup(pkt(src, dst), now)) == oracle.lookup(pkt(src, dst), now)
        else:
            assert [rule_fields(r) for r in table.expire(op[1])] == oracle.expire(op[1])
        assert table.trace == oracle.trace
        assert table.dump() == oracle.dump()


def scenario_path():
    return data_path("scenario_geni_1h.json")


@pytest.fixture(scope="module")
def geni_hour():
    return run_scenario(scenario_path(), seed=0)


def test_scenario_counts(geni_hour):
    rep = geni_hour
    assert rep.per_dc_jobs.tolist() == [0, 0, 0, 10, 0, 0, 0, 0, 0]
    assert rep.auth_failures == 0
    assert len(rep.deliveries) == 10
    assert [f for f, _, _ in rep.deliveries[:3]] == ["f1", "f3", "f5"]
    assert rep.dc_names[0] == "elmira_corning_regional"


def test_scenario_adjacency_complete(geni_hour):
    controller = geni_hour.controller
    switches = [NodeId(SWITCH, i) for i in range(3)]
    want = {(a, b) for a in switches for b in switches if a != b}
    assert set(controller.adjacency) == want


def test_scenario_determinism():
    a = run_scenario(scenario_path(), seed=0)
    b = run_scenario(scenario_path(), seed=0)
    assert a.trace == b.trace
    assert a.snapshots == b.snapshots
    assert a.per_dc_jobs.tolist() == b.per_dc_jobs.tolist()


def test_scenario_seed_changes_credentials_not_outcomes(geni_hour):
    other = run_scenario(scenario_path(), seed=99)
    assert other.per_dc_jobs.tolist() == geni_hour.per_dc_jobs.tolist()
    assert other.packet_in_count == geni_hour.packet_in_count
    assert other.controller.discovery_token != geni_hour.controller.discovery_token


def test_scenario_snapshots_and_expiry(geni_hour):
    rep = geni_hour
    assert set(rep.snapshots) == {43700.0, 46700.0}
    # long after the last packet, only the permanent table-miss rules remain
    for snap in rep.snapshots.values():
        lines = snap.split("\n")
        assert len(lines) == 3
        assert all("prio=0" in line and "idle=0" in line for line in lines)
    assert any("ev=expire" in line for line in rep.trace)


def test_scenario_responses_reach_clients(geni_hour):
    rx = geni_hour.client_rx["c1"]
    responses = [p for p in rx if p.kind == "response"]
    assert [p.payload["flow_id"] for p in responses] == ["f1", "f2"]


def tiny_scenario(**overrides):
    base = {
        "topology": {
            "switches": ["s"],
            "links": [],
            "datacenters": [{"name": "dc", "switch": "s", "port": 1}],
            "clients": [{"name": "cl", "switch": "s", "port": 2}],
        },
        "config": {"flow_idle_timeout": 2.0},
        "horizon": 12.0,
        "agents": [{"dc": "dc", "register_at": 0.5, "respond": True,
                    "profile": {"shape": "constant", "peak_wh": 4.0}}],
        "clients": [{"client": "cl", "flows": [{"id": "t1", "open_at": 2.0, "data_at": [2.3, 2.6]}]}],
    }
    base.update(overrides)
    return base


def test_inline_scenario_fast_path():
    rep = run_scenario(tiny_scenario(), seed=0)
    # one register, one request; the data packets ride the installed rule
    assert rep.packet_in_count == 2
    assert rep.per_dc_jobs.tolist() == [1]
    assert rep.deliveries == [("t1", 0, 2.0)]
    responses = [p for p in rep.client_rx["cl"] if p.kind == "response"]
    assert len(responses) == 1


def test_finished_simulation_is_freed_without_the_collector():
    # a reference cycle would keep the simulation, its tables and its trace
    # alive until the collector runs
    sims = []

    class Watched(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(weakref.ref(self))

    gc.disable()
    try:
        with mock.patch.object(netsim, "Simulation", Watched):
            rep = run_scenario(tiny_scenario(horizon=3700.0), seed=0)
        assert sims[0]() is None
    finally:
        gc.enable()
    assert any("ev=expire" in line for line in rep.trace)
    assert "t=3600.000 ev=hour_reset hour=1" in rep.trace


def test_reopened_flow_hits_controller_again():
    scen = tiny_scenario()
    scen["clients"] = [{"client": "cl", "flows": [
        {"id": "t1", "open_at": 2.0},
        {"id": "t2", "open_at": 3.0},  # rule still warm, no packet-in
        {"id": "t3", "open_at": 8.0},  # idle 2 s rule long gone
    ]}]
    rep = run_scenario(scen, seed=0)
    assert rep.packet_in_count == 1 + 2
    assert rep.per_dc_jobs.tolist() == [3]
    expired = [line for line in rep.trace if "ev=expire" in line and "10.2.0.1" in line]
    assert expired  # the client rules aged out in between


def test_rate_workload_and_hour_reset():
    scen = tiny_scenario(horizon=7250.0)
    scen["config"] = {"report_period": 60.0}
    scen["clients"] = [{"client": "cl", "rate_per_hour": 3}]
    rep = run_scenario(scen, seed=0)
    assert rep.per_dc_jobs.tolist() == [6]
    assert "t=3600.000 ev=hour_reset hour=1" in rep.trace
    assert "t=7200.000 ev=hour_reset hour=2" in rep.trace


def test_staggered_switch_connect_still_discovers():
    scen = {
        "topology": {
            "switches": ["s1", "s2"],
            "links": [{"a": "s1", "a_port": 1, "b": "s2", "b_port": 1}],
            "datacenters": [{"name": "dc", "switch": "s2", "port": 2}],
            "clients": [{"name": "cl", "switch": "s1", "port": 2}],
        },
        "horizon": 20.0,
        "switch_connects": [{"switch": "s1", "at": 0.0}, {"switch": "s2", "at": 5.0}],
        "agents": [{"dc": "dc", "register_at": 6.0, "profile": {"shape": "zero"}}],
        "clients": [{"client": "cl", "flows": [{"id": "x", "open_at": 8.0}]}],
    }
    rep = run_scenario(scen, seed=0)
    assert rep.per_dc_jobs.tolist() == [1]
    assert rep.deliveries == [("x", 0, 8.0)]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.__setitem__("horizon", 0),
        lambda s: s["agents"].append({"dc": "ghost"}),
        lambda s: s["agents"].append({"dc": "dc", "register_at": -1}),
        lambda s: s["agents"].append({"dc": "dc", "profile": {}}),
        lambda s: s["clients"].append({"client": "ghost", "flows": []}),
        lambda s: s["clients"].append({"client": "cl", "flows": [{"open_at": 1.0}]}),
        lambda s: s["clients"].append({"client": "cl", "flows": [{"id": "y", "open_at": 5.0, "data_at": [1.0]}]}),
        lambda s: s["clients"].append({"client": "cl", "rate_per_hour": -2}),
        lambda s: s["clients"].append({"client": "cl"}),
        lambda s: s.__setitem__("switch_connects", [{"switch": "ghost"}]),
        lambda s: s.__setitem__("topology", 7),
    ],
)
def test_scenario_rejects(mutate):
    scen = tiny_scenario()
    mutate(scen)
    with pytest.raises(ScriptError):
        load_scenario(scen)


def set_flow(key, value):
    return lambda s: s["clients"][0]["flows"][0].__setitem__(key, value)


def set_rate(key, value):
    return lambda s: s["clients"].append({"client": "cl", "rate_per_hour": 1, "hours": [0], key: value})


NAN, INF = float("nan"), float("inf")
HOSTILE = {
    "agent_not_object": lambda s: s.__setitem__("agents", [5]),
    "agents_not_list": lambda s: s.__setitem__("agents", 5),
    "agent_dc_unhashable": lambda s: s["agents"].append({"dc": ["dc"]}),
    "agent_respond_string": lambda s: s["agents"][0].__setitem__("respond", "no"),
    "agent_respond_int": lambda s: s["agents"][0].__setitem__("respond", 1),
    "agent_twice_for_one_dc": lambda s: s["agents"].append(dict(s["agents"][0])),
    "flow_not_object": lambda s: s["clients"][0].__setitem__("flows", [3]),
    "flows_not_list": lambda s: s["clients"][0].__setitem__("flows", "t1"),
    "client_not_object": lambda s: s.__setitem__("clients", ["cl"]),
    "data_at_string": set_flow("data_at", "ab"),
    "data_at_nan": set_flow("data_at", [NAN]),
    "open_at_nan": set_flow("open_at", NAN),
    "open_at_bool": set_flow("open_at", True),
    "data_packets_string": set_rate("data_packets", "x"),
    "data_packets_float": set_rate("data_packets", 1.5),
    "hours_string_entry": set_rate("hours", ["a"]),
    "hours_huge_entry": set_rate("hours", [10**400]),
    "hours_not_list": set_rate("hours", 3),
    "rate_bool": lambda s: s["clients"].append({"client": "cl", "rate_per_hour": True}),
    "snapshot_time_string": lambda s: s.__setitem__("snapshot_times", ["x"]),
    "snapshot_time_nan": lambda s: s.__setitem__("snapshot_times", [NAN]),
    "snapshot_times_not_list": lambda s: s.__setitem__("snapshot_times", 5.0),
    "connect_at_string": lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": "x"}]),
    "connect_at_inf": lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": INF}]),
    "connect_not_object": lambda s: s.__setitem__("switch_connects", ["s"]),
    "register_at_nan": lambda s: s["agents"][0].__setitem__("register_at", NAN),
    "register_at_huge_int": lambda s: s["agents"][0].__setitem__("register_at", 10**400),
    "horizon_inf": lambda s: s.__setitem__("horizon", INF),
    "horizon_nan": lambda s: s.__setitem__("horizon", NAN),
    "horizon_bool": lambda s: s.__setitem__("horizon", True),
    "horizon_past_a_year": lambda s: s.__setitem__("horizon", 1e12),
    "horizon_one_ulp_past_a_year": lambda s: s.__setitem__("horizon", math.nextafter(8760 * 3600.0, INF)),
    "weather_csv_not_path": lambda s: s["agents"][0].__setitem__("profile", {"weather_csv": 5}),
    "profile_csv_nul": lambda s: s["agents"][0].__setitem__("profile", {"profile_csv": "a\0b"}),
}


@pytest.mark.parametrize("mutate", HOSTILE.values(), ids=HOSTILE.keys())
def test_scenario_rejects_hostile_input(mutate, tmp_path, capsys):
    scen = tiny_scenario()
    mutate(scen)
    with pytest.raises(ScriptError):
        load_scenario(scen)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scen))
    capsys.readouterr()
    assert cli_main(["scenario", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_horizon_of_one_profile_year_loads():
    assert load_scenario(tiny_scenario(horizon=8760 * 3600.0))[-1] == 8760 * 3600.0


def test_report_period_too_small_to_move_the_clock_fails_at_once(tmp_path, capsys):
    # 0.5 + 1e-300 == 0.5: the agent would report at t=0.5 forever
    scen = tiny_scenario(config={"report_period": 1e-300}, horizon=10.0)
    start = time.perf_counter()
    with pytest.raises(ScriptError, match="report_period"):
        run_scenario(scen, seed=0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scen))
    capsys.readouterr()
    assert cli_main(["scenario", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: report_period")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("peak", ["x", -1.0, float("nan"), float("inf"), True, None])
def test_scenario_rejects_bad_peak_wh(peak):
    scen = tiny_scenario()
    scen["agents"][0]["profile"] = {"shape": "constant", "peak_wh": peak}
    with pytest.raises(ScriptError, match="peak_wh"):
        load_scenario(scen)


def test_scenario_packet_in_formula(geni_hour):
    rep = geni_hour
    registrations = sum(1 for line in rep.trace if "ev=register " in line)
    receipts = sum(1 for line in rep.trace if "kind=discover" in line)
    reports = sum(1 for line in rep.trace if "kind=report" in line)
    flows = len({f for f, _, _ in rep.deliveries})
    assert reports == 9 * 12  # hourly from every DC, 1 h to 12 h
    assert rep.packet_in_count == registrations + receipts + reports + flows


# JSON values for mutations; ints stay small (or past the float range) so a
# mutated count cannot ask for millions of flows
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def key_paths(node, prefix=()):
    """Every key/index path below `node`, so a mutation can land anywhere."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_fail_cleanly(data):
    scen = tiny_scenario(snapshot_times=[1.0, 3.5], switch_connects=[{"switch": "s", "at": 0.0}])
    scen["clients"].append({"client": "cl", "rate_per_hour": 2, "hours": [0], "data_packets": 1})
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(key_paths(scen))))
        parent = scen
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    horizon = scen.get("horizon", 3600.0)
    if isinstance(horizon, numbers.Real) and not isinstance(horizon, bool) and horizon > 120:
        scen["horizon"] = 120.0
    try:
        run_scenario(scen, seed=0)
    except (GraspError, OSError):
        pass
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scen, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(["scenario", "--scenario", path]) in (0, 1, 2)


class EverySecond(Simulation):
    """The per-second loop that lazy deadlines replace: at every whole second
    below the horizon, before any event of that instant, sweep every flow
    table in switch order, then end the hour on a boundary.  It leaves
    `_now` unset, so every event, zero-latency hops too, goes through the
    heap in (time, schedule order): an oracle for the same-instant FIFO.
    It arms no expiry tick, so it does not rely on the lazy ones."""

    def _arm(self, i, tick):
        pass

    def _sweep(self, now):
        for table in self.tables:
            table.expire(now)
        if now % 3600.0 == 0:
            self.controller.on_hour(int(now // 3600.0), now=now)

    def run(self, horizon):
        self.horizon = float(horizon)
        handlers = self._handlers()
        tick = 1.0
        while self._heap and self._heap[0][0] < self.horizon:
            now, _, kind, payload = heapq.heappop(self._heap)
            while tick <= now:
                self._sweep(tick)
                tick += 1.0
            handlers[kind](now, payload)
        while tick < self.horizon:
            self._sweep(tick)
            tick += 1.0


def run_every_second(scen, seed=0):
    with mock.patch.object(netsim, "Simulation", EverySecond):
        return run_scenario(scen, seed=seed)


def same_run(a, b):
    return (a.trace, a.snapshots, a.deliveries, a.client_rx) == (b.trace, b.snapshots, b.deliveries, b.client_rx)


def first_due_second(last_hit, timeout, horizon):
    t = 1.0
    while t < horizon:
        if t - last_hit >= timeout:
            return t
        t += 1.0
    return math.inf


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.3, 1.7, 1e-300, 2.0**52, 2.0**53, 1e17, 1e30, -1e30])


# last_hit and timeout that nearly cancel past 2**53, where last_hit + timeout
# can round up past the first due second: -(2**53 + 2) and 2**53 + 4 are due at 1
CANCELLING = st.builds(
    lambda x, k: (-x, x + k * math.ulp(x)), st.integers(2**53, 2**56).map(float), st.integers(1, 8)
)


@settings(max_examples=400, deadline=None)
@given(
    hit_and_timeout=st.tuples(
        st.floats(-1e31, 60.0) | EDGE_FLOATS | EDGE_FLOATS.map(lambda x: -x),
        st.floats(1e-300, 1e31) | EDGE_FLOATS.filter(lambda x: x > 0),
    ) | CANCELLING,
    horizon=st.floats(0.5, 60.0),
)
def test_idle_deadline_is_first_due_second(hit_and_timeout, horizon):
    last_hit, timeout = hit_and_timeout
    assert idle_deadline(last_hit, timeout, horizon) == first_due_second(last_hit, timeout, horizon)


def test_idle_deadline_terminates_at_any_magnitude():
    # t - 1.0 == t past 2**53, so stepping down one second at a time would spin
    assert idle_deadline(0.0, 1e17, 2.0**60) == math.inf
    assert idle_deadline(0.0, 1e17, 40.0) == math.inf
    # -1e30 one ulp (2**47) below the timeout: due only once t - last_hit rounds
    # up past the half-ulp tie, more than 7e13 seconds from ceil(last_hit + timeout)
    timeout = math.nextafter(1e30, math.inf)
    t = idle_deadline(-1e30, timeout, 1e300)
    assert t == 2.0**46 + 1 and t + 1e30 >= timeout and not (t - 1) + 1e30 >= timeout
    assert idle_deadline(0.0, 2.0**51 + 0.5, 2.0**60) == 2.0**51 + 1
    assert idle_deadline(0.0, 2.0**53 - 1, 2.0**60) == 2.0**53 - 1
    assert idle_deadline(0.0, 2.0**53, 2.0**60) == math.inf  # no tick at 2**53
    assert idle_deadline(2.5, 2.0, 5.0) == math.inf  # due at 5, the horizon: never armed
    assert idle_deadline(2.5, 2.0, 5.5) == 5.0


def test_huge_idle_timeout_finishes_at_once():
    scen = tiny_scenario(config={"flow_idle_timeout": 1e17}, horizon=3700.0)
    start = time.perf_counter()
    rep = run_scenario(scen, seed=0)
    took = time.perf_counter() - start
    assert took < 0.5
    assert same_run(rep, run_every_second(scen))
    assert not any("ev=expire" in line for line in rep.trace)
    assert "t=3600.000 ev=hour_reset hour=1" in rep.trace


def test_rules_installed_before_time_zero_expire_every_second_alike():
    traces = []
    for cls in (Simulation, EverySecond):
        topology, config, *_ = load_scenario(tiny_scenario())
        sim = cls(topology, config)
        for src, (last_hit, timeout) in enumerate([(-5.0, 2.0), (-0.5, 2.0), (-1.0, 2.0), (-2.5, 0.3), (-1e30, 1.0)]):
            sim.tables[SW.index].install(mod(src=src + 1, timeout=timeout), now=last_hit)
        sim.run(6.0)
        traces.append(sim.trace)
    assert traces[0] == traces[1]
    assert [line.split(" match=")[1] for line in traces[0] if line.startswith("t=1.000 ev=expire")] == [
        "0.0.0.1->*", "0.0.0.3->*", "0.0.0.4->*", "0.0.0.5->*",
    ]
    assert "t=2.000 ev=expire sw=s0 match=0.0.0.2->*" in traces[0]


def near_second(seconds):
    """A whole second, or one ulp either side of it (not below 0)."""
    return st.builds(
        lambda n, side: n if side == 0 else abs(math.nextafter(n, side * math.inf)),
        seconds, st.sampled_from([-1, 0, 1]),
    )


# 2.7 + 0.3 rounds to 3.0, yet 3.0 - 2.7 < 0.3: such a rule is due at 4, not at ceil
TIMES = near_second(st.integers(0, 9).map(float) | st.integers(3597, 3601).map(float)) | st.sampled_from([0.5, 2.7, 5.7])


@st.composite
def small_scenarios(draw):
    horizon = draw(st.sampled_from([6.0, 9.5, 12.0, 3601.0, 3602.5]))
    # several packets, from both clients, often share one instant
    shared = draw(TIMES)
    times = st.just(shared) | TIMES
    flows = {"cl": [], "c2": []}
    for i in range(draw(st.integers(0, 5))):
        open_at = draw(times)
        data_at = sorted(t for t in draw(st.lists(times, max_size=3)) if t >= open_at)
        flows[draw(st.sampled_from(["cl", "c2"]))].append({"id": "f%d" % i, "open_at": open_at, "data_at": data_at})
    return {
        "topology": {
            "switches": ["s", "t"],
            "links": [{"a": "s", "a_port": 9, "b": "t", "b_port": 9}],
            "datacenters": [{"name": "dc", "switch": "t", "port": 1}],
            "clients": [{"name": "cl", "switch": "s", "port": 2}, {"name": "c2", "switch": "t", "port": 3}],
        },
        "config": {
            "flow_idle_timeout": draw(st.sampled_from([0.3, 1.7, 2.0, 1.0, 0.999999, 5e-324])),
            "report_period": draw(st.sampled_from([1.0, 2.5, 3600.0])),
        },
        "horizon": horizon,
        "agents": [{"dc": "dc", "register_at": draw(times), "respond": draw(st.booleans()),
                    "profile": {"shape": "constant", "peak_wh": 4.0}}],
        "clients": [{"client": name, "flows": f} for name, f in flows.items()],
        "snapshot_times": draw(st.lists(times, max_size=3)),
        "switch_connects": [
            {"switch": "s", "at": draw(st.sampled_from([-3.0, 0.0]) | TIMES)},
            {"switch": "t", "at": draw(st.sampled_from([-1.5, 0.0]) | TIMES)},
        ],
    }


@settings(max_examples=120, deadline=None)
@given(scen=small_scenarios())
def test_lazy_ticks_match_every_second_sweep(scen):
    assert same_run(run_scenario(scen, seed=0), run_every_second(scen))


def test_rate_flows_stop_at_the_horizon():
    scen = tiny_scenario(horizon=1.0)
    scen["clients"] = [{"client": "cl", "rate_per_hour": 100000, "hours": [0, 5, 9], "data_packets": 3}]
    start = time.perf_counter()
    flows = load_scenario(scen)[3]
    rep = run_scenario(scen, seed=0)
    assert time.perf_counter() - start < 0.5
    assert len(flows) == 27  # (i + 1) * 3600 / 100001 < 1 for i < 27
    assert all(f.open_at < 1.0 and all(t < 1.0 for t in f.data_at) for f in flows)
    assert {f for f, _, _ in rep.deliveries} <= {f.flow_id for f in flows}
    # the flows that do start are the ones an unbounded horizon starts first
    longer = load_scenario(dict(scen, horizon=3600.0))[3]
    assert [(f.flow_id, f.open_at) for f in flows] == [(f.flow_id, f.open_at) for f in longer[:27]]
