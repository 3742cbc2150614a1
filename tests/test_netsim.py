import collections
import contextlib
import gc
import heapq
import io
import json
import math
import numbers
import os
import re
import tempfile
import time
import weakref
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grasp import controller as controller_module
from grasp.cli import main as cli_main
from grasp.controller import FlowMod, Packet, match_text
from grasp.datafiles import data_path
from grasp.errors import GraspError, ValidationError
from grasp.model import CLIENT, SWITCH, NodeId, config_from_dict, read_json, topology_from_dict
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
    table = FlowTable(SW, trace.append)
    table.install(mod(src=1), now=0.0)
    table.install(mod(priority=0, timeout=0.0), now=0.0)
    table.expire(1.999)
    assert trace == []
    table.expire(2.0)
    assert trace == ["t=2.000 ev=expire sw=s0 match=0.0.0.1->*"]


def test_rules_resolve_their_actions_at_install():
    # one switch, a data center at port 1 and a client at port 2
    topo = topology_from_dict({"switches": ["s"], "links": [],
                               "datacenters": [{"name": "d", "switch": "s", "port": 1}],
                               "clients": [{"name": "c", "switch": "s", "port": 2}]})
    lines = []
    sim = Recording(topo, config_from_dict({}), emit=lines.append)
    rewrite_ip = FlowMod(SW, 10, 1, None, (("set_ip_dst", 7), ("output", 2)), 0.0)
    punt = FlowMod(SW, 10, 3, None, (("controller",),), 0.0)
    for m in (rewrite_ip, punt):
        sim.tables[0].install(m, 0.0)
    assert sim.tables[0].lookup(pkt(src=1), 0.0).actions == rewrite_ip.actions  # kept for readers of a rule
    sim.schedule(0.0, "connect", SW)
    sim.schedule(1.0, "deliver", (SW, 1, Packet("data", 5, 0xAB, 1, 2)))
    sim.schedule(1.0, "deliver", (SW, 1, Packet("data", 5, 0xAB, 3, 2)))
    sim.run(2.0)
    # only ip_dst is rewritten: the packet keeps its eth_dst
    assert [p for p in sim.received["c"] if p.kind == "data"] == [Packet("data", 5, 0xAB, 1, 7)]
    assert "t=1.000 ev=packet_in sw=s0 port=1 kind=data src=0.0.0.3" in lines
    assert sim.controller.packet_in_count == 1


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


# negative, and one ulp either side of where a 0.3 s or 2.0 s idle timeout
# falls due
TABLE_TIMES = st.builds(
    lambda t, side: t if side == 0 else math.nextafter(t, side * math.inf),
    st.sampled_from([-2.0, -0.3, -0.0, 0.0, 0.3, 0.6, 1.7, 2.0, 2.3, 2.6, 4.0, 4.3]),
    st.sampled_from([-1, 0, 1]),
)
ADDRESS = st.sampled_from([None, 1, 2])


@st.composite
def table_ops(draw):
    """Install, lookup and expire calls at non-decreasing times, as a
    simulation makes them; installs reuse a few (priority, src, dst) keys,
    so replacements are common."""
    keys = draw(st.lists(st.tuples(st.sampled_from([0, 5, 10]), ADDRESS, ADDRESS), min_size=1, max_size=4))
    install = st.tuples(st.just("install"), st.sampled_from(keys), st.sampled_from([0.0, 0.3, 2.0]),
                        st.integers(1, 4), TABLE_TIMES)
    lookup = st.tuples(st.just("lookup"), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]), TABLE_TIMES)
    ops = draw(st.lists(install | lookup | st.tuples(st.just("expire"), TABLE_TIMES), min_size=4, max_size=40))
    times = iter(sorted(op[-1] for op in ops))
    return [(*op[:-1], next(times)) for op in ops]


@settings(max_examples=300, deadline=None)
@given(ops=table_ops())
# a replaced rule expires after the rules installed before its replacement
@example(ops=[("install", (10, 1, None), 0.3, 1, 0.0), ("install", (10, None, 1), 0.3, 1, 0.0),
              ("install", (10, 1, None), 0.3, 2, 0.0), ("expire", 4.0)])
# a new match shape at a priority that lookups have already probed
@example(ops=[("install", (10, 1, None), 2.0, 1, 0.0), ("lookup", 1, 2, 0.3), ("lookup", 3, 2, 0.3),
              ("install", (10, None, 2), 2.0, 2, 0.3), ("lookup", 3, 2, 0.6), ("lookup", 1, 2, 0.6)])
# every rule of one shape has expired, and lookups still probe that shape
@example(ops=[("install", (10, 1, None), 0.3, 1, 0.0), ("install", (10, None, 2), 2.0, 2, 0.0),
              ("install", (0, None, None), 0.0, 3, 0.0), ("lookup", 1, 2, 0.6), ("lookup", 1, 3, 0.6),
              ("lookup", 1, 2, 4.3)])
def test_indexed_flow_table_matches_list_scan(ops):
    lines = []
    table, oracle = FlowTable(SW, lines.append), ListFlowTable([])
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
        assert lines == oracle.trace
        assert table.dump() == oracle.dump()


def scenario_path():
    return data_path("scenario_geni_1h.json")


def traced(runner, scen, seed=0):
    """A run's report and the trace lines a list sink collects from it."""
    lines = []
    return runner(scen, seed=seed, emit=lines.append), lines


class Recording(Simulation):
    """Keeps each packet a host receives, by host name, and hands them on
    in its report as `received`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = collections.defaultdict(list)

    def _deliver(self, now, arrival):
        node, _, packet = arrival
        if node.kind != SWITCH:
            hosts = self.topology.clients if node.kind == CLIENT else self.topology.datacenters
            self.received[hosts[node.index].name].append(packet)
        super()._deliver(now, arrival)

    def report(self):
        rep = super().report()
        rep.received = dict(self.received)
        return rep


def run_recording(scen, seed=0, emit=None):
    with mock.patch.object(netsim, "Simulation", Recording):
        return run_scenario(scen, seed=seed, emit=emit)


@pytest.fixture(scope="module")
def geni_hour_traced():
    return traced(run_recording, scenario_path())


@pytest.fixture(scope="module")
def geni_hour(geni_hour_traced):
    return geni_hour_traced[0]


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
    assert {(sw, peer) for sw, ports in controller.adjacency.items() for peer in ports} == want


def test_scenario_determinism():
    a, a_trace = traced(run_scenario, scenario_path())
    b, b_trace = traced(run_scenario, scenario_path())
    assert a_trace == b_trace
    assert a.per_dc_jobs.tolist() == b.per_dc_jobs.tolist()


def test_no_sink_formats_no_trace_line(monkeypatch):
    # not even the flow-table snapshots the demo asks for
    calls = collections.Counter()

    def refuse(ip):
        raise AssertionError("format_ip called with no sink")

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(controller_module, "format_ip", refuse)
    monkeypatch.setattr(netsim, "match_text", counted("match_text", netsim.match_text))
    monkeypatch.setattr(NodeId, "__str__", counted("str(node)", NodeId.__str__))
    rep = run_scenario(scenario_path(), seed=0)
    assert rep.per_dc_jobs.tolist() == [0, 0, 0, 10, 0, 0, 0, 0, 0]
    assert calls["match_text"] == 0 and calls["str(node)"] == 0


def test_scenario_seed_changes_credentials_not_outcomes(geni_hour):
    other = run_scenario(scenario_path(), seed=99)
    assert other.per_dc_jobs.tolist() == geni_hour.per_dc_jobs.tolist()
    assert other.packet_in_count == geni_hour.packet_in_count
    assert other.controller.discovery_token != geni_hour.controller.discovery_token


def test_scenario_snapshots_and_expiry(geni_hour_traced):
    _, trace = geni_hour_traced
    snapshot = [line for line in trace if " ev=snapshot " in line]
    # long after the last packet, only each switch's permanent table-miss rule remains
    assert collections.Counter(line.split()[0] for line in snapshot) == {"t=43700.000": 3, "t=46700.000": 3}
    assert all(" sw=s%d prio=0 " % (i % 3) in line and " idle=0 " in line for i, line in enumerate(snapshot))
    assert any("ev=expire" in line for line in trace)


def test_scenario_responses_reach_clients(geni_hour):
    rx = geni_hour.received["c1"]
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
    rep = run_recording(tiny_scenario(), seed=0)
    # one register, one request; the data packets ride the installed rule
    assert rep.packet_in_count == 2
    assert rep.per_dc_jobs.tolist() == [1]
    assert rep.deliveries == [("t1", 0, 2.0)]
    responses = [p for p in rep.received["cl"] if p.kind == "response"]
    assert len(responses) == 1


@pytest.mark.parametrize("hops", [1, 3])
def test_first_packet_reaches_the_datacenter_rewritten(hops):
    # the controller sends a placed request back through the first hop's
    # table, whose new rule rewrites it to the data center's addresses
    switches = ["s%d" % i for i in range(hops)]
    scen = tiny_scenario(topology={
        "switches": switches,
        "links": [{"a": a, "a_port": 9, "b": b, "b_port": 8} for a, b in zip(switches, switches[1:])],
        "datacenters": [{"name": "dc", "switch": switches[-1], "port": 1}],
        "clients": [{"name": "cl", "switch": switches[0], "port": 2}],
    })
    rep = run_recording(scen, seed=0)
    received = rep.received["dc"]
    dc = rep.controller.dcs[0]
    first = next(p for p in received if p.kind == "request")
    assert (first.eth_dst, first.ip_dst, first.payload["flow_id"]) == (dc.mac, dc.ip, "t1")
    assert rep.deliveries == [("t1", 0, 2.0)]
    assert [(p.eth_dst, p.ip_dst) for p in received if p.kind == "data"] == [(dc.mac, dc.ip)] * 2


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
            _, trace = traced(run_scenario, tiny_scenario(horizon=3700.0))
        assert sims[0]() is None
    finally:
        gc.enable()
    assert any("ev=expire" in line for line in trace)
    assert "t=3600.000 ev=hour_reset hour=1" in trace


def test_reopened_flow_hits_controller_again():
    scen = tiny_scenario()
    scen["clients"] = [{"client": "cl", "flows": [
        {"id": "t1", "open_at": 2.0},
        {"id": "t2", "open_at": 3.0},  # rule still warm, no packet-in
        {"id": "t3", "open_at": 8.0},  # idle 2 s rule long gone
    ]}]
    rep, trace = traced(run_scenario, scen)
    assert rep.packet_in_count == 1 + 2
    assert rep.per_dc_jobs.tolist() == [3]
    expired = [line for line in trace if "ev=expire" in line and "10.2.0.1" in line]
    assert expired  # the client rules aged out in between


def test_a_response_that_punts_is_dropped_not_placed():
    # f2 rides f1's forward rule, which f1's data at 5.0 kept live; the
    # reverse rule, last hit by f1's response at 2.0, expired at 4.0, so
    # the data center's response to f2 punts
    scen = tiny_scenario()
    scen["clients"] = [{"client": "cl", "flows": [
        {"id": "f1", "open_at": 2.0, "data_at": [3.5, 5.0]},
        {"id": "f2", "open_at": 6.0},
    ]}]
    rep, trace = traced(run_recording, scen)
    assert [line for line in trace if " ev=decision " in line] == [
        "t=2.000 ev=decision flow=f1 dc=d0 sw=s0 score=0.000000"]
    assert rep.controller.sched.assigned == [1]
    assert "t=6.000 ev=packet_in sw=s0 port=1 kind=response src=10.1.0.1" in trace
    assert "t=6.000 ev=drop reason=stray_response flow=f2" in trace
    assert rep.deliveries == [("f1", 0, 2.0), ("f2", 0, 6.0)]
    # no rule is built for the data center's address: its response is not sent back to it
    assert [p.payload["flow_id"] for p in rep.received["cl"] if p.kind == "response"] == ["f1"]
    assert [(p.kind, p.payload["flow_id"]) for p in rep.received["dc"] if "flow_id" in p.payload] == [
        ("request", "f1"), ("data", "f1"), ("data", "f1"), ("request", "f2")]


def test_a_data_packet_that_punts_is_dropped_not_placed():
    # f1's rules idle out at 4.0, so its data packet at 5.0 punts: it is no
    # new flow, and placing it would count a job that never arrives
    scen = tiny_scenario()
    scen["clients"] = [{"client": "cl", "flows": [{"id": "f1", "open_at": 2.0, "data_at": [5.0]}]}]
    rep, trace = traced(run_scenario, scen)
    assert [line for line in trace if " ev=decision " in line] == [
        "t=2.000 ev=decision flow=f1 dc=d0 sw=s0 score=0.000000"]
    assert rep.controller.sched.assigned == [1]
    assert "t=5.000 ev=drop reason=stray_data flow=f1" in trace
    assert rep.deliveries == [("f1", 0, 2.0)]


def test_rate_workload_and_hour_reset():
    scen = tiny_scenario(horizon=7250.0)
    scen["config"] = {"report_period": 60.0}
    scen["clients"] = [{"client": "cl", "rate_per_hour": 3}]
    rep, trace = traced(run_scenario, scen)
    assert rep.per_dc_jobs.tolist() == [6]
    assert "t=3600.000 ev=hour_reset hour=1" in trace
    assert "t=7200.000 ev=hour_reset hour=2" in trace


@pytest.mark.parametrize(
    "register_at, open_at",
    # after s2 connects, or at the same instant: the same-instant FIFO
    # delivers discovery both ways before the agent's and client's packets
    [(6.0, 8.0), (5.0, 5.0)],
    ids=["after_connect", "same_instant"],
)
def test_staggered_switch_connect_still_discovers(register_at, open_at):
    scen = {
        "topology": {
            "switches": ["s1", "s2"],
            "links": [{"a": "s1", "a_port": 1, "b": "s2", "b_port": 1}],
            "datacenters": [{"name": "dc", "switch": "s2", "port": 2}],
            "clients": [{"name": "cl", "switch": "s1", "port": 2}],
        },
        "horizon": 20.0,
        "switch_connects": [{"switch": "s1", "at": 0.0}, {"switch": "s2", "at": 5.0}],
        "agents": [{"dc": "dc", "register_at": register_at, "profile": {"shape": "zero"}}],
        "clients": [{"client": "cl", "flows": [{"id": "x", "open_at": open_at}]}],
    }
    rep = run_scenario(scen, seed=0)
    assert rep.per_dc_jobs.tolist() == [1]
    assert rep.deliveries == [("x", 0, open_at)]


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
    with pytest.raises(ValidationError):
        load_scenario(scen)


def set_flow(key, value):
    return lambda s: s["clients"][0]["flows"][0].__setitem__(key, value)


def set_rate(key, value):
    return lambda s: s["clients"].append({"client": "cl", "rate_per_hour": 1, "hours": [0], key: value})


def set_id(value):
    return set_flow("id", value)


NAN, INF = float("nan"), float("inf")
# each entry names the JSON path its error must carry
HOSTILE = {
    "agent_not_object": (lambda s: s.__setitem__("agents", [5]), "agents[0]"),
    "agents_not_list": (lambda s: s.__setitem__("agents", 5), "agents"),
    "agent_dc_unhashable": (lambda s: s["agents"].append({"dc": ["dc"]}), "agents[1].dc"),
    "connect_switch_unhashable": (
        lambda s: s.__setitem__("switch_connects", [{"switch": ["s"]}]), "switch_connects[0].switch"),
    "agent_respond_string": (lambda s: s["agents"][0].__setitem__("respond", "no"), "agents[0].respond"),
    "agent_respond_int": (lambda s: s["agents"][0].__setitem__("respond", 1), "agents[0].respond"),
    "agent_twice_for_one_dc": (lambda s: s["agents"].append(dict(s["agents"][0])), "agents[1].dc"),
    "flow_not_object": (lambda s: s["clients"][0].__setitem__("flows", [3]), "clients[0].flows[0]"),
    "flows_not_list": (lambda s: s["clients"][0].__setitem__("flows", "t1"), "clients[0].flows"),
    "client_not_object": (lambda s: s.__setitem__("clients", ["cl"]), "clients[0]"),
    "data_at_string": (set_flow("data_at", "ab"), "clients[0].flows[0].data_at"),
    "data_at_nan": (set_flow("data_at", [NAN]), "clients[0].flows[0].data_at"),
    "open_at_nan": (set_flow("open_at", NAN), "clients[0].flows[0].open_at"),
    "open_at_bool": (set_flow("open_at", True), "clients[0].flows[0].open_at"),
    "data_packets_string": (set_rate("data_packets", "x"), "clients[1].data_packets"),
    "data_packets_float": (set_rate("data_packets", 1.5), "clients[1].data_packets"),
    "hours_string_entry": (set_rate("hours", ["a"]), "clients[1].hours[0]"),
    "hours_huge_entry": (set_rate("hours", [10**400]), "clients[1].hours[0]"),
    "hours_not_list": (set_rate("hours", 3), "clients[1].hours"),
    "rate_bool": (lambda s: s["clients"].append({"client": "cl", "rate_per_hour": True}), "clients[1].rate_per_hour"),
    "snapshot_time_string": (lambda s: s.__setitem__("snapshot_times", ["x"]), "snapshot_times"),
    "snapshot_time_nan": (lambda s: s.__setitem__("snapshot_times", [NAN]), "snapshot_times"),
    "snapshot_times_not_list": (lambda s: s.__setitem__("snapshot_times", 5.0), "snapshot_times"),
    "connect_at_string": (lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": "x"}]), "switch_connects[0].at"),
    "connect_at_inf": (lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": INF}]), "switch_connects[0].at"),
    "connect_not_object": (lambda s: s.__setitem__("switch_connects", ["s"]), "switch_connects[0]"),
    # the controller would refuse the second connect only mid-run, naming no JSON path
    "connect_twice": (
        lambda s: s.__setitem__("switch_connects", [{"switch": "s"}, {"switch": "s", "at": 1}]), "switch_connects[1].switch"),
    "register_at_nan": (lambda s: s["agents"][0].__setitem__("register_at", NAN), "agents[0].register_at"),
    "register_at_huge_int": (lambda s: s["agents"][0].__setitem__("register_at", 10**400), "agents[0].register_at"),
    "horizon_inf": (lambda s: s.__setitem__("horizon", INF), "horizon"),
    "horizon_nan": (lambda s: s.__setitem__("horizon", NAN), "horizon"),
    "horizon_bool": (lambda s: s.__setitem__("horizon", True), "horizon"),
    "horizon_past_a_year": (lambda s: s.__setitem__("horizon", 1e12), "horizon"),
    "horizon_one_ulp_past_a_year": (
        lambda s: s.__setitem__("horizon", math.nextafter(8760 * 3600.0, INF)), "horizon"),
    "weather_csv_not_path": (
        lambda s: s["agents"][0].__setitem__("profile", {"weather_csv": 5}), "agents[0].profile.weather_csv"),
    "profile_csv_nul": (
        lambda s: s["agents"][0].__setitem__("profile", {"profile_csv": "a\0b"}), "agents[0].profile.profile_csv"),
    # every scenario time is >= 0, as register_at, open_at and data_at already were
    "connect_at_negative": (lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": -5}]), "switch_connects[0].at"),
    "snapshot_time_negative": (lambda s: s.__setitem__("snapshot_times", [1.0, -0.5]), "snapshot_times"),
    # a flow id is printed as the trace's flow= field: a string with no whitespace
    "flow_id_null": (set_id(None), "clients[0].flows[0].id"),
    "flow_id_list": (set_id(["x", 1]), "clients[0].flows[0].id"),
    "flow_id_number": (set_id(7), "clients[0].flows[0].id"),
    "flow_id_empty": (set_id(""), "clients[0].flows[0].id"),
    "flow_id_with_space": (set_id("a b"), "clients[0].flows[0].id"),
    "flow_id_with_newline": (set_id("a\nt=0.000"), "clients[0].flows[0].id"),
    # so is a data-center or client name of an inline topology, whose paths start at `topology`
    "dc_name_with_space": (
        lambda s: s["topology"]["datacenters"][0].__setitem__("name", "d c"), "topology.datacenters[0].name"),
    "client_name_empty": (lambda s: s["topology"]["clients"][0].__setitem__("name", ""), "topology.clients[0].name"),
    "inline_topology_not_object": (lambda s: s.__setitem__("topology", 7), "topology"),
    "inline_config_panel": (lambda s: s["config"].__setitem__("panel", {"area_m2": -1}), "config.panel.area_m2"),
    "inline_config_unknown_key": (lambda s: s["config"].__setitem__("flow_idle_timout", 2.0), "config"),
    # keys the format does not read, misspelled or beside the ones in use
    "unknown_top_level_key": (lambda s: s.__setitem__("horizn", 12.0), "scenario"),
    "unknown_agent_key": (lambda s: s["agents"][0].__setitem__("repsond", True), "agents[0]"),
    "unknown_profile_key": (lambda s: s["agents"][0]["profile"].__setitem__("peak", 4.0), "agents[0].profile"),
    "profile_with_two_sources": (
        lambda s: s["agents"][0]["profile"].__setitem__("weather_csv", "x.csv"), "agents[0].profile"),
    "unknown_workload_key": (lambda s: s["clients"][0].__setitem__("flow", []), "clients[0]"),
    "flows_beside_rate": (lambda s: s["clients"][0].__setitem__("rate_per_hour", 1), "clients[0]"),
    "unknown_rate_workload_key": (set_rate("data_packet", 1), "clients[1]"),
    "unknown_flow_key": (set_flow("dat_at", [2.5]), "clients[0].flows[0]"),
    "unknown_connect_key": (
        lambda s: s.__setitem__("switch_connects", [{"switch": "s", "at": 0.0, "when": 1.0}]), "switch_connects[0]"),
    # a repeated flow id makes two flows that deliveries cannot tell apart;
    # hour 0's one generated flow, cl-h0-0, opens at 1800 s
    "flow_id_twice": (lambda s: s["clients"][0]["flows"].append({"id": "t1", "open_at": 3.0}), "clients[0].flows[1].id"),
    "hours_entry_twice": (lambda s: (s.__setitem__("horizon", 3600.0), set_rate("hours", [0, 0])(s)), "clients[1].hours[1]"),
    # the work cap, counted from the JSON before any event is built
    "reports_over_the_cap": (lambda s: s["config"].__setitem__("report_period", 1e-6), "report_period"),
    "rate_over_the_cap": (
        lambda s: s["clients"].append({"client": "cl", "rate_per_hour": 2**52, "hours": [0]}), "clients[1]"),
    "hours_over_the_cap": (
        lambda s: s["clients"].append({"client": "cl", "rate_per_hour": 1000, "hours": [0] * 5001}), "clients[1]"),
    "data_packets_over_the_cap": (set_rate("data_packets", 10**7), "clients[1]"),
    "flow_after_reports_at_the_cap": (
        lambda s: s["config"].__setitem__("report_period", 12.0 / (netsim.MAX_EVENTS - 1)), "clients[0].flows[0]"),
    "flow_id_of_a_generated_flow": (
        lambda s: (
            s.__setitem__("horizon", 3600.0),
            s["clients"][0]["flows"][0].__setitem__("id", "cl-h0-0"),
            set_rate("hours", [0])(s),
        ),
        "clients[1].hours[0]",
    ),
}


@pytest.mark.parametrize("mutate, field", HOSTILE.values(), ids=HOSTILE.keys())
def test_scenario_rejects_hostile_input(mutate, field, tmp_path, capsys):
    scen = tiny_scenario()
    mutate(scen)
    with pytest.raises(ValidationError) as err:
        load_scenario(scen)
    assert err.value.field == field
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scen))
    capsys.readouterr()
    assert cli_main(["scenario", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: %s: " % field)


def test_referenced_files_keep_their_own_paths(tmp_path):
    topology = tiny_scenario()["topology"]
    topology["clients"][0]["name"] = ""
    (tmp_path / "topo.json").write_text(json.dumps(topology))
    (tmp_path / "config.json").write_text(json.dumps({"panel": {"area_m2": -1}}))
    for scen, field in [
        (tiny_scenario(topology="topo.json"), "clients[0].name"),
        (tiny_scenario(config="config.json"), "panel.area_m2"),
    ]:
        with pytest.raises(ValidationError) as err:
            load_scenario(scen, base_dir=str(tmp_path))
        assert err.value.field == field


def test_agent_reports_the_hourly_value_of_its_profile_csv(tmp_path):
    (tmp_path / "site.csv").write_text("wh\n" + "".join("%d.25\n" % (h % 24) for h in range(8760)))
    scen = tiny_scenario(horizon=4 * 3600.0, clients=[])
    scen["agents"][0]["profile"] = {"profile_csv": "site.csv"}
    lines = []
    run_scenario(scen, base_dir=str(tmp_path), emit=lines.append)
    assert [line for line in lines if "ev=report" in line] == [
        "t=%.3f ev=report dc=d0 green_energy_wh=%d.250000" % (h * 3600 + 0.5, h) for h in (1, 2, 3)
    ]


def test_a_rule_naming_a_port_its_switch_lacks_raises_keyerror():
    # every port the controller names comes from the simulation, so only a
    # hand-built rule can name another, and that is the caller's fault
    topo = topology_from_dict(tiny_scenario()["topology"])
    lines = []
    sim = Simulation(topo, config_from_dict({}), emit=lines.append)
    sim.tables[0].install(mod(port=9, timeout=0.0), 0.0)
    sim.schedule(1.0, "deliver", (SW, 2, pkt()))
    with pytest.raises(KeyError, match="^9$"):
        sim.run(2.0)
    assert lines == []


@pytest.mark.parametrize(
    "mutate, message",
    [
        (HOSTILE["unknown_top_level_key"][0], "scenario: unknown key 'horizn'"),
        (HOSTILE["unknown_agent_key"][0], "agents[0]: unknown key 'repsond'"),
        (HOSTILE["unknown_profile_key"][0], "agents[0].profile: unknown key 'peak'"),
        (HOSTILE["unknown_flow_key"][0], "clients[0].flows[0]: unknown key 'dat_at'"),
        (HOSTILE["flow_id_twice"][0], "flow id 't1' is used twice"),
        (HOSTILE["hours_entry_twice"][0], "flow id 'cl-h0-0' is used twice"),
    ],
)
def test_scenario_errors_name_the_key_or_id(mutate, message):
    scen = tiny_scenario()
    mutate(scen)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_scenario(scen)


WORKLOAD = st.one_of(
    st.lists(st.integers(0, 3), max_size=4).map(lambda data: {"flows": data}),  # data packets per flow
    st.fixed_dictionaries(
        {"rate_per_hour": st.integers(0, 2**52) | st.integers(0, 4)},
        optional={"hours": st.lists(st.integers(0, 3), unique=True, max_size=3),
                  "data_packets": st.integers(0, 2**40) | st.integers(0, 2)},
    ),
)


@settings(max_examples=100, deadline=None)
# hours that start at or past the horizon count nothing
@example(cap=1, agent=True, horizon=12.0, period=12.0, workloads=[{"rate_per_hour": 1, "hours": [1]}])
@example(cap=1, agent=False, horizon=12.0, period=1.0, workloads=[{"rate_per_hour": 1, "hours": [0, 1]}, {"flows": [0]}])
@given(
    cap=st.integers(0, 40),
    agent=st.booleans(),
    horizon=st.sampled_from([12.0, 3600.0, 7200.5]),
    period=st.floats(1e-300, 1e4) | st.sampled_from([1.0, 60.0, 3600.0]),
    workloads=st.lists(WORKLOAD, max_size=3),
)
def test_work_cap_is_counted_before_any_event_is_built(cap, agent, horizon, period, workloads):
    """Under a small cap, a scenario that loads asks for at most `cap`
    flows, data packets and reports, and one that asks for more fails at
    load, at once, naming the entry that crossed the cap."""
    scen = tiny_scenario(horizon=horizon, config={"report_period": period})
    if not agent:
        scen["agents"] = []
    scen["topology"]["clients"] = [{"name": "c%d" % i, "switch": "s", "port": 2 + i} for i in range(len(workloads))]
    scen["clients"] = []
    reports = math.ceil(horizon / period) if agent else 0
    total, crossed = reports, reports > cap and "report_period"
    for i, w in enumerate(workloads):
        if "flows" in w:
            flows = [{"id": "c%d-f%d" % (i, j), "open_at": 1.0, "data_at": [1.5] * n} for j, n in enumerate(w["flows"])]
            scen["clients"].append({"client": "c%d" % i, "flows": flows})
            for j, n in enumerate(w["flows"]):
                total += 1 + n
                crossed = crossed or (total > cap and "clients[%d].flows[%d]" % (i, j))
        else:
            scen["clients"].append({"client": "c%d" % i, **w})
            hours = sum(h * 3600 < horizon for h in w["hours"]) if "hours" in w else int(horizon // 3600)
            total += w["rate_per_hour"] * hours * (1 + w.get("data_packets", 0))
            crossed = crossed or (total > cap and "clients[%d]" % i)
    start = time.perf_counter()
    with mock.patch.object(netsim, "MAX_EVENTS", cap):
        if crossed:
            with pytest.raises(ValidationError, match="MAX_EVENTS") as err:
                load_scenario(scen)
            assert err.value.field == crossed
            assert time.perf_counter() - start < 1.0
        else:
            events = load_scenario(scen).events
            flow_events = sum(kind in ("flow_open", "flow_data") for _, kind, _ in events)
            assert flow_events + reports <= cap


def test_hours_past_the_horizon_count_toward_no_cap():
    # 5,000,001 flows an hour would cross the cap, but hour 5 starts past the horizon
    scen = tiny_scenario(horizon=3600.0)
    scen["clients"] = [{"client": "cl", "rate_per_hour": netsim.MAX_EVENTS + 1, "hours": [5]}]
    assert not [e for e in load_scenario(scen).events if e[1] == "flow_open"]
    scen["clients"][0]["hours"] = [0]
    with pytest.raises(ValidationError, match="MAX_EVENTS") as err:
        load_scenario(scen)
    assert err.value.field == "clients[0]"


def test_horizon_of_one_profile_year_loads():
    assert load_scenario(tiny_scenario(horizon=8760 * 3600.0)).horizon == 8760 * 3600.0


def test_a_hand_built_run_refuses_a_horizon_past_one_profile_year():
    # idle_deadline's closed form holds only below the year's end
    topology, config, *_ = load_scenario(tiny_scenario())
    with pytest.raises(ValidationError, match="^horizon: must be at most one profile year"):
        Simulation(topology, config).run(math.nextafter(netsim.MAX_HORIZON, math.inf))


def test_report_period_too_small_to_move_the_clock_fails_at_once(tmp_path, capsys):
    # 0.5 + 1e-300 == 0.5: the agent would report at t=0.5 forever
    scen = tiny_scenario(config={"report_period": 1e-300}, horizon=10.0)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="report_period"):
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
    with pytest.raises(ValidationError, match="peak_wh"):
        load_scenario(scen)


def test_scenario_packet_in_formula(geni_hour_traced):
    rep, trace = geni_hour_traced
    registrations = sum(1 for line in trace if "ev=register " in line)
    receipts = sum(1 for line in trace if "kind=discover" in line)
    reports = sum(1 for line in trace if "kind=report" in line)
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


def mutated(data, doc):
    """`doc` after one to three draws that each replace or delete a value anywhere in it."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(key_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


def cli_exit_code(argv, flag, doc):
    """What `grasp <argv> <flag> FILE` exits with, FILE holding `doc` as JSON."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv + [flag, path])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_fail_cleanly(data):
    scen = tiny_scenario(snapshot_times=[1.0, 3.5], switch_connects=[{"switch": "s", "at": 0.0}])
    scen["clients"].append({"client": "cl", "rate_per_hour": 2, "hours": [0], "data_packets": 1})
    mutated(data, scen)
    horizon = scen.get("horizon", 3600.0)
    if isinstance(horizon, numbers.Real) and not isinstance(horizon, bool) and horizon > 120:
        scen["horizon"] = 120.0
    try:
        run_scenario(scen, seed=0)
    except (GraspError, OSError):
        pass
    assert cli_exit_code(["scenario"], "--scenario", scen) in (0, 1, 2)


@pytest.mark.parametrize("name, load, flag", [
    pytest.param("geni.topo.json", topology_from_dict, "--topology", id="topology"),
    pytest.param("controller.json", config_from_dict, "--config", id="config"),
])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_bundled_inputs_fail_cleanly(name, load, flag, data):
    doc = mutated(data, read_json(data_path(name)))
    try:
        load(doc)
    except (GraspError, OSError):
        pass
    assert cli_exit_code(["validate"], flag, doc) in (0, 1, 2)


class EverySecond(Recording):
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


def run_every_second(scen, seed=0, emit=None):
    with mock.patch.object(netsim, "Simulation", EverySecond):
        return run_scenario(scen, seed=seed, emit=emit)


def same_run(a, b):
    """Whether two `traced` runs have the same trace and outcome."""
    (ra, la), (rb, lb) = a, b
    return (la, ra.deliveries, ra.received) == (lb, rb.deliveries, rb.received)


def first_due_second(last_hit, timeout, horizon):
    # an earlier second is never due: t - last_hit <= 0 < timeout
    t = max(1.0, float(math.floor(last_hit)))
    while t < horizon:
        if t - last_hit >= timeout:
            return t
        t += 1.0
    return math.inf


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.3, 1.7, 1e-300, 2.0**52, 2.0**53, 1e17, 1e30, -1e30])


@settings(max_examples=400, deadline=None)
@given(
    hit_and_timeout=st.tuples(
        st.floats(0.0, 60.0) | EDGE_FLOATS.filter(lambda x: x >= 0),
        st.floats(1e-300, 1e31) | EDGE_FLOATS.filter(lambda x: x > 0),
    ),
    horizon=st.floats(0.5, 60.0),
)
# 2.7 + 0.3 rounds to 3.0, yet 3.0 - 2.7 < 0.3: due at ceil + 1
@example(hit_and_timeout=(2.7, 0.3), horizon=10.0)
def test_idle_deadline_is_first_due_second(hit_and_timeout, horizon):
    last_hit, timeout = hit_and_timeout
    assert idle_deadline(last_hit, timeout, horizon) == first_due_second(last_hit, timeout, horizon)


def test_idle_deadline_terminates_at_any_magnitude():
    year = netsim.MAX_HORIZON
    assert idle_deadline(0.0, 1e17, 40.0) == math.inf
    assert idle_deadline(0.0, 1e17, year) == math.inf
    assert idle_deadline(2.5, 2.0, 5.0) == math.inf  # due at 5, the horizon: never armed
    assert idle_deadline(2.5, 2.0, 5.5) == 5.0
    assert idle_deadline(year - 3.5, 2.0, year) == year - 1
    assert idle_deadline(year - 2.5, 2.0, year) == math.inf  # due at the year's end: never armed


def test_huge_idle_timeout_finishes_at_once():
    scen = tiny_scenario(config={"flow_idle_timeout": 1e17}, horizon=3700.0)
    start = time.perf_counter()
    lazy = traced(run_recording, scen)
    took = time.perf_counter() - start
    assert took < 0.5
    assert same_run(lazy, traced(run_every_second, scen))
    trace = lazy[1]
    assert not any("ev=expire" in line for line in trace)
    assert "t=3600.000 ev=hour_reset hour=1" in trace


def test_rules_installed_before_time_zero_expire_every_second_alike():
    traces = []
    for cls in (Simulation, EverySecond):
        topology, config, *_ = load_scenario(tiny_scenario())
        traces.append([])
        sim = cls(topology, config, emit=traces[-1].append)
        for src, (last_hit, timeout) in enumerate([(-5.0, 2.0), (-0.5, 2.0), (-1.0, 2.0), (-2.5, 0.3), (-1e30, 1.0)]):
            sim.tables[SW.index].install(mod(src=src + 1, timeout=timeout), now=last_hit)
        sim.run(6.0)
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


@settings(max_examples=400, deadline=None)
@given(
    horizon=st.floats(1.0, netsim.MAX_HORIZON) | near_second(st.integers(1, int(netsim.MAX_HORIZON)).map(float)),
    back=st.floats(0.0, 120.0) | st.sampled_from([0.3, 1.0, 2.0, 2.5, 3.5]),
    side=st.sampled_from([-1, 0, 1]),
    timeout=st.floats(1e-300, 240.0) | EDGE_FLOATS.filter(lambda x: x > 0),
)
@example(horizon=netsim.MAX_HORIZON, back=3.5, side=0, timeout=2.0)
def test_idle_deadline_is_first_due_second_at_the_end_of_the_year(horizon, back, side, timeout):
    # a rule last hit within the horizon's last 120 s, one ulp either side
    last_hit = max(0.0, horizon - back)
    if side:
        last_hit = math.nextafter(last_hit, side * math.inf)
    assume(0.0 <= last_hit < horizon <= netsim.MAX_HORIZON)
    assert idle_deadline(last_hit, timeout, horizon) == first_due_second(last_hit, timeout, horizon)


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
            {"switch": "s", "at": draw(st.just(0.0) | TIMES)},
            {"switch": "t", "at": draw(st.just(0.0) | TIMES)},
        ],
    }


@settings(max_examples=120, deadline=None)
@given(scen=small_scenarios())
def test_lazy_ticks_match_every_second_sweep(scen):
    assert same_run(traced(run_recording, scen), traced(run_every_second, scen))


def test_rate_flows_stop_at_the_horizon():
    scen = tiny_scenario(horizon=1.0)
    scen["clients"] = [{"client": "cl", "rate_per_hour": 100000, "hours": [0, 5, 9], "data_packets": 3}]
    start = time.perf_counter()
    events = load_scenario(scen).events
    rep = run_scenario(scen, seed=0)
    assert time.perf_counter() - start < 0.5
    opens = [(t, flow[1]) for t, kind, flow in events if kind == "flow_open"]
    assert len(opens) == 27  # (i + 1) * 3600 / 100001 < 1 for i < 27
    assert all(t < 1.0 for t, kind, _ in events if kind.startswith("flow_"))
    assert {f for f, _, _ in rep.deliveries} <= {flow_id for _, flow_id in opens}
    # the flows that do start are the ones an unbounded horizon starts first
    longer = load_scenario(dict(scen, horizon=3600.0)).events
    assert opens == [(t, flow[1]) for t, kind, flow in longer if kind == "flow_open"][:27]


def test_scenario_loads_as_its_events_in_schedule_order():
    scen = tiny_scenario(snapshot_times=[9.0, 1.0], switch_connects=[{"switch": "s", "at": 0.0}])
    scen["clients"].append({"client": "cl", "rate_per_hour": 1, "hours": [0], "data_packets": 1})
    topology, config, horizon, events = load_scenario(dict(scen, horizon=3600.0))
    dc, cl = topology.datacenters[0].node, topology.clients[0].node
    (register_at, kind, script), = [e for e in events if e[1] == "agent_register"]
    assert (register_at, kind, script.node, script.respond) == (0.5, "agent_register", dc, True)
    assert script.profile.wh[0] == 4.0
    assert [e for e in events if e[1] != "agent_register"] == [
        (1.0, "snapshot", None),
        (9.0, "snapshot", None),
        (0.0, "connect", NodeId(SWITCH, 0)),
        (2.0, "flow_open", (cl, "t1")),
        (2.3, "flow_data", (cl, "t1")),
        (2.6, "flow_data", (cl, "t1")),
        (1800.0, "flow_open", (cl, "cl-h0-0")),
        (1800.25, "flow_data", (cl, "cl-h0-0")),
    ]
    assert [e[1] for e in events].index("agent_register") == 3
