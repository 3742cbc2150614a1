import contextlib
import io
import json
import numbers
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.cli import main as cli_main
from grasp.controller import FlowMod, Packet
from grasp.datafiles import data_path
from grasp.errors import GraspError, ScriptError
from grasp.model import NodeId, SWITCH
from grasp.netsim import FlowTable, load_scenario, run_scenario

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
    assert table.rules == []


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


def scenario_path():
    return data_path("scenario_geni_1h.json")


@pytest.fixture(scope="module")
def geni_hour():
    return run_scenario(scenario_path(), seed=0)


def test_scenario_counts(geni_hour):
    rep = geni_hour
    assert rep.per_dc_jobs.tolist() == [2, 1, 1, 1, 1, 1, 1, 1, 1]
    assert rep.auth_failures == 0
    assert len(rep.deliveries) == 10
    assert [f for f, _ in rep.deliveries[:3]] == ["f1", "f3", "f5"]
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
    assert set(rep.snapshots) == {500.0, 3500.0}
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
    assert rep.deliveries == [("t1", 0)]
    responses = [p for p in rep.client_rx["cl"] if p.kind == "response"]
    assert len(responses) == 1


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
    assert rep.deliveries == [("x", 0)]


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
    flows = len({f for f, _ in rep.deliveries})
    assert rep.packet_in_count == registrations + receipts + flows


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
