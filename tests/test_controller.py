import itertools
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasp.controller import (
    BROADCAST_MAC,
    CONTROLLER_IP,
    FLOW_PRIORITY,
    GREEN_ENERGY_PARAM,
    TABLE,
    TABLE_MISS_PRIORITY,
    Controller,
    Packet,
    PacketIn,
    PacketOut,
)
from grasp.energy import valid_energy
from grasp.errors import AlreadyConnected, NoPath, UnknownSwitch
from grasp.model import (
    SERVICE_IP,
    SWITCH,
    ControllerConfig,
    DataCenterRecord,
    NodeId,
    topology_from_dict,
)


def line_topology():
    # three switches in a row, hosts at the ends
    return topology_from_dict(
        {
            "switches": ["a", "b", "c"],
            "links": [
                {"a": "a", "a_port": 1, "b": "b", "b_port": 1},
                {"a": "b", "a_port": 2, "b": "c", "b_port": 1},
            ],
            "datacenters": [{"name": "dc_far", "switch": "c", "port": 2}],
            "clients": [{"name": "cl", "switch": "a", "port": 2}],
        }
    )


def connect_all(controller, topo, now=0.0):
    """Connect every switch, then deliver the final discovery flood by hand."""
    outs = []
    for i, _ in enumerate(topo.switch_names):
        sw = NodeId(SWITCH, i)
        resp = controller.on_switch_connect(sw, sorted(topo.ports[sw.index]), topo.addresses[sw].mac, now)
        outs = resp.packets  # every connect refloods all connected switches
    for out in outs:
        peer = topo.ports[out.switch.index].get(out.port)
        if peer is None or peer[0].kind != SWITCH:
            continue
        controller.on_packet_in(PacketIn(peer[0], peer[1], out.packet), now)


def make(topo, emit=None, **cfg):
    controller = Controller(ControllerConfig(**cfg), seed=0, emit=emit)
    connect_all(controller, topo)
    return controller


def host_packet(topo, node, kind, payload, ip_dst=0):
    addr = topo.addresses[node]
    return Packet(kind=kind, eth_src=addr.mac, eth_dst=0, ip_src=addr.ip, ip_dst=ip_dst, payload=payload)


def register(controller, topo, dc_index=0):
    att = topo.datacenters[dc_index]
    pkt = host_packet(topo, att.node, "register", {"name": att.name})
    return controller.on_packet_in(PacketIn(att.switch, att.port, pkt))


def test_connect_installs_table_miss():
    topo = line_topology()
    controller = Controller(ControllerConfig(), seed=0)
    sw = NodeId(SWITCH, 0)
    resp = controller.on_switch_connect(sw, [1, 2], topo.addresses[sw].mac)
    (miss,) = resp.flow_mods
    assert miss.priority == TABLE_MISS_PRIORITY
    assert (miss.match_src, miss.match_dst) == (None, None)
    assert miss.actions == (("controller",),)
    assert miss.idle_timeout == 0.0
    # the lone switch floods its own two ports
    assert [(o.switch, o.port) for o in resp.packets] == [(sw, 1), (sw, 2)]
    assert all(o.packet.eth_dst == BROADCAST_MAC for o in resp.packets)
    with pytest.raises(AlreadyConnected):
        controller.on_switch_connect(sw, [1], 0)


def fresh_path(adjacency, src, dst):
    """Breadth-first search from scratch, stopping at `dst`, that follows a
    link only once discovery has run in both directions."""
    if src == dst:
        return [src]
    parent, queue = {src: None}, [src]
    for here in queue:
        for nxt in sorted(adjacency.get(here, ()), key=lambda node: node.index):
            if nxt not in parent and here in adjacency.get(nxt, ()):
                parent[nxt] = here
                if nxt == dst:
                    path = [nxt]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(nxt)
    return None


def discover(controller, switch, port, origin_mac):
    pkt = Packet("discover", origin_mac, BROADCAST_MAC, 0, 0, {"token": controller.discovery_token})
    return controller.on_packet_in(PacketIn(switch, port, pkt))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 6)), max_size=40),
)
# a diamond s0-{s1,s2}-s3 whose s0 learns s2 before s1: the tie goes to s1
@example(n=4, steps=[(True, a, b) for a, b in ((0, 2), (2, 0), (0, 1), (1, 0), (1, 3), (3, 1), (2, 3), (3, 2))]
         + [(False, 0, 3)])
def test_paths_follow_discovery(n, steps):
    # one-way discoveries interleaved with path queries: every answer equals
    # a fresh search over the links known both ways
    controller = Controller(ControllerConfig(), seed=0)
    nodes = [NodeId(SWITCH, i) for i in range(n)]
    for i, sw in enumerate(nodes):
        controller.on_switch_connect(sw, [1], 1000 + i)
    for is_link, a, b in steps:
        a, b = nodes[a % n], nodes[b % n]
        if is_link and a != b:
            discover(controller, a, 1 + b.index, 1000 + b.index)
            continue
        want = fresh_path(controller.adjacency, a, b)
        if want is None:
            with pytest.raises(NoPath):
                controller.compute_path(a, b)
        else:
            assert controller.compute_path(a, b) == want


DC_IPS = (0x0A010001, 0x0A010002)  # two data centers, two clients
CLIENT_IPS = (0x0A020001, 0x0A020002)
STEPS = st.one_of(
    # a discovery of a new edge, or of new ports on a known one, and maybe its reverse
    st.tuples(
        st.just("link"), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2), st.integers(1, 2), st.booleans()
    ),
    # a data center registers, or re-registers where it is or elsewhere
    st.tuples(st.just("register"), st.integers(0, 1), st.integers(0, 3), st.integers(4, 5)),
    # a request from each client at each of two ports of two switches
    st.tuples(st.just("requests")),
)


# a line s0-s1-s2 with dc0 at s2 and every template cached, then one change
LINE_CACHED = [("register", 0, 2, 4), ("link", 0, 1, 1, 1, True), ("link", 1, 2, 2, 1, True), ("requests",)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), steps=st.lists(STEPS, min_size=4, max_size=40))
@example(n=3, steps=LINE_CACHED + [("link", 1, 2, 3, 1, True), ("requests",)])  # s1 re-ports its edge to s2
@example(n=3, steps=LINE_CACHED + [("link", 0, 2, 2, 2, True), ("requests",)])  # a shorter edge s0-s2
@example(n=3, steps=LINE_CACHED + [("register", 0, 1, 5), ("requests",)])  # dc0 moves to s1
# dc0 at s1, and s0 learns its port toward s1 but s1 never learns s0's
@example(n=2, steps=[("register", 0, 1, 4), ("link", 0, 1, 1, 1, False), ("requests",)])
def test_cached_rules_follow_discovery_and_registration(n, steps):
    # discoveries, registrations and requests interleaved: every placement's
    # rules equal those built from scratch at that moment, and a request
    # with no path over links known both ways is dropped and rolled back
    lines = []
    controller = Controller(ControllerConfig(), seed=0, emit=lines.append)
    nodes = [NodeId(SWITCH, i) for i in range(n)]
    for i, sw in enumerate(nodes):
        controller.on_switch_connect(sw, [1, 2, 3, 4, 5], 1000 + i)
    for kind, *args in steps:
        if kind == "link":
            a, b, a_port, b_port, both = nodes[args[0] % n], nodes[args[1] % n], *args[2:]
            if a != b:
                discover(controller, a, a_port, 1000 + b.index)
                if both:
                    discover(controller, b, b_port, 1000 + a.index)
        elif kind == "register":
            d, sw, port = args[0], nodes[args[1] % n], args[2]
            pkt = Packet("register", 0x020001000000 + d, 0, DC_IPS[d], 0, {"name": f"dc{d}"})
            controller.on_packet_in(PacketIn(sw, port, pkt))
        else:
            for sw, port, ip in itertools.product(nodes[:2], (4, 5), CLIENT_IPS):
                pkt = Packet("request", 0x020002000000 + ip, 0, ip, SERVICE_IP, {"flow_id": "f"})
                assigned = list(controller.sched.assigned)
                resp = controller.on_packet_in(PacketIn(sw, port, pkt))
                if not controller.dcs:
                    assert resp.dropped == "no_datacenter"
                    continue
                rec = controller.dcs[int(re.search(r" dc=d(\d+)", lines[-1]).group(1))]
                path = fresh_path(controller.adjacency, sw, rec.switch)
                if path is None:
                    assert resp.dropped == "no_path"
                    assert controller.sched.assigned == assigned
                else:
                    assert resp.flow_mods == controller.install_path(path, ip, port, rec)


def line_controller():
    """The line topology's controller with its data center registered and
    one placement's rules cached; returns it, the topology and those rules."""
    topo = line_topology()
    controller = make(topo)
    register(controller, topo)
    cl, pkt = client_request(topo)
    return controller, topo, controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt)).flow_mods


def test_reregistration_that_moves_a_datacenter_rebuilds_its_rules():
    controller, topo, before = line_controller()
    a, b, c = (NodeId(SWITCH, i) for i in range(3))
    assert [m.switch for m in before[::2]] == [c, b, a]
    # the data center moves from c's port 2 to b's port 3
    pkt = host_packet(topo, topo.datacenters[0].node, "register", {"name": "dc_far"})
    controller.on_packet_in(PacketIn(b, 3, pkt))
    cl, pkt = client_request(topo, "f2")
    mods = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt)).flow_mods
    assert [m.switch for m in mods[::2]] == [b, a]
    assert mods[0].actions == (("output", 3),)


def test_discovery_of_a_shorter_edge_rebuilds_cached_rules():
    controller, topo, before = line_controller()
    a, b, c = (NodeId(SWITCH, i) for i in range(3))
    assert len(before) == 6
    discover(controller, a, 3, topo.addresses[c].mac)
    discover(controller, c, 3, topo.addresses[a].mac)
    cl, pkt = client_request(topo, "f2")
    mods = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt)).flow_mods
    assert [m.switch for m in mods[::2]] == [c, a]
    forward_a = next(m for m in mods if m.switch == a and m.match_src is not None)
    assert forward_a.actions[-1] == ("output", 3)


def test_no_path_then_discovery_installs_rules():
    topo = line_topology()
    controller = Controller(ControllerConfig(), seed=0)
    nodes = [NodeId(SWITCH, i) for i in range(3)]
    for sw in nodes:  # connected, but no discovery packet has arrived
        controller.on_switch_connect(sw, sorted(topo.ports[sw.index]), topo.addresses[sw].mac)
    register(controller, topo)
    cl, pkt = client_request(topo)
    assert controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt)).dropped == "no_path"
    for left, right in zip(nodes, nodes[1:]):
        for sw, peer in ((left, right), (right, left)):
            port = next(p for p, (node, _) in topo.ports[sw.index].items() if node == peer)
            discover(controller, sw, port, topo.addresses[peer].mac)
    resp = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert resp.dropped is None and [m.switch for m in resp.flow_mods[::2]] == nodes[::-1]


def test_connect_refloods_existing_switches():
    topo = line_topology()
    controller = Controller(ControllerConfig(), seed=0)
    a, b = NodeId(SWITCH, 0), NodeId(SWITCH, 1)
    controller.on_switch_connect(a, [1, 2], topo.addresses[a].mac)
    out = controller.on_switch_connect(b, [1, 2], topo.addresses[b].mac)
    # floods from both switches now, so a learns b even though a connected first
    assert {(o.switch, o.port) for o in out.packets} == {(a, 1), (a, 2), (b, 1), (b, 2)}


def test_discovery_builds_adjacency():
    topo = line_topology()
    controller = make(topo)
    a, b, c = (NodeId(SWITCH, i) for i in range(3))
    assert controller.adjacency == {a: {b: 1}, b: {a: 1, c: 2}, c: {b: 1}}


def test_discovery_rejects_forgeries():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    a, b = NodeId(SWITCH, 0), NodeId(SWITCH, 1)
    before = {sw: dict(ports) for sw, ports in controller.adjacency.items()}
    forged = Packet("discover", topo.addresses[b].mac, BROADCAST_MAC, 0, 0, {"token": "babe"})
    assert controller.on_packet_in(PacketIn(a, 1, forged)).dropped == "bad_token"
    assert lines[-1] == "t=0.000 ev=drop reason=bad_token sw=s0"
    own = Packet("discover", topo.addresses[a].mac, BROADCAST_MAC, 0, 0,
                 {"token": controller.discovery_token})
    assert controller.on_packet_in(PacketIn(a, 1, own)).dropped == "bad_discover_origin"
    assert lines[-1] == "t=0.000 ev=drop reason=bad_discover_origin sw=s0"
    unknown = Packet("discover", 0xDEADBEEF, BROADCAST_MAC, 0, 0,
                     {"token": controller.discovery_token})
    assert controller.on_packet_in(PacketIn(a, 1, unknown)).dropped == "bad_discover_origin"
    assert controller.adjacency == before
    assert controller.auth_failures == 0  # only reports count as auth failures


def test_packet_default_payload_is_read_only():
    one, two = Packet("data", 0, 0, 0, 0), Packet("data", 1, 0, 0, 0)
    with pytest.raises(TypeError):
        one.payload["flow_id"] = "f1"
    assert dict(one.payload) == {} and dict(two.payload) == {}
    assert Packet("data", 0, 0, 0, 0, {"k": 1}).payload == {"k": 1}


def assert_one_terminal_action_last(mods):
    """What the switches rely on: each rule ends in its only output or punt."""
    for mod in mods:
        kinds = [action[0] for action in mod.actions]
        assert kinds and [k for k in kinds if k in ("output", "controller")] == [kinds[-1]], mod


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    extra=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
    ends=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    ingress=st.integers(1, 9),
)
def test_flow_mods_end_in_one_terminal_action(n, extra, ends, ingress):
    # a chain keeps every pair of switches connected; extra links vary the paths
    controller = Controller(ControllerConfig(), seed=0)
    nodes = [NodeId(SWITCH, i) for i in range(n)]
    for i, sw in enumerate(nodes):
        assert_one_terminal_action_last(controller.on_switch_connect(sw, [1], 1000 + i).flow_mods)
    for a, b in [(i, i + 1) for i in range(n - 1)] + extra:
        a, b = nodes[a % n], nodes[b % n]
        if a != b:
            discover(controller, a, 1 + b.index, 1000 + b.index)
            discover(controller, b, 1 + a.index, 1000 + a.index)
    src, dst = nodes[ends[0] % n], nodes[ends[1] % n]
    path = controller.compute_path(src, dst)
    rec = DataCenterRecord(dc_id=0, name="dc", ip=0x0A010001, mac=0x020001000001, switch=dst, port=n + 1, passcode="")
    mods = controller.install_path(path, 0x0A020001, ingress, rec)
    assert len(mods) == 2 * len(path)
    assert_one_terminal_action_last(mods)


def test_packet_in_requires_connected_switch():
    controller = Controller(ControllerConfig(), seed=0)
    with pytest.raises(UnknownSwitch):
        controller.on_packet_in(PacketIn(NodeId(SWITCH, 0), 1, Packet("data", 0, 0, 0, 0)))


def test_registration_handshake():
    topo = line_topology()
    controller = make(topo)
    resp = register(controller, topo)
    (out,) = resp.packets
    ack = out.packet
    att = topo.datacenters[0]
    assert (out.switch, out.port) == (att.switch, att.port)
    assert ack.kind == "register_ack"
    assert ack.ip_src == CONTROLLER_IP
    assert ack.ip_dst == topo.addresses[att.node].ip
    assert sorted(ack.payload) == ["dc_id", "passcode", "report_period"]
    assert ack.payload["dc_id"] == 0
    assert ack.payload["report_period"] == 3600.0
    assert len(ack.payload["passcode"]) == 32
    assert len(controller.sched.assigned) == 1
    assert controller.dcs[0].name == "dc_far"


def test_reregistration_keeps_id_rotates_passcode():
    topo = line_topology()
    controller = make(topo)
    first = register(controller, topo).packets[0].packet.payload
    att = topo.datacenters[0]
    moved = host_packet(topo, att.node, "register", {"name": att.name})
    resp = controller.on_packet_in(PacketIn(NodeId(SWITCH, 0), 3, moved))
    again = resp.packets[0].packet.payload
    assert again["dc_id"] == first["dc_id"] == 0
    assert again["passcode"] != first["passcode"]
    assert len(controller.sched.assigned) == 1
    assert controller.dcs[0].switch == NodeId(SWITCH, 0)
    assert controller.dcs[0].port == 3


def report_packet(topo, node, passcode, energy):
    return host_packet(topo, node, "report", {"passcode": passcode, GREEN_ENERGY_PARAM: energy})


def test_report_updates_energy():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    pkt = report_packet(topo, att.node, passcode, 42.5)
    assert controller.on_packet_in(PacketIn(att.switch, att.port, pkt)).dropped is None
    assert controller.sched.energy_wh == [42.5]
    assert lines[-1] == "t=0.000 ev=report dc=d0 green_energy_wh=42.500000"
    assert controller.auth_failures == 0


def test_accepted_reports_share_one_immutable_response():
    topo = line_topology()
    controller = make(topo)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    first, second = (
        controller.on_packet_in(PacketIn(att.switch, att.port, report_packet(topo, att.node, passcode, wh)))
        for wh in (1.0, 2.0)
    )
    assert first is second
    assert first == ((), (), None)
    with pytest.raises(AttributeError):
        first.dropped = "bad_report"
    with pytest.raises(AttributeError):
        first.flow_mods.append(None)
    assert controller.sched.energy_wh == [2.0]


def test_report_auth_failures():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    register(controller, topo)
    lines.clear()
    att = topo.datacenters[0]
    bad = report_packet(topo, att.node, "00" * 16, 1.0)
    assert controller.on_packet_in(PacketIn(att.switch, att.port, bad), now=3.0).dropped == "bad_passcode"
    stranger = Packet("report", 7, 0, 0x0A09090A, 0, {"passcode": "", GREEN_ENERGY_PARAM: 1.0})
    assert controller.on_packet_in(PacketIn(att.switch, att.port, stranger), now=4.5).dropped == "unknown_reporter"
    assert controller.auth_failures == 2
    assert lines == [
        "t=3.000 ev=packet_in sw=s2 port=2 kind=report src=10.1.0.1",
        "t=3.000 ev=auth_fail reason=bad_passcode dc=d0",
        "t=4.500 ev=packet_in sw=s2 port=2 kind=report src=10.9.9.10",
        "t=4.500 ev=auth_fail reason=unknown_reporter src=10.9.9.10",
    ]
    assert controller.sched.energy_wh == [0.0]


def test_report_value_validation():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    good = report_packet(topo, att.node, passcode, 42.5)
    controller.on_packet_in(PacketIn(att.switch, att.port, good))
    bad_payloads = [
        {"passcode": passcode},  # no energy field
        {"passcode": passcode, "water_usage": 3.0},
        # the retired multi-factor format nests the value; it carries no energy field
        {"passcode": passcode, "values": {GREEN_ENERGY_PARAM: 5.0}},
    ] + [
        {"passcode": passcode, GREEN_ENERGY_PARAM: v}
        for v in ("lots", None, float("nan"), float("inf"), -5.0, True, 10**400, [1.0], {"wh": 1.0})
    ]
    for payload in bad_payloads:
        bad = host_packet(topo, att.node, "report", payload)
        assert controller.on_packet_in(PacketIn(att.switch, att.port, bad)).dropped == "bad_report", payload
        assert lines[-1] == "t=0.000 ev=drop reason=bad_report dc=d0"
    # a NaN accepted here would win every later argmax and draw every job
    assert controller.sched.energy_wh == [42.5]
    assert controller.auth_failures == 0  # malformed values are not auth failures


def test_report_ignores_keys_beside_the_energy_field():
    topo = line_topology()
    controller = make(topo)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    payload = {"passcode": passcode, GREEN_ENERGY_PARAM: 7, "cpu_load": "high"}
    resp = controller.on_packet_in(PacketIn(att.switch, att.port, host_packet(topo, att.node, "report", payload)))
    assert resp.dropped is None
    assert controller.sched.energy_wh == [7.0]


REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from([GREEN_ENERGY_PARAM, "cpu_load"]) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    energy=REPORT_VALUES,
    extra=st.dictionaries(st.sampled_from(["values", "cpu_load"]) | st.text(max_size=4), REPORT_VALUES, max_size=2),
    with_energy=st.booleans(),
)
def test_fuzzed_report_values_never_steer_placement(energy, extra, with_energy):
    topo = line_topology()
    controller = make(topo)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    payload = {k: v for k, v in extra.items() if k != GREEN_ENERGY_PARAM}
    payload["passcode"] = passcode
    if with_energy:
        payload[GREEN_ENERGY_PARAM] = energy
    resp = controller.on_packet_in(PacketIn(att.switch, att.port, host_packet(topo, att.node, "report", payload)))
    accepted = with_energy and valid_energy(energy)
    assert resp.dropped == (None if accepted else "bad_report")
    (stored,) = controller.sched.energy_wh
    assert math.isfinite(stored) and stored >= 0
    assert stored == (float(energy) if accepted else 0.0)


def client_request(topo, flow_id="f1"):
    cl = topo.clients[0]
    addr = topo.addresses[cl.node]
    pkt = Packet("request", addr.mac, 0, addr.ip, SERVICE_IP, {"flow_id": flow_id})
    return cl, pkt


def test_request_without_datacenters_is_dropped():
    topo = line_topology()
    controller = make(topo)
    cl, pkt = client_request(topo)
    resp = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert resp.dropped == "no_datacenter"
    assert resp.flow_mods == ()


def test_request_installs_path_and_rewrites():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    register(controller, topo)
    controller.sched.energy_wh[0] = 5.0
    cl, pkt = client_request(topo)
    resp = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert lines[-1] == "t=0.000 ev=decision flow=f1 dc=d0 sw=s2 score=5.000000"
    assert controller.sched.assigned == [1]

    # a -> b -> c, forward and reverse rules on each hop
    assert len(resp.flow_mods) == 6
    a, b, c = (NodeId(SWITCH, i) for i in range(3))
    client_ip = topo.addresses[cl.node].ip
    dc = controller.dcs[0]
    by_switch = {}
    for mod in resp.flow_mods:
        assert mod.priority == FLOW_PRIORITY
        assert mod.idle_timeout == controller.config.flow_idle_timeout
        by_switch.setdefault(mod.switch, []).append(mod)
    forward_a = next(m for m in by_switch[a] if m.match_src == client_ip)
    assert forward_a.actions == (
        ("set_eth_dst", dc.mac),
        ("set_ip_dst", dc.ip),
        ("output", 1),
    )
    forward_c = next(m for m in by_switch[c] if m.match_src == client_ip)
    assert forward_c.actions == (("output", dc.port),)
    reverse_a = next(m for m in by_switch[a] if m.match_dst == client_ip)
    assert reverse_a.actions == (("output", cl.port),)
    # egress switch rules come first so the path is ready end to end
    assert resp.flow_mods[0].switch == c

    # the packet goes back through a's table, whose new rule forwards it
    assert resp.packets == [PacketOut(a, TABLE, pkt)]


def test_request_without_flow_id_logs_the_client_ip():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append)
    register(controller, topo)
    cl = topo.clients[0]
    addr = topo.addresses[cl.node]
    pkt = Packet("request", addr.mac, 0, addr.ip, SERVICE_IP)
    controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert lines[-1] == "t=0.000 ev=decision flow=10.2.0.1 dc=d0 sw=s2 score=0.000000"


def test_huge_report_places_with_an_infinite_score_and_no_warning():
    topo = line_topology()
    lines = []
    controller = make(topo, emit=lines.append, job_energy_wh=0.5)
    passcode = register(controller, topo).packets[0].packet.payload["passcode"]
    att = topo.datacenters[0]
    report = report_packet(topo, att.node, passcode, 1e308)
    cl, pkt = client_request(topo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        controller.on_packet_in(PacketIn(att.switch, att.port, report))
        controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert lines[-1] == "t=0.000 ev=decision flow=f1 dc=d0 sw=s2 score=inf"


def test_request_same_switch_short_path():
    topo = topology_from_dict(
        {
            "switches": ["only"],
            "links": [],
            "datacenters": [{"name": "near", "switch": "only", "port": 1}],
            "clients": [{"name": "cl", "switch": "only", "port": 2}],
        }
    )
    controller = make(topo)
    register(controller, topo)
    cl, pkt = client_request(topo)
    resp = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert len(resp.flow_mods) == 2
    assert resp.packets == [PacketOut(cl.switch, TABLE, pkt)]
    forward = next(m for m in resp.flow_mods if m.match_src is not None)
    assert forward.actions[-1] == ("output", topo.datacenters[0].port)


def test_request_no_path_rolls_back_assignment():
    topo = line_topology()
    controller = Controller(ControllerConfig(), seed=0)
    for i, _ in enumerate(topo.switch_names):
        sw = NodeId(SWITCH, i)
        controller.on_switch_connect(sw, sorted(topo.ports[sw.index]), topo.addresses[sw].mac)
    controller.adjacency.clear()  # discovery never happened
    register(controller, topo)
    cl, pkt = client_request(topo)
    resp = controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    assert resp.dropped == "no_path"
    assert controller.sched.assigned == [0]


def test_compute_path():
    topo = line_topology()
    controller = make(topo)
    a, b, c = (NodeId(SWITCH, i) for i in range(3))
    assert controller.compute_path(a, c) == [a, b, c]
    assert controller.compute_path(c, a) == [c, b, a]
    assert controller.compute_path(b, b) == [b]
    with pytest.raises(NoPath):
        controller.compute_path(a, NodeId(SWITCH, 9))


def test_compute_path_prefers_low_index_on_ties():
    # diamond: 0-1, 0-2, 1-3, 2-3; both middle hops give length 3
    topo = topology_from_dict(
        {
            "switches": ["n0", "n1", "n2", "n3"],
            "links": [
                {"a": "n0", "a_port": 1, "b": "n1", "b_port": 1},
                {"a": "n0", "a_port": 2, "b": "n2", "b_port": 1},
                {"a": "n1", "a_port": 2, "b": "n3", "b_port": 1},
                {"a": "n2", "a_port": 2, "b": "n3", "b_port": 2},
            ],
            "datacenters": [],
            "clients": [],
        }
    )
    controller = make(topo)
    nodes = [NodeId(SWITCH, i) for i in range(4)]
    assert controller.compute_path(nodes[0], nodes[3]) == [nodes[0], nodes[1], nodes[3]]


def test_on_hour_resets_assignments_only():
    topo = line_topology()
    controller = make(topo)
    register(controller, topo)
    controller.sched.energy_wh[0] = 7.0
    controller.sched.assigned[0] = 5
    controller.sched.rr_cursor = 1
    controller.on_hour(1, now=3600.0)
    assert controller.sched.energy_wh == [7.0]
    assert controller.sched.assigned == [0]
    assert controller.sched.rr_cursor == 1


def test_round_robin_config_drives_decisions():
    topo = topology_from_dict(
        {
            "switches": ["only"],
            "links": [],
            "datacenters": [
                {"name": "one", "switch": "only", "port": 1},
                {"name": "two", "switch": "only", "port": 2},
            ],
            "clients": [{"name": "cl", "switch": "only", "port": 3}],
        }
    )
    lines = []
    controller = make(topo, emit=lines.append, scheduler="round_robin")
    register(controller, topo, 0)
    register(controller, topo, 1)
    controller.sched.energy_wh[1] = 99.0  # round robin must ignore this
    cl, _ = client_request(topo)
    for i in range(4):
        _, pkt = client_request(topo, flow_id="f%d" % i)
        controller.on_packet_in(PacketIn(cl.switch, cl.port, pkt))
    decisions = [line for line in lines if "ev=decision" in line]
    assert decisions == [
        "t=0.000 ev=decision flow=f%d dc=d%d sw=s0 score=0.000000" % (i, i % 2) for i in range(4)
    ]


def test_seeded_credentials_are_reproducible():
    topo = line_topology()
    one, two = make(topo), make(topo)
    assert one.discovery_token == two.discovery_token
    p1 = register(one, topo).packets[0].packet.payload["passcode"]
    p2 = register(two, topo).packets[0].packet.payload["passcode"]
    assert p1 == p2
    other = Controller(ControllerConfig(), seed=1)
    assert other.discovery_token != one.discovery_token

