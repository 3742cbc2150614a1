import json
import re

import pytest

from grasp.datafiles import data_path
from grasp.errors import ParseError, ValidationError
from grasp.model import (
    CLIENT,
    DATACENTER,
    SWITCH,
    ControllerConfig,
    NodeId,
    auto_address,
    config_from_dict,
    format_ip,
    load_config,
    load_topology,
    parse_ip,
    parse_mac,
    topology_from_dict,
)


def small_topo_dict():
    return {
        "switches": ["left", "right"],
        "links": [{"a": "left", "a_port": 1, "b": "right", "b_port": 1}],
        "datacenters": [
            {"name": "dc_a", "switch": "left", "port": 2},
            {"name": "dc_b", "switch": "right", "port": 2},
        ],
        "clients": [{"name": "c_a", "switch": "left", "port": 3}],
    }


def test_node_id_text():
    assert str(NodeId(SWITCH, 0)) == "s0"
    assert str(NodeId(DATACENTER, 3)) == "d3"
    assert str(NodeId(CLIENT, 1)) == "c1"
    # formatted as one argument of several, or in an f-string, a node prints as its text
    assert "sw=%s port=%d" % (NodeId(SWITCH, 12), 3) == "sw=s12 port=3"
    assert f"{NodeId(CLIENT, 4)}" == "c4"


def test_node_ids_hash_compare_and_sort_as_kind_then_index():
    # dict and trace orders rest on this: the same key as the (kind, index) pair
    node = NodeId(SWITCH, 3)
    assert hash(node) == hash((SWITCH, 3))
    assert node == NodeId(SWITCH, 3) and node != NodeId(DATACENTER, 3)
    assert {node: "x"}[NodeId(SWITCH, 3)] == "x"
    mixed = [NodeId(SWITCH, 1), NodeId(CLIENT, 10), NodeId(DATACENTER, 0), NodeId(SWITCH, 0), NodeId(CLIENT, 2)]
    assert [str(n) for n in sorted(mixed)] == ["c2", "c10", "d0", "s0", "s1"]


def test_ip_round_trip():
    for text in ("0.0.0.0", "10.1.0.7", "255.255.255.255", "192.168.44.3"):
        assert format_ip(parse_ip(text)) == text


@pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "1.2.3.999", "a.b.c.d", "\u00b9.2.3.4", 7, None])
def test_ip_rejects(bad):
    with pytest.raises(ParseError):
        parse_ip(bad)


def test_mac_round_trip():
    for text, value in (("00:00:00:00:00:00", 0), ("02:00:01:00:00:09", 0x020001000009), ("ff:ff:ff:ff:ff:ff", 2**48 - 1)):
        assert parse_mac(text) == value
    with pytest.raises(ParseError):
        parse_mac("02:00:01:00:00")
    with pytest.raises(ParseError):
        parse_mac("zz:00:00:00:00:00")
    with pytest.raises(ParseError):
        parse_mac(7)


def test_auto_addresses_unique_across_kinds():
    nodes = [NodeId(kind, i) for kind in (SWITCH, DATACENTER, CLIENT) for i in range(50)]
    addrs = [auto_address(n) for n in nodes]
    assert len({a.ip for a in addrs}) == len(nodes)
    assert len({a.mac for a in addrs}) == len(nodes)
    # locally administered unicast MACs only
    assert all((a.mac >> 40) & 0x03 == 0x02 for a in addrs)


def switch_pairs(topo):
    """Every wired (switch, peer switch) pair, in both directions, read from the port maps."""
    return {(NodeId(SWITCH, i), peer) for i, table in enumerate(topo.ports)
            for peer, _ in table.values() if peer.kind == SWITCH}


def test_topology_basics():
    topo = topology_from_dict(small_topo_dict())
    left, right = NodeId(SWITCH, 0), NodeId(SWITCH, 1)
    assert switch_pairs(topo) == {(left, right), (right, left)}
    assert len(topo.addresses) == 5


def test_topology_port_maps_hold_each_link_on_both_ends_and_each_host_once():
    data = small_topo_dict()
    data["switches"].append("far")
    data["links"].append({"a": "far", "a_port": 7, "b": "right", "b_port": 4})
    topo = topology_from_dict(data)
    left, right, far = (NodeId(SWITCH, i) for i in range(3))
    dc_a, dc_b = (att.node for att in topo.datacenters)
    assert topo.ports == [
        {1: (right, 1), 2: (dc_a, None), 3: (topo.clients[0].node, None)},
        {1: (left, 1), 4: (far, 7), 2: (dc_b, None)},
        {7: (right, 4)},
    ]
    # a port reused on a link's far end is refused by the far end's path and switch
    data["links"].append({"a": "far", "a_port": 8, "b": "right", "b_port": 1})
    with pytest.raises(ValidationError, match="port 1 on 'right' used twice") as err:
        topology_from_dict(data)
    assert err.value.field == "links[2].b_port"


def test_topology_pinned_addresses():
    data = small_topo_dict()
    data["datacenters"][0]["ip"] = "192.168.7.9"
    data["datacenters"][0]["mac"] = "aa:bb:cc:dd:ee:0f"
    topo = topology_from_dict(data)
    addr = topo.addresses[topo.datacenters[0].node]
    assert format_ip(addr.ip) == "192.168.7.9"
    assert addr.mac == 0xAABBCCDDEE0F


def broken(mutate):
    data = small_topo_dict()
    mutate(data)
    return data


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("links"),
        lambda d: d["switches"].append("left"),
        lambda d: d.__setitem__("switches", []),
        lambda d: d["links"].append({"a": "left", "a_port": 9, "b": "nowhere", "b_port": 9}),
        lambda d: d["links"].append({"a": "left", "a_port": 4, "b": "left", "b_port": 5}),
        lambda d: d["links"].append({"a": "left", "a_port": 2, "b": "right", "b_port": 9}),
        lambda d: d["datacenters"].append({"name": "dc_a", "switch": "right", "port": 8}),
        lambda d: d["clients"].append({"name": "c_x", "switch": "right", "port": 0}),
        lambda d: d["clients"].append({"name": "c_x", "switch": "middle", "port": 8}),
        lambda d: d["clients"][0].pop("port"),
        lambda d: d["clients"][0].__setitem__("switch", ["left"]),
        lambda d: d["links"].append({"a": {}, "a_port": 4, "b": "left", "b_port": 5}),
        # a bool is not a port, even where port 1 is free
        lambda d: (
            d["switches"].append("spare"),
            d["datacenters"].append({"name": "dc_c", "switch": "spare", "port": True}),
        ),
    ],
)
def test_topology_rejects(mutate):
    with pytest.raises(ValidationError):
        topology_from_dict(broken(mutate))


# a key the format does not read is refused by name, wherever it sits
HOSTILE_TOPOLOGIES = {
    "misspelled_links": (lambda d: d.__setitem__("linkz", []), "topology", "linkz"),
    "top_level_extra": (lambda d: d.__setitem__("bogus", 1), "topology", "bogus"),
    "link_extra": (lambda d: d["links"][0].__setitem__("a_prot", 1), "links[0]", "a_prot"),
    "link_weight": (lambda d: d["links"][0].__setitem__("weight", 2), "links[0]", "weight"),
    "datacenter_extra": (lambda d: d["datacenters"][1].__setitem__("prot", 3), "datacenters[1]", "prot"),
    "datacenter_ip_case": (lambda d: d["datacenters"][0].__setitem__("IP", "10.9.9.9"), "datacenters[0]", "IP"),
    "client_extra": (lambda d: d["clients"][0].__setitem__("x", 1), "clients[0]", "x"),
    "client_empty_key": (lambda d: d["clients"][0].__setitem__("", None), "clients[0]", ""),
}


@pytest.mark.parametrize("mutate, where, key", HOSTILE_TOPOLOGIES.values(), ids=HOSTILE_TOPOLOGIES.keys())
def test_topology_refuses_unknown_keys(mutate, where, key):
    with pytest.raises(ValidationError, match="unknown key %s" % re.escape(repr(key))) as err:
        topology_from_dict(broken(mutate))
    assert err.value.field == where


def set_name(key, i, value):
    return lambda d: d[key][i].__setitem__("name", value)


def set_address(field, value):
    return lambda d: d["datacenters"][0].__setitem__(field, value)


# shapes and names the format refuses; each entry names the JSON path its error must carry
HOSTILE_TOPOLOGY_VALUES = {
    "switches_not_list": (lambda d: d.__setitem__("switches", "left"), "switches"),
    "switch_name_with_space": (lambda d: d["switches"].append("far right"), "switches[2]"),
    "links_not_list": (lambda d: d.__setitem__("links", {}), "links"),
    "link_not_object": (lambda d: d["links"].append(["left", 4, "right", 4]), "links[1]"),
    "link_without_b": (lambda d: d["links"][0].pop("b"), "links[0]"),
    "link_port_string": (lambda d: d["links"][0].__setitem__("a_port", "1"), "links[0].a_port"),
    "link_port_zero": (lambda d: d["links"][0].__setitem__("b_port", 0), "links[0].b_port"),
    "link_port_past_2_53": (lambda d: d["links"][0].__setitem__("b_port", 2**53), "links[0].b_port"),
    "host_port_float": (lambda d: d["datacenters"][0].__setitem__("port", 2.0), "datacenters[0].port"),
    "host_port_taken": (lambda d: d["datacenters"][1].__setitem__("port", 1), "datacenters[1].port"),
    "host_on_unknown_switch": (lambda d: d["clients"][0].__setitem__("switch", "middle"), "clients[0].switch"),
    # names the trace and stdout print: `name=`, `d0 <name> jobs=`
    "datacenter_name_with_space": (set_name("datacenters", 0, "dc a"), "datacenters[0].name"),
    "datacenter_name_empty": (set_name("datacenters", 1, ""), "datacenters[1].name"),
    "datacenter_name_number": (set_name("datacenters", 1, 7), "datacenters[1].name"),
    "client_name_null": (set_name("clients", 0, None), "clients[0].name"),
    "client_name_list": (set_name("clients", 0, ["c_a"]), "clients[0].name"),
    "client_name_with_tab": (set_name("clients", 0, "c\ta"), "clients[0].name"),
    "client_name_twice": (lambda d: d["clients"].append({"name": "c_a", "switch": "right", "port": 5}), "clients[1].name"),
    # pinned addresses
    "datacenter_ip_short": (lambda d: d["datacenters"][0].__setitem__("ip", "10.1.2"), "datacenters[0].ip"),
    "datacenter_ip_number": (lambda d: d["datacenters"][1].__setitem__("ip", 7), "datacenters[1].ip"),
    "client_mac_bad_octet": (lambda d: d["clients"][0].__setitem__("mac", "02:00:00:00:00:zz"), "clients[0].mac"),
    "client_mac_short": (lambda d: d["clients"][0].__setitem__("mac", "02:00:00"), "clients[0].mac"),
    # forms int(p, 16) or str.isdecimal takes that are no address octet
    "datacenter_mac_plus": (set_address("mac", "+1:2:3:4:5:6"), "datacenters[0].mac"),
    "datacenter_mac_space": (set_address("mac", " 1:2:3:4:5:6"), "datacenters[0].mac"),
    "datacenter_mac_underscore": (set_address("mac", "1_0:2:3:4:5:6"), "datacenters[0].mac"),
    "datacenter_mac_0x": (set_address("mac", "0x1:2:3:4:5:6"), "datacenters[0].mac"),
    "datacenter_mac_minus": (set_address("mac", "-0:0:0:0:0:1"), "datacenters[0].mac"),
    "datacenter_ip_arabic_indic": (set_address("ip", "\u0661\u0660.0.0.1"), "datacenters[0].ip"),
    # the controller's own addresses: a client pinned to SERVICE_IP would take every request
    "datacenter_ip_controller": (lambda d: d["datacenters"][0].__setitem__("ip", "10.255.0.1"), "datacenters[0].ip"),
    "client_ip_service": (lambda d: d["clients"][0].__setitem__("ip", "10.255.0.100"), "clients[0].ip"),
}


@pytest.mark.parametrize("mutate, where", HOSTILE_TOPOLOGY_VALUES.values(), ids=HOSTILE_TOPOLOGY_VALUES.keys())
def test_topology_errors_name_the_json_path(mutate, where):
    with pytest.raises(ValidationError) as err:
        topology_from_dict(broken(mutate))
    assert err.value.field == where


@pytest.mark.parametrize(
    "data, message",
    [
        (["not", "an", "object"], "config: must be an object"),
        ({"made_up_key": 1}, "config: unknown key 'made_up_key'"),
        ({"report_period": float("inf")}, "report_period: must be a finite number, got inf"),
        ({"nsrdb": ["temp_column"]}, "nsrdb: must be an object"),
        ({"nsrdb": {"temp_colum": "x"}}, "nsrdb: unknown key 'temp_colum'"),
        ({"nsrdb": {"ghi_column": 5}}, "nsrdb.ghi_column: must be a non-empty string"),
        ({"panel": {"tilt": 30}}, "panel: unknown key 'tilt'"),
        ({"panel": {"area_m2": True}}, "panel.area_m2: must be a finite number, got True"),
        ({"weights": [1]}, "weights: retired key"),
    ],
)
def test_config_errors_name_the_json_path(data, message):
    with pytest.raises(ValidationError) as err:
        config_from_dict(data)
    assert str(err.value).startswith(message)


def test_topology_rejects_duplicate_pinned_ip():
    data = small_topo_dict()
    data["datacenters"][0]["ip"] = "10.9.9.9"
    data["clients"][0]["ip"] = "10.9.9.9"
    with pytest.raises(ValidationError):
        topology_from_dict(data)


def test_bundled_topology_loads():
    topo = load_topology(data_path("geni.topo.json"))
    assert len(topo.switch_names) == 3
    assert len(topo.datacenters) == 9
    assert len(topo.clients) == 6
    # full mesh: every ordered switch pair is linked
    assert len(switch_pairs(topo)) == 6


def test_load_topology_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_topology(str(p))


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.report_period == 3600.0
    assert cfg.flow_idle_timeout == 2.0
    assert cfg.scheduler == "green_aware"
    assert cfg.job_energy_wh == 1.0


def test_retired_keys_load_only_at_their_fixed_values():
    # perfbench's generated scenario still sends both keys at these values
    assert config_from_dict({"parameters": ["green_energy_wh"], "weights": [1.0]}) == ControllerConfig()


@pytest.mark.parametrize(
    "data",
    [
        {"scheduler": "fifo"},
        {"job_energy_wh": 0},
        {"report_period": -1},
        {"flow_idle_timeout": 0},
        {"panel": {"efficiency": 1.5}},
        {"panel": {"tilt": 30}},
        {"made_up_key": 1},
        {"report_period": float("inf")},
        {"flow_idle_timeout": True},
        {"job_energy_wh": 10**400},
        {"panel": {"reference_temp_c": float("nan")}},
        {"nsrdb": {"temp_colum": "x"}},
        {"nsrdb": {"ghi_column": 5}},
        {"nsrdb": {"temp_column": ""}},
        {"nsrdb": {"temp_column": None}},
        {"nsrdb": ["temp_column"]},
        {"parameters": []},
        {"parameters": ["cpu_load"]},
        {"parameters": ["green_energy_wh", "cpu_load"]},
        {"parameters": "green_energy_wh"},
        {"weights": 5},
        {"weights": [0.1, 99]},
        {"weights": [2.0]},
        {"weights": [1]},
        {"weights": [True]},
        {"weights": []},
    ],
)
def test_config_rejects(data):
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_config_panel_and_nsrdb_overrides():
    cfg = config_from_dict(
        {
            "panel": {"area_m2": 2.5, "efficiency": 0.18},
            "nsrdb": {"temp_column": "Temperature", "ghi_column": "GHI"},
        }
    )
    assert cfg.panel.area_m2 == 2.5
    assert cfg.panel.efficiency == 0.18
    assert cfg.nsrdb_temp_column == "Temperature"
    assert cfg.nsrdb_ghi_column == "GHI"


def test_bundled_config_loads(tmp_path):
    cfg = load_config(data_path("controller.json"))
    assert cfg.scheduler == "green_aware"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ValidationError):
        load_config(str(p))
