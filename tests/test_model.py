import json

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


def test_topology_basics():
    topo = topology_from_dict(small_topo_dict())
    left = topo.switch_id("left")
    right = topo.switch_id("right")
    assert topo.switch_link_pairs() == {(left, right), (right, left)}

    ports = topo.ports(left)
    assert ports[1] == (right, 1)
    assert ports[2] == (topo.datacenters[0].node, None)
    assert ports[3] == (topo.clients[0].node, None)

    assert len(topo.addresses) == 5
    with pytest.raises(ValidationError):
        topo.switch_id("middle")


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
    assert len(topo.switch_link_pairs()) == 6


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


def test_config_with_overrides_validates():
    cfg = ControllerConfig()
    out = cfg.with_overrides(scheduler="round_robin", job_energy_wh=2.0)
    assert (out.scheduler, out.job_energy_wh) == ("round_robin", 2.0)
    assert (cfg.scheduler, cfg.job_energy_wh) == ("green_aware", 1.0)
    with pytest.raises(ValidationError):
        cfg.with_overrides(scheduler="fifo")


def test_bundled_config_loads(tmp_path):
    cfg = load_config(data_path("controller.json"))
    assert cfg.scheduler == "green_aware"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ValidationError):
        load_config(str(p))
