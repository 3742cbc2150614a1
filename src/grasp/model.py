"""Topology and controller configuration.

Nodes are switches, data centers, and clients.  A topology file wires
switches together through numbered ports and attaches hosts to switch
ports; every node gets a deterministic IP/MAC pair unless the file pins
one explicitly.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .scheduler import SCHEDULERS

SWITCH = "switch"
DATACENTER = "datacenter"
CLIENT = "client"

_KIND_PREFIX = {SWITCH: "s", DATACENTER: "d", CLIENT: "c"}
_KIND_CODE = {SWITCH: 0, DATACENTER: 1, CLIENT: 2}

SCHEDULER_NAMES = tuple(SCHEDULERS)


class NodeId(NamedTuple):
    """Stable identity of a node: kind plus position in its topology list.

    A tuple, so it hashes, compares and sorts as `(kind, index)` in C.
    """

    kind: str
    index: int

    def __str__(self):
        return f"{_KIND_PREFIX[self.kind]}{self.index}"


@dataclass(frozen=True)
class Address:
    """IP and MAC of a node, both stored as integers."""

    ip: int
    mac: int


def format_ip(ip):
    return "%d.%d.%d.%d" % ((ip >> 24) & 255, (ip >> 16) & 255, (ip >> 8) & 255, ip & 255)


def parse_ip(text):
    parts = text.split(".") if isinstance(text, str) else []
    if len(parts) != 4 or not all(p.isdecimal() and int(p) <= 255 for p in parts):
        raise ParseError(f"bad IP address {text!r}")
    return (int(parts[0]) << 24) | (int(parts[1]) << 16) | (int(parts[2]) << 8) | int(parts[3])


def parse_mac(text):
    parts = text.split(":") if isinstance(text, str) else []
    if len(parts) != 6:
        raise ParseError(f"bad MAC address {text!r}")
    try:
        octets = [int(p, 16) for p in parts]
    except ValueError:
        raise ParseError(f"bad MAC address {text!r}") from None
    if not all(0 <= o <= 255 for o in octets):
        raise ParseError(f"bad MAC address {text!r}")
    value = 0
    for o in octets:
        value = (value << 8) | o
    return value


def auto_address(node):
    """Deterministic address for a node: 10.<kind>.x.y, locally administered MAC."""
    host = node.index + 1
    ip = (10 << 24) | (_KIND_CODE[node.kind] << 16) | ((host >> 8) << 8) | (host & 255)
    mac = 0x020000000000 | (_KIND_CODE[node.kind] << 16) | host
    return Address(ip=ip, mac=mac)


@dataclass(frozen=True)
class Link:
    """Bidirectional switch-to-switch cable: (a, a_port) <-> (b, b_port)."""

    a: NodeId
    a_port: int
    b: NodeId
    b_port: int


@dataclass(frozen=True)
class Attachment:
    """A host (data center or client) plugged into one switch port."""

    node: NodeId
    name: str
    switch: NodeId
    port: int


@dataclass
class DataCenterRecord:
    """What the controller stores about one registered data center."""

    dc_id: int
    name: str
    ip: int
    mac: int
    switch: NodeId
    port: int
    passcode: str  # hex text, as sent in the register_ack


@dataclass
class Topology:
    switch_names: list
    links: list
    datacenters: list
    clients: list
    addresses: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.addresses:
            for node in self.nodes():
                self.addresses[node] = auto_address(node)

    def nodes(self):
        out = [NodeId(SWITCH, i) for i in range(len(self.switch_names))]
        out += [a.node for a in self.datacenters]
        out += [a.node for a in self.clients]
        return out

    def switch_id(self, name):
        try:
            return NodeId(SWITCH, self.switch_names.index(name))
        except ValueError:
            raise ValidationError("switch", f"unknown switch {name!r}") from None

    def ports(self, switch):
        """Map port -> (peer node, peer port or None for hosts) on one switch."""
        table = {}
        for link in self.links:
            if link.a == switch:
                table[link.a_port] = (link.b, link.b_port)
            if link.b == switch:
                table[link.b_port] = (link.a, link.a_port)
        for att in self.datacenters + self.clients:
            if att.switch == switch:
                table[att.port] = (att.node, None)
        return table

    def switch_link_pairs(self):
        """Directed (switch, neighbor) pairs, one per link direction."""
        pairs = set()
        for link in self.links:
            pairs.add((link.a, link.b))
            pairs.add((link.b, link.a))
        return pairs


def _require(condition, field_name, message):
    if not condition:
        raise ValidationError(field_name, message)


def finite_number(value):
    """Whether `value` is a real number, not a bool, and finite as a float."""
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(value, field_name):
    _require(finite_number(value), field_name, "must be a finite number")
    return float(value)


def topology_from_dict(data):
    _require(isinstance(data, dict), "topology", "top level must be a JSON object")
    for key in ("switches", "links", "datacenters", "clients"):
        _require(key in data, key, "missing key")
        _require(isinstance(data[key], list), key, "must be a list")

    names = data["switches"]
    _require(len(names) >= 1, "switches", "need at least one switch")
    _require(all(isinstance(n, str) and n for n in names), "switches", "names must be non-empty strings")
    _require(len(set(names)) == len(names), "switches", "duplicate switch name")
    index_of = {n: i for i, n in enumerate(names)}

    used_ports = set()

    def switch_of(name, where):
        _require(isinstance(name, str) and name in index_of, where, f"unknown switch {name!r}")
        return NodeId(SWITCH, index_of[name])

    def claim_port(switch, port, where):
        _require(
            isinstance(port, int) and not isinstance(port, bool) and port > 0,
            where,
            f"port must be a positive integer, got {port!r}",
        )
        _require((switch, port) not in used_ports, where, f"port {port} on {names[switch.index]!r} used twice")
        used_ports.add((switch, port))

    links = []
    for i, raw in enumerate(data["links"]):
        where = f"links[{i}]"
        _require(isinstance(raw, dict), where, "must be an object")
        for k in ("a", "a_port", "b", "b_port"):
            _require(k in raw, where, f"missing {k!r}")
        a = switch_of(raw["a"], where)
        b = switch_of(raw["b"], where)
        _require(a != b, where, "link endpoints must differ")
        claim_port(a, raw["a_port"], where)
        claim_port(b, raw["b_port"], where)
        links.append(Link(a, raw["a_port"], b, raw["b_port"]))

    pinned = {}

    def read_attachments(key, kind):
        out = []
        seen = set()
        for i, raw in enumerate(data[key]):
            where = f"{key}[{i}]"
            _require(isinstance(raw, dict), where, "must be an object")
            for k in ("name", "switch", "port"):
                _require(k in raw, where, f"missing {k!r}")
            _require(isinstance(raw["name"], str) and raw["name"], where, "name must be a non-empty string")
            _require(raw["name"] not in seen, where, f"duplicate name {raw['name']!r}")
            seen.add(raw["name"])
            switch = switch_of(raw["switch"], where)
            claim_port(switch, raw["port"], where)
            node = NodeId(kind, i)
            if "ip" in raw or "mac" in raw:
                auto = auto_address(node)
                ip = parse_ip(raw["ip"]) if "ip" in raw else auto.ip
                mac = parse_mac(raw["mac"]) if "mac" in raw else auto.mac
                pinned[node] = Address(ip=ip, mac=mac)
            out.append(Attachment(node=node, name=raw["name"], switch=switch, port=raw["port"]))
        return out

    datacenters = read_attachments("datacenters", DATACENTER)
    clients = read_attachments("clients", CLIENT)

    topo = Topology(switch_names=list(names), links=links, datacenters=datacenters, clients=clients)
    topo.addresses.update(pinned)

    ips = [a.ip for a in topo.addresses.values()]
    _require(len(set(ips)) == len(ips), "addresses", "duplicate IP address")
    return topo


def read_json(path):
    """Parse one JSON file; text that is not JSON raises ParseError naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that do not decode as text
        raise ParseError(f"{path}: {exc}") from None


def load_topology(path):
    return topology_from_dict(read_json(path))


@dataclass
class PanelConfig:
    """Flat-plate PV panel coefficients; the defaults describe a 1 m^2 panel."""

    area_m2: float = 1.0
    efficiency: float = 0.2
    temp_coeff_per_c: float = 0.005
    reference_temp_c: float = 25.0
    irradiance_heating: float = 0.03  # degC of cell heating per W/m^2 of GHI


@dataclass
class ControllerConfig:
    report_period: float = 3600.0
    flow_idle_timeout: float = 2.0
    scheduler: str = "green_aware"
    job_energy_wh: float = 1.0
    nsrdb_temp_column: str = "dry_bulb_c"
    nsrdb_ghi_column: str = "ghi_whm2"
    panel: PanelConfig = field(default_factory=PanelConfig)

    def with_overrides(self, scheduler=None, job_energy_wh=None):
        cfg = replace(self)
        if scheduler is not None:
            cfg.scheduler = scheduler
        if job_energy_wh is not None:
            cfg.job_energy_wh = job_energy_wh
        validate_config(cfg)
        return cfg


def validate_config(cfg):
    _require(cfg.report_period > 0, "report_period", "must be > 0")
    _require(cfg.flow_idle_timeout > 0, "flow_idle_timeout", "must be > 0")
    _require(cfg.scheduler in SCHEDULER_NAMES, "scheduler", f"must be one of {SCHEDULER_NAMES}")
    _require(cfg.job_energy_wh > 0, "job_energy_wh", "must be > 0")
    panel = cfg.panel
    _require(panel.area_m2 > 0, "panel.area_m2", "must be > 0")
    _require(0 < panel.efficiency <= 1, "panel.efficiency", "must be in (0, 1]")
    _require(panel.temp_coeff_per_c >= 0, "panel.temp_coeff_per_c", "must be >= 0")
    _require(panel.irradiance_heating >= 0, "panel.irradiance_heating", "must be >= 0")
    return cfg


# Keys of the old multi-factor report format.  The benchmark's generated
# scenario (perfbench/workloads.py) is the only caller that still sends
# them, so they load at exactly these values and nothing else; the next
# change to the benchmark deletes them there, and this table with them.
_RETIRED_KEYS = {"parameters": ["green_energy_wh"], "weights": [1.0]}


def config_from_dict(data):
    _require(isinstance(data, dict), "config", "top level must be a JSON object")
    known = {"report_period", "flow_idle_timeout", "scheduler", "job_energy_wh", "nsrdb", "panel"}
    for key, value in data.items():
        if key in _RETIRED_KEYS:
            fixed = _RETIRED_KEYS[key]
            # repr, so [1] or [true] for [1.0] is refused too
            _require(repr(value) == repr(fixed), key, f"retired key, accepted only as {fixed!r}")
        else:
            _require(key in known, key, "unknown config key")

    cfg = ControllerConfig()
    for key in ("report_period", "flow_idle_timeout", "job_energy_wh"):
        if key in data:
            setattr(cfg, key, _number(data[key], key))
    if "scheduler" in data:
        cfg.scheduler = data["scheduler"]
    nsrdb = data.get("nsrdb", {})
    _require(isinstance(nsrdb, dict), "nsrdb", "must be an object")
    for key, value in nsrdb.items():
        _require(key in ("temp_column", "ghi_column"), f"nsrdb.{key}", "unknown nsrdb key")
        _require(isinstance(value, str) and value, f"nsrdb.{key}", "must be a non-empty string")
        setattr(cfg, f"nsrdb_{key}", value)
    panel = data.get("panel", {})
    _require(isinstance(panel, dict), "panel", "must be an object")
    panel_fields = {
        "area_m2", "efficiency", "temp_coeff_per_c", "reference_temp_c", "irradiance_heating",
    }
    for key, value in panel.items():
        _require(key in panel_fields, f"panel.{key}", "unknown panel key")
        setattr(cfg.panel, key, _number(value, f"panel.{key}"))
    return validate_config(cfg)


def load_config(path):
    return config_from_dict(read_json(path))
