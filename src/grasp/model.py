"""Topology and controller configuration.

Nodes are switches, data centers, and clients.  A topology file wires
switches together through numbered ports and attaches hosts to switch
ports; every node gets a deterministic IP/MAC pair unless the file pins
one explicitly.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
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

    @functools.lru_cache(maxsize=4096)  # made once per node, not per trace line
    def __str__(self):
        return f"{_KIND_PREFIX[self.kind]}{self.index}"


@dataclass(frozen=True)
class Address:
    """IP and MAC of a node, both stored as integers."""

    ip: int
    mac: int


@functools.lru_cache(maxsize=4096)
def format_ip(ip):
    return "%d.%d.%d.%d" % ((ip >> 24) & 255, (ip >> 16) & 255, (ip >> 8) & 255, ip & 255)


def parse_ip(text):
    parts = text.split(".") if isinstance(text, str) else []
    if len(parts) != 4 or not all(p.isascii() and p.isdecimal() and int(p) <= 255 for p in parts):
        raise ParseError(f"bad IP address {text!r}")
    return (int(parts[0]) << 24) | (int(parts[1]) << 16) | (int(parts[2]) << 8) | int(parts[3])


CONTROLLER_IP = parse_ip("10.255.0.1")
# clients address their requests here; flow rules rewrite it per decision
SERVICE_IP = parse_ip("10.255.0.100")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_mac(text):
    parts = text.split(":") if isinstance(text, str) else []
    # int(p, 16) alone would also take a sign, spaces, underscores and 0x
    if len(parts) != 6 or not all(1 <= len(p) <= 2 and set(p) <= _HEX_DIGITS for p in parts):
        raise ParseError(f"bad MAC address {text!r}")
    value = 0
    for p in parts:
        value = (value << 8) | int(p, 16)
    return value


def auto_address(node):
    """Deterministic address for a node: 10.<kind>.x.y, locally administered MAC."""
    host = node.index + 1
    ip = (10 << 24) | (_KIND_CODE[node.kind] << 16) | ((host >> 8) << 8) | (host & 255)
    mac = 0x020000000000 | (_KIND_CODE[node.kind] << 16) | host
    return Address(ip=ip, mac=mac)


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
    ports: list  # by switch index: {port: (peer node, peer port or None for a host)}
    datacenters: list
    clients: list
    addresses: dict


# JSON shape checks shared by the topology, config and scenario readers.
# Each raises ValidationError(where, problem), `where` being the JSON path
# of the offending value, and returns the value it checked.


def _require(condition, where, problem):
    if not condition:
        raise ValidationError(where, problem)


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


def _object(value, where):
    if not isinstance(value, dict):
        raise ValidationError(where, f"must be an object, not {type(value).__name__}")
    return value


def _list(value, where):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(where, f"must be a list, not {type(value).__name__}")
    return value


def _keys(obj, known, where, required=()):
    """An object with no key outside `known` and every key in `required`."""
    for key in _object(obj, where):
        if key not in known:
            raise ValidationError(where, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValidationError(where, f"missing key {key!r}")
    return obj


def _number(value, where, minimum=-math.inf):
    """A finite number, not a bool, >= minimum, as a float."""
    if finite_number(value) and value >= minimum:
        return float(value)
    bound = "" if minimum == -math.inf else f" >= {minimum:g}"
    raise ValidationError(where, f"must be a finite number{bound}, got {value!r}")


def _count(value, where, minimum=0):
    """An int, not a bool, >= minimum and below 2**53, so it stays exact as float seconds."""
    if isinstance(value, int) and not isinstance(value, bool) and minimum <= value < 2**53:
        return value
    raise ValidationError(where, f"must be an integer >= {minimum}, got {value!r}")


def _name(value, where):
    """A name or id as the trace and stdout print it: a non-empty string
    with no whitespace."""
    if isinstance(value, str) and value.split() == [value]:
        return value
    raise ValidationError(where, f"must be a non-empty string with no whitespace, got {value!r}")


TOPOLOGY_KEYS = ("switches", "links", "datacenters", "clients")


def topology_from_dict(data):
    _keys(data, TOPOLOGY_KEYS, "topology", required=TOPOLOGY_KEYS)
    names = [_name(n, f"switches[{i}]") for i, n in enumerate(_list(data["switches"], "switches"))]
    _require(names, "switches", "need at least one switch")
    index_of = {}
    for i, name in enumerate(names):
        _require(name not in index_of, f"switches[{i}]", f"duplicate switch name {name!r}")
        index_of[name] = i

    ports = [{} for _ in names]

    def plug(raw, switch_key, port_key, where):
        """The switch `raw[switch_key]` names, and port `raw[port_key]`, still free on it."""
        name = raw[switch_key]
        _require(isinstance(name, str) and name in index_of, f"{where}.{switch_key}", f"unknown switch {name!r}")
        switch = NodeId(SWITCH, index_of[name])
        port = _count(raw[port_key], f"{where}.{port_key}", minimum=1)
        _require(port not in ports[switch.index], f"{where}.{port_key}", f"port {port} on {name!r} used twice")
        return switch, port

    for i, raw in enumerate(_list(data["links"], "links")):
        where = f"links[{i}]"
        _keys(raw, ("a", "a_port", "b", "b_port"), where, required=("a", "a_port", "b", "b_port"))
        _require(raw["a"] != raw["b"], where, "link endpoints must differ")
        a, a_port = plug(raw, "a", "a_port", where)
        b, b_port = plug(raw, "b", "b_port", where)
        ports[a.index][a_port] = (b, b_port)
        ports[b.index][b_port] = (a, a_port)

    addresses = {NodeId(SWITCH, i): auto_address(NodeId(SWITCH, i)) for i in range(len(names))}

    def pin(parse, raw, key, where):
        """A pinned address, parsed; a bad one names its JSON path."""
        try:
            return parse(raw[key])
        except ParseError as exc:
            raise ValidationError(f"{where}.{key}", str(exc)) from None

    def read_attachments(key, kind):
        out = []
        seen = set()
        for i, raw in enumerate(_list(data[key], key)):
            where = f"{key}[{i}]"
            _keys(raw, ("name", "switch", "port", "ip", "mac"), where, required=("name", "switch", "port"))
            name = _name(raw["name"], f"{where}.name")
            _require(name not in seen, f"{where}.name", f"duplicate name {name!r}")
            seen.add(name)
            switch, port = plug(raw, "switch", "port", where)
            node = NodeId(kind, i)
            ports[switch.index][port] = (node, None)
            address = auto_address(node)
            if "ip" in raw or "mac" in raw:
                ip = pin(parse_ip, raw, "ip", where) if "ip" in raw else address.ip
                _require(ip not in (SERVICE_IP, CONTROLLER_IP), f"{where}.ip", f"{format_ip(ip)} is reserved")
                mac = pin(parse_mac, raw, "mac", where) if "mac" in raw else address.mac
                address = Address(ip=ip, mac=mac)
            addresses[node] = address
            out.append(Attachment(node=node, name=name, switch=switch, port=port))
        return out

    datacenters = read_attachments("datacenters", DATACENTER)
    clients = read_attachments("clients", CLIENT)

    ips = [a.ip for a in addresses.values()]
    _require(len(set(ips)) == len(ips), "addresses", "duplicate IP address")
    return Topology(names, ports, datacenters, clients, addresses)


def read_json(path):
    """Parse one JSON file; text that is not JSON raises ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that do not decode as UTF-8
        raise ParseError(f"{path}: {exc}") from None
    except RecursionError:  # arrays or objects nested deeper than the parser's stack
        raise ParseError(f"{path}: JSON nested too deeply") from None


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


CONFIG_KEYS = ("report_period", "flow_idle_timeout", "scheduler", "job_energy_wh", "nsrdb", "panel", *_RETIRED_KEYS)
PANEL_KEYS = tuple(f.name for f in fields(PanelConfig))


def config_from_dict(data):
    _keys(data, CONFIG_KEYS, "config")
    for key, fixed in _RETIRED_KEYS.items():
        # repr, so [1] or [true] for [1.0] is refused too
        _require(key not in data or repr(data[key]) == repr(fixed), key, f"retired key, accepted only as {fixed!r}")

    cfg = ControllerConfig()
    for key in ("report_period", "flow_idle_timeout", "job_energy_wh"):
        if key in data:
            setattr(cfg, key, _number(data[key], key))
    if "scheduler" in data:
        cfg.scheduler = data["scheduler"]
    for key, value in _keys(data.get("nsrdb", {}), ("temp_column", "ghi_column"), "nsrdb").items():
        _require(isinstance(value, str) and value, f"nsrdb.{key}", "must be a non-empty string")
        setattr(cfg, f"nsrdb_{key}", value)
    for key, value in _keys(data.get("panel", {}), PANEL_KEYS, "panel").items():
        setattr(cfg.panel, key, _number(value, f"panel.{key}"))
    return validate_config(cfg)


def load_config(path):
    return config_from_dict(read_json(path))
