"""Deterministic discrete-event simulation of the data plane.

Switches hold flow tables with idle timeouts, links are lossless and
zero-latency, and every behavior is driven off one event heap ordered by
(time, insertion sequence), so a scenario with the same seed replays
byte-identically.  Timer ticks fire every simulated second and are
inserted ahead of scripted events, so expiry sweeps and hour boundaries
run before same-instant workload.

Scenario files are JSON: which topology and controller config to use,
when data-center agents register (each backed by an energy profile), and
the client workload as explicit flow-open times or a per-hour rate.
"""

import heapq
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import Controller, Packet, PacketIn, match_text
from .energy import build_profile, load_profile_csv, parse_nsrdb_csv, synth_profile
from .errors import ScriptError, ValidationError
from .model import (
    CLIENT,
    DATACENTER,
    SWITCH,
    config_from_dict,
    load_config,
    load_topology,
    topology_from_dict,
)

SECONDS_PER_HOUR = 3600.0


@dataclass
class FlowRule:
    priority: int
    match_src: object
    match_dst: object
    actions: tuple
    idle_timeout: float  # 0 = permanent
    last_hit: float
    seq: int

    def matches(self, packet):
        if self.match_src is not None and self.match_src != packet.ip_src:
            return False
        if self.match_dst is not None and self.match_dst != packet.ip_dst:
            return False
        return True


class FlowTable:
    """One switch's rules.  Expired entries are removed before any lookup."""

    def __init__(self):
        self.rules = []
        self._seq = 0
        self.on_expire = None  # callable(rule, now)

    def install(self, mod, now):
        """Install a rule from a FlowMod; same (priority, match) replaces."""
        self.rules = [
            r
            for r in self.rules
            if not (
                r.priority == mod.priority
                and r.match_src == mod.match_src
                and r.match_dst == mod.match_dst
            )
        ]
        self.rules.append(
            FlowRule(
                priority=mod.priority,
                match_src=mod.match_src,
                match_dst=mod.match_dst,
                actions=mod.actions,
                idle_timeout=mod.idle_timeout,
                last_hit=now,
                seq=self._seq,
            )
        )
        self._seq += 1

    def expire(self, now):
        """Drop every rule idle for at least its timeout; returns them."""
        dead = [r for r in self.rules if r.idle_timeout > 0 and now - r.last_hit >= r.idle_timeout]
        if dead:
            self.rules = [r for r in self.rules if r not in dead]
            if self.on_expire is not None:
                for rule in dead:
                    self.on_expire(rule, now)
        return dead

    def lookup(self, packet, now):
        """Best live match: highest priority, earliest installed on ties."""
        self.expire(now)
        best = None
        for rule in self.rules:
            if rule.matches(packet) and (best is None or rule.priority > best.priority):
                best = rule
        if best is not None:
            best.last_hit = now
        return best

    def dump(self):
        lines = [
            "prio=%d match=%s idle=%g last_hit=%.3f"
            % (r.priority, match_text(r.match_src, r.match_dst), r.idle_timeout, r.last_hit)
            for r in self.rules
        ]
        return sorted(lines)


@dataclass
class AgentScript:
    """One data center's behavior: when to register, what energy to report."""

    dc_name: str
    register_at: float
    profile: object
    respond: bool = False


@dataclass
class ClientFlow:
    client_name: str
    flow_id: str
    open_at: float
    data_at: tuple = ()


@dataclass
class SimReport:
    per_dc_jobs: np.ndarray  # request deliveries by dc_id
    dc_names: list
    deliveries: list  # (flow_id, dc_id) in delivery order
    packet_in_count: int
    auth_failures: int
    trace: list
    snapshots: dict  # time -> flow table dump text
    client_rx: dict  # client name -> list of received packets
    controller: Controller


class Simulation:
    def __init__(self, topology, config, seed=0):
        self.topology = topology
        self.config = config
        self.trace = []
        self.controller = Controller(config, seed=seed, trace=self.trace)
        self.tables = {}
        self.ports = {}
        for i, _ in enumerate(topology.switch_names):
            sw = _switch_node(topology, i)
            self.tables[sw] = FlowTable()
            self.tables[sw].on_expire = self._make_expire_logger(sw)
            self.ports[sw] = topology.ports(sw)
        self._heap = []
        self._seq = 0
        self._agents = {}  # dc NodeId -> agent runtime state
        self._flows_by_client = {}
        self._dc_jobs = {}  # dc_id -> count
        self.deliveries = []
        self.client_rx = {a.name: [] for a in topology.clients}
        self.snapshots = {}
        self.horizon = 0.0

    def _make_expire_logger(self, sw):
        def log(rule, now):
            self.trace.append(
                "t=%.3f ev=expire sw=%s match=%s"
                % (now, sw, match_text(rule.match_src, rule.match_dst))
            )

        return log

    def schedule(self, time, kind, payload=None):
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    # -- event handlers ----------------------------------------------------

    def _connect(self, now, switch):
        ports = sorted(self.ports[switch])
        mac = self.topology.addresses[switch].mac
        resp = self.controller.on_switch_connect(switch, ports, mac, now=now)
        self._apply(resp, now)

    def _apply(self, resp, now):
        for mod in resp.flow_mods:
            self.tables[mod.switch].install(mod, now)
        for out in resp.packets:
            peer = self.ports[out.switch].get(out.port)
            if peer is None:
                self.trace.append(
                    "t=%.3f ev=drop reason=bad_port sw=%s port=%d" % (now, out.switch, out.port)
                )
                continue
            node, peer_port = peer
            self.schedule(now, "deliver", (node, peer_port, out.packet))

    def _emit_from_host(self, now, host_node, packet):
        """A host puts a packet on its access link; it arrives at the switch."""
        att = self._attachment(host_node)
        self.schedule(now, "deliver", (att.switch, att.port, packet))

    def _attachment(self, node):
        group = self.topology.datacenters if node.kind == DATACENTER else self.topology.clients
        return group[node.index]

    def _deliver(self, now, node, in_port, packet):
        if node.kind == SWITCH:
            self._switch_rx(now, node, in_port, packet)
        elif node.kind == DATACENTER:
            self._dc_rx(now, node, packet)
        else:
            self.client_rx[self._attachment(node).name].append(packet)

    def _switch_rx(self, now, switch, in_port, packet):
        rule = self.tables[switch].lookup(packet, now)
        if rule is None:
            # not connected yet: no table-miss rule, so the packet dies here
            self.trace.append("t=%.3f ev=drop reason=no_rule sw=%s" % (now, switch))
            return
        if rule.actions[-1][0] == "controller":
            pkt_in = PacketIn(switch=switch, port=in_port, packet=packet)
            resp = self.controller.on_packet_in(pkt_in, now=now)
            self._apply(resp, now)
            return
        for action in rule.actions:
            if action[0] == "set_eth_dst":
                packet = replace(packet, eth_dst=action[1])
            elif action[0] == "set_ip_dst":
                packet = replace(packet, ip_dst=action[1])
            elif action[0] == "output":
                peer = self.ports[switch].get(action[1])
                if peer is None:
                    self.trace.append(
                        "t=%.3f ev=drop reason=bad_port sw=%s port=%d" % (now, switch, action[1])
                    )
                    return
                node, peer_port = peer
                self.schedule(now, "deliver", (node, peer_port, packet))

    def _dc_rx(self, now, node, packet):
        agent = self._agents.get(node)
        if agent is None or packet.kind == "discover":
            return
        if packet.kind == "register_ack":
            agent["dc_id"] = packet.payload["dc_id"]
            agent["passcode"] = packet.payload["passcode"]
            agent["period"] = float(packet.payload["report_period"])
            next_report = now + agent["period"]
            if next_report < self.horizon:
                self.schedule(next_report, "agent_report", node)
            return
        if packet.kind in ("request", "data"):
            if packet.kind == "request":
                dc_id = agent["dc_id"]
                flow_id = str(packet.payload.get("flow_id", ""))
                self._dc_jobs[dc_id] = self._dc_jobs.get(dc_id, 0) + 1
                self.deliveries.append((flow_id, dc_id))
                self.trace.append("t=%.3f ev=deliver flow=%s dc=d%d" % (now, flow_id, dc_id))
                if agent["script"].respond:
                    addr = self.topology.addresses[node]
                    self._emit_from_host(
                        now,
                        node,
                        Packet(
                            kind="response",
                            eth_src=addr.mac,
                            eth_dst=packet.eth_src,
                            ip_src=addr.ip,
                            ip_dst=packet.ip_src,
                            payload={"flow_id": flow_id},
                        ),
                    )
            return
        # anything else a data center receives is ignored

    def _agent_register(self, now, node):
        agent = self._agents[node]
        addr = self.topology.addresses[node]
        self._emit_from_host(
            now,
            node,
            Packet(
                kind="register",
                eth_src=addr.mac,
                eth_dst=0,
                ip_src=addr.ip,
                ip_dst=0,
                payload={"name": agent["script"].dc_name},
            ),
        )

    def _agent_report(self, now, node):
        agent = self._agents[node]
        if agent["dc_id"] is None:
            return
        hour = int(now // SECONDS_PER_HOUR) % len(agent["script"].profile.wh)
        addr = self.topology.addresses[node]
        self._emit_from_host(
            now,
            node,
            Packet(
                kind="report",
                eth_src=addr.mac,
                eth_dst=0,
                ip_src=addr.ip,
                ip_dst=0,
                payload={
                    "passcode": agent["passcode"],
                    "values": {"green_energy_wh": float(agent["script"].profile.wh[hour])},
                },
            ),
        )
        next_report = now + agent["period"]
        if next_report < self.horizon:
            self.schedule(next_report, "agent_report", node)

    def _client_emit(self, now, client_node, flow_id, kind):
        addr = self.topology.addresses[client_node]
        from .controller import SERVICE_IP

        self._emit_from_host(
            now,
            client_node,
            Packet(
                kind=kind,
                eth_src=addr.mac,
                eth_dst=0,
                ip_src=addr.ip,
                ip_dst=SERVICE_IP,
                payload={"flow_id": flow_id},
            ),
        )

    def _tick(self, now):
        for sw in sorted(self.tables):
            self.tables[sw].expire(now)
        if now > 0 and now % SECONDS_PER_HOUR == 0:
            self.controller.on_hour(int(now // SECONDS_PER_HOUR), now=now)

    def _snapshot(self, now):
        lines = []
        for sw in sorted(self.tables):
            for line in self.tables[sw].dump():
                lines.append("sw=%s %s" % (sw, line))
        self.snapshots[now] = "\n".join(lines)

    # -- main loop -----------------------------------------------------------

    def run(self, horizon):
        self.horizon = float(horizon)
        while self._heap and self._heap[0][0] < self.horizon:
            now, _, kind, payload = heapq.heappop(self._heap)
            if kind == "tick":
                self._tick(now)
            elif kind == "deliver":
                self._deliver(now, *payload)
            elif kind == "connect":
                self._connect(now, payload)
            elif kind == "agent_register":
                self._agent_register(now, payload)
            elif kind == "agent_report":
                self._agent_report(now, payload)
            elif kind == "flow_open":
                self._client_emit(now, payload[0], payload[1], "request")
            elif kind == "flow_data":
                self._client_emit(now, payload[0], payload[1], "data")
            elif kind == "snapshot":
                self._snapshot(now)

    def report(self):
        n_dcs = len(self.controller.dcs)
        jobs = np.zeros(n_dcs, dtype=np.int64)
        for dc_id, count in self._dc_jobs.items():
            jobs[dc_id] = count
        return SimReport(
            per_dc_jobs=jobs,
            dc_names=[rec.name for rec in self.controller.dcs],
            deliveries=list(self.deliveries),
            packet_in_count=self.controller.packet_in_count,
            auth_failures=self.controller.auth_failures,
            trace=list(self.trace),
            snapshots=dict(self.snapshots),
            client_rx={k: list(v) for k, v in self.client_rx.items()},
            controller=self.controller,
        )


def _switch_node(topology, index):
    from .model import NodeId

    return NodeId(SWITCH, index)


def _resolve_profile(spec, base_dir, config):
    if not isinstance(spec, dict):
        raise ScriptError(f"agent profile must be an object, got {spec!r}")
    if "weather_csv" in spec:
        path = os.path.join(base_dir, spec["weather_csv"])
        weather = parse_nsrdb_csv(path, temp_column=config.nsrdb_temp_column, ghi_column=config.nsrdb_ghi_column)
        return build_profile(weather, panel=config.panel, site=os.path.basename(path))
    if "profile_csv" in spec:
        path = os.path.join(base_dir, spec["profile_csv"])
        return load_profile_csv(path, site=os.path.basename(path))
    if "shape" in spec:
        try:
            return synth_profile(spec["shape"], spec.get("peak_wh", 0.0))
        except ValidationError as exc:
            raise ScriptError(f"agent profile {spec!r}: {exc}") from None
    raise ScriptError(f"agent profile needs weather_csv, profile_csv or shape: {spec!r}")


def _hours_in_horizon(horizon):
    return int(horizon // SECONDS_PER_HOUR)


def load_scenario(source, base_dir=None):
    """Parse a scenario file (or dict) into topology, config and scripts."""
    if isinstance(source, (str, os.PathLike)):
        base_dir = os.path.dirname(os.path.abspath(source))
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
        base_dir = base_dir or "."
    if not isinstance(data, dict):
        raise ScriptError("scenario must be a JSON object")

    topo_spec = data.get("topology")
    if isinstance(topo_spec, str):
        topology = load_topology(os.path.join(base_dir, topo_spec))
    elif isinstance(topo_spec, dict):
        topology = topology_from_dict(topo_spec)
    else:
        raise ScriptError("scenario needs a topology (path or object)")

    config_spec = data.get("config", {})
    if isinstance(config_spec, str):
        config = load_config(os.path.join(base_dir, config_spec))
    elif isinstance(config_spec, dict):
        config = config_from_dict(config_spec)
    else:
        raise ScriptError("config must be a path or object")

    horizon = data.get("horizon", SECONDS_PER_HOUR)
    if not isinstance(horizon, (int, float)) or horizon <= 0:
        raise ScriptError(f"horizon must be a positive number, got {horizon!r}")

    dc_names = {a.name for a in topology.datacenters}
    agents = []
    for raw in data.get("agents", []):
        name = raw.get("dc")
        if name not in dc_names:
            raise ScriptError(f"agent references unknown data center {name!r}")
        register_at = raw.get("register_at", 0.5)
        if not isinstance(register_at, (int, float)) or register_at < 0:
            raise ScriptError(f"bad register_at for {name!r}: {register_at!r}")
        agents.append(
            AgentScript(
                dc_name=name,
                register_at=float(register_at),
                profile=_resolve_profile(raw.get("profile", {"shape": "zero"}), base_dir, config),
                respond=bool(raw.get("respond", False)),
            )
        )

    client_names = {a.name for a in topology.clients}
    flows = []
    for raw in data.get("clients", []):
        name = raw.get("client")
        if name not in client_names:
            raise ScriptError(f"workload references unknown client {name!r}")
        if "flows" in raw:
            for f in raw["flows"]:
                open_at = f.get("open_at")
                if not isinstance(open_at, (int, float)) or open_at < 0:
                    raise ScriptError(f"bad open_at in flow for {name!r}: {open_at!r}")
                if "id" not in f:
                    raise ScriptError(f"explicit flow for {name!r} needs an id")
                data_at = tuple(float(t) for t in f.get("data_at", ()))
                if any(t < open_at for t in data_at):
                    raise ScriptError(f"flow {f['id']!r} has data packets before open")
                flows.append(ClientFlow(name, str(f["id"]), float(open_at), data_at))
        elif "rate_per_hour" in raw:
            rate = raw["rate_per_hour"]
            if not isinstance(rate, int) or rate < 0:
                raise ScriptError(f"rate_per_hour must be a non-negative integer, got {rate!r}")
            hour_list = raw.get("hours", list(range(_hours_in_horizon(horizon))))
            n_data = int(raw.get("data_packets", 0))
            for h in hour_list:
                for i in range(rate):
                    open_at = h * SECONDS_PER_HOUR + (i + 1) * SECONDS_PER_HOUR / (rate + 1)
                    data_at = tuple(open_at + 0.25 * (j + 1) for j in range(n_data))
                    flows.append(ClientFlow(name, f"{name}-h{h}-{i}", open_at, data_at))
        else:
            raise ScriptError(f"client {name!r} needs flows or rate_per_hour")

    connects = data.get("switch_connects")
    if connects is None:
        connects = [{"switch": n, "at": 0.0} for n in topology.switch_names]
    for c in connects:
        if c.get("switch") not in topology.switch_names:
            raise ScriptError(f"unknown switch in switch_connects: {c.get('switch')!r}")

    snapshot_times = [float(t) for t in data.get("snapshot_times", [])]
    return topology, config, agents, flows, connects, snapshot_times, float(horizon)


def run_scenario(source, base_dir=None, seed=0):
    """Run one scenario end to end and summarize what the data plane did."""
    topology, config, agents, flows, connects, snapshot_times, horizon = load_scenario(source, base_dir=base_dir)
    sim = Simulation(topology, config, seed=seed)

    # ticks go in first so same-instant ordering is: housekeeping, then
    # snapshots, then scripted traffic
    t = 1.0
    while t < horizon:
        sim.schedule(t, "tick", None)
        t += 1.0
    for t in sorted(snapshot_times):
        sim.schedule(t, "snapshot", None)

    for c in connects:
        sim.schedule(float(c.get("at", 0.0)), "connect", sim.topology.switch_id(c["switch"]))

    dc_by_name = {a.name: a.node for a in topology.datacenters}
    for script in agents:
        node = dc_by_name[script.dc_name]
        sim._agents[node] = {
            "script": script,
            "dc_id": None,
            "passcode": None,
            "period": config.report_period,
        }
        sim.schedule(script.register_at, "agent_register", node)

    client_by_name = {a.name: a.node for a in topology.clients}
    for flow in flows:
        node = client_by_name[flow.client_name]
        sim.schedule(flow.open_at, "flow_open", (node, flow.flow_id))
        for t in flow.data_at:
            sim.schedule(t, "flow_data", (node, flow.flow_id))

    sim.run(horizon)
    return sim.report()
