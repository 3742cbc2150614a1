"""Deterministic discrete-event simulation of the data plane.

Switches hold flow tables with idle timeouts, links are lossless and
zero-latency, and every behavior is driven off one event heap ordered by
(time, insertion sequence), so a scenario with the same seed replays
byte-identically.  The run loop itself fires the timer tick, but only at
whole simulated seconds with work: a flow table due to expire a rule, or an
hour boundary.  The tables share one heap of (tick, switch index) idle
deadlines (lazy deadlines, after Varghese and Lauck's timing wheels, with
OpenFlow idle-timeout semantics), so a quiet network costs nothing per
simulated second.  Before the loop handles an event at time t it runs
every due tick at or before t, in the order a sweep of every table at
every whole second would.  Over a year of the 24 h demo's workload it
places the same jobs per hour and data center as fast mode.

Scenario files are JSON: which topology and controller config to use,
when data-center agents register (each backed by an energy profile), and
the client workload as explicit flow-open times or a per-hour rate.
Time 0 is midnight of hour 0.  An agent reports its energy first one
`report_period` after its registration is acknowledged, so until then the
controller scores every data center 0.
"""

import heapq
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .controller import SERVICE_IP, Controller, Packet, PacketIn, match_text
from .energy import build_profile, load_profile_csv, parse_nsrdb_csv, synth_profile
from .errors import ScriptError, ValidationError
from .model import (
    DATACENTER,
    SWITCH,
    NodeId,
    config_from_dict,
    finite_number,
    load_config,
    load_topology,
    read_json,
    topology_from_dict,
)

SECONDS_PER_HOUR = 3600.0
LAST_TICK = 2**53  # past here whole seconds are no longer exact floats


def idle_deadline(last_hit, timeout, horizon):
    """The first whole second t >= 1 below `horizon` at which
    `FlowTable.expire` drops a rule last hit at `last_hit`, or inf.

    The test is expire's own float expression, `t - last_hit >= timeout`,
    which rounding keeps monotone in t, so a bisection finds the first
    second where it holds; a probe at ceil(last_hit + timeout) and the
    second beside it settles almost every call before the bisection runs.
    """
    lo, hi = 0, math.ceil(min(horizon, LAST_TICK))  # never due at lo; hi is no tick
    end = hi
    guess = last_hit + timeout
    if lo < guess < hi:
        t = math.ceil(guess)
        if t - last_hit >= timeout:
            hi, probe = t, t - 1
        else:
            lo, probe = t, t + 1
        if lo < probe < hi:
            if probe - last_hit >= timeout:
                hi = probe
            else:
                lo = probe
    while hi - lo > 1:
        t = (lo + hi) // 2
        if t - last_hit >= timeout:
            hi = t
        else:
            lo = t
    return float(hi) if hi < end else math.inf


class Deadlines:
    """The (tick, switch index) heap a simulation's flow tables share.

    A table's `armed` tick is no later than the idle deadline of any of its
    rules and has an entry here; entries whose tick is no longer their
    table's `armed` are stale and skipped.  Ticks at or past the horizon
    are never pushed.
    """

    def __init__(self):
        self.heap = []
        self.horizon = 0.0

    def arm(self, table, tick):
        if tick < table.armed:
            table.armed = tick
            heapq.heappush(self.heap, (tick, table.switch.index))

    def rearm(self, table):
        """Arm `table` afresh from its rules, after it expired at `armed`."""
        table.armed = math.inf
        # the deadline grows with last_hit, so only each timeout's least recent rule counts
        oldest = {}
        for r in table.rules:
            if r.idle_timeout > 0 and r.last_hit < oldest.get(r.idle_timeout, math.inf):
                oldest[r.idle_timeout] = r.last_hit
        for timeout, last_hit in oldest.items():
            self.arm(table, idle_deadline(last_hit, timeout, self.horizon))


@dataclass
class FlowRule:
    priority: int
    match_src: object
    match_dst: object
    actions: tuple
    idle_timeout: float  # 0 = permanent
    last_hit: float

    def matches(self, packet):
        if self.match_src is not None and self.match_src != packet.ip_src:
            return False
        if self.match_dst is not None and self.match_dst != packet.ip_dst:
            return False
        return True


class FlowTable:
    """One switch's rules.  Expired entries are removed before any lookup,
    each with an `ev=expire` line on `trace`.  In a simulation, installs
    also arm the table on the shared `deadlines`; a lookup hit arms
    nothing, since it only moves a deadline later."""

    def __init__(self, switch=None, trace=None, deadlines=None):
        self.switch = switch
        self.trace = trace if trace is not None else []
        self.rules = []
        self.deadlines = deadlines
        self.armed = math.inf

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
            )
        )
        if mod.idle_timeout > 0 and self.deadlines is not None:
            self.deadlines.arm(self, idle_deadline(now, mod.idle_timeout, self.deadlines.horizon))

    def expire(self, now):
        """Drop every rule idle for at least its timeout; returns them."""
        dead = [r for r in self.rules if r.idle_timeout > 0 and now - r.last_hit >= r.idle_timeout]
        if dead:
            self.rules = [r for r in self.rules if not (r.idle_timeout > 0 and now - r.last_hit >= r.idle_timeout)]
            for rule in dead:
                self.trace.append(
                    "t=%.3f ev=expire sw=%s match=%s" % (now, self.switch, match_text(rule.match_src, rule.match_dst))
                )
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
    deliveries: list  # (flow_id, dc_id, time) in delivery order
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
        self._deadlines = Deadlines()
        for i in range(len(topology.switch_names)):
            sw = NodeId(SWITCH, i)
            self.tables[sw] = FlowTable(sw, self.trace, self._deadlines)
            self.ports[sw] = topology.ports(sw)
        self._by_index = list(self.tables.values())
        self._heap = []  # (time, insertion order, kind, payload)
        self._order = itertools.count()
        self._agents = {}  # dc NodeId -> agent runtime state
        self.deliveries = []
        self.client_rx = {a.name: [] for a in topology.clients}
        self.snapshots = {}
        self.horizon = 0.0

    def schedule(self, time, kind, payload=None):
        heapq.heappush(self._heap, (time, next(self._order), kind, payload))

    def _handlers(self):
        """Event kind -> handler.  Built for each run and not kept, so no
        reference cycle holds a finished simulation until the collector runs."""
        return {
            "deliver": self._deliver,
            "connect": self._connect,
            "agent_register": self._agent_register,
            "agent_report": self._agent_report,
            "flow_open": lambda now, flow: self._emit_from_host(
                now, flow[0], "request", {"flow_id": flow[1]}, ip_dst=SERVICE_IP
            ),
            "flow_data": lambda now, flow: self._emit_from_host(
                now, flow[0], "data", {"flow_id": flow[1]}, ip_dst=SERVICE_IP
            ),
            "snapshot": self._snapshot,
        }

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

    def _emit_from_host(self, now, node, kind, payload, eth_dst=0, ip_dst=0):
        """A host puts a packet from its own address on its access link; it
        arrives at the switch."""
        addr = self.topology.addresses[node]
        packet = Packet(kind=kind, eth_src=addr.mac, eth_dst=eth_dst, ip_src=addr.ip, ip_dst=ip_dst, payload=payload)
        att = self._attachment(node)
        self.schedule(now, "deliver", (att.switch, att.port, packet))

    def _attachment(self, node):
        group = self.topology.datacenters if node.kind == DATACENTER else self.topology.clients
        return group[node.index]

    def _deliver(self, now, arrival):
        node, in_port, packet = arrival
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
        if agent is None:
            return
        if packet.kind == "register_ack":
            agent["dc_id"] = packet.payload["dc_id"]
            agent["passcode"] = packet.payload["passcode"]
            agent["period"] = float(packet.payload["report_period"])
            next_report = now + agent["period"]
            if next_report < self.horizon:
                self.schedule(next_report, "agent_report", node)
        elif packet.kind == "request":
            dc_id = agent["dc_id"]
            flow_id = str(packet.payload.get("flow_id", ""))
            self.deliveries.append((flow_id, dc_id, now))
            self.trace.append("t=%.3f ev=deliver flow=%s dc=d%d" % (now, flow_id, dc_id))
            if agent["script"].respond:
                self._emit_from_host(
                    now, node, "response", {"flow_id": flow_id}, eth_dst=packet.eth_src, ip_dst=packet.ip_src
                )
        # anything else a data center receives is ignored

    def _agent_register(self, now, node):
        self._emit_from_host(now, node, "register", {"name": self._agents[node]["script"].dc_name})

    def _agent_report(self, now, node):
        agent = self._agents[node]
        if agent["dc_id"] is None:
            return
        hour = int(now // SECONDS_PER_HOUR) % len(agent["script"].profile.wh)
        values = {"green_energy_wh": float(agent["script"].profile.wh[hour])}
        self._emit_from_host(now, node, "report", {"passcode": agent["passcode"], "values": values})
        next_report = now + agent["period"]
        if next_report < self.horizon:
            self.schedule(next_report, "agent_report", node)

    def _tick(self, now):
        """Expire the tables due at `now`, in switch order, then end the hour
        if `now` is a boundary."""
        heap = self._deadlines.heap
        while heap and heap[0][0] == now:
            table = self._by_index[heapq.heappop(heap)[1]]
            if table.armed == now:
                table.expire(now)
                self._deadlines.rearm(table)
        if now % SECONDS_PER_HOUR == 0:
            self.controller.on_hour(int(now // SECONDS_PER_HOUR), now=now)

    def _snapshot(self, now, _=None):
        lines = []
        for sw, table in self.tables.items():
            for line in table.dump():
                lines.append("sw=%s %s" % (sw, line))
        self.snapshots[now] = "\n".join(lines)

    # -- main loop -----------------------------------------------------------

    def run(self, horizon):
        """Handle every event before `horizon`, with a tick at each whole
        second in (0, horizon) where a table is due or an hour ends; a tick
        runs before any event of its instant.  The next due tick is found
        again after every event, since an event may arm an earlier one."""
        self.horizon = float(horizon)
        deadlines = self._deadlines
        deadlines.horizon = self.horizon
        tables = self._by_index
        for table in tables:  # rules installed before the run
            deadlines.rearm(table)
        due, events, handlers = deadlines.heap, self._heap, self._handlers()
        hour = SECONDS_PER_HOUR
        while True:
            while due and tables[due[0][1]].armed != due[0][0]:
                heapq.heappop(due)
            tick = min(due[0][0], hour) if due else hour
            if tick < self.horizon and not (events and events[0][0] < tick):
                self._tick(tick)
                if tick == hour:
                    hour += SECONDS_PER_HOUR
            elif events and events[0][0] < self.horizon:
                now, _, kind, payload = heapq.heappop(events)
                handlers[kind](now, payload)
            else:
                break

    def report(self):
        dc_ids = np.array([dc_id for _, dc_id, _ in self.deliveries], dtype=np.int64)
        return SimReport(
            per_dc_jobs=np.bincount(dc_ids, minlength=len(self.controller.dcs)),
            dc_names=[rec.name for rec in self.controller.dcs],
            deliveries=list(self.deliveries),
            packet_in_count=self.controller.packet_in_count,
            auth_failures=self.controller.auth_failures,
            trace=list(self.trace),
            snapshots=dict(self.snapshots),
            client_rx={k: list(v) for k, v in self.client_rx.items()},
            controller=self.controller,
        )


def _seconds(value, what, minimum=-math.inf):
    """A scenario time: a finite number of seconds (not a bool), >= minimum."""
    if finite_number(value) and value >= minimum:
        return float(value)
    raise ScriptError(f"bad {what}: {value!r}")


def _count(value, what):
    """A non-negative int, not a bool, below 2**53 so it stays exact as float seconds."""
    if isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**53:
        return value
    raise ScriptError(f"{what} must be a non-negative integer, got {value!r}")


def _list(value, what):
    if not isinstance(value, (list, tuple)):
        raise ScriptError(f"{what} must be a list, got {value!r}")
    return value


def _object(value, what):
    if not isinstance(value, dict):
        raise ScriptError(f"{what} must be an object, got {value!r}")
    return value


def _path(base_dir, value, what):
    if not isinstance(value, str) or not value or "\0" in value:
        raise ScriptError(f"{what} must be a file path, got {value!r}")
    return os.path.join(base_dir, value)


def _resolve_profile(spec, base_dir, config):
    _object(spec, "agent profile")
    if "weather_csv" in spec:
        path = _path(base_dir, spec["weather_csv"], "weather_csv")
        weather = parse_nsrdb_csv(path, temp_column=config.nsrdb_temp_column, ghi_column=config.nsrdb_ghi_column)
        return build_profile(weather, panel=config.panel, site=os.path.basename(path))
    if "profile_csv" in spec:
        path = _path(base_dir, spec["profile_csv"], "profile_csv")
        return load_profile_csv(path, site=os.path.basename(path))
    if "shape" in spec:
        try:
            return synth_profile(spec["shape"], spec.get("peak_wh", 0.0))
        except ValidationError as exc:
            raise ScriptError(f"agent profile {spec!r}: {exc}") from None
    raise ScriptError(f"agent profile needs weather_csv, profile_csv or shape: {spec!r}")


def load_scenario(source, base_dir=None):
    """Parse a scenario file (or dict) into topology, config and scripts.

    Lists and objects must be lists and objects, times finite numbers of
    seconds and counts non-negative integers; anything else raises
    ScriptError (ParseError/ValidationError inside topology and config).
    """
    if isinstance(source, (str, os.PathLike)):
        base_dir = os.path.dirname(os.path.abspath(source))
        data = read_json(source)
    else:
        data = source
        base_dir = base_dir or "."
    _object(data, "scenario")

    topo_spec = data.get("topology")
    if isinstance(topo_spec, str):
        topology = load_topology(_path(base_dir, topo_spec, "topology"))
    elif isinstance(topo_spec, dict):
        topology = topology_from_dict(topo_spec)
    else:
        raise ScriptError("scenario needs a topology (path or object)")

    config_spec = data.get("config", {})
    if isinstance(config_spec, str):
        config = load_config(_path(base_dir, config_spec, "config"))
    elif isinstance(config_spec, dict):
        config = config_from_dict(config_spec)
    else:
        raise ScriptError("config must be a path or object")

    horizon = _seconds(data.get("horizon", SECONDS_PER_HOUR), "horizon")
    if horizon <= 0:
        raise ScriptError(f"horizon must be a positive number, got {horizon!r}")

    dc_names = {a.name for a in topology.datacenters}
    agents = []
    for raw in _list(data.get("agents", []), "agents"):
        name = _object(raw, "agent").get("dc")
        if not isinstance(name, str) or name not in dc_names:
            raise ScriptError(f"agent references unknown data center {name!r}")
        agents.append(
            AgentScript(
                dc_name=name,
                register_at=_seconds(raw.get("register_at", 0.5), f"register_at for {name!r}", minimum=0.0),
                profile=_resolve_profile(raw.get("profile", {"shape": "zero"}), base_dir, config),
                respond=bool(raw.get("respond", False)),
            )
        )

    client_names = {a.name for a in topology.clients}
    flows = []
    for raw in _list(data.get("clients", []), "clients"):
        name = _object(raw, "client workload").get("client")
        if not isinstance(name, str) or name not in client_names:
            raise ScriptError(f"workload references unknown client {name!r}")
        if "flows" in raw:
            for f in _list(raw["flows"], f"flows of {name!r}"):
                open_at = _seconds(_object(f, f"flow of {name!r}").get("open_at"), f"open_at in flow for {name!r}", 0.0)
                if "id" not in f:
                    raise ScriptError(f"explicit flow for {name!r} needs an id")
                data_at = tuple(
                    _seconds(t, f"data_at of flow {f['id']!r} (not before open)", minimum=open_at)
                    for t in _list(f.get("data_at", []), f"data_at of flow {f['id']!r}")
                )
                flows.append(ClientFlow(name, str(f["id"]), open_at, data_at))
        elif "rate_per_hour" in raw:
            rate = _count(raw["rate_per_hour"], "rate_per_hour")
            hour_list = _list(raw.get("hours", list(range(int(horizon // SECONDS_PER_HOUR)))), "hours")
            n_data = _count(raw.get("data_packets", 0), "data_packets")
            for h in hour_list:
                _count(h, "hours entry")
                # flows and data packets at or past the horizon would never run
                for i in range(rate):
                    open_at = h * SECONDS_PER_HOUR + (i + 1) * SECONDS_PER_HOUR / (rate + 1)
                    if open_at >= horizon:
                        break
                    data_at = (open_at + 0.25 * (j + 1) for j in range(n_data))
                    data_at = tuple(itertools.takewhile(lambda t: t < horizon, data_at))
                    flows.append(ClientFlow(name, f"{name}-h{h}-{i}", open_at, data_at))
        else:
            raise ScriptError(f"client {name!r} needs flows or rate_per_hour")

    connects = []
    raw_connects = data.get("switch_connects")
    if raw_connects is None:
        raw_connects = [{"switch": n} for n in topology.switch_names]
    for c in _list(raw_connects, "switch_connects"):
        switch = _object(c, "switch_connects entry").get("switch")
        if switch not in topology.switch_names:
            raise ScriptError(f"unknown switch in switch_connects: {switch!r}")
        connects.append({"switch": switch, "at": _seconds(c.get("at", 0.0), f"connect time of {switch!r}")})

    snapshot_times = [_seconds(t, "snapshot time") for t in _list(data.get("snapshot_times", []), "snapshot_times")]
    return topology, config, agents, flows, connects, snapshot_times, horizon


def run_scenario(source, base_dir=None, seed=0):
    """Run one scenario end to end and summarize what the data plane did."""
    topology, config, agents, flows, connects, snapshot_times, horizon = load_scenario(source, base_dir=base_dir)
    sim = Simulation(topology, config, seed=seed)

    # same-instant ordering after the tick: snapshots, then scripted traffic
    for t in sorted(snapshot_times):
        sim.schedule(t, "snapshot", None)

    for c in connects:
        sim.schedule(c["at"], "connect", sim.topology.switch_id(c["switch"]))

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
