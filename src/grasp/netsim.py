"""Deterministic discrete-event simulation of the data plane.

Switches hold flow tables with idle timeouts, links are lossless and
zero-latency, and every event runs in (time, insertion order), so a
scenario with the same seed replays byte-identically.  Events wait on one
heap, except those scheduled for the instant being handled (the
zero-latency hops): they join a first-in, first-out queue, which the loop
drains after the heap's entries of that instant.  A flow table is indexed
by (priority, match), so a lookup probes at most four keys per priority,
and it keeps per idle timeout a lower bound on its rules' last hits, so a
lookup scans for expired rules only when one can be due.

The timer ticks only at whole simulated seconds with work: a flow table due
to expire a rule, or an hour boundary.  Each is an entry on the same heap,
armed lazily from the rules' idle timeouts (after Varghese and Lauck's
timing wheels, with OpenFlow idle-timeout semantics), so a quiet network
costs nothing per simulated second.  A tick's entry sorts ahead of every
event of its instant, tables in switch order and then the hour, which is
the order a sweep of every table at every whole second would give.  Over a
year of the 24 h demo's workload it places the same jobs per hour and data
center as fast mode.

Scenario files are JSON: which topology and controller config to use,
when data-center agents register (each backed by an energy profile), and
the client workload as explicit flow-open times or a per-hour rate.
Time 0 is midnight of hour 0, and the horizon is at most one profile year.
An agent reports its energy first one `report_period` after its
registration is acknowledged, so until then the controller scores every
data center 0; a period too small to move the clock past a report's time
is a ScriptError.
"""

import heapq
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .controller import GREEN_ENERGY_PARAM, SERVICE_IP, Controller, Packet, PacketIn, match_text
from .energy import HOURS_PER_YEAR, build_profile, load_profile_csv, parse_nsrdb_csv, synth_profile
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
MAX_HORIZON = HOURS_PER_YEAR * SECONDS_PER_HOUR  # one profile year


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


@dataclass
class FlowRule:
    priority: int
    match_src: object
    match_dst: object
    actions: tuple
    idle_timeout: float  # 0 = permanent
    last_hit: float
    installed: int  # install counter of its table: the earlier install wins a tie


class FlowTable:
    """One switch's rules, keyed by (priority, match_src, match_dst) in
    install order, so a lookup probes at most four keys per priority.

    Expired entries are removed before any lookup, each with an `ev=expire`
    line on `trace`.  `oldest` holds, per idle timeout, a lower bound on
    its rules' last hit: installs and hits lower it where they are earlier,
    and every scan makes it exact.  Since `now - last_hit` falls as
    last_hit grows, `expire` scans only when a bound is due, which is exact
    for calls at any times in any order.  The table is plain data: it holds
    no reference to a simulation, which arms its expiry ticks."""

    def __init__(self, switch=None, trace=None):
        self.switch = switch
        self.trace = trace if trace is not None else []
        self.rules = {}
        self.priorities = ()  # every priority ever installed, highest first
        self.oldest = {}  # idle timeout -> lower bound on its rules' last_hit
        self._installs = itertools.count()

    def install(self, mod, now):
        """Install a rule from a FlowMod; same (priority, match) replaces,
        and the new rule counts as installed last."""
        key = (mod.priority, mod.match_src, mod.match_dst)
        self.rules.pop(key, None)
        self.rules[key] = FlowRule(
            mod.priority, mod.match_src, mod.match_dst, mod.actions, mod.idle_timeout, now, next(self._installs)
        )
        if mod.priority not in self.priorities:
            self.priorities = tuple(sorted((*self.priorities, mod.priority), reverse=True))
        timeout = mod.idle_timeout
        if timeout > 0 and now < self.oldest.get(timeout, math.inf):
            self.oldest[timeout] = now

    def expire(self, now):
        """Drop every rule idle for at least its timeout; returns them."""
        for timeout, last_hit in self.oldest.items():
            if now - last_hit >= timeout:
                break
        else:
            return []
        dead, oldest = [], {}
        for r in self.rules.values():
            timeout = r.idle_timeout
            if timeout > 0:
                if now - r.last_hit >= timeout:
                    dead.append(r)
                elif r.last_hit < oldest.get(timeout, math.inf):
                    oldest[timeout] = r.last_hit
        self.oldest = oldest
        for rule in dead:
            del self.rules[rule.priority, rule.match_src, rule.match_dst]
            self.trace.append(
                "t=%.3f ev=expire sw=%s match=%s" % (now, self.switch, match_text(rule.match_src, rule.match_dst))
            )
        return dead

    def lookup(self, packet, now):
        """Best live match: highest priority, earliest installed on ties."""
        self.expire(now)
        rules, src, dst = self.rules, packet.ip_src, packet.ip_dst
        for p in self.priorities:
            best = None
            for key in ((p, src, dst), (p, src, None), (p, None, dst), (p, None, None)):
                rule = rules.get(key)
                if rule is not None and (best is None or rule.installed < best.installed):
                    best = rule
            if best is not None:
                best.last_hit = now
                timeout = best.idle_timeout
                if timeout > 0 and now < self.oldest[timeout]:  # a hit earlier than the bound
                    self.oldest[timeout] = now
                return best
        return None

    def dump(self):
        lines = [
            "prio=%d match=%s idle=%g last_hit=%.3f"
            % (r.priority, match_text(r.match_src, r.match_dst), r.idle_timeout, r.last_hit)
            for r in self.rules.values()
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
        # by switch index, so the per-packet path hashes no NodeId
        switches = [NodeId(SWITCH, i) for i in range(len(topology.switch_names))]
        self.tables = [FlowTable(sw, self.trace) for sw in switches]
        self._ports = [topology.ports(sw) for sw in switches]
        self._hosts = {  # host NodeId -> (mac, ip, switch, port) of its access link
            att.node: (topology.addresses[att.node].mac, topology.addresses[att.node].ip, att.switch, att.port)
            for att in topology.datacenters + topology.clients
        }
        self._armed = [math.inf] * len(switches)  # each table's pending expiry tick
        self._heap = []  # (time, insertion order, kind, payload)
        self._order = itertools.count()
        self._now = None  # the instant `run` is handling
        self._fifo = deque()  # (kind, payload) scheduled at `_now`, in order
        self._agents = {}  # dc NodeId -> agent runtime state
        self.deliveries = []
        self.client_rx = {a.name: [] for a in topology.clients}
        self.snapshots = {}
        self.horizon = 0.0

    def schedule(self, time, kind, payload=None):
        """Queue an event.  One at the instant being handled (a zero-latency
        hop) joins the same-instant FIFO; the rest go on the heap."""
        if time == self._now:
            self._fifo.append((kind, payload))
        else:
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
            "expire": self._expire,
            "hour": self._hour,
        }

    # -- event handlers ----------------------------------------------------

    def _connect(self, now, switch):
        ports = sorted(self._ports[switch.index])
        mac = self.topology.addresses[switch].mac
        resp = self.controller.on_switch_connect(switch, ports, mac, now=now)
        self._apply(resp, now)

    def _apply(self, resp, now):
        ticks = {}  # idle timeout -> deadline of a rule installed `now`, shared by the response's mods
        for mod in resp.flow_mods:
            i = mod.switch.index
            self.tables[i].install(mod, now)
            if mod.idle_timeout > 0:
                tick = ticks.get(mod.idle_timeout)
                if tick is None:
                    tick = ticks[mod.idle_timeout] = idle_deadline(now, mod.idle_timeout, self.horizon)
                self._arm(i, tick)
        for out in resp.packets:
            peer = self._ports[out.switch.index].get(out.port)
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
        mac, ip, switch, port = self._hosts[node]
        self.schedule(now, "deliver", (switch, port, Packet(kind, mac, eth_dst, ip, ip_dst, payload)))

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
        rule = self.tables[switch.index].lookup(packet, now)
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
                packet = Packet(packet.kind, packet.eth_src, action[1], packet.ip_src, packet.ip_dst, packet.payload)
            elif action[0] == "set_ip_dst":
                packet = Packet(packet.kind, packet.eth_src, packet.eth_dst, packet.ip_src, action[1], packet.payload)
            elif action[0] == "output":
                peer = self._ports[switch.index].get(action[1])
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
            self._schedule_report(now, node, agent["period"])
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
        energy = float(agent["script"].profile.wh[hour])
        self._emit_from_host(now, node, "report", {"passcode": agent["passcode"], GREEN_ENERGY_PARAM: energy})
        self._schedule_report(now, node, agent["period"])

    def _schedule_report(self, now, node, period):
        next_report = now + period
        if next_report <= now:  # a period this small would report at `now` forever
            raise ScriptError(f"report_period {period!r} does not move the clock past t={now!r}")
        if next_report < self.horizon:
            self.schedule(next_report, "agent_report", node)

    # -- ticks ---------------------------------------------------------------

    def _arm(self, i, tick):
        """Make table `i` expire at `tick` unless it is armed earlier.  The
        entry's negative order puts it ahead of its instant's events, in
        switch order; an entry whose tick is no longer `_armed[i]` is stale.
        Installs arm; a lookup hit only moves a deadline later, so it does not."""
        if tick < self._armed[i]:
            self._armed[i] = tick
            heapq.heappush(self._heap, (tick, i - len(self.tables) - 1, "expire", i))

    def _rearm(self, i):
        """Arm table `i` afresh from its rules.  The deadline grows with
        last_hit, so each timeout's oldest last hit is all that counts."""
        self._armed[i] = math.inf
        for timeout, last_hit in self.tables[i].oldest.items():
            self._arm(i, idle_deadline(last_hit, timeout, self.horizon))

    def _expire(self, now, i):
        if self._armed[i] == now:
            self.tables[i].expire(now)
            self._rearm(i)

    def _hour(self, now, _=None):
        """End the hour; its entry sorts after the tables' and before the
        instant's events."""
        self.controller.on_hour(int(now // SECONDS_PER_HOUR), now=now)
        self._push_hour(now + SECONDS_PER_HOUR)

    def _push_hour(self, boundary):
        if boundary < self.horizon:
            heapq.heappush(self._heap, (boundary, -1, "hour", None))

    def _snapshot(self, now, _=None):
        lines = []
        for table in self.tables:
            for line in table.dump():
                lines.append("sw=%s %s" % (table.switch, line))
        self.snapshots[now] = "\n".join(lines)

    # -- main loop -----------------------------------------------------------

    def run(self, horizon):
        """Handle every event before `horizon` in (time, schedule order),
        with a tick at each whole second in (0, horizon) where a table is
        due or an hour ends; a tick runs before any event of its instant.

        Ticks are heap entries too, so the heap alone orders time.  Events
        of the instant being handled drain the heap's entries first, then
        the FIFO: every heap entry of that instant was scheduled before the
        instant began, and every FIFO entry after.  No tick falls due
        meanwhile, since an install at `now` arms a deadline after `now`.
        Nothing is scheduled before the instant being handled."""
        self.horizon = float(horizon)
        for i in range(len(self.tables)):  # rules installed before the run
            self._rearm(i)
        self._push_hour(SECONDS_PER_HOUR)
        heap, fifo, handlers = self._heap, self._fifo, self._handlers()
        now = None
        while True:
            if fifo and not (heap and heap[0][0] <= now):
                kind, payload = fifo.popleft()
            elif heap and heap[0][0] < self.horizon:
                now, _, kind, payload = heapq.heappop(heap)
                self._now = now
            else:
                break
            handlers[kind](now, payload)
        self._now = None

    def report(self):
        dc_ids = np.array([dc_id for _, dc_id, _ in self.deliveries], dtype=np.int64)
        return SimReport(
            per_dc_jobs=np.bincount(dc_ids, minlength=len(self.controller.dcs)),
            dc_names=[rec.name for rec in self.controller.dcs],
            deliveries=self.deliveries,
            packet_in_count=self.controller.packet_in_count,
            auth_failures=self.controller.auth_failures,
            trace=self.trace,
            snapshots=self.snapshots,
            client_rx=self.client_rx,
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
    if not 0 < horizon <= MAX_HORIZON:
        raise ScriptError(f"horizon must be positive and at most one profile year ({MAX_HORIZON:g} s), got {horizon!r}")

    dc_names = {a.name for a in topology.datacenters}
    agents = []
    for raw in _list(data.get("agents", []), "agents"):
        name = _object(raw, "agent").get("dc")
        if not isinstance(name, str) or name not in dc_names:
            raise ScriptError(f"agent references unknown data center {name!r}")
        if any(a.dc_name == name for a in agents):
            raise ScriptError(f"data center {name!r} has two agents")
        respond = raw.get("respond", False)
        if not isinstance(respond, bool):
            raise ScriptError(f"respond for {name!r} must be true or false, got {respond!r}")
        agents.append(
            AgentScript(
                dc_name=name,
                register_at=_seconds(raw.get("register_at", 0.5), f"register_at for {name!r}", minimum=0.0),
                profile=_resolve_profile(raw.get("profile", {"shape": "zero"}), base_dir, config),
                respond=respond,
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
