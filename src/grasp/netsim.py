"""Deterministic discrete-event simulation of the data plane.

Switches hold flow tables with idle timeouts, links are lossless and
zero-latency, and every event runs in (time, insertion order), so a
scenario with the same seed replays byte-identically.  Events wait on one
heap, except those scheduled for the instant being handled (the
zero-latency hops): they join a first-in, first-out queue, which the loop
drains after the heap's entries of that instant.  A flow table is indexed
by (priority, match), so a lookup probes one key per match shape (which
of src and dst a rule matches on) ever installed at a priority, at most
four, and it keeps per idle timeout a lower bound on its rules' last
hits, so a lookup scans for expired rules only when one can be due.  A
rule's actions are read once, at install, into its output port and the
headers it rewrites, so forwarding a packet walks no action list.

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
the client workload as explicit flow-open times or a per-hour rate.  A
scenario loads into the events it starts with, every name in them already
resolved to its node, and running it schedules those events as they are.
Simulated time starts at midnight of hour 0, only runs forward, and never
passes one profile year, the longest horizon: `idle_deadline` relies on it.
An agent reports its energy first one `report_period` after its
registration is acknowledged, so until then the controller scores every
data center 0.  A scenario asks for at most MAX_EVENTS flows, data
packets and reports, each entry counted as it is read, before its events
are built, so a period too small to move the clock past a report's time is
a ValidationError of `report_period` at load, and still at run time in a
Simulation built by hand.
"""

import heapq
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controller import GREEN_ENERGY_PARAM, TABLE, Controller, Packet, PacketIn, match_text
from .energy import HOURS_PER_YEAR, build_profile, load_profile_csv, parse_nsrdb_csv, synth_profile
from .errors import ValidationError
from .model import (
    DATACENTER,
    SERVICE_IP,
    SWITCH,
    ControllerConfig,
    NodeId,
    Topology,
    _count,
    _keys,
    _list,
    _name,
    _number,
    _object,
    config_from_dict,
    load_config,
    load_topology,
    read_json,
    topology_from_dict,
)

SECONDS_PER_HOUR = 3600.0
MAX_HORIZON = HOURS_PER_YEAR * SECONDS_PER_HOUR  # one profile year
SCENARIO_KEYS = {"topology", "config", "horizon", "agents", "clients", "switch_connects", "snapshot_times"}
# the most flows, data packets and energy reports one scenario may ask for:
# a year of the 24 h demo with its 60 s reports is about 4.8 million
MAX_EVENTS = 5_000_000


def idle_deadline(last_hit, timeout, horizon):
    """The first whole second t >= 1 below `horizon` at which
    `FlowTable.expire`'s own test, `t - last_hit >= timeout`, holds, or inf.

    For 0 <= last_hit < horizon <= MAX_HORIZON (below 2**25), every value
    that can fall due is below 2**26, so each float error is under 2**-26
    and the first due second is ceil(last_hit + timeout) or one beside it.
    """
    t = max(1, math.ceil(last_hit + timeout) - 1)
    t += t - last_hit < timeout
    t += t - last_hit < timeout
    return float(t) if t < horizon else math.inf


@dataclass
class FlowRule:
    priority: int
    match_src: object
    match_dst: object
    actions: tuple
    idle_timeout: float  # 0 = permanent
    last_hit: float
    installed: int  # install counter of its table: the earlier install wins a tie
    # the actions, read once at install: the last one's output port, None
    # if it punts to the controller, and the set_* actions before it
    port: object
    sets: dict  # set_eth_dst / set_ip_dst -> value, or None for no rewrite


class FlowTable:
    """One switch's rules, keyed by (priority, match_src, match_dst) in
    install order.  `priorities` pairs every priority ever installed with
    the match shapes ever installed at it, (src matched, dst matched), so a
    lookup probes one key per shape: three for an agent's report on a
    switch with a client's forward and reverse rules, not eight.

    Expired entries are removed before any lookup, each with an `ev=expire`
    line to `emit`, if any.  `oldest` holds, per idle timeout, a lower bound
    on its rules' last hit, set by the first install and made exact by each
    scan: calls come at non-decreasing `now`, so no later install or hit
    falls below it, and `expire` scans only when a bound is due.  The table
    holds no reference to a simulation, which arms its expiry ticks."""

    def __init__(self, switch=None, emit=None):
        self.switch = switch
        self.emit = emit
        self.rules = {}
        self.shapes = {}  # priority -> match shapes ever installed at it
        self.priorities = ()  # (priority, its shapes), highest priority first
        self.oldest = {}  # idle timeout -> lower bound on its rules' last_hit
        self._installs = itertools.count()

    def install(self, mod, now):
        """Install a rule from a FlowMod; same (priority, match) replaces,
        and the new rule counts as installed last."""
        key = (mod.priority, mod.match_src, mod.match_dst)
        self.rules.pop(key, None)
        actions = mod.actions
        port = actions[-1][1] if actions[-1][0] == "output" else None
        sets = dict(actions[:-1]) if len(actions) > 1 else None
        self.rules[key] = FlowRule(
            mod.priority, mod.match_src, mod.match_dst, actions, mod.idle_timeout, now, next(self._installs), port, sets
        )
        shape = (mod.match_src is not None, mod.match_dst is not None)
        shapes = self.shapes.get(mod.priority, ())
        if shape not in shapes:
            self.shapes[mod.priority] = (*shapes, shape)
            self.priorities = tuple(sorted(self.shapes.items(), reverse=True))
        if mod.idle_timeout > 0:
            self.oldest.setdefault(mod.idle_timeout, now)

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
        emit = self.emit
        for rule in dead:
            del self.rules[rule.priority, rule.match_src, rule.match_dst]
            if emit is not None:
                emit("t=%.3f ev=expire sw=%s match=%s" % (now, self.switch, match_text(rule.match_src, rule.match_dst)))
        return dead

    def lookup(self, packet, now):
        """Best live match: highest priority, earliest installed on ties."""
        self.expire(now)
        rules, src, dst = self.rules, packet.ip_src, packet.ip_dst
        for p, shapes in self.priorities:
            best = None
            for on_src, on_dst in shapes:
                rule = rules.get((p, src if on_src else None, dst if on_dst else None))
                if rule is not None and (best is None or rule.installed < best.installed):
                    best = rule
            if best is not None:
                best.last_hit = now
                return best
        return None

    def dump(self):
        lines = [
            "prio=%d match=%s idle=%g last_hit=%.3f"
            % (r.priority, match_text(r.match_src, r.match_dst), r.idle_timeout, r.last_hit)
            for r in self.rules.values()
        ]
        return sorted(lines)


class AgentScript(NamedTuple):
    """One data center's agent: the energy it reports, and whether it
    answers each request it receives."""

    node: NodeId
    profile: object
    respond: bool


class Scenario(NamedTuple):
    """A loaded scenario: `events` are the `(time, kind, payload)` entries
    it starts with, in the order they are scheduled."""

    topology: Topology
    config: ControllerConfig
    horizon: float
    events: list


@dataclass
class SimReport:
    per_dc_jobs: np.ndarray  # request deliveries by dc_id
    dc_names: list
    deliveries: list  # (flow_id, dc_id, time) in delivery order
    packet_in_count: int
    auth_failures: int
    controller: Controller


class Simulation:
    def __init__(self, topology, config, seed=0, emit=None):
        self.topology = topology
        self.emit = emit  # takes each trace line as it happens; None formats no line
        self.controller = Controller(config, seed=seed, emit=emit)
        # by switch index, so the per-packet path hashes no NodeId
        self.tables = [FlowTable(NodeId(SWITCH, i), emit) for i in range(len(topology.ports))]
        self._ports = topology.ports
        self._hosts = {  # host NodeId -> (mac, ip, switch, port) of its access link
            att.node: (topology.addresses[att.node].mac, topology.addresses[att.node].ip, att.switch, att.port)
            for att in topology.datacenters + topology.clients
        }
        self._armed = [math.inf] * len(self.tables)  # each table's pending expiry tick
        self._heap = []  # (time, insertion order, kind, payload)
        self._order = itertools.count()
        self._now = None  # the instant `run` is handling
        self._fifo = deque()  # (kind, payload) scheduled at `_now`, in order
        self._agents = {}  # dc NodeId -> agent runtime state
        self.deliveries = []
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
        mac = self.topology.addresses[switch].mac
        resp = self.controller.on_switch_connect(switch, self._ports[switch.index], mac, now=now)
        self._apply(resp, now)

    def _apply(self, resp, now):
        if not (resp.flow_mods or resp.packets):  # an accepted report, say, or a drop
            return
        for mod in resp.flow_mods:
            i = mod.switch.index
            self.tables[i].install(mod, now)
            if mod.idle_timeout > 0:
                self._arm(i, idle_deadline(now, mod.idle_timeout, self.horizon))
        for out in resp.packets:
            if out.port is TABLE:
                self._switch_rx(now, out.switch, None, out.packet)
            else:
                self.schedule(now, "deliver", (*self._ports[out.switch.index][out.port], out.packet))

    def _emit_from_host(self, now, node, kind, payload, eth_dst=0, ip_dst=0):
        """A host puts a packet from its own address on its access link; it
        arrives at the switch."""
        mac, ip, switch, port = self._hosts[node]
        self.schedule(now, "deliver", (switch, port, Packet(kind, mac, eth_dst, ip, ip_dst, payload)))

    def _deliver(self, now, arrival):
        node, in_port, packet = arrival
        if node.kind == SWITCH:
            self._switch_rx(now, node, in_port, packet)
        elif node.kind == DATACENTER:
            self._dc_rx(now, node, packet)
        # a client acts on nothing it receives

    def _switch_rx(self, now, switch, in_port, packet):
        rule = self.tables[switch.index].lookup(packet, now)
        if rule is None:
            # not connected yet: no table-miss rule, so the packet dies here
            if self.emit is not None:
                self.emit("t=%.3f ev=drop reason=no_rule sw=%s" % (now, switch))
            return
        port = rule.port
        if port is None:
            pkt_in = PacketIn(switch=switch, port=in_port, packet=packet)
            resp = self.controller.on_packet_in(pkt_in, now)
            self._apply(resp, now)
            return
        sets = rule.sets
        if sets is not None:  # a first hop's rewrite
            packet = Packet(packet.kind, packet.eth_src, sets.get("set_eth_dst", packet.eth_dst),
                            packet.ip_src, sets.get("set_ip_dst", packet.ip_dst), packet.payload)
        # the controller names only ports this simulation gave it (here and in
        # `_apply`), so a hand-built FlowMod naming another raises KeyError
        self.schedule(now, "deliver", (*self._ports[switch.index][port], packet))

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
            if self.emit is not None:
                self.emit("t=%.3f ev=deliver flow=%s dc=d%d" % (now, flow_id, dc_id))
            if agent["script"].respond:
                self._emit_from_host(
                    now, node, "response", {"flow_id": flow_id}, eth_dst=packet.eth_src, ip_dst=packet.ip_src
                )
        # anything else a data center receives is ignored

    def _agent_register(self, now, script):
        self._agents[script.node] = {"script": script, "dc_id": None}
        name = self.topology.datacenters[script.node.index].name
        self._emit_from_host(now, script.node, "register", {"name": name})

    def _agent_report(self, now, node):
        agent = self._agents[node]  # a report is scheduled only once the register_ack is in
        wh = agent["script"].profile.wh
        energy = wh.item(int(now // SECONDS_PER_HOUR) % len(wh))  # a Python float, no numpy scalar
        self._emit_from_host(now, node, "report", {"passcode": agent["passcode"], GREEN_ENERGY_PARAM: energy})
        self._schedule_report(now, node, agent["period"])

    def _schedule_report(self, now, node, period):
        next_report = now + period
        if next_report <= now:  # a period this small would report at `now` forever
            raise ValidationError("report_period", f"{period!r} does not move the clock past t={now!r}")
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
        """Write every rule, tables in switch order, as `ev=snapshot` lines."""
        if self.emit is not None:
            for table in self.tables:
                for line in table.dump():
                    self.emit("t=%.3f ev=snapshot sw=%s %s" % (now, table.switch, line))

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
        if not horizon <= MAX_HORIZON:
            raise ValidationError("horizon", f"must be at most one profile year ({MAX_HORIZON:g} s), got {horizon!r}")
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
            controller=self.controller,
        )


def _path(base_dir, value, where):
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValidationError(where, f"must be a file path, got {value!r}")
    return os.path.join(base_dir, value)


def _within(where, read, *args):
    """`read(*args)` for the object at JSON path `where`: a ValidationError
    path inside it gets `where.` in front; one naming `where` itself stays."""
    try:
        return read(*args)
    except ValidationError as exc:
        field = exc.field if exc.field == where else f"{where}.{exc.field}"
        raise ValidationError(field, exc.problem) from None


def _resolve_profile(spec, base_dir, config, where):
    if "weather_csv" in _object(spec, where):
        path = _path(base_dir, _keys(spec, ("weather_csv",), where)["weather_csv"], f"{where}.weather_csv")
        weather = parse_nsrdb_csv(path, temp_column=config.nsrdb_temp_column, ghi_column=config.nsrdb_ghi_column)
        return build_profile(weather, panel=config.panel, site=os.path.basename(path))
    if "profile_csv" in spec:
        path = _path(base_dir, _keys(spec, ("profile_csv",), where)["profile_csv"], f"{where}.profile_csv")
        return load_profile_csv(path, site=os.path.basename(path))
    _keys(spec, ("shape", "peak_wh"), where, required=("shape",))
    return _within(where, synth_profile, spec["shape"], spec.get("peak_wh", 0.0))


def load_scenario(source, base_dir=None):
    """Parse a scenario file (or dict) into a Scenario.

    The JSON goes through model's shared shape checks: objects and lists
    where the format has them, no key it does not read, every time a
    finite number >= 0 of seconds, counts non-negative integers, and every
    name or flow id a non-empty string with no whitespace, the flow ids
    unique, and no more than MAX_EVENTS flows, data packets and reports,
    each entry counted before its events are built.  A rate workload counts
    rate_per_hour x (1 + data_packets) per listed hour that starts before
    the horizon; an omitted `hours` is every whole hour below the horizon.
    Anything else raises ValidationError naming its JSON path.

    The events come in the order `run_scenario` schedules them, which
    orders those of one instant: snapshots by time, switch connects, agent
    registrations, then each flow's open followed by its data packets.
    """
    if isinstance(source, (str, os.PathLike)):
        base_dir = os.path.dirname(os.path.abspath(source))
        data = read_json(source)
    else:
        data = source
        base_dir = base_dir or "."
    _keys(data, SCENARIO_KEYS, "scenario", required=("topology",))

    topo_spec = data["topology"]
    if isinstance(topo_spec, str):
        topology = load_topology(_path(base_dir, topo_spec, "topology"))
    else:  # inline: its paths start at the scenario's `topology`, as do those of `config`
        topology = _within("topology", topology_from_dict, topo_spec)

    config_spec = data.get("config", {})
    if isinstance(config_spec, str):
        config = load_config(_path(base_dir, config_spec, "config"))
    else:
        config = _within("config", config_from_dict, config_spec)

    horizon = _number(data.get("horizon", SECONDS_PER_HOUR), "horizon")
    if not 0 < horizon <= MAX_HORIZON:
        raise ValidationError("horizon", f"must be positive and at most one profile year ({MAX_HORIZON:g} s), got {horizon!r}")

    total = 0

    def spend(events, where):  # charges `events` to JSON path `where`
        nonlocal total
        total += events
        if total > MAX_EVENTS:
            raise ValidationError(where, f"asks for more than MAX_EVENTS = {MAX_EVENTS:,} flows, data packets and reports")

    agents = _list(data.get("agents", []), "agents")
    if agents:  # the quotient can be inf, which ceil cannot take
        spend(len(agents) * math.ceil(min(horizon / config.report_period, MAX_EVENTS + 1)), "report_period")
    dc_by_name = {a.name: a.node for a in topology.datacenters}
    registers = []
    for i, raw in enumerate(agents):
        where = f"agents[{i}]"
        name = _keys(raw, ("dc", "register_at", "respond", "profile"), where, required=("dc",))["dc"]
        if not isinstance(name, str) or name not in dc_by_name:
            raise ValidationError(f"{where}.dc", f"unknown data center {name!r}")
        node = dc_by_name[name]
        if any(script.node == node for _, _, script in registers):
            raise ValidationError(f"{where}.dc", f"data center {name!r} has two agents")
        respond = raw.get("respond", False)
        if not isinstance(respond, bool):
            raise ValidationError(f"{where}.respond", f"must be true or false, got {respond!r}")
        register_at = _number(raw.get("register_at", 0.5), f"{where}.register_at", minimum=0.0)
        profile = _resolve_profile(raw.get("profile", {"shape": "zero"}), base_dir, config, f"{where}.profile")
        registers.append((register_at, "agent_register", AgentScript(node, profile, respond)))

    client_by_name = {a.name: a.node for a in topology.clients}
    flows = []
    ids = set()

    def add(node, flow_id, open_at, data_at, where):
        if flow_id in ids:
            raise ValidationError(where, f"flow id {flow_id!r} is used twice")
        ids.add(flow_id)
        flow = (node, flow_id)
        flows.append((open_at, "flow_open", flow))
        for t in data_at:
            flows.append((t, "flow_data", flow))

    for i, raw in enumerate(_list(data.get("clients", []), "clients")):
        where = f"clients[{i}]"
        name = _object(raw, where).get("client")
        if not isinstance(name, str) or name not in client_by_name:
            raise ValidationError(f"{where}.client", f"unknown client {name!r}")
        node = client_by_name[name]
        if "flows" in raw:
            _keys(raw, ("client", "flows"), where)
            for j, f in enumerate(_list(raw["flows"], f"{where}.flows")):
                at = f"{where}.flows[{j}]"  # built once per flow; each field's path extends it
                _keys(f, ("id", "open_at", "data_at"), at, required=("id", "open_at"))
                id_at, times_at = at + ".id", at + ".data_at"
                open_at = _number(f["open_at"], at + ".open_at", minimum=0.0)
                times = _list(f.get("data_at", ()), times_at)
                spend(1 + len(times), at)
                data_at = [_number(t, times_at, open_at) for t in times]
                add(node, _name(f["id"], id_at), open_at, data_at, id_at)
        elif "rate_per_hour" in raw:
            _keys(raw, ("client", "rate_per_hour", "hours", "data_packets"), where)
            rate = _count(raw["rate_per_hour"], f"{where}.rate_per_hour")
            hours = _list(raw.get("hours", list(range(int(horizon // SECONDS_PER_HOUR)))), f"{where}.hours")
            n_data = _count(raw.get("data_packets", 0), f"{where}.data_packets")
            # an hour that starts at or past the horizon would build nothing
            starts = []
            for k, h in enumerate(hours):
                at = f"{where}.hours[{k}]"
                if _count(h, at) * SECONDS_PER_HOUR < horizon:
                    starts.append((at, h))
            spend(rate * len(starts) * (1 + n_data), where)
            for at, h in starts:
                # flows and data packets at or past the horizon would never run
                for n in range(rate):
                    open_at = h * SECONDS_PER_HOUR + (n + 1) * SECONDS_PER_HOUR / (rate + 1)
                    if open_at >= horizon:
                        break
                    data_at = (open_at + 0.25 * (j + 1) for j in range(n_data))
                    add(node, f"{name}-h{h}-{n}", open_at, itertools.takewhile(lambda t: t < horizon, data_at), at)
        else:
            raise ValidationError(where, "needs flows or rate_per_hour")

    switch_by_name = {name: NodeId(SWITCH, i) for i, name in enumerate(topology.switch_names)}
    connects = []
    connected = set()
    raw_connects = data.get("switch_connects")
    if raw_connects is None:
        raw_connects = [{"switch": n} for n in topology.switch_names]
    for i, c in enumerate(_list(raw_connects, "switch_connects")):
        where = f"switch_connects[{i}]"
        switch = _keys(c, ("switch", "at"), where, required=("switch",))["switch"]
        if not isinstance(switch, str) or switch not in switch_by_name:
            raise ValidationError(f"{where}.switch", f"unknown switch {switch!r}")
        node = switch_by_name[switch]
        if node in connected:
            raise ValidationError(f"{where}.switch", f"switch {switch!r} connects twice")
        connected.add(node)
        at = _number(c.get("at", 0.0), f"{where}.at", minimum=0.0)
        connects.append((at, "connect", node))

    times = _list(data.get("snapshot_times", []), "snapshot_times")
    snapshots = [(t, "snapshot", None) for t in sorted(_number(t, "snapshot_times", minimum=0.0) for t in times)]
    return Scenario(topology, config, horizon, snapshots + connects + registers + flows)


def run_scenario(source, base_dir=None, seed=0, emit=None):
    """Run one scenario end to end and summarize what the data plane did.
    Each trace line goes to `emit`, if given, as it happens."""
    topology, config, horizon, events = load_scenario(source, base_dir=base_dir)
    sim = Simulation(topology, config, seed=seed, emit=emit)
    for event in events:
        sim.schedule(*event)
    sim.run(horizon)
    return sim.report()
