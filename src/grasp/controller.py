"""The control plane.

One controller instance serves every switch.  Switches punt unmatched
packets here (table-miss), and the handlers mirror the control loop of
the platform: learn the switch graph from flooded discovery packets,
register data centers and hand them credentials, absorb their energy
reports, and steer each new client flow to the data center the active
scheduling policy picks, installing forward and reverse flow rules along
the shortest discovered path.
"""

import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .energy import valid_energy
from .errors import AlreadyConnected, NoPath, UnknownSwitch
from .model import DataCenterRecord, NodeId, format_ip, parse_ip
from .scheduler import SchedulerState, get_scheduler, reset_hour

BROADCAST_MAC = 0xFFFFFFFFFFFF
CONTROLLER_IP = parse_ip("10.255.0.1")
# clients address their requests here; flow rules rewrite it per decision
SERVICE_IP = parse_ip("10.255.0.100")

TABLE_MISS_PRIORITY = 0
FLOW_PRIORITY = 10
PERMANENT = 0.0  # idle_timeout value meaning "never expires"

PASSCODE_BYTES = 16

# The one thing a data center reports: a report payload is
# {"passcode": ..., GREEN_ENERGY_PARAM: Wh}, and the scheduler keys on it.
GREEN_ENERGY_PARAM = "green_energy_wh"


class Packet(NamedTuple):
    """A data-plane packet, reduced to the headers the platform acts on."""

    kind: str  # register | register_ack | discover | report | request | data | response
    eth_src: int
    eth_dst: int
    ip_src: int
    ip_dst: int
    payload: Mapping = MappingProxyType({})  # read-only, so one default serves every packet


class PacketIn(NamedTuple):
    """A packet punted to the controller, with where it entered."""

    switch: NodeId  # the punting switch
    port: int
    packet: Packet


class FlowMod(NamedTuple):
    """One flow rule to install: match on (src, dst), run the actions.

    `match_src`/`match_dst` of None are wildcards.  Actions are tuples;
    the last one must be the single terminal ("output", port) or
    ("controller",).  idle_timeout 0 means the rule never expires.
    """

    switch: NodeId
    priority: int
    match_src: object
    match_dst: object
    actions: tuple
    idle_timeout: float


class PacketOut(NamedTuple):
    """An instruction to emit a packet from a switch port."""

    switch: NodeId
    port: int
    packet: Packet


@dataclass
class ControllerResponse:
    """Everything one event handler wants done on the data plane."""

    flow_mods: list = field(default_factory=list)
    packets: list = field(default_factory=list)
    dropped: str = None


def match_text(src, dst):
    left = format_ip(src) if src is not None else "*"
    right = format_ip(dst) if dst is not None else "*"
    return f"{left}->{right}"


class Controller:
    def __init__(self, config, seed=0, trace=None):
        self.config = config
        self.trace = trace if trace is not None else []
        self._rng = random.Random(seed)
        self.discovery_token = self._rng.randbytes(PASSCODE_BYTES).hex()

        self.switch_ports = {}  # NodeId -> sorted port list
        self.switch_macs = {}  # NodeId -> mac
        self._switch_by_mac = {}
        self.adjacency = {}  # (switch, neighbor) -> port on switch toward neighbor
        self._neighbors = None  # switch -> neighbors by index, built from adjacency
        self._parents = {}  # source switch -> its breadth-first parent table
        self.dcs = []  # dc_id -> DataCenterRecord
        self.dcs_by_ip = {}
        self.sched = SchedulerState(config.job_energy_wh)
        self.decide = get_scheduler(config.scheduler)
        self.packet_in_count = 0
        self.auth_failures = 0

    def _log(self, now, line):
        self.trace.append("t=%.3f %s" % (now, line))

    # -- switch lifecycle ------------------------------------------------

    def on_switch_connect(self, switch, ports, mac, now=0.0):
        """Install the table-miss rule on the new switch and run discovery.

        Discovery packets are flooded from every connected switch, the new
        one included, so late joiners still get discovered in both
        directions.
        """
        if switch in self.switch_ports:
            raise AlreadyConnected(f"{switch} already connected")
        self.switch_ports[switch] = sorted(ports)
        self.switch_macs[switch] = mac
        self._switch_by_mac[mac] = switch
        self._log(now, "ev=connect sw=%s ports=%d" % (switch, len(ports)))

        miss = FlowMod(
            switch=switch,
            priority=TABLE_MISS_PRIORITY,
            match_src=None,
            match_dst=None,
            actions=(("controller",),),
            idle_timeout=PERMANENT,
        )
        outs = []
        for sw in self.switch_ports:
            for port in self.switch_ports[sw]:
                outs.append(
                    PacketOut(
                        switch=sw,
                        port=port,
                        packet=Packet(
                            kind="discover",
                            eth_src=self.switch_macs[sw],
                            eth_dst=BROADCAST_MAC,
                            ip_src=0,
                            ip_dst=0,
                            payload={"token": self.discovery_token},
                        ),
                    )
                )
        return ControllerResponse(flow_mods=[miss], packets=outs)

    def on_hour(self, hour, now=0.0):
        """Hour boundary: jobs of the old hour are done, counters restart."""
        reset_hour(self.sched)
        self._log(now, "ev=hour_reset hour=%d" % hour)

    # -- packet-in dispatch ----------------------------------------------

    def on_packet_in(self, pkt_in, now=0.0):
        if pkt_in.switch not in self.switch_ports:
            raise UnknownSwitch(f"packet-in from unconnected switch {pkt_in.switch}")
        self.packet_in_count += 1
        pkt = pkt_in.packet
        self._log(
            now,
            "ev=packet_in sw=%s port=%d kind=%s src=%s"
            % (pkt_in.switch, pkt_in.port, pkt.kind, format_ip(pkt.ip_src)),
        )
        if pkt.kind == "discover":
            return self._handle_discover(pkt_in, now)
        if pkt.kind == "register":
            return self._handle_register(pkt_in, now)
        if pkt.kind == "report":
            return self._handle_report(pkt_in, now)
        # anything else is client traffic asking for a placement
        return self._handle_request(pkt_in, now)

    def _handle_discover(self, pkt_in, now):
        pkt = pkt_in.packet
        if pkt.payload.get("token") != self.discovery_token:
            self._log(now, "ev=drop reason=bad_token sw=%s" % (pkt_in.switch,))
            return ControllerResponse(dropped="bad_token")
        origin = self._switch_by_mac.get(pkt.eth_src)
        if origin is None or origin == pkt_in.switch:
            self._log(now, "ev=drop reason=bad_discover_origin sw=%s" % (pkt_in.switch,))
            return ControllerResponse(dropped="bad_discover_origin")
        if (pkt_in.switch, origin) not in self.adjacency:
            # a new edge can shorten paths; a rediscovered one only renews its port
            self._neighbors = None
            self._parents = {}
        self.adjacency[(pkt_in.switch, origin)] = pkt_in.port
        self._log(
            now,
            "ev=adjacency sw=%s neighbor=%s port=%d" % (pkt_in.switch, origin, pkt_in.port),
        )
        return ControllerResponse()

    def _handle_register(self, pkt_in, now):
        pkt = pkt_in.packet
        rec = self.dcs_by_ip.get(pkt.ip_src)
        passcode = self._rng.randbytes(PASSCODE_BYTES).hex()
        if rec is None:
            rec = DataCenterRecord(
                dc_id=len(self.dcs),
                name=pkt.payload.get("name", "") or f"dc{len(self.dcs)}",
                ip=pkt.ip_src,
                mac=pkt.eth_src,
                switch=pkt_in.switch,
                port=pkt_in.port,
                passcode=passcode,
            )
            self.dcs.append(rec)
            self.dcs_by_ip[pkt.ip_src] = rec
            self.sched.add_dc()
        else:
            # re-registration keeps the id but moves the attachment point
            # and rotates the passcode
            rec.mac = pkt.eth_src
            rec.switch = pkt_in.switch
            rec.port = pkt_in.port
            rec.passcode = passcode
        self._log(
            now,
            "ev=register dc=d%d name=%s sw=%s port=%d"
            % (rec.dc_id, rec.name, rec.switch, rec.port),
        )
        ack = Packet(
            kind="register_ack",
            eth_src=0,
            eth_dst=rec.mac,
            ip_src=CONTROLLER_IP,
            ip_dst=rec.ip,
            payload={
                "dc_id": rec.dc_id,
                "passcode": rec.passcode,
                "report_period": self.config.report_period,
            },
        )
        return ControllerResponse(packets=[PacketOut(pkt_in.switch, pkt_in.port, ack)])

    def _handle_report(self, pkt_in, now):
        pkt = pkt_in.packet
        rec = self.dcs_by_ip.get(pkt.ip_src)
        if rec is None:
            self.auth_failures += 1
            self._log(now, "ev=auth_fail reason=unknown_reporter src=%s" % format_ip(pkt.ip_src))
            return ControllerResponse(dropped="unknown_reporter")
        if pkt.payload.get("passcode") != rec.passcode:
            self.auth_failures += 1
            self._log(now, "ev=auth_fail reason=bad_passcode dc=d%d" % rec.dc_id)
            return ControllerResponse(dropped="bad_passcode")
        energy = pkt.payload.get(GREEN_ENERGY_PARAM)
        if not valid_energy(energy):
            self._log(now, "ev=drop reason=bad_report dc=d%d" % rec.dc_id)
            return ControllerResponse(dropped="bad_report")
        self.sched.energy_wh[rec.dc_id] = float(energy)
        self._log(now, "ev=report dc=d%d green_energy_wh=%.6f" % (rec.dc_id, energy))
        return ControllerResponse()

    def _handle_request(self, pkt_in, now):
        pkt = pkt_in.packet
        flow_id = str(pkt.payload["flow_id"]) if "flow_id" in pkt.payload else format_ip(pkt.ip_src)
        if not self.dcs:
            self._log(now, "ev=drop reason=no_datacenter flow=%s" % flow_id)
            return ControllerResponse(dropped="no_datacenter")
        dc_index, score = self.decide(self.sched)
        rec = self.dcs[dc_index]
        try:
            path = self.compute_path(pkt_in.switch, rec.switch)
        except NoPath:
            # undo the placement: the job never reaches the data center
            self.sched.assigned[dc_index] -= 1
            self._log(now, "ev=drop reason=no_path flow=%s dc=d%d" % (flow_id, rec.dc_id))
            return ControllerResponse(dropped="no_path")
        mods = self.install_path(path, pkt.ip_src, pkt_in.port, rec)
        self._log(
            now,
            "ev=decision flow=%s dc=d%d sw=%s score=%.6f"
            % (flow_id, rec.dc_id, rec.switch, score),
        )
        forwarded = Packet(
            kind=pkt.kind,
            eth_src=pkt.eth_src,
            eth_dst=rec.mac,
            ip_src=pkt.ip_src,
            ip_dst=rec.ip,
            payload=pkt.payload,
        )
        if rec.switch == pkt_in.switch:
            out_port = rec.port
        else:
            out_port = self.adjacency[(pkt_in.switch, path[1])]
        return ControllerResponse(
            flow_mods=mods,
            packets=[PacketOut(pkt_in.switch, out_port, forwarded)],
        )

    # -- paths and rules ---------------------------------------------------

    def compute_path(self, src, dst):
        """Shortest discovered switch path, fewest hops, lowest index on ties.

        One breadth-first parent table per source serves every destination
        until discovery adds an edge; the full search assigns each switch
        the parent a search stopping at `dst` would, so paths are the same.
        """
        if src == dst:
            return [src]
        parent = self._parents.get(src)
        if parent is None:
            if self._neighbors is None:
                self._neighbors = {}
                for s, n in self.adjacency:
                    self._neighbors.setdefault(s, []).append(n)
                for s in self._neighbors:
                    self._neighbors[s].sort(key=lambda node: node.index)
            parent = self._parents[src] = {src: None}
            queue = deque([src])
            while queue:
                here = queue.popleft()
                for nxt in self._neighbors.get(here, ()):
                    if nxt not in parent:
                        parent[nxt] = here
                        queue.append(nxt)
        if dst not in parent:
            raise NoPath(f"no discovered path {src} -> {dst}")
        path = [dst]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    def install_path(self, path, client_ip, ingress_port, rec):
        """Flow rules steering one client's packets to `rec` and back.

        The first hop rewrites the destination headers to the chosen data
        center; every switch also gets a reverse rule so responses reach
        the client.  Rules are emitted egress first.
        """
        timeout = self.config.flow_idle_timeout
        mods = []
        for i in range(len(path) - 1, -1, -1):
            sw = path[i]
            actions = []
            if i == 0:
                actions.append(("set_eth_dst", rec.mac))
                actions.append(("set_ip_dst", rec.ip))
            if i == len(path) - 1:
                actions.append(("output", rec.port))
            else:
                actions.append(("output", self.adjacency[(sw, path[i + 1])]))
            mods.append(
                FlowMod(
                    switch=sw,
                    priority=FLOW_PRIORITY,
                    match_src=client_ip,
                    match_dst=None,
                    actions=tuple(actions),
                    idle_timeout=timeout,
                )
            )
            back_port = ingress_port if i == 0 else self.adjacency[(sw, path[i - 1])]
            mods.append(
                FlowMod(
                    switch=sw,
                    priority=FLOW_PRIORITY,
                    match_src=None,
                    match_dst=client_ip,
                    actions=(("output", back_port),),
                    idle_timeout=timeout,
                )
            )
        return mods
