"""The control plane.

One controller instance serves every switch.  Switches punt unmatched
packets here (table-miss), and the handlers mirror the control loop of
the platform: learn the switch graph from flooded discovery packets,
register data centers and hand them credentials, absorb their energy
reports, and steer each new client flow to the data center the active
scheduling policy picks, installing forward and reverse flow rules along
the shortest path over links discovered in both directions.  The switch
graph is one map, switch -> {neighbor: port toward it}, and a path is one
breadth-first search over it.  A placement's rules are built once per
(ingress switch, ingress port, client IP, data center) and reused until
discovery adds an edge or re-ports one, or a data center re-registers.
"""

import functools
import math
import random
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

from .energy import valid_energy
from .errors import AlreadyConnected, NoPath, UnknownSwitch
from .model import CONTROLLER_IP, DataCenterRecord, NodeId, format_ip
from .scheduler import SchedulerState, get_scheduler, reset_hour

BROADCAST_MAC = 0xFFFFFFFFFFFF

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
    """An instruction to emit a packet from a switch port, or with port
    TABLE to run it through the switch's flow table."""

    switch: NodeId
    port: int
    packet: Packet


TABLE = None  # OpenFlow's OFPP_TABLE: a packet-out through the flow table


class ControllerResponse(NamedTuple):
    """Everything one event handler wants done on the data plane.

    Immutable, with empty tuples for defaults, so `ACCEPTED` is the one
    response to every accepted report and discover."""

    flow_mods: Sequence = ()
    packets: Sequence = ()
    dropped: str = None


ACCEPTED = ControllerResponse()


@functools.lru_cache(maxsize=4096)  # a match's text is made once, not per expire or dump
def match_text(src, dst):
    left = format_ip(src) if src is not None else "*"
    right = format_ip(dst) if dst is not None else "*"
    return f"{left}->{right}"


def _flow_name(pkt):
    """A client packet's flow, as the trace names it."""
    return str(pkt.payload["flow_id"]) if "flow_id" in pkt.payload else format_ip(pkt.ip_src)


class Controller:
    def __init__(self, config, seed=0, emit=None):
        self.config = config
        self.emit = emit  # takes each trace line as it happens; None formats no line
        self._rng = random.Random(seed)
        self.discovery_token = self._rng.randbytes(PASSCODE_BYTES).hex()

        self.switch_ports = {}  # NodeId -> sorted port list
        self.switch_macs = {}  # NodeId -> mac
        self._switch_by_mac = {}
        self.adjacency = {}  # switch -> {neighbor: port on switch toward it}, neighbors by index
        self._mods = {}  # (ingress switch, port, client ip, dc index) -> its placement's FlowMods
        self.dcs = []  # dc_id -> DataCenterRecord
        self.dcs_by_ip = {}
        self.sched = SchedulerState(config.job_energy_wh)
        self.decide = get_scheduler(config.scheduler)
        self.packet_in_count = 0
        self.auth_failures = 0

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
        if self.emit is not None:
            self.emit("t=%.3f ev=connect sw=%s ports=%d" % (now, switch, len(ports)))

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
        return ControllerResponse(flow_mods=(miss,), packets=outs)

    def on_hour(self, hour, now=0.0):
        """Hour boundary: jobs of the old hour are done, counters restart."""
        reset_hour(self.sched)
        if self.emit is not None:
            self.emit("t=%.3f ev=hour_reset hour=%d" % (now, hour))

    # -- packet-in dispatch ----------------------------------------------

    def on_packet_in(self, pkt_in, now=0.0):
        if pkt_in.switch not in self.switch_ports:
            raise UnknownSwitch(f"packet-in from unconnected switch {pkt_in.switch}")
        self.packet_in_count += 1
        pkt = pkt_in.packet
        if self.emit is not None:
            self.emit(
                "t=%.3f ev=packet_in sw=%s port=%d kind=%s src=%s"
                % (now, pkt_in.switch, pkt_in.port, pkt.kind, format_ip(pkt.ip_src))
            )
        if pkt.kind == "report":  # the most frequent kind first
            return self._handle_report(pkt_in, now)
        if pkt.kind == "discover":
            return self._handle_discover(pkt_in, now)
        if pkt.kind == "register":
            return self._handle_register(pkt_in, now)
        if pkt.kind != "request":
            # a data center's response or a client's data packet whose rule
            # expired, or any other kind: no job to place
            if self.emit is not None:
                self.emit("t=%.3f ev=drop reason=stray_%s flow=%s" % (now, pkt.kind, _flow_name(pkt)))
            return ControllerResponse(dropped="stray_" + pkt.kind)
        return self._handle_request(pkt_in, now)

    def _handle_discover(self, pkt_in, now):
        pkt = pkt_in.packet
        if pkt.payload.get("token") != self.discovery_token:
            if self.emit is not None:
                self.emit("t=%.3f ev=drop reason=bad_token sw=%s" % (now, pkt_in.switch))
            return ControllerResponse(dropped="bad_token")
        origin = self._switch_by_mac.get(pkt.eth_src)
        if origin is None or origin == pkt_in.switch:
            if self.emit is not None:
                self.emit("t=%.3f ev=drop reason=bad_discover_origin sw=%s" % (now, pkt_in.switch))
            return ControllerResponse(dropped="bad_discover_origin")
        ports = self.adjacency.get(pkt_in.switch, {})
        if ports.get(origin) != pkt_in.port:
            # a new edge can shorten paths, and the rules read every edge's port
            self._mods = {}
            # the row is rebuilt in index order only when it changes, so no search sorts
            ports = {**ports, origin: pkt_in.port}
            self.adjacency[pkt_in.switch] = dict(sorted(ports.items(), key=lambda item: item[0].index))
        if self.emit is not None:
            self.emit("t=%.3f ev=adjacency sw=%s neighbor=%s port=%d" % (now, pkt_in.switch, origin, pkt_in.port))
        return ACCEPTED

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
            self._mods = {}  # rules built for the old attachment point
        if self.emit is not None:
            self.emit(
                "t=%.3f ev=register dc=d%d name=%s sw=%s port=%d" % (now, rec.dc_id, rec.name, rec.switch, rec.port)
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
        return ControllerResponse(packets=(PacketOut(pkt_in.switch, pkt_in.port, ack),))

    def _handle_report(self, pkt_in, now):
        pkt = pkt_in.packet
        rec = self.dcs_by_ip.get(pkt.ip_src)
        if rec is None:
            self.auth_failures += 1
            if self.emit is not None:
                self.emit("t=%.3f ev=auth_fail reason=unknown_reporter src=%s" % (now, format_ip(pkt.ip_src)))
            return ControllerResponse(dropped="unknown_reporter")
        if pkt.payload.get("passcode") != rec.passcode:
            self.auth_failures += 1
            if self.emit is not None:
                self.emit("t=%.3f ev=auth_fail reason=bad_passcode dc=d%d" % (now, rec.dc_id))
            return ControllerResponse(dropped="bad_passcode")
        energy = pkt.payload.get(GREEN_ENERGY_PARAM)
        if type(energy) is not float or not 0.0 <= energy < math.inf:  # the agents' plain float, checked inline
            if not valid_energy(energy):
                if self.emit is not None:
                    self.emit("t=%.3f ev=drop reason=bad_report dc=d%d" % (now, rec.dc_id))
                return ControllerResponse(dropped="bad_report")
            energy = float(energy)
        self.sched.energy_wh[rec.dc_id] = energy
        if self.emit is not None:
            self.emit("t=%.3f ev=report dc=d%d green_energy_wh=%.6f" % (now, rec.dc_id, energy))
        return ACCEPTED

    def _handle_request(self, pkt_in, now):
        pkt = pkt_in.packet
        emit = self.emit
        if emit is not None:
            flow_id = _flow_name(pkt)
        if not self.dcs:
            if emit is not None:
                emit("t=%.3f ev=drop reason=no_datacenter flow=%s" % (now, flow_id))
            return ControllerResponse(dropped="no_datacenter")
        dc_index, score = self.decide(self.sched)
        rec = self.dcs[dc_index]
        key = (pkt_in.switch, pkt_in.port, pkt.ip_src, dc_index)
        mods = self._mods.get(key)
        if mods is None:
            try:
                path = self.compute_path(pkt_in.switch, rec.switch)
            except NoPath:
                # undo the placement: the job never reaches the data center
                self.sched.assigned[dc_index] -= 1
                if emit is not None:
                    emit("t=%.3f ev=drop reason=no_path flow=%s dc=d%d" % (now, flow_id, rec.dc_id))
                return ControllerResponse(dropped="no_path")
            mods = self._mods[key] = self.install_path(path, pkt.ip_src, pkt_in.port, rec)
        if emit is not None:
            emit("t=%.3f ev=decision flow=%s dc=d%d sw=%s score=%.6f" % (now, flow_id, rec.dc_id, rec.switch, score))
        # the first hop's new rule rewrites and forwards the packet
        return ControllerResponse(flow_mods=mods, packets=[PacketOut(pkt_in.switch, TABLE, pkt)])

    # -- paths and rules ---------------------------------------------------

    def compute_path(self, src, dst):
        """Shortest switch path, fewest hops, lowest index on ties, over the
        links discovered in both directions: `install_path` needs each
        link's port both ways.  A breadth-first search that stops at `dst`.
        """
        if src == dst:
            return [src]
        adjacency = self.adjacency
        parent = {src: None}
        queue = [src]
        for here in queue:  # the queue grows while it is read
            for nxt in adjacency.get(here, ()):
                if nxt not in parent and here in adjacency.get(nxt, ()):
                    parent[nxt] = here
                    if nxt == dst:
                        path = [dst]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(nxt)
        raise NoPath(f"no discovered path {src} -> {dst}")

    def install_path(self, path, client_ip, ingress_port, rec):
        """Flow rules steering one client's packets to `rec` and back.

        The first hop rewrites the destination headers to the chosen data
        center; every switch also gets a reverse rule so responses reach
        the client.  Rules are emitted egress first, in a tuple that the
        controller reuses for the same ingress, client and data center.
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
                actions.append(("output", self.adjacency[sw][path[i + 1]]))
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
            back_port = ingress_port if i == 0 else self.adjacency[sw][path[i - 1]]
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
        return tuple(mods)
