"""End hosts with a miniature ARP/IPv4/ICMP/UDP stack.

A host owns exactly one interface attached to a link.  The stack is small
but honest: IP delivery requires ARP resolution (with request retry and a
pending-packet queue), pings are real ICMP echo exchanges, and UDP demux
follows bound ports.  Every byte a host emits traverses the emulated
links and switch pipelines — nothing is short-circuited.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.errors import TopologyError
from repro.packet import (
    ARP,
    BROADCAST_MAC,
    Ethernet,
    ICMP,
    ICMPType,
    IPv4,
    IPv4Address,
    MACAddress,
    Packet,
    UDP,
)
from repro.sim import Simulator

__all__ = ["Host", "PingSession"]

#: How long a pending ARP resolution waits before retrying.
_ARP_RETRY = 1.0
#: Retries before the queued packets are dropped.
_ARP_MAX_TRIES = 3


class PingSession:
    """Bookkeeping for one ``host.ping(...)`` invocation.

    ``rtts`` collects one float per received reply (seconds);
    ``finished`` turns true once every probe has been answered or timed
    out.
    """

    def __init__(self, sim: Simulator, count: int, timeout: float) -> None:
        self._sim = sim
        self.count = count
        self.timeout = timeout
        self.rtts: List[float] = []
        self.lost = 0
        self._outstanding: Dict[int, float] = {}  # seq -> send time

    @property
    def received(self) -> int:
        return len(self.rtts)

    @property
    def finished(self) -> bool:
        return self.received + self.lost >= self.count

    @property
    def min_rtt(self) -> float:
        return min(self.rtts) if self.rtts else float("nan")

    @property
    def avg_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else float("nan")

    @property
    def max_rtt(self) -> float:
        return max(self.rtts) if self.rtts else float("nan")

    def _sent(self, seq: int) -> None:
        self._outstanding[seq] = self._sim.now

    def _reply(self, seq: int) -> None:
        sent_at = self._outstanding.pop(seq, None)
        if sent_at is None:
            return  # duplicate or late reply
        self.rtts.append(self._sim.now - sent_at)

    def _timeout(self, seq: int) -> None:
        if self._outstanding.pop(seq, None) is not None:
            self.lost += 1

    def __repr__(self) -> str:
        return (
            f"<PingSession {self.received}/{self.count} replies, "
            f"{self.lost} lost>"
        )


class Host:
    """A single-homed end host."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
    ) -> None:
        self.sim = sim
        self.name = name
        self._tel = sim.telemetry
        self.mac = MACAddress(mac)
        self.ip = IPv4Address(ip)
        self._link = None  # set by attach()
        self.arp_table: Dict[IPv4Address, MACAddress] = {}
        self._arp_pending: Dict[IPv4Address, List[Packet]] = {}
        self._arp_tries: Dict[IPv4Address, int] = {}
        self._udp_handlers: Dict[
            int, Callable[[Packet, "Host"], None]
        ] = {}
        #: Fallback for UDP datagrams with no bound port.
        self.on_udp: Optional[Callable[[Packet, "Host"], None]] = None
        #: Observer invoked for every received frame (tests, sniffers).
        self.on_receive: Optional[Callable[[Packet], None]] = None
        self._ping_sessions: Dict[int, PingSession] = {}
        self._next_ping_ident = 1
        self._next_icmp_seq = 1
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, link) -> None:
        if self._link is not None:
            raise TopologyError(f"host {self.name} is already attached")
        self._link = link

    @property
    def attached(self) -> bool:
        return self._link is not None

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send_frame(self, packet: Packet) -> None:
        """Emit a fully formed frame on the host's link."""
        if self._link is None:
            raise TopologyError(f"host {self.name} has no link")
        size = len(packet)  # read once: the link is told
        self.tx_packets += 1
        self.tx_bytes += size
        tel = self._tel
        if tel.tracing and packet.trace_id is None:
            # A trace begins where the packet does.  The label is built
            # from header class names (not summary()) to avoid an extra
            # encode on the transmit path.
            label = "/".join(type(h).__name__ for h in packet.headers)
            tid = tel.tracer.start_trace(f"{self.name} {label}")
            if tid is not None:
                packet.trace_id = tid
                tel.tracer.record(tid, "host.tx", "host", host=self.name)
        self._link.send_from(self.name, packet, size)

    def send_ip(self, dst_ip: Union[str, IPv4Address],
                transport: Packet) -> None:
        """Send an IP payload, resolving the destination MAC via ARP.

        ``transport`` is the stack *above* Ethernet (IPv4/...); the
        Ethernet header is prepended here once the MAC is known.
        """
        dst_ip = IPv4Address(dst_ip)
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is not None:
            frame = Packet([Ethernet(dst=dst_mac, src=self.mac)]) / transport
            self.send_frame(frame)
            return
        self._arp_pending.setdefault(dst_ip, []).append(transport)
        if len(self._arp_pending[dst_ip]) == 1:
            self._arp_tries[dst_ip] = 0
            self._send_arp_request(dst_ip)

    def send_udp(self, dst_ip: Union[str, IPv4Address], src_port: int,
                 dst_port: int, payload: bytes = b"") -> None:
        dst_ip = IPv4Address(dst_ip)
        datagram = (
            IPv4(src=self.ip, dst=dst_ip)
            / UDP(src_port=src_port, dst_port=dst_port)
            / payload
        )
        self.send_ip(dst_ip, datagram)

    def ping(self, dst_ip: Union[str, IPv4Address], count: int = 1,
             interval: float = 1.0, timeout: float = 5.0) -> PingSession:
        """Start an ICMP echo exchange; returns the live session."""
        dst_ip = IPv4Address(dst_ip)
        ident = self._next_ping_ident
        self._next_ping_ident += 1
        session = PingSession(self.sim, count, timeout)
        self._ping_sessions[ident] = session

        def send_probe(i: int) -> None:
            seq = self._next_icmp_seq
            self._next_icmp_seq += 1
            session._sent(seq)
            probe = (
                IPv4(src=self.ip, dst=dst_ip)
                / ICMP(ICMPType.ECHO_REQUEST, ident=ident, seq=seq)
                / b"zen-ping"
            )
            self.send_ip(dst_ip, probe)
            self.sim.schedule(timeout, session._timeout, seq)

        for i in range(count):
            self.sim.schedule(i * interval, send_probe, i)
        return session

    def add_static_arp(self, ip: Union[str, IPv4Address],
                       mac: Union[str, MACAddress]) -> None:
        self.arp_table[IPv4Address(ip)] = MACAddress(mac)

    def bind_udp(self, port: int,
                 handler: Callable[[Packet, "Host"], None]) -> None:
        if port in self._udp_handlers:
            raise TopologyError(
                f"host {self.name}: UDP port {port} already bound"
            )
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    # ------------------------------------------------------------------
    # ARP machinery
    # ------------------------------------------------------------------
    def _send_arp_request(self, dst_ip: IPv4Address) -> None:
        pending = self._arp_pending.get(dst_ip)
        if not pending:
            return
        tries = self._arp_tries.get(dst_ip, 0)
        if tries >= _ARP_MAX_TRIES:
            # Resolution failed; the queued traffic is dropped.
            self._arp_pending.pop(dst_ip, None)
            self._arp_tries.pop(dst_ip, None)
            return
        self._arp_tries[dst_ip] = tries + 1
        request = (
            Ethernet(dst=BROADCAST_MAC, src=self.mac)
            / ARP(
                opcode=ARP.REQUEST,
                sender_mac=self.mac,
                sender_ip=self.ip,
                target_ip=dst_ip,
            )
        )
        self.send_frame(request)
        self.sim.schedule(_ARP_RETRY, self._send_arp_request, dst_ip)

    def _learn_arp(self, ip: IPv4Address, mac: MACAddress) -> None:
        self.arp_table[ip] = mac
        pending = self._arp_pending.pop(ip, None)
        self._arp_tries.pop(ip, None)
        if pending:
            for transport in pending:
                frame = Packet([Ethernet(dst=mac, src=self.mac)]) / transport
                self.send_frame(frame)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Entry point wired to the host's link attachment."""
        self.rx_packets += 1
        self.rx_bytes += len(packet)
        if packet.trace_id is not None and self._tel.tracing:
            self._tel.tracer.record(packet.trace_id, "host.rx", "host",
                                    host=self.name)
        if self.on_receive is not None:
            self.on_receive(packet)
        eth = packet.get(Ethernet)
        if eth is None:
            return
        if (eth.dst != self.mac and not eth.dst.is_broadcast
                and not eth.dst.is_multicast):
            return  # not for us (promiscuous hosts use on_receive)
        arp = packet.get(ARP)
        if arp is not None:
            self._handle_arp(arp)
            return
        ip = packet.get(IPv4)
        if ip is None or ip.dst != self.ip:
            return
        icmp = packet.get(ICMP)
        if icmp is not None:
            self._handle_icmp(ip, icmp, packet)
            return
        udp = packet.get(UDP)
        if udp is not None:
            handler = self._udp_handlers.get(udp.dst_port, self.on_udp)
            if handler is not None:
                handler(packet, self)

    def _handle_arp(self, arp: ARP) -> None:
        # Learn from every ARP we see addressed to us (request or reply).
        self._learn_arp(arp.sender_ip, arp.sender_mac)
        if arp.is_request and arp.target_ip == self.ip:
            reply = (
                Ethernet(dst=arp.sender_mac, src=self.mac)
                / ARP(
                    opcode=ARP.REPLY,
                    sender_mac=self.mac,
                    sender_ip=self.ip,
                    target_mac=arp.sender_mac,
                    target_ip=arp.sender_ip,
                )
            )
            self.send_frame(reply)

    def _handle_icmp(self, ip: IPv4, icmp: ICMP, packet: Packet) -> None:
        if icmp.is_echo_request:
            # Mirror the request's DSCP so QoS treatment is symmetric
            # (per RFC 2474 practice for diagnostic traffic).
            reply = (
                IPv4(src=self.ip, dst=ip.src, dscp=ip.dscp)
                / ICMP(ICMPType.ECHO_REPLY, ident=icmp.ident, seq=icmp.seq)
                / packet.payload
            )
            self.send_ip(ip.src, reply)
            return
        if icmp.is_echo_reply:
            session = self._ping_sessions.get(icmp.ident)
            if session is not None:
                session._reply(icmp.seq)

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip} ({self.mac})>"
