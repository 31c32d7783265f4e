"""The emulated network: topologies brought to life on the sim kernel.

:class:`Network` instantiates datapaths, hosts, and links from a
:class:`~repro.netem.topology.Topology`, wires every transmit/deliver
callback, and offers failure injection.  It deliberately knows nothing
about controllers — it can mint a :class:`ControlChannel` + switch agent
per datapath, and whoever owns the controller end plugs in at that
boundary (see :mod:`repro.core.platform`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataplane.switch import Datapath
from repro.errors import TopologyError
from repro.netem.host import Host
from repro.netem.link import Attachment, Link
from repro.netem.topology import Topology
from repro.packet import Packet
from repro.sim import Simulator
from repro.southbound.agent import SwitchAgent
from repro.southbound.channel import ControlChannel

__all__ = ["Network"]


class Network:
    """A running instance of a topology.

    Parameters
    ----------
    topology:
        The validated description to instantiate.
    sim:
        An existing kernel, or ``None`` to create one from ``seed``.
    num_tables / table_capacity / miss_behaviour / eviction_policy:
        Forwarded to every :class:`Datapath`.
    local_nodes:
        When given, only these nodes are instantiated; links with
        exactly one local endpoint become boundary stubs minted by
        ``boundary_factory`` and links with no local endpoint are
        skipped entirely.  This is how one shard of a partitioned
        simulation builds just its slice of the topology — per-switch
        port numbers still match the unsharded build, because links are
        walked in global ``topology.links`` order either way.
    link_keys:
        Assign each link direction the partition-independent arrival
        tie key base (``link id * 2 + direction``) and an entity-keyed
        loss RNG, the sharded kernel's determinism contract.
    boundary_factory:
        ``callable(index, spec, local_attachment, local_is_a)`` that
        returns a link-like boundary stub (see ``repro.sim.shard``).
        Required when ``local_nodes`` leaves boundary links.
    """

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        num_tables: int = 4,
        table_capacity: int = 0,
        eviction_policy: Optional[str] = None,
        miss_behaviour: str = "controller",
        telemetry=None,
        fast_path: bool = True,
        local_nodes=None,
        link_keys: bool = False,
        boundary_factory=None,
    ) -> None:
        topology.validate()
        self.topology = topology
        # An existing kernel brings its own telemetry plane along.
        self.sim = (sim if sim is not None
                    else Simulator(seed=seed, telemetry=telemetry))
        self.telemetry = self.sim.telemetry
        self.switches: Dict[str, Datapath] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self._link_index: Dict[Tuple[str, str], Link] = {}
        #: switch name -> {neighbour name -> local port number}
        self._port_map: Dict[str, Dict[str, int]] = {}
        self._next_port: Dict[str, int] = {}
        self._agents: Dict[str, SwitchAgent] = {}
        self._channels: Dict[str, ControlChannel] = {}
        #: switch name -> every agent bound to it (one per controller
        #: instance in cluster mode; a singleton list otherwise).
        self._agents_by_switch: Dict[str, List[SwitchAgent]] = {}
        self._local = set(local_nodes) if local_nodes is not None else None
        self._link_keys = link_keys
        self._boundary_factory = boundary_factory

        for spec in topology.switches:
            if self._local is not None and spec.name not in self._local:
                continue
            dp = Datapath(
                spec.dpid,
                self.sim,
                num_tables=num_tables,
                table_capacity=table_capacity,
                eviction_policy=eviction_policy,
                miss_behaviour=miss_behaviour,
                fast_path=fast_path,
            )
            self.switches[spec.name] = dp
            self._port_map[spec.name] = {}
            self._next_port[spec.name] = 1
        for spec in topology.hosts:
            if self._local is not None and spec.name not in self._local:
                continue
            self.hosts[spec.name] = Host(
                self.sim, spec.name, spec.mac, spec.ip)
        for index, link_spec in enumerate(topology.links):
            self._build_link(link_spec, index)

    # ------------------------------------------------------------------
    # Construction plumbing
    # ------------------------------------------------------------------
    def _attachment_for(self, name: str) -> Attachment:
        if name in self.switches:
            dp = self.switches[name]
            port_no = self._next_port[name]
            self._next_port[name] += 1
            dp.add_port(port_no)
            return Attachment(
                name, port_no,
                lambda pkt, dp=dp, p=port_no: dp.inject(pkt, p),
            )
        host = self.hosts[name]
        return Attachment(name, 0, host.receive)

    def _build_link(self, spec, index: int = 0) -> None:
        local = self._local
        if local is not None and spec.a not in local and spec.b not in local:
            return  # another shard's link entirely
        if local is not None and (spec.a in local) != (spec.b in local):
            self._build_boundary(spec, index)
            return
        att_a = self._attachment_for(spec.a)
        att_b = self._attachment_for(spec.b)
        link = Link(
            self.sim, att_a, att_b,
            bandwidth_bps=spec.bandwidth_bps,
            delay=spec.delay,
            loss_rate=spec.loss_rate,
            queue_capacity=spec.queue_capacity,
            priority_bands=spec.priority_bands,
        )
        if self._link_keys:
            # Determinism contract: arrival ordering keyed by link id,
            # loss draws keyed by (link id, direction) — both invariant
            # under any partitioning of the topology.
            link._ab.key_base = index * 2
            link._ba.key_base = index * 2 + 1
            link._ab.rng = self.sim.fork_rng(name=f"linkdir:{index}:0")
            link._ba.rng = self.sim.fork_rng(name=f"linkdir:{index}:1")
        self.links.append(link)
        self._link_index[(spec.a, spec.b)] = link
        self._link_index[(spec.b, spec.a)] = link
        for name, att in ((spec.a, att_a), (spec.b, att_b)):
            other = spec.b if name == spec.a else spec.a
            if name in self.switches:
                self._port_map[name][other] = att.port_no
        # Wire switch transmit hooks (idempotent re-assignment).
        for name in (spec.a, spec.b):
            if name in self.switches:
                self._wire_switch_tx(name)
            else:
                self.hosts[name].attach(link)

    def _build_boundary(self, spec, index: int) -> None:
        if self._boundary_factory is None:
            raise TopologyError(
                f"link {spec.a} -- {spec.b} crosses the shard boundary "
                f"but no boundary_factory was supplied"
            )
        local_is_a = spec.a in self._local
        local_name = spec.a if local_is_a else spec.b
        att = self._attachment_for(local_name)
        link = self._boundary_factory(index, spec, att, local_is_a)
        self.links.append(link)
        self._link_index[(spec.a, spec.b)] = link
        self._link_index[(spec.b, spec.a)] = link
        other = spec.b if local_is_a else spec.a
        if local_name in self.switches:
            self._port_map[local_name][other] = att.port_no
            self._wire_switch_tx(local_name)
        else:
            self.hosts[local_name].attach(link)

    def _wire_switch_tx(self, name: str) -> None:
        dp = self.switches[name]
        links_by_port: Dict[int, Link] = {}
        for (a, b), link in self._link_index.items():
            if a == name:
                port = self._port_map[name].get(b)
                if port is not None:
                    links_by_port[port] = link

        def transmit(port_no: int, packet: Packet, size: int,
                     table: Dict[int, Link] = links_by_port) -> None:
            link = table.get(port_no)
            if link is not None:
                link.send_from(name, packet, size)

        dp.transmit = transmit

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        if name not in self.hosts:
            raise TopologyError(f"unknown host {name!r}")
        return self.hosts[name]

    def switch(self, name: str) -> Datapath:
        if name not in self.switches:
            raise TopologyError(f"unknown switch {name!r}")
        return self.switches[name]

    def switch_name(self, dpid: int) -> str:
        for name, dp in self.switches.items():
            if dp.dpid == dpid:
                return name
        raise TopologyError(f"unknown dpid {dpid}")

    def link(self, a: str, b: str) -> Link:
        link = self._link_index.get((a, b))
        if link is None:
            raise TopologyError(f"no link {a} -- {b}")
        return link

    def port_of(self, switch: str, neighbour: str) -> int:
        """The local port on ``switch`` that faces ``neighbour``."""
        ports = self._port_map.get(switch)
        if ports is None or neighbour not in ports:
            raise TopologyError(f"no port on {switch} toward {neighbour}")
        return ports[neighbour]

    # ------------------------------------------------------------------
    # Control plane attachment
    # ------------------------------------------------------------------
    def make_channel(
        self,
        switch_name: str,
        latency: float = 0.001,
        bandwidth_bps: float = 0.0,
        flowmod_delay: float = 0.0,
        instance: Optional[int] = None,
    ) -> ControlChannel:
        """Create a control channel + agent for one switch.

        The controller side of the returned channel is unclaimed; the
        platform (or a test) hooks its ``controller_end``.  With
        ``instance`` (cluster mode) a switch carries one channel per
        controller instance, registered as ``"<switch>#<instance>"``.
        """
        key = (switch_name if instance is None
               else f"{switch_name}#{instance}")
        if key in self._channels:
            raise TopologyError(
                f"switch {key} already has a control channel"
            )
        channel = ControlChannel(self.sim, latency=latency,
                                 bandwidth_bps=bandwidth_bps,
                                 name=key)
        agent = SwitchAgent(self.switches[switch_name], channel,
                            flowmod_delay=flowmod_delay)
        self._channels[key] = channel
        self._agents[key] = agent
        self._agents_by_switch.setdefault(switch_name, []).append(agent)
        return channel

    def channel(self, switch_name: str) -> ControlChannel:
        """A switch's channel; in cluster mode, instance 0's unless the
        ``"<switch>#<instance>"`` form names another."""
        found = self._channels.get(switch_name)
        if found is None:
            found = self._channels.get(f"{switch_name}#0")
        if found is None:
            raise TopologyError(f"switch {switch_name} has no channel")
        return found

    def agent(self, switch_name: str) -> SwitchAgent:
        """The ZOF agent created by :meth:`make_channel` for a switch."""
        found = self._agents.get(switch_name)
        if found is None:
            found = self._agents.get(f"{switch_name}#0")
        if found is None:
            raise TopologyError(f"switch {switch_name} has no agent")
        return found

    def agents_of(self, switch_name: str) -> List[SwitchAgent]:
        """Every agent bound to ``switch_name`` (all instances)."""
        agents = self._agents_by_switch.get(switch_name)
        if not agents:
            raise TopologyError(f"switch {switch_name} has no agent")
        return list(agents)

    @property
    def channels(self) -> Dict[str, ControlChannel]:
        return dict(self._channels)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_link(self, a: str, b: str) -> None:
        """Cut the a--b link and lower the corresponding switch ports."""
        link = self.link(a, b)
        link.fail()
        self._set_link_ports(a, b, up=False)

    def recover_link(self, a: str, b: str) -> None:
        link = self.link(a, b)
        link.recover()
        self._set_link_ports(a, b, up=True)

    def _set_link_ports(self, a: str, b: str, up: bool) -> None:
        if a in self.switches:
            self.switches[a].set_port_state(self.port_of(a, b), up)
        if b in self.switches:
            self.switches[b].set_port_state(self.port_of(b, a), up)

    def fail_switch(self, name: str) -> None:
        """Take a whole switch down: every adjacent link is cut."""
        for neighbour in self.topology.neighbours(name):
            if self.link(name, neighbour).up:
                self.fail_link(name, neighbour)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_until_idle(max_events=max_events)

    def ping_all(self, count: int = 1, timeout: float = 5.0,
                 settle: float = 10.0) -> float:
        """All-pairs ping; returns the delivery ratio in [0, 1].

        The network runs for ``settle`` simulated seconds after the last
        probe is sent, which must cover ARP resolution and reactive flow
        setup.
        """
        sessions = []
        hosts = list(self.hosts.values())
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                sessions.append(src.ping(dst.ip, count=count,
                                         timeout=timeout))
        self.run((count - 1) * 1.0 + timeout + settle)
        expected = sum(s.count for s in sessions)
        received = sum(s.received for s in sessions)
        return received / expected if expected else 1.0

    def reset_utilisation_windows(self) -> None:
        for link in self.links:
            link.reset_utilisation_window()

    def __repr__(self) -> str:
        return (
            f"<Network {self.topology.name!r}: "
            f"{len(self.switches)} switches, {len(self.hosts)} hosts>"
        )
