"""ZenPlatform: the whole stack assembled with one call.

The platform is the top of the layering: it instantiates the emulated
network, the control plane (one controller, or a cluster of N instances
sharing the fabric), the standard service apps (discovery, host
tracking, ARP proxying), and a forwarding profile — then connects every
switch's control channel.  Examples and benchmarks build on this instead
of re-wiring the stack by hand.

Profiles
--------
* ``reactive``  — L2 learning switch (flows installed on demand).
* ``proactive`` — all-pairs shortest-path routing, pre-installed.
* ``bare``      — services only; the caller adds its own apps.

A scripted, observed run is assembled in one place,
``repro.workload.assemble``: ``start`` → ``net.seed_static_arp`` →
``fault_schedule`` → observers → ``repro.faults.arm_faults`` →
traffic → ``run`` (ARCHITECTURE.md, "Scenario document and assembly
order").

Cluster determinism contract: with zero faults the dataplane is
bit-identical for any cluster size — per-node discovery runs with
``jitter=0.0`` (no main-RNG draws), each switch is programmed by
exactly one master, and the bus delivers synchronously.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps.arp_proxy import ArpProxy
from repro.apps.learning_switch import LearningSwitch
from repro.apps.proactive_router import ProactiveRouter
from repro.controller.core import App, Controller
from repro.controller.discovery import TopologyDiscovery
from repro.controller.hosttracker import HostTracker
from repro.controller.intents import IntentService
from repro.errors import ControllerError
from repro.netem.network import Network
from repro.netem.topology import Topology
from repro.sim import Simulator

__all__ = ["ZenPlatform", "dataplane_observables"]

_PROFILES = ("reactive", "proactive", "bare")


def dataplane_observables(net: Network) -> dict:
    """Everything the *dataplane* shows, as plain data (lists, so a
    saved run document reads back equal): a platform run's
    ``observables``.

    Flow tables with each entry's counters and install time, per-table
    lookup and match counts, datapath and port counters, and host
    tx/rx — deliberately excluding control-channel and controller-side
    counters, which legitimately differ with cluster size (N instances
    exchange more control messages while programming the very same
    dataplane).
    """
    return {
        "switches": {
            name: {
                "stats": dp.stats(),
                "tables": [[table.table_id, table.lookup_count,
                            table.matched_count] for table in dp.tables],
                "ports": [dp.ports[n].stats() for n in sorted(dp.ports)],
                "flows": sorted(
                    [table.table_id, entry.priority, repr(entry.match),
                     repr(sorted(map(repr, entry.actions))),
                     entry.packet_count, entry.byte_count,
                     entry.install_time]
                    for table in dp.tables
                    for entry in table
                ),
            }
            for name, dp in net.switches.items()
        },
        "hosts": {
            name: {"tx": host.tx_packets, "rx": host.rx_packets,
                   "tx_bytes": host.tx_bytes, "rx_bytes": host.rx_bytes}
            for name, host in net.hosts.items()
        },
    }


class ZenPlatform:
    """One-call assembly of network + control plane + app stack.

    Parameters
    ----------
    topology:
        What to emulate.
    profile:
        Forwarding profile (see module docstring).
    control_latency:
        One-way switch-to-controller delay.
    flowmod_delay:
        Per-flow-mod switch install time (TCAM latency model).
    packet_in_service_time:
        Controller CPU per punted packet.
    intents:
        Also start the intent service (proactive/bare profiles;
        single-controller only).
    controllers:
        ``None``: one plain :class:`Controller`.  N >= 1: a
        :class:`~repro.cluster.node.ControllerCluster` of N instances,
        one channel per (switch, instance), initial mastership agreed
        by the rendezvous election (``1`` is the differential oracle).
        ``controller``/``discovery``/… then name node 0's.  The
        rendezvous-hash election is seeded with ``seed``.
    """

    def __init__(
        self,
        topology: Topology,
        profile: str = "proactive",
        seed: int = 0,
        control_latency: float = 0.001,
        flowmod_delay: float = 0.0,
        packet_in_service_time: float = 0.0,
        num_tables: int = 4,
        table_capacity: int = 0,
        eviction_policy: Optional[str] = None,
        intents: bool = False,
        probe_interval: float = 1.0,
        exact_match: bool = False,
        telemetry=None,
        fast_path: bool = True,
        controllers: Optional[int] = None,
    ) -> None:
        if profile not in _PROFILES:
            raise ControllerError(
                f"unknown profile {profile!r}; pick one of {_PROFILES}"
            )
        if intents and controllers is not None:
            raise ControllerError(
                "the intent service is single-controller only; "
                "drop intents=True or controllers"
            )
        self.profile = profile
        self.net = Network(
            topology,
            seed=seed,
            num_tables=num_tables,
            table_capacity=table_capacity,
            eviction_policy=eviction_policy,
            telemetry=telemetry,
            fast_path=fast_path,
        )
        #: The observability plane shared by every layer of this stack.
        self.telemetry = self.net.telemetry
        #: The :class:`~repro.cluster.node.ControllerCluster`, or
        #: ``None`` on a single-controller platform.
        self.cluster = None
        if controllers is None:
            nodes = [Controller(
                self.net.sim,
                packet_in_service_time=packet_in_service_time,
            )]
            discovery_opts = {}
        else:
            # Imported here so single-controller runs never load it.
            from repro.cluster.node import ControllerCluster

            self.cluster = ControllerCluster(
                self.net.sim, controllers,
                seed=seed,
                packet_in_service_time=packet_in_service_time,
            )
            nodes = self.cluster.controllers
            # Probe timing must not consume main-RNG draws, or the draw
            # count (and every downstream stream) would depend on the
            # cluster size.
            discovery_opts = {"jitter": 0.0}
        self.controller = nodes[0]
        for node in nodes:
            # Service apps every profile needs, then the profile's own.
            discovery = node.add_app(TopologyDiscovery(
                probe_interval=probe_interval, **discovery_opts
            ))
            tracker = node.add_app(HostTracker())
            arp_proxy = node.add_app(ArpProxy())
            learning = router = None
            if profile == "reactive":
                learning = node.add_app(
                    LearningSwitch(exact_match=exact_match)
                )
            elif profile == "proactive":
                router = node.add_app(ProactiveRouter())
            if self.cluster is not None:
                node.attach_discovery(discovery)
                node.start_replication()
                node.wipe_hooks.append(self._make_wipe_hook(
                    discovery, tracker, learning
                ))
            if node is self.controller:
                self.discovery: TopologyDiscovery = discovery
                self.hosts: HostTracker = tracker
                self.arp_proxy: ArpProxy = arp_proxy
                self.learning: Optional[LearningSwitch] = learning
                self.router: Optional[ProactiveRouter] = router
        self.intents: Optional[IntentService] = None
        if intents:
            self.intents = self.controller.add_app(IntentService())
        if self.cluster is not None:
            self.cluster.seed_assignment(
                dp.dpid for dp in self.net.switches.values()
            )
        # One channel per (switch, instance), switch-major so per-switch
        # handshakes complete in node order deterministically.
        for name in self.net.switches:
            for node in nodes:
                channel = self.net.make_channel(
                    name,
                    latency=control_latency,
                    flowmod_delay=flowmod_delay,
                    instance=(None if self.cluster is None
                              else node.node_id),
                )
                node.accept_channel(channel)
                channel.connect()

    @staticmethod
    def _make_wipe_hook(discovery, tracker, learning):
        """What a crashed cluster node forgets (its apps' soft state;
        what its apps had installed went with the node's ledger)."""
        def wipe() -> None:
            discovery.forget()
            tracker.hosts_by_mac.clear()
            tracker.hosts_by_ip.clear()
            if learning is not None:
                learning.mac_tables.clear()
        return wipe

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.net.sim

    def start(self, warmup: Optional[float] = None) -> "ZenPlatform":
        """Run long enough for handshakes and discovery to settle."""
        if warmup is None:
            warmup = 2 * self.discovery.probe_interval + 0.5
        self.net.run(warmup)
        return self

    def run(self, duration: float) -> None:
        self.net.run(duration)

    def add_app(self, app: App) -> App:
        return self.controller.add_app(app)

    # ------------------------------------------------------------------
    # Run assembly (the fault plane is imported on use: a bare platform
    # never pays for it)
    # ------------------------------------------------------------------
    def fault_schedule(self):
        """A :class:`~repro.faults.FaultSchedule` over this platform's
        network, already bound to the cluster when there is one."""
        from repro.faults import FaultSchedule

        return FaultSchedule(self.net, self.cluster)

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    def host(self, name: str):
        return self.net.host(name)

    def switch(self, name: str):
        return self.net.switch(name)

    def ping_all(self, count: int = 1, settle: float = 10.0) -> float:
        return self.net.ping_all(count=count, settle=settle)

    def fail_link(self, a: str, b: str) -> None:
        self.net.fail_link(a, b)

    def recover_link(self, a: str, b: str) -> None:
        self.net.recover_link(a, b)

    def control_overhead(self) -> Dict[str, dict]:
        """Per-switch control-channel counters (benchmark E9)."""
        return {
            name: channel.total_stats()
            for name, channel in self.net.channels.items()
        }

    def _control_total(self, field: str) -> int:
        return sum(stats[way][field]
                   for stats in self.control_overhead().values()
                   for way in ("to_controller", "to_switch"))

    def total_control_messages(self) -> int:
        return self._control_total("messages")

    def total_control_bytes(self) -> int:
        return self._control_total("bytes")

    def __repr__(self) -> str:
        return (
            f"<ZenPlatform {self.profile!r} on "
            f"{self.net.topology.name!r}>"
        )
