"""An ONOS-style intent framework.

Intents are declarative connectivity requests ("host A talks to host B")
that the service *compiles* into flow rules against the current topology
and *keeps satisfied* as the network changes: link failures, host moves,
and switch departures all trigger recompilation of exactly the affected
intents.  Benchmark E8 measures that reconvergence.

Flow rules installed on behalf of an intent carry the intent id as their
cookie, so withdrawal and rerouting can remove them surgically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import (
    HostMoved,
    LinkDiscovered,
    LinkVanished,
    SwitchLeave,
)
from repro.controller.hosttracker import HostTracker
from repro.controller.pathing import PathService
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.errors import ControllerError, IntentError
from repro.packet import IPv4Address, MACAddress

__all__ = ["Intent", "HostToHostIntent", "IntentService", "IntentState"]

#: Priority used for intent rules.
INTENT_PRIORITY = 30000


class IntentState:
    SUBMITTED = "submitted"
    INSTALLED = "installed"
    FAILED = "failed"
    WITHDRAWN = "withdrawn"


class Intent:
    """Base class for declarative connectivity requests."""

    def __init__(self) -> None:
        #: Allocated by :meth:`IntentService.submit` from the run's
        #: simulator — it goes on the wire as the flow cookie, so it
        #: must not depend on what else this process has run.
        self.intent_id: Optional[int] = None
        self.state = IntentState.SUBMITTED
        #: Rules currently installed: (dpid, match, priority, table_id).
        self.installed_rules: List[Tuple[int, Match, int, int]] = []
        #: dpid paths in use (for failure impact analysis).
        self.paths: List[List[int]] = []
        self.reroutes = 0

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} id={self.intent_id} "
            f"state={self.state}>"
        )


class HostToHostIntent(Intent):
    """Bidirectional L2 connectivity between two known hosts."""

    def __init__(self, src_mac: MACAddress, dst_mac: MACAddress) -> None:
        super().__init__()
        self.src_mac = MACAddress(src_mac)
        self.dst_mac = MACAddress(dst_mac)

    def endpoints(self) -> Tuple[MACAddress, MACAddress]:
        return self.src_mac, self.dst_mac


class IntentService(App):
    """Compiles and maintains intents against the live topology."""

    name = "intents"

    def __init__(self, discovery: Optional[TopologyDiscovery] = None,
                 host_tracker: Optional[HostTracker] = None) -> None:
        super().__init__()
        self._discovery = discovery
        self._tracker = host_tracker
        self._paths: Optional[PathService] = None
        self.intents: Dict[int, Intent] = {}
        #: Running count of recompilations caused by topology churn.
        self.reroute_events = 0
        #: Sim times at which a reroute batch finished (barrier-acked).
        self.reroute_done_times: List[float] = []

    def start(self, controller) -> None:
        super().start(controller)
        if self._discovery is None:
            self._discovery = controller.get_app(TopologyDiscovery)
        if self._tracker is None:
            self._tracker = controller.get_app(HostTracker)
        if self._discovery is None or self._tracker is None:
            raise IntentError(
                "IntentService needs TopologyDiscovery and HostTracker"
            )
        self._paths = PathService(self._discovery)
        controller.subscribe(LinkVanished, self._on_link_vanished,
                             owner=self.name)
        controller.subscribe(LinkDiscovered, self._on_link_discovered,
                             owner=self.name)
        controller.subscribe(HostMoved, self._on_host_moved,
                             owner=self.name)
        controller.subscribe(SwitchLeave, self._on_switch_leave_event,
                             owner=self.name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, intent: Intent) -> Intent:
        """Register ``intent`` and try to satisfy it immediately."""
        intent.intent_id = self.controller.sim.next_id("intent")
        self.intents[intent.intent_id] = intent
        self._compile(intent)
        return intent

    def connect_hosts(self, src_mac, dst_mac) -> HostToHostIntent:
        """Convenience: submit a host-to-host intent by MAC."""
        return self.submit(HostToHostIntent(MACAddress(src_mac),
                                            MACAddress(dst_mac)))

    def connect_ips(self, src_ip, dst_ip) -> HostToHostIntent:
        """Convenience: submit a host-to-host intent by IP.

        Both hosts must already be known to the host tracker.
        """
        src = self._tracker.require_ip(IPv4Address(src_ip))
        dst = self._tracker.require_ip(IPv4Address(dst_ip))
        return self.connect_hosts(src.mac, dst.mac)

    def withdraw(self, intent_id: int) -> None:
        intent = self.intents.pop(intent_id, None)
        if intent is None:
            raise IntentError(f"no intent with id {intent_id}")
        self._uninstall(intent)
        intent.state = IntentState.WITHDRAWN

    def installed_count(self) -> int:
        return sum(1 for i in self.intents.values()
                   if i.state == IntentState.INSTALLED)

    def failed_count(self) -> int:
        return sum(1 for i in self.intents.values()
                   if i.state == IntentState.FAILED)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, intent: Intent) -> None:
        """(Re)satisfy an intent, make-before-break.

        New-path rules are installed before old-path rules are removed,
        so a *planned* reroute (host move, better path appearing) never
        black-holes in-flight traffic.  Failure reroutes get the same
        treatment for free — the stale rules point into the dead link
        anyway and are removed once the new ones are in.
        """
        if not isinstance(intent, HostToHostIntent):
            raise IntentError(
                f"cannot compile intent type {type(intent).__name__}"
            )
        old_rules = list(intent.installed_rules)
        src = self._tracker.lookup_mac(intent.src_mac)
        dst = self._tracker.lookup_mac(intent.dst_mac)
        if src is None or dst is None:
            self._uninstall(intent)
            intent.state = IntentState.FAILED
            return
        if src.dpid == dst.dpid:
            path = [src.dpid]
        else:
            path = self._paths.shortest_path(src.dpid, dst.dpid)
            if path is None:
                self._uninstall(intent)
                intent.state = IntentState.FAILED
                return
        new_rules: List[Tuple[int, Match, int, int]] = []
        try:
            self._install_direction(intent, path, intent.src_mac,
                                    intent.dst_mac, dst.port, new_rules)
            self._install_direction(intent, list(reversed(path)),
                                    intent.dst_mac, intent.src_mac,
                                    src.port, new_rules)
        except ControllerError:
            # Discovery state moved under us (e.g. a port map went
            # stale mid-compile); clean up and retry on the next
            # topology event.
            intent.installed_rules = old_rules + new_rules
            self._uninstall(intent)
            intent.state = IntentState.FAILED
            return
        # Break after make: drop only the rules the new path no longer
        # uses.  (Per-switch channel FIFO guarantees the matching ADD
        # lands before any same-switch DELETE sent here.)
        fresh = set(new_rules)
        for rule in old_rules:
            if rule not in fresh:
                self._delete_rule(rule)
        intent.installed_rules = new_rules
        intent.paths = [path]
        intent.state = IntentState.INSTALLED

    def _install_direction(self, intent: Intent, path: List[int],
                           src_mac: MACAddress, dst_mac: MACAddress,
                           final_port: int,
                           out_rules: List[Tuple[int, Match, int, int]],
                           ) -> None:
        match = Match(eth_src=src_mac, eth_dst=dst_mac)
        hops = self._paths.path_ports(path) if len(path) > 1 else []
        hops.append((path[-1], final_port))
        for dpid, out_port in hops:
            switch = self.controller.switches.get(dpid)
            if switch is None:
                continue
            switch.add_flow(
                match,
                [Output(out_port)],
                priority=INTENT_PRIORITY,
                cookie=intent.intent_id,
            )
            out_rules.append((dpid, match, INTENT_PRIORITY, 0))

    def _delete_rule(self, rule: Tuple[int, Match, int, int]) -> None:
        dpid, match, priority, table_id = rule
        switch = self.controller.switches.get(dpid)
        if switch is not None:
            switch.delete_flows(match=match, table_id=table_id,
                                priority=priority, strict=True)

    def _uninstall(self, intent: Intent) -> None:
        for rule in intent.installed_rules:
            self._delete_rule(rule)
        intent.installed_rules = []
        intent.paths = []

    # ------------------------------------------------------------------
    # Reactions to topology churn
    # ------------------------------------------------------------------
    def _affected_by_link(self, dpid_a: int, dpid_b: int) -> List[Intent]:
        hit = []
        for intent in self.intents.values():
            if intent.state != IntentState.INSTALLED:
                continue
            for path in intent.paths:
                if self._paths.path_uses_link(path, dpid_a, dpid_b):
                    hit.append(intent)
                    break
        return hit

    def _recompile_batch(self, batch: List[Intent]) -> None:
        if not batch:
            return
        self.reroute_events += 1
        touched: set = set()
        for intent in batch:
            intent.reroutes += 1
            self._compile(intent)
            for dpid, *_ in intent.installed_rules:
                touched.add(dpid)
        self._await_barriers(touched)

    def _await_barriers(self, dpids: set) -> None:
        """Record the reroute-done time once every switch acks a barrier."""
        remaining = {d for d in dpids if d in self.controller.switches}
        if not remaining:
            self.reroute_done_times.append(self.sim.now)
            return

        def acked(dpid: int) -> None:
            remaining.discard(dpid)
            if not remaining:
                self.reroute_done_times.append(self.sim.now)

        for dpid in list(remaining):
            self.controller.switches[dpid].barrier(
                lambda d=dpid: acked(d)
            )

    def _on_link_vanished(self, event: LinkVanished) -> None:
        self._recompile_batch(
            self._affected_by_link(event.src_dpid, event.dst_dpid)
        )

    def _on_link_discovered(self, event: LinkDiscovered) -> None:
        failed = [i for i in self.intents.values()
                  if i.state == IntentState.FAILED]
        for intent in failed:
            self._compile(intent)

    def _on_host_moved(self, event: HostMoved) -> None:
        batch = [
            intent for intent in self.intents.values()
            if isinstance(intent, HostToHostIntent)
            and event.mac in intent.endpoints()
        ]
        self._recompile_batch(batch)

    def _on_switch_leave_event(self, event: SwitchLeave) -> None:
        batch = [
            intent for intent in self.intents.values()
            if intent.state == IntentState.INSTALLED
            and any(event.dpid in path for path in intent.paths)
        ]
        self._recompile_batch(batch)
