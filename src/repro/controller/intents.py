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

from typing import Callable, Dict, List, Optional, Tuple

from repro.controller.core import App, SwitchHandle
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
        #: Sim times at which a rerouted intent's update was barrier-
        #: acked; the last one of a batch is when the batch was done.
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
        self.controller.update((self.name, intent_id), ())
        intent.paths = []
        intent.state = IntentState.WITHDRAWN

    def on_switch_enter(self, switch: SwitchHandle) -> None:
        # A switch that was away when an intent was withdrawn still
        # holds its rules, and nobody will declare for that intent
        # again: reconcile them now that the switch is back.
        for owner in self.controller.owners_on(switch.dpid):
            if (isinstance(owner, tuple) and owner[0] == self.name
                    and owner[1] not in self.intents):
                self.controller.update(owner, ())

    def installed_count(self) -> int:
        return sum(1 for i in self.intents.values()
                   if i.state == IntentState.INSTALLED)

    def failed_count(self) -> int:
        return sum(1 for i in self.intents.values()
                   if i.state == IntentState.FAILED)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, intent: Intent,
                 on_done: Optional[Callable[[], None]] = None) -> None:
        """(Re)satisfy an intent: plan both directions, then declare.

        :meth:`Controller.update` sends new-path rules before it
        removes old-path ones, so a *planned* reroute (host move,
        better path appearing) never black-holes in-flight traffic.
        Failure reroutes get the same treatment for free — the stale
        rules point into the dead link anyway and are removed once the
        new ones are in.  An intent that cannot be planned holds no
        rules.
        """
        if not isinstance(intent, HostToHostIntent):
            raise IntentError(
                f"cannot compile intent type {type(intent).__name__}"
            )
        path, rules = self._plan(intent)
        self.controller.update((self.name, intent.intent_id), rules,
                               on_done)
        intent.paths = [] if path is None else [path]
        intent.state = (IntentState.FAILED if path is None
                        else IntentState.INSTALLED)

    def _plan(self, intent: HostToHostIntent
              ) -> Tuple[Optional[List[int]], List[Tuple[int, dict]]]:
        """The dpid path and every hop rule of both directions, or
        ``(None, [])`` while the intent cannot be satisfied."""
        src = self._tracker.lookup_mac(intent.src_mac)
        dst = self._tracker.lookup_mac(intent.dst_mac)
        if src is None or dst is None:
            return None, []
        if src.dpid == dst.dpid:
            path = [src.dpid]
        else:
            path = self._paths.shortest_path(src.dpid, dst.dpid)
            if path is None:
                return None, []
        try:
            return path, (
                self._direction_rules(intent, path, intent.src_mac,
                                      intent.dst_mac, dst.port)
                + self._direction_rules(intent, list(reversed(path)),
                                        intent.dst_mac, intent.src_mac,
                                        src.port))
        except ControllerError:
            # Discovery state moved under us (e.g. a port map went
            # stale mid-plan); retry on the next topology event.
            return None, []

    def _direction_rules(self, intent: Intent, path: List[int],
                         src_mac: MACAddress, dst_mac: MACAddress,
                         final_port: int) -> List[Tuple[int, dict]]:
        match = Match(eth_src=src_mac, eth_dst=dst_mac)
        hops = self._paths.path_ports(path) + [(path[-1], final_port)]
        return [
            (dpid, {"match": match, "actions": [Output(out_port)],
                    "priority": INTENT_PRIORITY,
                    "cookie": intent.intent_id})
            for dpid, out_port in hops
        ]

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
        for intent in batch:
            intent.reroutes += 1
            self._compile(intent, on_done=lambda: (
                self.reroute_done_times.append(self.sim.now)))

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
