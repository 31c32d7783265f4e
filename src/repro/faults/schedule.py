"""Scripted fault injection driven by the simulation kernel.

A :class:`FaultSchedule` wraps a :class:`~repro.netem.network.Network`
and arms failures at absolute simulated times.  Every injection is an
ordinary kernel event, so fault scenarios replay bit-identically under a
fixed seed — the property benchmark E11 leans on to sweep flap
frequencies and compare runs.

The schedule injects; it never repairs state itself.  Recovery is the
platform's job: the controller resyncs flow tables on reconnect, the
channel fails pending requests explicitly, routing apps re-path around
a stale dpid.  What the schedule *does* keep is an execution log
(:class:`FaultEvent` per injection) and fault/recovery telemetry.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import TopologyError
from repro.netem.network import Network

__all__ = ["FaultEvent", "FaultSchedule", "arm_faults", "fault_end"]


class FaultEvent:
    """One executed injection: what, when, to whom.

    ``trace_id``/``span_id`` point at the injection's root span when
    tracing is on — the anchor the cluster handover chain, the obs
    annotations, and SLO exemplars all hang off.
    """

    __slots__ = ("time", "kind", "target", "trace_id", "span_id")

    def __init__(self, time: float, kind: str, target: str,
                 trace_id: Optional[int] = None,
                 span_id: Optional[int] = None) -> None:
        self.time = time
        self.kind = kind
        self.target = target
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"<FaultEvent t={self.time:.3f} {self.kind} {self.target}>"


class FaultSchedule:
    """Scripts failures against a network at simulated times.

    All ``at``/``start`` times are *absolute* simulated seconds (matching
    ``sim.schedule_at``), so a schedule composed before ``run()`` reads
    like a timeline.  Methods return ``self`` for chaining::

        FaultSchedule(net) \
            .link_flap(5.0, "s1", "s2", down_for=0.5, period=2.0, count=3) \
            .channel_flap(5.0, "s3", down_for=0.4, period=1.0, count=2) \
            .switch_crash(8.0, "s4", restart_after=1.0)

    Injections are armed immediately (kernel events); the ``log`` fills
    in as they fire.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.sim = net.sim
        self.log: List[FaultEvent] = []
        self.injected = 0
        #: Controller cluster targeted by controller_* faults; set via
        #: :meth:`attach_cluster`.
        self.cluster = None
        #: Post-fire hooks: each is called, in registration order, with
        #: the :class:`FaultEvent` after the injection's action ran.
        #: The invariant monitor uses this to audit the dataplane at the
        #: exact injection instant — before any control-plane reaction
        #: has been processed.
        self.on_fire: List[Callable[[FaultEvent], None]] = []
        tel = net.telemetry
        self._m_faults = tel.metrics.counter(
            "faults_injected_total", "Scripted fault injections",
            ("kind",),
        )
        self._tracer = tel.tracer if tel.tracing else None

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def link_down(self, at: float, a: str, b: str) -> "FaultSchedule":
        """Cut the a--b link at time ``at``."""
        self.net.link(a, b)  # validate now, not at fire time
        self._arm(at, "link_down", f"{a}-{b}",
                  lambda: self.net.fail_link(a, b))
        return self

    def link_up(self, at: float, a: str, b: str) -> "FaultSchedule":
        """Restore the a--b link at time ``at``."""
        self.net.link(a, b)
        self._arm(at, "link_up", f"{a}-{b}",
                  lambda: self.net.recover_link(a, b))
        return self

    def link_flap(self, start: float, a: str, b: str, down_for: float,
                  period: float, count: int = 1) -> "FaultSchedule":
        """``count`` down/up cycles: down at ``start + k*period`` for
        ``down_for`` seconds each."""
        _check_flap(down_for, period, count)
        for k in range(count):
            t = start + k * period
            self.link_down(t, a, b)
            self.link_up(t + down_for, a, b)
        return self

    # ------------------------------------------------------------------
    # Control-channel faults
    # ------------------------------------------------------------------
    def channel_down(self, at: float, switch: str) -> "FaultSchedule":
        """Drop the control channel of ``switch`` at time ``at``."""
        channel = self.net.channel(switch)
        self._arm(at, "channel_down", switch, channel.disconnect)
        return self

    def channel_up(self, at: float, switch: str) -> "FaultSchedule":
        """Reconnect the control channel of ``switch`` at time ``at``."""
        channel = self.net.channel(switch)
        self._arm(at, "channel_up", switch, channel.connect)
        return self

    def channel_flap(self, start: float, switch: str, down_for: float,
                     period: float, count: int = 1) -> "FaultSchedule":
        """``count`` disconnect/reconnect cycles on one control channel."""
        _check_flap(down_for, period, count)
        for k in range(count):
            t = start + k * period
            self.channel_down(t, switch)
            self.channel_up(t + down_for, switch)
        return self

    # ------------------------------------------------------------------
    # Switch-agent faults
    # ------------------------------------------------------------------
    def switch_crash(self, at: float, switch: str,
                     restart_after: Optional[float] = None,
                     wipe_state: bool = True) -> "FaultSchedule":
        """Crash the ZOF agent(s) of ``switch`` (reboot semantics by
        default); optionally restart ``restart_after`` seconds later.

        In cluster mode a switch carries one agent per controller
        instance; a physical crash takes down every one of them.
        """
        agents = self.net.agents_of(switch)

        def crash_all() -> None:
            for i, agent in enumerate(agents):
                # State is shared per datapath: wipe it once.
                agent.crash(wipe_state=wipe_state and i == 0)

        self._arm(at, "switch_crash", switch, crash_all)
        if restart_after is not None:
            self.switch_restart(at + restart_after, switch)
        return self

    def switch_restart(self, at: float, switch: str) -> "FaultSchedule":
        """Bring a crashed agent back: reconnect and re-handshake."""
        agents = self.net.agents_of(switch)

        def restart_all() -> None:
            for agent in agents:
                agent.restart()

        self._arm(at, "switch_restart", switch, restart_all)
        return self

    # ------------------------------------------------------------------
    # Controller-cluster faults
    # ------------------------------------------------------------------
    def attach_cluster(self, cluster) -> "FaultSchedule":
        """Bind a :class:`~repro.cluster.node.ControllerCluster` so the
        ``controller_*`` fault kinds can target its nodes."""
        self.cluster = cluster
        return self

    def _require_cluster(self):
        if self.cluster is None:
            raise TopologyError(
                "no cluster attached; call attach_cluster() first"
            )
        return self.cluster

    def controller_crash(self, at: float, node: int,
                         restart_after: Optional[float] = None,
                         ) -> "FaultSchedule":
        """Fail-stop controller instance ``node``: its channels drop,
        its in-memory state is lost, and the survivors take over its
        switches after the detection delay.  Optionally restart it
        ``restart_after`` seconds later (it rejoins empty and resyncs
        from its peers before reclaiming any mastership).
        """
        cluster = self._require_cluster()
        cluster.node(node)  # validate now, not at fire time
        self._arm(at, "controller_crash", f"controller-{node}",
                  lambda: cluster.crash_node(node))
        if restart_after is not None:
            self.controller_restart(at + restart_after, node)
        return self

    def controller_restart(self, at: float, node: int) -> "FaultSchedule":
        """Restart a crashed controller instance at time ``at``."""
        cluster = self._require_cluster()
        self._arm(at, "controller_restart", f"controller-{node}",
                  lambda: cluster.restart_node(node))
        return self

    def controller_partition(self, at: float, groups,
                             heal_after: Optional[float] = None,
                             ) -> "FaultSchedule":
        """Split the east-west bus into ``groups`` (lists of node ids)
        at time ``at``; optionally heal ``heal_after`` seconds later.
        Minority-side nodes self-demote their masterships; the majority
        side adopts them, fenced by bumped terms.
        """
        cluster = self._require_cluster()
        frozen = [list(g) for g in groups]
        label = "|".join(",".join(str(n) for n in g) for g in frozen)
        self._arm(at, "controller_partition", label,
                  lambda: cluster.partition(frozen))
        if heal_after is not None:
            self.controller_heal(at + heal_after)
        return self

    def controller_heal(self, at: float) -> "FaultSchedule":
        """Reconnect all east-west partitions at time ``at``."""
        cluster = self._require_cluster()
        self._arm(at, "controller_heal", "cluster", cluster.heal)
        return self

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------
    def _arm(self, at: float, kind: str, target: str, action) -> None:
        if at < self.sim.now:
            raise TopologyError(
                f"cannot schedule {kind} at {at}; now is {self.sim.now}"
            )
        self.sim.schedule_at(at, self._fire, kind, target, action)

    def _fire(self, kind: str, target: str, action) -> None:
        event = FaultEvent(self.sim.now, kind, target)
        self.log.append(event)
        self.injected += 1
        self._m_faults.labels(kind).inc()
        if self._tracer is not None:
            tid = self._tracer.start_trace(f"fault:{kind} {target}")
            sid = self._tracer.record(tid, f"fault.{kind}", "fault",
                                      target=target)
            event.trace_id = tid
            event.span_id = sid
            if (self.cluster is not None
                    and kind.startswith("controller")):
                # Hand the root span to the cluster: the asynchronous
                # handover chain (death detection -> election -> term
                # bump -> role grant -> resync) records under it.
                self.cluster.note_fault_trace(tid, sid, self.sim.now)
        action()
        for hook in self.on_fire:
            hook(event)

    def events(self, kind: Optional[str] = None) -> List[FaultEvent]:
        """Executed injections so far, optionally filtered by kind."""
        if kind is None:
            return list(self.log)
        return [e for e in self.log if e.kind == kind]

    def __repr__(self) -> str:
        return f"<FaultSchedule {self.injected} injected>"


def _check_flap(down_for: float, period: float, count: int) -> None:
    if down_for <= 0:
        raise TopologyError(f"down_for must be positive: {down_for}")
    if period <= down_for:
        raise TopologyError(
            f"period ({period}) must exceed down_for ({down_for})"
        )
    if count < 1:
        raise TopologyError(f"count must be >= 1: {count}")


def _period(fault: dict) -> float:
    """A flap dict's cycle spacing.  A lone cycle has no next cycle to
    overlap, so its period is moot: hand the schedule one its overlap
    check accepts."""
    if fault["count"] > 1:
        return fault["period"]
    return max(fault["period"], 2 * fault["down_for"])


def _check_timing(kind: str, fault: dict) -> None:
    """Reject a timing no run can honour: a negative ``at``, a flap
    that never comes up or overlaps its next cycle, a crash or
    partition that recovers before (or as) it strikes."""
    if fault["at"] < 0:
        raise TopologyError(f"at must be >= 0: {fault['at']}")
    if kind.endswith("_flap"):
        _check_flap(fault["down_for"], _period(fault), fault["count"])
        return
    field = ("heal_after" if kind == "controller_partition"
             else "restart_after")
    if fault[field] <= 0:
        raise TopologyError(f"{field} must be positive: {fault[field]}")


def _arm_partition(schedule: FaultSchedule, at: float, fault: dict) -> None:
    minority = list(fault["minority"])
    rest = [n for n in range(schedule._require_cluster().size)
            if n not in minority]
    schedule.controller_partition(at, [minority, rest],
                                  heal_after=fault["heal_after"])


def _flap_end(fault: dict) -> float:
    # The k-th cycle goes down at ``at + k*period`` and comes back
    # ``down_for`` later, so the last recovery — not ``at + count*period``,
    # which overshoots by ``period - down_for`` — ends the fault.
    return (fault["at"] + (fault["count"] - 1) * fault["period"]
            + fault["down_for"])


#: Fault-dict ``kind`` -> (the schedule call it lowers to, when its last
#: recovery fires).  The dict form is what workload specs, fuzz
#: scenarios and the CLI all carry.
_KINDS = {
    "link_flap": (
        lambda s, at, f: s.link_flap(
            at, f["a"], f["b"], down_for=f["down_for"], period=_period(f),
            count=f["count"]),
        _flap_end),
    "channel_flap": (
        lambda s, at, f: s.channel_flap(
            at, f["switch"], down_for=f["down_for"], period=_period(f),
            count=f["count"]),
        _flap_end),
    "switch_crash": (
        lambda s, at, f: s.switch_crash(
            at, f["switch"], restart_after=f["restart_after"]),
        lambda f: f["at"] + f["restart_after"]),
    "controller_crash": (
        lambda s, at, f: s.controller_crash(
            at, f["node"], restart_after=f["restart_after"]),
        lambda f: f["at"] + f["restart_after"]),
    "controller_partition": (
        _arm_partition,
        lambda f: f["at"] + f["heal_after"]),
}


def _kind_entry(fault: dict, label: str):
    kind = fault.get("kind")
    entry = _KINDS.get(kind)
    if entry is None:
        raise TopologyError(
            f"{label}: unknown kind {kind!r}; pick from {sorted(_KINDS)}"
        )
    return kind, entry


def arm_faults(schedule: FaultSchedule, faults: List[dict],
               base: float = 0.0) -> None:
    """Arm every fault dict on ``schedule``, ``at`` relative to ``base``.

    Raises :class:`~repro.errors.TopologyError` naming the offending
    list index and kind for an unknown kind, a missing field, or a
    fault the schedule rejects (bad target, controller kind without a
    cluster).
    """
    for index, fault in enumerate(faults):
        kind, (arm, _) = _kind_entry(fault, f"fault #{index}")
        try:
            arm(schedule, base + fault["at"], fault)
        except KeyError as exc:
            raise TopologyError(
                f"fault #{index} ({kind}): missing field {exc}"
            ) from exc
        except TopologyError as exc:
            raise TopologyError(f"fault #{index} ({kind}): {exc}") from exc


def fault_end(fault: dict, label: str = "fault") -> float:
    """When ``fault``'s last recovery fires, on the clock its ``at`` is
    on — what a run's length must cover for the fault to have healed.

    Raises :class:`~repro.errors.TopologyError` naming ``label`` and
    the kind, as :func:`arm_faults` does, for an unknown kind, a missing
    field or a timing no run can honour — so a spec, which reads every
    fault through here, fails before any simulated time.
    """
    kind, (_, end) = _kind_entry(fault, label)
    try:
        _check_timing(kind, fault)
        return end(fault)
    except KeyError as exc:
        raise TopologyError(
            f"{label} ({kind}): missing field {exc}"
        ) from exc
    except TopologyError as exc:
        raise TopologyError(f"{label} ({kind}): {exc}") from exc
