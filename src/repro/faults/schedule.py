"""Scripted fault injection driven by the simulation kernel.

A fault is a dict, and :func:`arm_faults` is the one way to inject it::

    {"kind": "link_flap", "a": "s1", "b": "s2", "at": 1.0,
     "down_for": 0.5, "period": 2.0, "count": 3}

Workload specs, fuzz scenarios, the CLI and hand-built runs all carry
such dicts.  One table maps each kind to its lowering, the injections
it arms in firing order; :func:`fault_end` reads the same table, and
both check a fault's timing through one rule.  Every injection is an
ordinary kernel event, so fault runs replay bit-identically under a
fixed seed.  The schedule injects; it never repairs state itself —
recovery is the platform's job (controller resync on reconnect,
explicit request failure, re-pathing).  A :class:`FaultSchedule` keeps
the execution log, fault telemetry and the ``on_fire`` hooks.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.errors import TopologyError
from repro.netem.network import Network

__all__ = ["FaultEvent", "FaultSchedule", "arm_faults", "check_targets",
           "fault_end", "lower_fault"]


class FaultEvent:
    """One executed injection: what, when, to whom.

    ``trace_id``/``span_id`` point at the injection's root span when
    tracing is on — the anchor the cluster handover chain, the obs
    annotations, and SLO exemplars all hang off.
    """

    __slots__ = ("time", "kind", "target", "trace_id", "span_id")

    def __init__(self, time: float, kind: str, target: str) -> None:
        self.time = time
        self.kind = kind
        self.target = target
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None

    def __repr__(self) -> str:
        return f"<FaultEvent t={self.time:.3f} {self.kind} {self.target}>"


class FaultSchedule:
    """The log, metrics, tracing and hooks of the faults
    :func:`arm_faults` injects into ``net`` and ``cluster`` (the
    :class:`~repro.cluster.node.ControllerCluster` the ``controller_*``
    kinds target; ``None`` for one controller)."""

    def __init__(self, net: Network, cluster=None) -> None:
        self.net = net
        self.sim = net.sim
        self.cluster = cluster
        self.log: List[FaultEvent] = []
        #: Called in order with each :class:`FaultEvent` once its action
        #: ran: the invariant monitor audits the dataplane there, before
        #: any control-plane reaction.
        self.on_fire: List[Callable[[FaultEvent], None]] = []
        tel = net.telemetry
        self._m_faults = tel.metrics.counter(
            "faults_injected_total", "Scripted fault injections", ("kind",))
        self._tracer = tel.tracer if tel.tracing else None

    def _arm(self, at: float, kind: str, target: str, action) -> None:
        if at < self.sim.now:
            raise TopologyError(
                f"cannot schedule {kind} at {at}; now is {self.sim.now}"
            )
        self.sim.schedule_at(at, self._fire, kind, target, action)

    def _fire(self, kind: str, target: str, action) -> None:
        event = FaultEvent(self.sim.now, kind, target)
        self.log.append(event)
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

    def __repr__(self) -> str:
        return f"<FaultSchedule {len(self.log)} injected>"


# ----------------------------------------------------------------------
# The fault-dict table
# ----------------------------------------------------------------------
# A lowering maps a fault dict and its absolute ``at`` to the injections
# it arms, in firing order: ``(at, kind, bind)``.  ``bind(schedule)``
# checks the target when armed, not when fired, and returns the target
# label (a partition's names the cluster's other nodes) and the action.


def _cycles(fault: dict, at: float, down: tuple, up: tuple) -> list:
    """``count`` cycles of ``down`` then, ``down_for`` later, ``up``;
    the k-th cycle goes down at ``at + k*period``."""
    period = fault["period"]
    injections = []
    for k in range(fault["count"]):
        t = at + k * period
        injections += [(t,) + down, (t + fault["down_for"],) + up]
    return injections


def _link_flap(fault: dict, at: float) -> list:
    a, b = fault["a"], fault["b"]

    def on(method):
        def bind(s):
            s.net.link(a, b)
            return f"{a}-{b}", partial(getattr(s.net, method), a, b)
        return bind

    return _cycles(fault, at, ("link_down", on("fail_link")),
                   ("link_up", on("recover_link")))


def _channel_flap(fault: dict, at: float) -> list:
    switch = fault["switch"]

    def on(method):
        return lambda s: (switch, getattr(s.net.channel(switch), method))

    return _cycles(fault, at, ("channel_down", on("disconnect")),
                   ("channel_up", on("connect")))


def _crash_all(agents) -> None:
    for i, agent in enumerate(agents):
        agent.crash(wipe_state=i == 0)  # one datapath: wipe it once


def _restart_all(agents) -> None:
    for agent in agents:
        agent.restart()


def _switch_crash(fault: dict, at: float) -> list:
    """Reboot every ZOF agent of ``switch`` (one per controller
    instance), then restart them."""
    switch = fault["switch"]

    def on(act):
        return lambda s: (switch, partial(act, s.net.agents_of(switch)))

    return [(at, "switch_crash", on(_crash_all)),
            (at + fault["restart_after"], "switch_restart",
             on(_restart_all))]


def _controller_crash(fault: dict, at: float) -> list:
    """Fail-stop ``node``, then restart it empty to resync from peers."""
    node, label = fault["node"], f"controller-{fault['node']}"
    return [(at, "controller_crash",
             lambda s: (label, partial(s.cluster.crash_node, node))),
            (at + fault["restart_after"], "controller_restart",
             lambda s: (label, partial(s.cluster.restart_node, node)))]


def _controller_partition(fault: dict, at: float) -> list:
    """Split the east-west bus into ``minority`` and the rest, then
    heal it; the minority side self-demotes its masterships."""
    minority = list(fault["minority"])

    def split(s):
        groups = [minority, [n for n in range(s.cluster.size)
                             if n not in minority]]
        label = "|".join(",".join(str(n) for n in g) for g in groups)
        return label, partial(s.cluster.partition, groups)

    return [(at, "controller_partition", split),
            (at + fault["heal_after"], "controller_heal",
             lambda s: ("cluster", s.cluster.heal))]


_KINDS = {
    "link_flap": _link_flap,
    "channel_flap": _channel_flap,
    "switch_crash": _switch_crash,
    "controller_crash": _controller_crash,
    "controller_partition": _controller_partition,
}


#: Each fault field's JSON type (``node`` is checked by the cluster).
_NUMBER = (int, float)
_FIELD_TYPES = {"at": _NUMBER, "down_for": _NUMBER, "period": _NUMBER,
                "restart_after": _NUMBER, "heal_after": _NUMBER,
                "count": int, "a": str, "b": str, "switch": str,
                "minority": list}


def _check_types(fault: dict) -> None:
    for field, kind in _FIELD_TYPES.items():
        if field in fault and not isinstance(fault[field], kind):
            raise TopologyError(
                f"{field} must be {getattr(kind, '__name__', 'a number')}"
                f", not {type(fault[field]).__name__}")


def _check_timing(kind: str, fault: dict) -> None:
    """Reject a timing no run can honour: a negative ``at``, a flap
    that never comes up or overlaps its next cycle, a crash or
    partition that recovers before (or as) it strikes.  A lone cycle
    has no next cycle to overlap, so its period is moot."""
    if fault["at"] < 0:
        raise TopologyError(f"at must be >= 0: {fault['at']}")
    if kind.endswith("_flap"):
        down_for, count = fault["down_for"], fault["count"]
        if down_for <= 0:
            raise TopologyError(f"down_for must be positive: {down_for}")
        if count < 1:
            raise TopologyError(f"count must be >= 1: {count}")
        if count > 1 and fault["period"] <= down_for:
            raise TopologyError(
                f"period ({fault['period']}) must exceed down_for "
                f"({down_for})"
            )
        return
    field = ("heal_after" if kind == "controller_partition"
             else "restart_after")
    if fault[field] <= 0:
        raise TopologyError(f"{field} must be positive: {fault[field]}")


def _check_nodes(kind: str, fault: dict, size: int) -> None:
    """Reject a controller fault that ``size`` controllers cannot take:
    no cluster, a node it lacks, a partition of nobody or everybody."""
    if not kind.startswith("controller_"):
        return
    if size < 2:
        raise TopologyError(f"needs a controller cluster, but the run has "
                            f"{size} controller; set controllers >= 2")

    def is_node(n) -> bool:
        return isinstance(n, int) and 0 <= n < size

    if kind == "controller_crash":
        if not is_node(fault["node"]):
            raise TopologyError(f"node {fault['node']!r} is not in the "
                                f"cluster's nodes 0..{size - 1}")
        return
    minority = fault["minority"]
    if not (minority and all(is_node(n) for n in minority)
            and len(set(minority)) < size):
        raise TopologyError(f"minority {minority!r} must name some but not "
                            f"all of the cluster's nodes 0..{size - 1}")


def lower_fault(fault: dict, label: str = "fault",
                controllers: Optional[int] = None, base: float = 0.0,
                on=None, arm: bool = False) -> list:
    """``fault``'s injections ``(at, kind, bind)`` in firing order,
    ``at`` relative to ``base``, once its field types, timing and —
    given the cluster size ``controllers`` — controller targets pass;
    bound on ``on`` (whatever has a schedule's ``net`` and ``cluster``)
    and, with ``arm``, armed there.  Every rejection is a
    :class:`~repro.errors.TopologyError` naming ``label`` and the kind."""
    kind = fault.get("kind")
    lower = _KINDS.get(kind)
    if lower is None:
        raise TopologyError(
            f"{label}: unknown kind {kind!r}; pick from {sorted(_KINDS)}"
        )
    try:
        _check_types(fault)
        _check_timing(kind, fault)
        if controllers is not None:
            _check_nodes(kind, fault, controllers)
        injections = lower(fault, base + fault["at"])
        if on is not None:
            for at, name, bind in injections:
                target, action = bind(on)
                if arm:
                    on._arm(at, name, target, action)
    except KeyError as exc:
        raise TopologyError(f"{label} ({kind}): missing field {exc}") from exc
    except TopologyError as exc:
        raise TopologyError(f"{label} ({kind}): {exc}") from exc
    return injections


def _bind_all(on, faults: List[dict], base: float, arm: bool) -> None:
    size = 1 if on.cluster is None else on.cluster.size
    for index, fault in enumerate(faults):
        lower_fault(fault, f"fault #{index}", size, base, on, arm)


def arm_faults(schedule: FaultSchedule, faults: List[dict],
               base: float = 0.0) -> None:
    """Arm every fault dict on ``schedule``, ``at`` relative to ``base``:
    an unknown kind, a missing field or one of the wrong type, a timing
    no run can honour, a bad target or a controller kind the schedule's
    cluster cannot take is an error naming the list index and kind."""
    _bind_all(schedule, faults, base, arm=True)


def check_targets(platform, faults: List[dict]) -> None:
    """Bind every fault's targets on ``platform`` before it starts,
    arming nothing: the lookups :func:`arm_faults` makes, so a switch
    or link the topology lacks fails before any simulated time."""
    _bind_all(platform, faults, 0.0, arm=False)


def fault_end(fault: dict, label: str = "fault",
              controllers: Optional[int] = None) -> float:
    """When ``fault``'s last recovery fires, on the clock its ``at`` is
    on — what a run's length must cover for the fault to have healed.

    Rejects what :func:`arm_faults` would, naming ``label`` — bar the
    targets, which only a run has, and the controller targets unless
    ``controllers`` gives the cluster size — so a spec, which reads
    every fault through here, fails before any simulated time.
    """
    return lower_fault(fault, label, controllers)[-1][0]
