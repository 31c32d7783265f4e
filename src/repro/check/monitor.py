"""Online invariant monitoring hooked into convergence events.

An :class:`InvariantMonitor` re-runs a :class:`NetworkChecker` whenever
the control plane reaches a point worth auditing:

* a switch completes its handshake (``SwitchEnter``),
* a reconnect reconciliation finishes (``ResyncDone``),
* a scripted fault fires (``FaultSchedule.on_fire``).

Checks run *synchronously inside* the triggering callback — no kernel
events are scheduled, no randomness is drawn, and the checker itself is
a pure read — so enabling the monitor leaves a seeded run bit-identical
to one without it (the telemetry doctrine, now applied to
verification).  Failures surface through ``repro.telemetry`` counters
and each :class:`CheckRecord` keeps the triggering snapshot for
post-mortem.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.controller.events import ResyncDone, SwitchEnter
from repro.netem.network import Network

from repro.check.invariants import CheckResult, NetworkChecker

__all__ = ["CheckRecord", "InvariantMonitor"]


class CheckRecord:
    """One monitor run: when, why, and what it found."""

    __slots__ = ("time", "trigger", "result")

    def __init__(self, time: float, trigger: str,
                 result: CheckResult) -> None:
        self.time = time
        self.trigger = trigger
        self.result = result

    def __repr__(self) -> str:
        return (f"<CheckRecord t={self.time:.3f} {self.trigger}: "
                f"{self.result.summary()}>")


class InvariantMonitor:
    """Re-checks invariants after convergence events.

    Parameters
    ----------
    net:
        The network to snapshot on every trigger; the default
        :class:`NetworkChecker` (loop + blackhole freedom) judges it.
    max_records:
        History depth; older records are discarded FIFO.
    """

    def __init__(self, net: Network, max_records: int = 256) -> None:
        self.net = net
        self.checker = NetworkChecker()
        self.max_records = max_records
        self.records: List[CheckRecord] = []
        self.checks_run = 0
        self.violations_seen = 0
        #: Each is called, in registration order, with every new
        #: :class:`CheckRecord` (after it is appended).  ``repro.obs``
        #: uses this to annotate violations on the run timeline; hooks
        #: must be pure reads.
        self.on_record: List[Callable[[CheckRecord], None]] = []
        registry = net.telemetry.metrics
        self._m_checks = registry.counter(
            "check_runs_total", "Invariant monitor runs", ("trigger",),
        )
        self._m_violations = registry.counter(
            "check_violations_total",
            "Invariant violations observed by the monitor",
            ("invariant",),
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, controller) -> "InvariantMonitor":
        """Subscribe to the controller's convergence events."""
        controller.subscribe(
            SwitchEnter,
            lambda ev: self.recheck(f"switch-enter:{ev.switch.dpid}"),
            owner="check.monitor",
        )
        controller.subscribe(
            ResyncDone,
            lambda ev: self.recheck(f"resync-done:{ev.switch.dpid}"),
            owner="check.monitor",
        )
        return self

    def watch(self, schedule) -> "InvariantMonitor":
        """Re-check after every fault injection of ``schedule``.

        The check runs *after* the fault's action, at the exact
        injection instant — before the control plane has had a chance
        to react, which is precisely when transient blackholes are
        visible.
        """
        schedule.on_fire.append(
            lambda event: self.recheck(f"fault:{event.kind}:{event.target}")
        )
        return self

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def recheck(self, trigger: str) -> CheckResult:
        """Run the checker now (pure read) and record the outcome."""
        result = self.checker.check(self.net)
        self.checks_run += 1
        self.violations_seen += len(result.violations)
        self._m_checks.labels(trigger.split(":", 1)[0]).inc()
        for violation in result.violations:
            self._m_violations.labels(violation.invariant).inc()
        record = CheckRecord(self.net.sim.now, trigger, result)
        self.records.append(record)
        if len(self.records) > self.max_records:
            del self.records[: len(self.records) - self.max_records]
        for hook in self.on_record:
            hook(record)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[CheckRecord]:
        return self.records[-1] if self.records else None

    def failing_records(self) -> List[CheckRecord]:
        return [r for r in self.records if not r.result.ok]

    def saw_violation(self, kind: Optional[str] = None,
                      trigger_prefix: Optional[str] = None) -> bool:
        """Did any recorded run contain a violation (of ``kind``, after
        a trigger starting with ``trigger_prefix``)?"""
        for record in self.records:
            if (trigger_prefix is not None
                    and not record.trigger.startswith(trigger_prefix)):
                continue
            for violation in record.result.violations:
                if kind is None or violation.kind == kind:
                    return True
        return False

    def __repr__(self) -> str:
        return (f"<InvariantMonitor {self.checks_run} checks, "
                f"{self.violations_seen} violations>")
