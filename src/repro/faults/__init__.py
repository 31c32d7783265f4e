"""repro.faults — deterministic fault injection for ZenSDN scenarios.

The keynote's argument for centralised control is only as strong as the
platform's behaviour when things break — links flap, switch agents
crash, and the control channel itself drops.  This package scripts those
failures against the simulation kernel so every run is reproducible:

* :class:`FaultSchedule` — a fluent scripting surface that arms link
  flaps, control-channel disconnect/reconnect cycles, and switch-agent
  crash/restart at exact simulated times.
* :class:`FaultEvent` — the per-injection log record (kind, time,
  target), so tests and benchmarks can assert exactly what happened.
* :func:`arm_faults` — the one table lowering the fault dicts that
  workload specs, fuzz scenarios and the CLI carry onto schedule calls;
  :func:`fault_end` reads the same table for when a fault has healed.

Recovery machinery lives where the state lives — the reconnect
handshake and flow-table resync in ``controller.core``, request
timeout/retry in ``southbound.channel`` — this package only *drives*
it.  See PROTOCOL.md §9 for the failure semantics and benchmark E11 for
the headline measurement (blackholed packets and reconvergence time
versus flap frequency).
"""

from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    arm_faults,
    fault_end,
)

__all__ = ["FaultEvent", "FaultSchedule", "arm_faults", "fault_end"]
