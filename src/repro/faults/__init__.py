"""repro.faults — deterministic fault injection for ZenSDN scenarios.

The keynote's argument for centralised control is only as strong as the
platform's behaviour when things break — links flap, switch agents
crash, and the control channel itself drops.  This package scripts those
failures against the simulation kernel so every run is reproducible:

* A fault is one dict — a link or control-channel flap, a switch-agent
  crash, a controller crash or an east-west partition, each with its
  recovery — the form workload specs, fuzz scenarios, the CLI and tests
  all carry.
* :func:`arm_faults` — the one way to inject faults: one table lowers
  each kind to kernel events at exact simulated times, and
  :func:`fault_end` reads the same table for when a fault has healed.
* :class:`FaultSchedule` — what the armed faults leave behind: the
  :class:`FaultEvent` log (kind, time, target), fault metrics, root
  spans when tracing is on, and ``on_fire`` hooks for observers.

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
    check_targets,
    fault_end,
    lower_fault,
)

__all__ = ["FaultEvent", "FaultSchedule", "arm_faults", "check_targets",
           "fault_end", "lower_fault"]
