"""Deterministic discrete-event simulation kernel for ZenSDN."""

from repro.sim.kernel import Event, Simulator

__all__ = ["Event", "Simulator"]
