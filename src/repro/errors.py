"""Exception hierarchy shared by every ZenSDN subsystem.

All library errors derive from :class:`ZenError` so callers can catch the
whole family with a single ``except`` clause while still being able to
discriminate precise failure modes.
"""

from __future__ import annotations


class ZenError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SimulationError(ZenError):
    """The simulation kernel was used incorrectly (e.g. negative delay)."""


class PacketError(ZenError):
    """A packet could not be built, encoded, or decoded."""


class DecodeError(PacketError):
    """Raised when a byte buffer does not parse as the expected header."""


class AddressError(PacketError):
    """Raised for malformed MAC or IPv4 address literals."""


class DataplaneError(ZenError):
    """A switch pipeline operation failed (bad table id, port, group...)."""


class TableFullError(DataplaneError):
    """A flow table rejected an insertion because it reached capacity."""

    def __init__(self, table_id: int, capacity: int) -> None:
        super().__init__(
            f"flow table {table_id} is full (capacity {capacity})"
        )
        self.table_id = table_id
        self.capacity = capacity


class ProtocolError(ZenError):
    """A southbound message violated the ZOF protocol state machine."""


class ChannelClosedError(ProtocolError):
    """An operation was attempted on a closed control channel."""


class TopologyError(ZenError):
    """The emulated topology is malformed (unknown node, duplicate link)."""


class ControllerError(ZenError):
    """A controller-side invariant was violated."""


class IntentError(ControllerError):
    """An intent could not be compiled or installed."""

