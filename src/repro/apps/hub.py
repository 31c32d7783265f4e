"""The dumbest possible app: flood everything from the controller.

Every packet visits the controller and is flooded — no flow rules are
ever installed.  It exists as the degenerate baseline for control-channel
overhead (benchmark E9): correct connectivity at maximal cost.
"""

from __future__ import annotations

from repro.controller.core import App
from repro.controller.events import PacketInEvent
from repro.dataplane.actions import Output, PORT_FLOOD
from repro.packet import LLDP

__all__ = ["HubApp"]


class HubApp(App):
    """Controller-mediated hub: flood every punted packet."""

    name = "hub"

    def __init__(self) -> None:
        super().__init__()
        self.packets_flooded = 0

    def on_packet_in(self, event: PacketInEvent) -> None:
        if event.packet.get(LLDP) is not None:
            return  # discovery traffic is not ours to repeat
        event.forward([Output(PORT_FLOOD)])
        self.packets_flooded += 1
