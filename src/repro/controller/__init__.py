"""Controller framework: core, events, discovery, hosts, paths, intents."""

from repro.controller.core import App, Controller, SwitchHandle
from repro.controller.discovery import DiscoveredLink, TopologyDiscovery
from repro.controller.events import (
    ErrorEvent,
    Event,
    FlowRemovedEvent,
    HostDiscovered,
    HostMoved,
    LinkDiscovered,
    LinkVanished,
    PacketInEvent,
    PortStatusEvent,
    SwitchEnter,
    SwitchLeave,
)
from repro.controller.hosttracker import HostEntry, HostTracker
from repro.controller.intents import (
    HostToHostIntent,
    Intent,
    IntentService,
    IntentState,
)
from repro.controller.pathing import PathService

__all__ = [
    "App",
    "Controller",
    "DiscoveredLink",
    "ErrorEvent",
    "Event",
    "FlowRemovedEvent",
    "HostDiscovered",
    "HostEntry",
    "HostMoved",
    "HostToHostIntent",
    "HostTracker",
    "Intent",
    "IntentService",
    "IntentState",
    "LinkDiscovered",
    "LinkVanished",
    "PacketInEvent",
    "PathService",
    "PortStatusEvent",
    "SwitchEnter",
    "SwitchHandle",
    "SwitchLeave",
    "TopologyDiscovery",
]
