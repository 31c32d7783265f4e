"""Controller applications: forwarding, policy, and resource management."""

from repro.apps.arp_proxy import ArpProxy
from repro.apps.fast_failover import ProtectedPair, ProtectedPairs
from repro.apps.firewall import Firewall, FirewallRule
from repro.apps.hub import HubApp
from repro.apps.learning_switch import LearningSwitch
from repro.apps.load_balancer import LoadBalancer
from repro.apps.multipath_router import MultipathRouter
from repro.apps.proactive_router import ProactiveRouter
from repro.apps.slicing import NetworkSlicing, Slice
from repro.apps.traffic_engineering import (
    Demand,
    PlacementResult,
    TrafficEngineering,
    ecmp_place,
    greedy_place,
    spf_place,
)

__all__ = [
    "ArpProxy",
    "Demand",
    "Firewall",
    "FirewallRule",
    "HubApp",
    "LearningSwitch",
    "LoadBalancer",
    "MultipathRouter",
    "NetworkSlicing",
    "PlacementResult",
    "ProactiveRouter",
    "ProtectedPair",
    "ProtectedPairs",
    "Slice",
    "TrafficEngineering",
    "ecmp_place",
    "greedy_place",
    "spf_place",
]
