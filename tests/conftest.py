"""Shared fixtures: assembled platform stacks on standard topologies,
and the sentinel ledger."""

import pytest

from repro.core import ZenPlatform
from repro.netem import Topology


_SENTINELS = []


@pytest.fixture
def sentinel():
    """``sentinel(line)`` records a line for the run's terminal summary:
    a count a tier-1 test gates, such as decodes per punt."""
    return _SENTINELS.append


def pytest_terminal_summary(terminalreporter):
    if _SENTINELS:
        terminalreporter.section("sentinels")
        for line in _SENTINELS:
            terminalreporter.write_line(line)


def build_platform(topology, profile="proactive", warmup=True, **kw):
    platform = ZenPlatform(topology, profile=profile, **kw)
    if warmup:
        platform.start()
    return platform


@pytest.fixture
def linear3():
    """Proactive platform on a 3-switch chain, discovery settled."""
    return build_platform(
        Topology.linear(3, hosts_per_switch=1, bandwidth_bps=1e9)
    )


@pytest.fixture
def ring4():
    """Proactive platform on a 4-switch ring (redundant paths)."""
    return build_platform(
        Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9)
    )
