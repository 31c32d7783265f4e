"""Host tracker and path service tests."""

import pytest

from repro.controller import (
    HostDiscovered,
    HostMoved,
    PathService,
)
from repro.core import ZenPlatform
from repro.errors import ControllerError
from repro.netem import Topology


@pytest.fixture
def platform():
    return ZenPlatform(
        Topology.linear(3, hosts_per_switch=1, bandwidth_bps=1e9)
    ).start()


class TestHostTracker:
    def test_hosts_learned_from_traffic(self, platform):
        h1, h2 = platform.host("h1"), platform.host("h2")
        h1.ping(h2.ip, count=1)
        platform.run(3.0)
        tracker = platform.hosts
        assert tracker.lookup_ip(h1.ip) is not None
        assert tracker.lookup_ip(h2.ip) is not None
        entry = tracker.lookup_mac(h1.mac)
        assert entry.dpid == platform.switch("s1").dpid
        assert entry.port == platform.net.port_of("s1", "h1")

    def test_host_discovered_event(self, platform):
        events = []
        platform.controller.subscribe(HostDiscovered, events.append)
        h1, h2 = platform.host("h1"), platform.host("h2")
        h1.ping(h2.ip, count=1)
        platform.run(3.0)
        macs = {str(e.mac) for e in events}
        assert str(h1.mac) in macs

    def test_switch_macs_never_tracked(self, platform):
        platform.run(5.0)  # plenty of LLDP flying around
        tracker = platform.hosts
        for dp in platform.net.switches.values():
            for port in dp.ports.values():
                assert tracker.lookup_mac(port.mac) is None

    def test_require_ip_raises_for_unknown(self, platform):
        with pytest.raises(ControllerError):
            platform.hosts.require_ip("99.99.99.99")

    def test_host_move_detected(self):
        # Build a topology where h1 can "move": we simulate the move by
        # re-sending its traffic from another attachment.
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        h1, h2 = platform.host("h1"), platform.host("h2")
        h1.ping(h2.ip, count=1)
        platform.run(3.0)
        moves = []
        platform.controller.subscribe(HostMoved, moves.append)
        tracker = platform.hosts
        entry = tracker.lookup_mac(h1.mac)
        old = entry.location
        # Inject a frame with h1's source MAC at h2's switch edge port.
        s2 = platform.switch("s2")
        from repro.packet import ARP, Ethernet

        frame = (Ethernet(dst="ff:ff:ff:ff:ff:ff", src=h1.mac)
                 / ARP(opcode=ARP.REQUEST, sender_mac=h1.mac,
                       sender_ip=h1.ip, target_ip=h2.ip))
        s2.inject(frame, platform.net.port_of("s2", "h2"))
        platform.run(1.0)
        assert len(moves) == 1
        assert moves[0].mac == h1.mac
        assert (moves[0].old_dpid, moves[0].old_port) == old


class TestPathService:
    @pytest.fixture
    def paths(self):
        platform = ZenPlatform(
            Topology.ring(5, hosts_per_switch=0, bandwidth_bps=1e9)
        ).start()
        return platform, PathService(platform.discovery)

    def test_shortest_path(self, paths):
        platform, service = paths
        path = service.shortest_path(1, 3)
        assert path in ([1, 2, 3], [1, 5, 4, 3])
        assert path == [1, 2, 3]  # hop-count shortest on a 5-ring
        assert service.distance(1, 3) == 2

    def test_unknown_nodes(self, paths):
        platform, service = paths
        assert service.shortest_path(1, 99) is None
        assert service.distance(1, 99) is None

    def test_path_ports_installable(self, paths):
        platform, service = paths
        path = service.shortest_path(1, 3)
        hops = service.path_ports(path)
        assert len(hops) == len(path) - 1
        # Each hop's port must agree with the emulator's wiring.
        net = platform.net
        for (dpid, port), nxt in zip(hops, path[1:]):
            name = net.switch_name(dpid)
            assert net.port_of(name, net.switch_name(nxt)) == port

    def test_path_uses_link(self, paths):
        platform, service = paths
        assert service.path_uses_link([1, 2, 3], 2, 3)
        assert service.path_uses_link([1, 2, 3], 3, 2)
        assert not service.path_uses_link([1, 2, 3], 1, 3)

