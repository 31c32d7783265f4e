"""Tests for the extension features: multipath routing, protected
pairs (fast failover), and link taps."""

import networkx as nx

from repro.apps import MultipathRouter, ProtectedPairs
from repro.apps.fast_failover import PROTECT_PRIORITY
from repro.core import ZenPlatform
from repro.netem import CBRStream, Tap, Topology
from repro.packet import ICMP, UDP


def diamond_platform(**kw):
    """Two hosts joined by two equal-cost 2-hop switch paths."""
    topo = Topology()
    for _ in range(4):
        topo.add_switch()
    topo.add_link("s1", "s2", bandwidth_bps=1e9)
    topo.add_link("s2", "s4", bandwidth_bps=1e9)
    topo.add_link("s1", "s3", bandwidth_bps=1e9)
    topo.add_link("s3", "s4", bandwidth_bps=1e9)
    topo.add_link(topo.add_host(), "s1", bandwidth_bps=1e9)
    topo.add_link(topo.add_host(), "s4", bandwidth_bps=1e9)
    platform = ZenPlatform(topo, profile="bare", **kw)
    return platform


def warm(platform):
    h1, h2 = platform.host("h1"), platform.host("h2")
    h1.add_static_arp(h2.ip, h2.mac)
    h2.add_static_arp(h1.ip, h1.mac)
    h1.send_udp(h2.ip, 7, 7, b"w")
    h2.send_udp(h1.ip, 7, 7, b"w")
    platform.run(1.0)
    return h1, h2


class TestMultipathRouter:
    def test_connectivity(self):
        platform = diamond_platform()
        platform.router = platform.add_app(MultipathRouter())
        platform.start()
        h1, h2 = warm(platform)
        session = h1.ping(h2.ip, count=3, interval=0.1)
        platform.run(3.0)
        assert session.received == 3

    def test_flows_spread_over_both_arms(self):
        platform = diamond_platform()
        router = platform.add_app(MultipathRouter())
        platform.router = router
        platform.start()
        h1, h2 = warm(platform)
        assert router.multipath_rules >= 2  # s1->h2 and s4->h1
        # Many distinct flows: both arms must carry traffic.
        taps = [Tap(platform.net.link("s1", "s2")),
                Tap(platform.net.link("s1", "s3"))]
        for sport in range(40):
            h1.send_udp(h2.ip, 20000 + sport, 9000, b"x")
        platform.run(2.0)
        carried = [
            tap.count(lambda r: UDP in r.packet
                      and r.packet[UDP].dst_port == 9000)
            for tap in taps
        ]
        assert all(c > 0 for c in carried), carried
        assert sum(carried) == 40

    def test_single_flow_is_sticky(self):
        platform = diamond_platform()
        platform.router = platform.add_app(MultipathRouter())
        platform.start()
        h1, h2 = warm(platform)
        taps = [Tap(platform.net.link("s1", "s2")),
                Tap(platform.net.link("s1", "s3"))]
        for _ in range(20):
            h1.send_udp(h2.ip, 5555, 9000, b"same flow")
        platform.run(2.0)
        counts = sorted(
            tap.count(lambda r: UDP in r.packet
                      and r.packet[UDP].dst_port == 9000)
            for tap in taps
        )
        assert counts == [0, 20]  # all on one arm

    def test_groups_shared_across_destinations(self):
        platform = diamond_platform()
        router = platform.add_app(MultipathRouter())
        platform.router = router
        platform.start()
        warm(platform)
        # Both host destinations resolve to the same next-hop port set
        # on the far switch, so groups are shared per switch.
        assert router.groups_created <= 2  # one per head switch

    def test_reroutes_after_failure(self):
        platform = diamond_platform()
        platform.router = platform.add_app(MultipathRouter())
        platform.start()
        h1, h2 = warm(platform)
        platform.fail_link("s1", "s2")
        platform.run(1.0)
        session = h1.ping(h2.ip, count=3, interval=0.1)
        platform.run(3.0)
        assert session.received == 3


class TestProtectedPairs:
    def build(self):
        platform = diamond_platform(control_latency=0.002)
        platform.router = None
        protector = platform.add_app(ProtectedPairs())
        platform.start()
        h1, h2 = warm_protected(platform)
        return platform, protector, h1, h2

    def test_pair_ids_are_per_run_not_per_process(self):
        # The id goes on the wire as the flow cookie: a second seeded
        # run in the same process must install what the first did.
        def run():
            platform, protector, h1, h2 = self.build()
            pair = protector.protect_ips(h1.ip, h2.ip)
            platform.run(0.5)
            cookies = {
                name: sorted(entry.cookie for table in dp.tables
                             for entry in table.entries())
                for name, dp in platform.net.switches.items()
            }
            return pair.pair_id, cookies

        first, second = run(), run()
        assert first == second
        assert first[0] == 1
        assert any(1 in cookies for cookies in first[1].values())

    def test_pair_is_protected_on_diamond(self):
        platform, protector, h1, h2 = self.build()
        pair = protector.protect_ips(h1.ip, h2.ip)
        platform.run(0.5)
        assert pair.protected
        assert pair.primary is not None and pair.backup is not None
        # The two paths share no link.
        primary_edges = set(map(frozenset,
                                zip(pair.primary, pair.primary[1:])))
        backup_edges = set(map(frozenset,
                               zip(pair.backup, pair.backup[1:])))
        assert not primary_edges & backup_edges
        # The backup search pruned a copy: the view's graph is shared
        # and frozen, and still holds the primary's links.
        graph = platform.discovery.graph()
        assert nx.is_frozen(graph)
        assert all(graph.has_edge(*hop)
                   for hop in zip(pair.primary, pair.primary[1:]))
        session = h1.ping(h2.ip, count=2, interval=0.1)
        platform.run(3.0)
        assert session.received == 2

    def test_failover_is_dataplane_fast(self):
        platform, protector, h1, h2 = self.build()
        pair = protector.protect_ips(h1.ip, h2.ip)
        platform.run(0.5)
        arrivals = []
        h2.bind_udp(9000, lambda pkt, host: arrivals.append(
            platform.sim.now))
        CBRStream(h1, h2.ip, rate_bps=800_000, packet_size=1000,
                  duration=4.0)
        # Cut the first link of the primary path.
        a = platform.net.switch_name(pair.primary[0])
        b = platform.net.switch_name(pair.primary[1])
        fail_at = platform.sim.now + 1.0
        platform.sim.schedule(1.0, platform.fail_link, a, b)
        platform.run(6.0)
        after = [t for t in arrivals if t >= fail_at]
        assert after, "no traffic after failure"
        gap = after[0] - fail_at
        # Local repair: within ~3 packet intervals, far below the
        # controller RTT.
        assert gap < 0.03

    def test_reprotection_after_failure(self):
        platform, protector, h1, h2 = self.build()
        pair = protector.protect_ips(h1.ip, h2.ip)
        platform.run(0.5)
        a = platform.net.switch_name(pair.primary[0])
        b = platform.net.switch_name(pair.primary[1])
        platform.fail_link(a, b)
        platform.run(1.0)
        assert pair.reprotections >= 1
        # On the diamond, losing one arm leaves a single path: pair is
        # connected but no longer protected.
        assert not pair.protected
        session = h1.ping(h2.ip, count=2, interval=0.1)
        platform.run(3.0)
        assert session.received == 2


    def test_reprotection_reaches_a_switch_that_was_away(self):
        """A re-protection that found a transit switch's channel down
        used to drop that switch's deletes while the ledger kept the
        rules, so resync defended them for ever.  Asserts the tables."""
        topo = Topology()
        for _ in range(5):
            topo.add_switch()
        for arm in ("s2", "s3", "s5"):  # three disjoint 2-hop arms
            topo.add_link("s1", arm, bandwidth_bps=1e9)
            topo.add_link(arm, "s4", bandwidth_bps=1e9)
        topo.add_link(topo.add_host(), "s1", bandwidth_bps=1e9)
        topo.add_link(topo.add_host(), "s4", bandwidth_bps=1e9)
        platform = ZenPlatform(topo, profile="bare", control_latency=0.002)
        protector = platform.add_app(ProtectedPairs())
        platform.start()
        h1, h2 = warm_protected(platform)

        def protect_entries():
            return {
                name: sum(1 for t in dp.tables for e in t
                          if e.priority == PROTECT_PRIORITY)
                for name, dp in platform.net.switches.items()
            }

        pair = protector.protect_ips(h1.ip, h2.ip)
        platform.run(0.5)
        assert (pair.primary, pair.backup) == ([1, 2, 4], [1, 3, 4])
        assert protect_entries()["s2"] == 2  # one per direction
        # s2's channel drops: its links leave the view, the pair moves
        # to the other two arms, s2's rules are out of reach.
        platform.net.channel("s2").disconnect()
        platform.run(0.1)
        assert (pair.primary, pair.backup) == ([1, 3, 4], [1, 5, 4])
        platform.fail_link("s2", "s4")  # s2 comes back as a dead end
        platform.net.channel("s2").connect()
        platform.run(3.0)  # handshake, resync, rediscovery
        assert protect_entries()["s2"] == 2  # resync kept them: owned
        # The next re-protection is the first update after s2's return.
        platform.fail_link("s1", "s3")
        platform.run(1.0)
        assert (pair.primary, pair.backup) == ([1, 5, 4], None)
        assert protect_entries() == {
            "s1": 2, "s2": 0, "s3": 0, "s4": 2, "s5": 2}
        session = h1.ping(h2.ip, count=2, interval=0.1)
        platform.run(3.0)
        assert session.received == 2


def warm_protected(platform):
    h1, h2 = platform.host("h1"), platform.host("h2")
    h1.add_static_arp(h2.ip, h2.mac)
    h2.add_static_arp(h1.ip, h1.mac)
    h1.send_udp(h2.ip, 7, 7, b"w")
    h2.send_udp(h1.ip, 7, 7, b"w")
    platform.run(1.0)
    return h1, h2


class TestTap:
    def test_capture_records_direction_and_time(self):
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        tap = Tap(platform.net.link("s1", "s2"))
        h1, h2 = platform.host("h1"), platform.host("h2")
        session = h1.ping(h2.ip, count=1)
        platform.run(3.0)
        assert session.received == 1
        icmp = [r for r in tap if r.packet is not None
                and ICMP in r.packet]
        assert len(icmp) >= 2  # request + reply crossed the trunk
        directions = {(r.src_node, r.dst_node) for r in icmp}
        assert ("s1", "s2") in directions
        assert ("s2", "s1") in directions
        times = [r.time for r in tap.records]
        assert times == sorted(times)

    def test_filter_and_counters(self):
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        tap = Tap(platform.net.link("s1", "s2"),
                  predicate=lambda pkt: UDP in pkt)
        h1, h2 = platform.host("h1"), platform.host("h2")
        h1.add_static_arp(h2.ip, h2.mac)
        h1.send_udp(h2.ip, 1, 9, b"x")
        platform.run(2.0)
        assert all(UDP in r.packet for r in tap)
        assert tap.dropped_by_filter > 0  # LLDP was filtered out

    def test_max_records_cap(self):
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        tap = Tap(platform.net.link("s1", "s2"), max_records=3)
        platform.run(5.0)  # LLDP chatter alone exceeds the cap
        assert len(tap) == 3

    def test_detach_restores_link(self):
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        link = platform.net.link("s1", "s2")
        tap = Tap(link)
        tap.detach()
        count = len(tap)
        platform.run(3.0)
        assert len(tap) == count  # nothing recorded after detach
        # And traffic still flows.
        assert platform.ping_all(count=1, settle=3.0) == 1.0

    def test_metadata_only_mode(self):
        platform = ZenPlatform(
            Topology.linear(2, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        tap = Tap(platform.net.link("s1", "s2"), keep_packets=False)
        platform.run(2.0)
        assert len(tap) > 0
        assert all(r.packet is None for r in tap)
        assert tap.summary_lines(limit=2)
