"""Intent framework tests."""

import pytest

from repro.controller import IntentService, IntentState
from repro.controller.intents import INTENT_PRIORITY
from repro.core import ZenPlatform
from repro.errors import IntentError
from repro.netem import Topology


def build_intent_platform():
    platform = ZenPlatform(
        Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
        profile="bare",
        intents=True,
    ).start()
    # Hosts must be known before intents can compile: static ARP plus a
    # hello packet pins each host's attachment.
    hosts = list(platform.net.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    for host in hosts:
        host.send_udp(hosts[0].ip if host is not hosts[-1] else hosts[1].ip,
                      1, 1, b"hello")
    platform.run(1.0)
    return platform


@pytest.fixture
def intent_platform():
    return build_intent_platform()


class TestIntents:
    def test_intent_ids_are_per_run_not_per_process(self):
        # The id goes on the wire as the flow cookie: a second seeded
        # run in the same process must install what the first did.
        def run():
            platform = build_intent_platform()
            h1, h3 = platform.host("h1"), platform.host("h3")
            intent = platform.intents.connect_ips(h1.ip, h3.ip)
            platform.run(0.5)
            cookies = {
                name: sorted(entry.cookie for table in dp.tables
                             for entry in table.entries())
                for name, dp in platform.net.switches.items()
            }
            return intent.intent_id, cookies

        first, second = run(), run()
        assert first == second
        assert first[0] == 1
        assert any(1 in cookies for cookies in first[1].values())

    def test_intent_installs_connectivity(self, intent_platform):
        platform = intent_platform
        h1, h3 = platform.host("h1"), platform.host("h3")
        intent = platform.intents.connect_ips(h1.ip, h3.ip)
        platform.run(0.5)
        assert intent.state == IntentState.INSTALLED
        session = h1.ping(h3.ip, count=3, interval=0.1)
        platform.run(3.0)
        assert session.received == 3

    def test_withdraw_removes_rules(self, intent_platform):
        platform = intent_platform
        h1, h3 = platform.host("h1"), platform.host("h3")
        intent = platform.intents.connect_ips(h1.ip, h3.ip)
        platform.run(0.5)
        flows_with = sum(dp.flow_count()
                         for dp in platform.net.switches.values())
        platform.intents.withdraw(intent.intent_id)
        platform.run(0.5)
        flows_without = sum(dp.flow_count()
                            for dp in platform.net.switches.values())
        assert intent.state == IntentState.WITHDRAWN
        assert flows_without < flows_with
        with pytest.raises(IntentError):
            platform.intents.withdraw(intent.intent_id)

    def test_withdraw_reaches_a_switch_that_was_away(self,
                                                     intent_platform):
        """A withdrawal that found a transit switch's channel down used
        to drop that switch's deletes while the ledger kept the rules,
        so resync defended them for ever.  Asserts the switch tables."""
        platform = intent_platform
        h1, h3 = platform.host("h1"), platform.host("h3")

        def intent_entries():
            return {
                name: sum(1 for t in dp.tables for e in t
                          if e.priority == INTENT_PRIORITY)
                for name, dp in platform.net.switches.items()
            }

        intent = platform.intents.connect_ips(h1.ip, h3.ip)
        platform.run(0.5)
        transit = platform.net.switch_name(intent.paths[0][1])
        assert intent_entries()[transit] == 2  # one per direction
        platform.net.channel(transit).disconnect()
        platform.run(0.1)
        # SwitchLeave rerouted the intent the other way round the ring;
        # the transit switch still holds the old path's rules.
        assert intent.state == IntentState.INSTALLED
        assert transit not in map(platform.net.switch_name,
                                  intent.paths[0])
        platform.intents.withdraw(intent.intent_id)
        platform.run(0.5)
        assert intent_entries()[transit] == 2  # out of reach for now
        platform.net.channel(transit).connect()
        platform.run(3.0)  # handshake, resync, rediscovery
        assert intent_entries() == dict.fromkeys(platform.net.switches, 0)
        assert not list(platform.controller.owned(
            ("intents", intent.intent_id)))

    def test_intent_reroutes_around_failure(self, intent_platform):
        platform = intent_platform
        h1, h3 = platform.host("h1"), platform.host("h3")
        intent = platform.intents.connect_ips(h1.ip, h3.ip)
        platform.run(0.5)
        original_path = intent.paths[0]
        # Cut a link on the installed path; the ring has an alternative.
        a = platform.net.switch_name(original_path[0])
        b = platform.net.switch_name(original_path[1])
        platform.fail_link(a, b)
        platform.run(1.0)
        assert intent.state == IntentState.INSTALLED
        assert intent.reroutes == 1
        assert intent.paths[0] != original_path
        session = h1.ping(h3.ip, count=3, interval=0.1)
        platform.run(3.0)
        assert session.received == 3
        assert platform.intents.reroute_done_times

    def test_unaffected_intents_not_touched(self, intent_platform):
        platform = intent_platform
        h1, h2, h3 = (platform.host(n) for n in ("h1", "h2", "h3"))
        a_b = platform.intents.connect_ips(h1.ip, h2.ip)
        platform.run(0.5)
        # Fail a link not on h1-h2's path (path is s1-s2; cut s3-s4).
        assert a_b.paths[0] in ([1, 2], [2, 1])
        platform.fail_link("s3", "s4")
        platform.run(1.0)
        assert a_b.reroutes == 0

    def test_failed_intent_recovers_when_topology_heals(self,
                                                        intent_platform):
        platform = intent_platform
        h1, h3 = platform.host("h1"), platform.host("h3")
        # Sever both ring paths between s1 and s3.
        platform.fail_link("s1", "s2")
        platform.fail_link("s1", "s4")
        platform.run(0.5)
        intent = platform.intents.connect_ips(h1.ip, h3.ip)
        platform.run(0.5)
        assert intent.state == IntentState.FAILED
        assert platform.intents.failed_count() == 1
        platform.recover_link("s1", "s2")
        platform.run(3.0)  # rediscovery + recompile
        assert intent.state == IntentState.INSTALLED
        assert platform.intents.installed_count() == 1

    def test_intent_service_requires_dependencies(self):
        from repro.controller import Controller
        from repro.sim import Simulator

        controller = Controller(Simulator())
        with pytest.raises(IntentError):
            controller.add_app(IntentService())
