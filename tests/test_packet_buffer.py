"""ZOF packet buffers: a punt crosses the control channel once.

Three layers of test.  *Failure semantics* drive one agent by hand and
pin every way a buffer can end (consumed, expired, overflowed, wiped,
orphaned by a flap) to a named error and a counter.  The *differential*
runs whole platforms twice — as shipped, and with ``BUFFER_SLOTS``
patched to 0 so every punt takes the data-carrying overflow path — and
requires every dataplane observable to agree: buffering may change
channel bytes and wall time, nothing else.  The *sentinel* counts, per
packet-in, the work the buffer exists to remove.
"""

import json
from pathlib import Path

import pytest

import repro.southbound.agent as agent_module
import repro.southbound.codec as codec_module
from repro.check import (
    generate_cluster_scenario,
    generate_scenario,
    run_scenario,
)
from repro.controller import Controller
from repro.core import ZenPlatform, dataplane_digest
from repro.dataplane import Datapath, FlowEntry, FlowKey, Match, Output
from repro.netem import Topology
from repro.packet import Ethernet, IPv4, Packet, UDP
from repro.sim import Simulator
from repro.southbound import (
    NO_BUFFER,
    ControlChannel,
    ControllerRole,
    Error,
    Hello,
    PacketIn,
    PacketOut,
    RoleRequest,
    SwitchAgent,
    encode_message,
)
from repro.southbound.agent import BUFFER_TTL
from repro.telemetry import Telemetry
from repro.telemetry.artifact import tracer_traces

DATA = Path(__file__).parent / "data"


def frame(sport=1):
    return (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
            / IPv4(src="10.0.0.1", dst="10.0.0.2")
            / UDP(src_port=sport, dst_port=2) / b"x")


class Stack:
    """One datapath, one agent per controller connection, by hand."""

    def __init__(self, connections=1, latency=0.001, telemetry=None):
        self.sim = Simulator(telemetry=telemetry)
        self.dp = Datapath(1, self.sim)
        self.dp.add_port(1)
        self.dp.add_port(2)
        self.sent = []
        self.dp.transmit = lambda port, pkt, size: self.sent.append(
            (port, pkt))
        self.channels, self.agents, self.inboxes = [], [], []
        for _ in range(connections):
            channel = ControlChannel(self.sim, latency=latency)
            inbox = []
            channel.controller_end.handler = inbox.append
            channel.controller_end.on_connect = (
                lambda end=channel.controller_end: end.send(Hello()))
            self.agents.append(SwitchAgent(self.dp, channel))
            self.channels.append(channel)
            self.inboxes.append(inbox)
            channel.connect()
        self.sim.run_until_idle()
        self.channel, self.agent, self.inbox = (
            self.channels[0], self.agents[0], self.inboxes[0])

    def punt(self, packet=None, at=None):
        """Inject a table-missing frame on port 1 (now, or at ``at``)."""
        packet = packet if packet is not None else frame()
        if at is None:
            self.dp.inject(packet, 1)
        else:
            self.sim.schedule_at(at, self.dp.inject, packet, 1)
        return packet

    def packet_out(self, buffer_id, data=b"", connection=0, at=None):
        """Send a packet-out toward port 2; returns the message."""
        msg = PacketOut(1, [Output(2)], data, buffer_id)
        send = self.channels[connection].controller_end.send
        if at is None:
            send(msg)
        else:
            self.sim.schedule_at(at, send, msg)
        return msg

    def packet_ins(self, connection=0):
        return [m for m in self.inboxes[connection]
                if isinstance(m, PacketIn)]

    def errors(self, connection=0):
        return [m for m in self.inboxes[connection]
                if isinstance(m, Error)]


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestBufferLifetime:
    def test_consumed_exactly_once(self):
        s = Stack()
        packet = s.punt()
        s.sim.run_until_idle()
        (punt,) = s.packet_ins()
        assert punt.buffer_id != NO_BUFFER
        assert punt.data == packet.encode()  # whole frame, no truncation

        s.packet_out(punt.buffer_id)
        s.sim.run_until_idle()
        # The parked object itself went out: no decode, no re-encode.
        assert s.sent == [(2, packet)] and s.sent[0][1] is packet
        assert not s.errors()

        dropped = s.dp.stats()["dropped"]
        again = s.packet_out(punt.buffer_id)
        s.sim.run_until_idle()
        assert len(s.sent) == 1
        (error,) = s.errors()
        assert error.code == Error.BUFFER_UNKNOWN
        assert error.xid == again.xid
        assert s.dp.stats()["dropped"] == dropped + 1
        assert s.agent.buffer_stats() == {
            "buffered": 1, "unbuffered": 0, "consumed": 1,
            "expired": 0, "unknown": 1, "live": 0,
        }

    def test_a_frame_is_answerable_up_to_the_ttl_and_not_after(self):
        s = Stack(latency=0.0)
        t0 = s.sim.now
        s.punt(frame(1), at=t0)
        s.punt(frame(2), at=t0)
        s.sim.run(until=t0)
        first, second = (p.buffer_id for p in s.packet_ins())
        s.packet_out(first, at=t0 + BUFFER_TTL)  # on the boundary: live
        s.packet_out(second, at=t0 + BUFFER_TTL + 1e-6)
        s.sim.run_until_idle()
        assert len(s.sent) == 1
        assert [e.code for e in s.errors()] == [Error.BUFFER_UNKNOWN]
        stats = s.agent.buffer_stats()
        assert (stats["consumed"], stats["expired"], stats["unknown"],
                stats["live"]) == (1, 1, 1, 0)

    def test_a_later_punt_reclaims_what_outlived_the_ttl(self):
        s = Stack()
        t0 = s.sim.now
        for i in range(3):
            s.punt(frame(i), at=t0)        # never answered
        s.punt(frame(9), at=t0 + BUFFER_TTL / 2)
        s.sim.run(until=t0 + BUFFER_TTL / 2 + 0.1)
        assert s.agent.buffer_stats()["live"] == 4
        # No timer fires on its own: the slots wait for the next punt.
        s.sim.run(until=t0 + BUFFER_TTL + 0.1)
        assert s.agent.buffer_stats()["live"] == 4
        s.punt(frame(10))
        stats = s.agent.buffer_stats()
        assert (stats["expired"], stats["live"]) == (3, 2)

    def test_overflow_punts_unbuffered_and_the_frame_still_goes_out(
            self, monkeypatch):
        monkeypatch.setattr(agent_module, "BUFFER_SLOTS", 2)
        s = Stack()
        packets = [s.punt(frame(i)) for i in range(3)]
        s.sim.run_until_idle()
        ids = [p.buffer_id for p in s.packet_ins()]
        assert NO_BUFFER not in ids[:2] and ids[2] == NO_BUFFER
        assert s.agent.buffer_stats()["unbuffered"] == 1
        # The data-carrying path answers it, as before buffers existed.
        s.packet_out(NO_BUFFER, data=s.packet_ins()[2].data)
        s.sim.run_until_idle()
        ((port, out),) = s.sent
        assert port == 2 and out == packets[2] and out is not packets[2]

    def test_id_and_data_together_are_refused_and_consume_nothing(self):
        s = Stack()
        s.punt()
        s.sim.run_until_idle()
        (punt,) = s.packet_ins()
        bad = s.packet_out(punt.buffer_id, data=punt.data)
        s.sim.run_until_idle()
        (error,) = s.errors()
        assert (error.code, error.xid) == (Error.BAD_REQUEST, bad.xid)
        assert not s.sent and s.agent.buffer_stats()["live"] == 1
        s.packet_out(punt.buffer_id)
        s.sim.run_until_idle()
        assert len(s.sent) == 1

    def test_secondary_is_refused_before_the_lookup(self):
        s = Stack(connections=2)
        for connection, role in ((0, ControllerRole.PRIMARY),
                                 (1, ControllerRole.SECONDARY)):
            s.channels[connection].controller_end.send(
                RoleRequest(role, generation_id=1))
        s.sim.run_until_idle()
        s.punt()
        s.sim.run_until_idle()
        (punt,) = s.packet_ins(0)
        assert not s.packet_ins(1)  # slaves hear no packet-ins
        refused = s.packet_out(punt.buffer_id, connection=1)
        s.sim.run_until_idle()
        (error,) = s.errors(1)
        assert (error.code, error.xid) == (Error.BAD_ROLE, refused.xid)
        assert not s.sent
        # ... and the master's answer still finds the frame.
        s.packet_out(punt.buffer_id, connection=0)
        s.sim.run_until_idle()
        assert len(s.sent) == 1 and not s.errors(0)
        # Both connections share the datapath's one table.
        assert s.agents[0].buffer_stats() == s.agents[1].buffer_stats()

    def test_two_equal_connections_share_one_slot(self):
        s = Stack(connections=2)
        s.punt()
        s.sim.run_until_idle()
        (a,), (b,) = s.packet_ins(0), s.packet_ins(1)
        assert a.buffer_id == b.buffer_id != NO_BUFFER
        assert s.agent.buffer_stats()["buffered"] == 1

    @pytest.mark.parametrize("wipe_state", [True, False])
    def test_crash_wipes_the_table(self, wipe_state):
        s = Stack()
        s.dp.install_flow(FlowEntry(Match(l4_dst=9), []), table_id=1)
        s.punt()
        s.sim.run_until_idle()
        (punt,) = s.packet_ins()
        s.agent.crash(wipe_state=wipe_state)
        assert s.agent.buffer_stats()["live"] == 0
        assert s.dp.flow_count() == (0 if wipe_state else 1)
        s.agent.restart()
        s.sim.run_until_idle()
        s.packet_out(punt.buffer_id)
        s.sim.run_until_idle()
        assert not s.sent
        assert [e.code for e in s.errors()] == [Error.BUFFER_UNKNOWN]

    def test_a_refused_packet_out_leaves_no_trace_stash_behind(self):
        telemetry = Telemetry(trace=True)
        s = Stack(telemetry=telemetry)
        tracer = telemetry.tracer
        tracer.stash(("packet_out", s.dp.dpid, 7), tracer.start_trace("t"),
                     scope=s.channel)
        s.packet_out(7)  # no such buffer
        s.sim.run_until_idle()
        assert [e.code for e in s.errors()] == [Error.BUFFER_UNKNOWN]
        assert tracer.stash_size == 0

    def test_nobody_listening_parks_nothing(self):
        s = Stack()
        s.channel.disconnect()
        s.punt()
        assert s.agent.buffer_stats()["buffered"] == 0
        assert s.dp.stats()["to_controller"] == 1

    def test_flap_between_punt_and_answer(self):
        s = Stack()
        t0 = s.sim.now
        # (a) The packet-in dies in flight: nobody answers, the frame
        # sits until a punt past the TTL reclaims it.
        s.punt(frame(1))
        s.channel.disconnect()
        s.channel.connect()
        s.sim.run_until_idle()
        assert not s.packet_ins() and not s.sent
        assert s.agent.buffer_stats()["live"] == 1
        # (b) The packet-in arrives but the answer dies in flight; a
        # resent answer is served once, never twice.
        s.punt(frame(2))
        s.sim.run_until_idle()
        (punt,) = s.packet_ins()
        s.packet_out(punt.buffer_id)
        s.channel.disconnect()
        s.channel.connect()
        s.sim.run_until_idle()
        assert not s.sent
        s.packet_out(punt.buffer_id)
        s.packet_out(punt.buffer_id)
        s.sim.run_until_idle()
        assert len(s.sent) == 1
        assert [e.code for e in s.errors()] == [Error.BUFFER_UNKNOWN]
        # (c) After the next punt nothing older than the TTL is left.
        s.punt(frame(3), at=t0 + BUFFER_TTL + 0.5)
        s.sim.run_until_idle()
        stats = s.agent.buffer_stats()
        assert (stats["expired"], stats["live"]) == (1, 1)


# ----------------------------------------------------------------------
# Differential: buffered == unbuffered
# ----------------------------------------------------------------------
def _observe(platform) -> dict:
    net, tel = platform.net, platform.telemetry
    return {
        "digest": dataplane_digest(net),
        "events": platform.sim.events_processed,
        "stats": {name: dp.stats() for name, dp in net.switches.items()},
        # These runs remove no entry: the resident ones are every flow.
        "entries": [(dp.dpid, table.table_id, entry.priority, entry.match,
                     entry.packet_count, entry.byte_count,
                     entry.install_time)
                    for dp in net.switches.values()
                    for table in dp.tables for entry in table],
        "traces": tracer_traces(tel.tracer),
        "dropped": (tel.tracer.dropped, tel.tracer.dropped_spans),
        "stash": tel.tracer.stash_size,
        # One table per datapath, whichever connection is asked.
        "punts": sum(stats["buffered"] + stats["unbuffered"]
                     for stats in (net.agent(name).buffer_stats()
                                   for name in net.switches)),
    }


def _pairs_traffic(platform, hosts, count, gap=0.004, start=0.3,
                   size=64):
    """``count`` two-datagram flows between rotating host pairs, each a
    5-tuple of its own (the start time picks the port range)."""
    base = 10_000 + int(start * 1000) * 10
    for i in range(count):
        src, dst = hosts[i % len(hosts)], hosts[(i * 7 + 3) % len(hosts)]
        if src is dst:
            dst = hosts[(i + 1) % len(hosts)]
        for k in range(2):
            platform.sim.schedule(start + i * gap + k * 0.0005,
                                  src.send_udp, dst.ip, base + i, 7000,
                                  b"d" * size)


def _reactive_tree():
    platform = ZenPlatform(Topology.tree(depth=3, fanout=2),
                           profile="reactive", seed=4, exact_match=True,
                           telemetry=Telemetry(trace=True)).start()
    _pairs_traffic(platform, platform.seed_static_arp(), 80)
    platform.run(2.5)
    return platform


def _fat_tree_silent_destination():
    platform = ZenPlatform(Topology.fat_tree(4, bandwidth_bps=1e9),
                           seed=2, telemetry=Telemetry(trace=True)).start()
    hosts = platform.seed_static_arp()
    silent = hosts[-1]  # never sends: traffic toward it keeps flooding
    for i in range(60):
        platform.sim.schedule(0.3 + i * 0.01, hosts[i % 8].send_udp,
                              silent.ip, 1, 2, b"x")
    platform.run(2.0)
    return platform


def _three_controllers():
    platform = ZenPlatform(Topology.tree(depth=2, fanout=2),
                           profile="reactive", seed=6, exact_match=True,
                           controllers=3, telemetry=Telemetry(trace=True)).start()
    _pairs_traffic(platform, platform.seed_static_arp(), 40, start=0.6)
    platform.run(2.5)
    return platform


def _flapped_and_traced():
    """Channel cuts and an agent crash under reactive load, tracing on:
    punts and answers die in flight in both directions.

    Traffic comes in bursts and every cut lands inside one, so frames
    are mid-flight when the channel goes; every reconnect lands in the
    gap after it.  (A punt that reaches the controller between
    reconnect and handshake is dropped as pre-handshake noise together
    with its stashed trace id — a leak that predates buffers and would
    blur the ``stash_size == 0`` check below.)
    """
    platform = ZenPlatform(Topology.tree(depth=2, fanout=2),
                           profile="reactive", seed=9, exact_match=True,
                           telemetry=Telemetry(trace=True)).start()
    hosts = platform.seed_static_arp()
    net, sim = platform.net, platform.sim
    names = sorted(net.switches)
    for burst in range(4):
        start = 0.3 + 0.4 * burst
        _pairs_traffic(platform, hosts, 40, gap=0.003, start=start)
        for i, name in enumerate(names):
            channel = net.channel(name)
            sim.schedule(start + 0.0312 + 0.0173 * i, channel.disconnect)
            sim.schedule(start + 0.25, channel.connect)
    victim = net.agent(names[0])
    sim.schedule(0.7003, victim.crash)  # mid-burst 2, before its cut
    sim.schedule(0.9, victim.restart)
    platform.run(3.0)
    return platform


@pytest.mark.parametrize("build", [
    _reactive_tree, _fat_tree_silent_destination, _three_controllers,
    _flapped_and_traced,
])
def test_buffering_changes_no_dataplane_observable(build, monkeypatch):
    buffered = _observe(build())
    with monkeypatch.context() as patch:
        patch.setattr(agent_module, "BUFFER_SLOTS", 0)
        platform = build()
        unbuffered = _observe(platform)
        assert not any(platform.net.agent(name).buffer_stats()["buffered"]
                       for name in platform.net.switches)
    assert buffered["punts"] > 50, "vacuous: nothing was punted"
    assert buffered["traces"]
    assert buffered["stash"] == 0 and unbuffered["stash"] == 0
    for key in buffered:
        assert buffered[key] == unbuffered[key], key


def test_flapped_run_orphans_frames_and_the_next_punt_reclaims_them():
    platform = _flapped_and_traced()
    net = platform.net
    names = sorted(net.switches)
    stats = {name: net.agent(name).buffer_stats() for name in names}
    # The cuts did orphan parked frames (else the scenario is vacuous),
    # nothing was refused, and every slot is accounted for — except on
    # the crashed switch, whose table was wiped.
    assert sum(s["expired"] + s["live"] for s in stats.values()) > 0
    assert not any(s["unknown"] for s in stats.values())
    for name in names[1:]:
        s = stats[name]
        assert s["buffered"] == s["consumed"] + s["expired"] + s["live"]
    # One more punt per switch and nothing older than the TTL is left
    # (what is: that punt, and the last second's LLDP probes, which are
    # punted and never answered).
    now = platform.sim.now
    for name in names:
        net.switches[name].inject(frame(), 1)
        parked = net.agent(name)._group._parked
        assert all(now - at <= BUFFER_TTL for _, at in parked.values())


def test_fuzz_corpus_is_identical_buffered_and_unbuffered(monkeypatch):
    corpus = json.loads((DATA / "fuzz_corpus.json").read_text())
    scenarios = ([generate_scenario(s) for s in corpus["seeds"]]
                 + [generate_cluster_scenario(s)
                    for s in corpus["cluster_seeds"]])
    buffered = [run_scenario(s).to_dict() for s in scenarios]
    monkeypatch.setattr(agent_module, "BUFFER_SLOTS", 0)
    for scenario, expected in zip(scenarios, buffered):
        assert run_scenario(scenario).to_dict() == expected, scenario.name


# ----------------------------------------------------------------------
# Sentinel
# ----------------------------------------------------------------------
def test_a_punt_crosses_the_channel_once(monkeypatch):
    """Call-count sentinel: machine-independent, so it can gate tier 1.

    Reactive exact-match set-up answers every punt with one flow-mod
    and one packet-out.  A frame is parsed once however many hops punt
    it (the controller decodes each distinct frame once), serialised by
    nobody (the switch sends its wire image, the answer names the
    buffer), and its bytes cross the channel once per punt.  A match is
    parsed once however many flow-mods carry it.
    """
    counts = {"decode": 0, "serialise": 0, "flowkey": 0, "parse": 0}
    ipv4_encode, decode = IPv4.encode, Packet.decode.__func__
    from_packet = FlowKey.from_packet.__func__
    parse_match, process = codec_module._parse_match, Controller._process_packet_in
    punted = set()

    def counting_parse(blob):
        counts["parse"] += 1
        return parse_match(blob)

    def collecting_process(self, handle, msg, *args):
        punted.add(msg.data)
        return process(self, handle, msg, *args)

    def counting_decode(cls, data, first=None):
        counts["decode"] += 1
        return decode(cls, data, first)

    def counting_encode(self, following):
        counts["serialise"] += 1
        return ipv4_encode(self, following)

    def counting_from_packet(cls, packet, in_port=None):
        counts["flowkey"] += 1
        return from_packet(cls, packet, in_port)

    platform = ZenPlatform(Topology.tree(depth=3, fanout=2),
                           profile="reactive", seed=3,
                           exact_match=True).start()
    platform.learning.idle_timeout = 0.5
    hosts = platform.seed_static_arp()
    platform.discovery.stop()  # LLDP probes are not punts of a frame
    platform.run(1.0)          # ... and the last of them has landed
    net, controller = platform.net, platform.controller

    def totals():
        sent = [end.sent for channel in net.channels.values()
                for end in (channel.switch_end, channel.controller_end)]
        return {
            "punts": controller.packet_ins_handled,
            "received": sum(dp.packets_received
                            for dp in net.switches.values()),
            "bytes": sum(s.bytes for s in sent),
            "PacketIn": sum(s.bytes_by_type["PacketIn"] for s in sent),
            "FlowMod": sum(s.bytes_by_type["FlowMod"] for s in sent),
            "FlowMods": sum(s.by_type["FlowMod"] for s in sent),
        }

    before = totals()
    # Start from empty memos, so the counts do not depend on test order.
    controller._frames.invalidate()
    monkeypatch.setattr(codec_module, "_MATCH_OF",
                        codec_module.FrameCache(codec_module.MATCH_MEMO_SIZE))
    monkeypatch.setattr(codec_module, "_parse_match", counting_parse)
    monkeypatch.setattr(Controller, "_process_packet_in", collecting_process)
    monkeypatch.setattr(Packet, "decode", classmethod(counting_decode))
    monkeypatch.setattr(FlowKey, "from_packet",
                        classmethod(counting_from_packet))
    monkeypatch.setattr(IPv4, "encode", counting_encode)
    _pairs_traffic(platform, hosts, 200, start=0.05, size=750)
    platform.run(2.0)
    delta = {key: value - before[key] for key, value in totals().items()}
    punts = delta["punts"]
    host_tx = sum(h.tx_packets for h in hosts)
    assert host_tx == 400 and punts >= 400
    assert sum(h.rx_packets for h in hosts) >= 400

    packet_in_head = len(encode_message(PacketIn()))
    frame_bytes = delta["PacketIn"] - packet_in_head * punts
    flow_mods = delta["FlowMods"]
    # CI runs this test with -s and greps the lines into the job summary.
    print(f"\npunt sentinel: {counts['decode']} decodes / {punts} punts, "
          f"{delta['bytes'] / punts:.0f} bytes/punt")
    print(f"codec sentinel: {flow_mods} flow-mods, {counts['parse']} match "
          f"parses, {counts['decode'] / punts:.2f} frame decodes per punt")
    assert counts["decode"] == len(punted) < punts
    assert counts["parse"] < flow_mods
    assert len(controller._frames) <= controller._frames.size == 256
    # Each host serialises a datagram once; nobody on the punt path does.
    assert counts["serialise"] == host_tx
    # One extraction per wire image (a datagram punted at five hops is
    # still the one its host built: the parked frame goes on, memo and
    # all), one more per installed flow (the app's exact match, on the
    # frame it decoded; floods install none): the packet-out builds none.
    assert delta["received"] == punts
    assert counts["flowkey"] == host_tx + platform.learning.flows_installed
    assert counts["flowkey"] < 2 * punts
    assert delta["bytes"] < 1.2 * frame_bytes + delta["FlowMod"]
