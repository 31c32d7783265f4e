"""Controller core: handshake, handles, event bus, compute model."""

import pytest

from repro.controller import (
    Controller,
    PacketInEvent,
    PortStatusEvent,
    SwitchEnter,
    SwitchLeave,
)
from repro.controller.core import App
from repro.dataplane import Datapath, Match, Output
from repro.errors import ControllerError
from repro.packet import Ethernet, IPv4, UDP
from repro.sim import Simulator
from repro.southbound import ControlChannel, SwitchAgent


def build(n_switches=1, latency=0.001, service_time=0.0):
    sim = Simulator()
    controller = Controller(sim, packet_in_service_time=service_time)
    datapaths = []
    channels = []
    for i in range(n_switches):
        dp = Datapath(i + 1, sim)
        dp.add_port(1)
        dp.add_port(2)
        channel = ControlChannel(sim, latency=latency)
        SwitchAgent(dp, channel)
        controller.accept_channel(channel)
        channel.connect()
        datapaths.append(dp)
        channels.append(channel)
    sim.run_until_idle()
    return sim, controller, datapaths, channels


def udp_packet():
    return (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
            / IPv4(src="10.0.0.1", dst="10.0.0.2")
            / UDP(src_port=1, dst_port=2) / b"x")


class TestHandshake:
    def test_switches_enter_after_handshake(self):
        sim, controller, dps, _ = build(n_switches=3)
        assert controller.switch_count == 3
        assert {h.dpid for h in controller.switches.values()} == {1, 2, 3}
        handle = controller.switch(1)
        assert set(handle.ports) == {1, 2}
        assert handle.num_tables == len(dps[0].tables)

    def test_switch_enter_event_published(self):
        sim = Simulator()
        controller = Controller(sim)
        entered = []
        controller.subscribe(SwitchEnter,
                             lambda ev: entered.append(ev.switch.dpid))
        dp = Datapath(7, sim)
        dp.add_port(1)
        channel = ControlChannel(sim)
        SwitchAgent(dp, channel)
        controller.accept_channel(channel)
        channel.connect()
        sim.run_until_idle()
        assert entered == [7]

    def test_disconnect_publishes_switch_leave(self):
        sim, controller, dps, channels = build()
        left = []
        controller.subscribe(SwitchLeave, lambda ev: left.append(ev.dpid))
        channels[0].disconnect()
        sim.run_until_idle()
        assert left == [1]
        assert controller.switch_count == 0
        with pytest.raises(ControllerError):
            controller.switch(1)

    def test_send_on_disconnected_handle_raises(self):
        sim, controller, dps, channels = build()
        handle = controller.switch(1)
        channels[0].disconnect()
        with pytest.raises(ControllerError):
            handle.add_flow(Match(), [Output(1)])


class TestEventBus:
    def test_packet_in_event_carries_decoded_packet(self):
        sim, controller, dps, _ = build()
        events = []
        controller.subscribe(PacketInEvent, events.append)
        dps[0].inject(udp_packet(), 1)
        sim.run_until_idle()
        assert len(events) == 1
        assert events[0].in_port == 1
        assert events[0].packet[IPv4].dst == "10.0.0.2"
        assert events[0].reason == "no_match"

    def test_port_status_event_updates_handle(self):
        sim, controller, dps, _ = build()
        events = []
        controller.subscribe(PortStatusEvent, events.append)
        dps[0].set_port_state(2, False)
        sim.run_until_idle()
        assert events[0].port_no == 2 and events[0].up is False
        assert controller.switch(1).ports[2].up is False

    def test_multiple_subscribers_all_fire(self):
        sim, controller, dps, _ = build()
        hits = []
        controller.subscribe(PacketInEvent, lambda ev: hits.append("a"))
        controller.subscribe(PacketInEvent, lambda ev: hits.append("b"))
        dps[0].inject(udp_packet(), 1)
        sim.run_until_idle()
        assert hits == ["a", "b"]


class TestAppLifecycle:
    def test_late_app_sees_existing_switches(self):
        sim, controller, dps, _ = build(n_switches=2)

        class Recorder(App):
            name = "recorder"

            def __init__(self):
                super().__init__()
                self.seen = []

            def on_switch_enter(self, switch):
                self.seen.append(switch.dpid)

        app = controller.add_app(Recorder())
        assert sorted(app.seen) == [1, 2]

    def test_get_app_by_type(self):
        sim, controller, dps, _ = build()

        class Dummy(App):
            name = "dummy"

        app = controller.add_app(Dummy())
        assert controller.get_app(Dummy) is app
        assert controller.get_app(Controller) is None

    def test_unstarted_app_sim_raises(self):
        class Dummy(App):
            name = "dummy"

        with pytest.raises(ControllerError):
            Dummy().sim


class TestProgrammingSurface:
    def test_add_flow_reaches_datapath(self):
        sim, controller, dps, _ = build()
        controller.switch(1).add_flow(Match(eth_type=0x0800),
                                      [Output(2)], priority=9)
        sim.run_until_idle()
        assert dps[0].flow_count() == 1
        entry = dps[0].tables[0].entries()[0]
        assert entry.priority == 9

    def test_barrier_callback(self):
        sim, controller, dps, _ = build()
        fired = []
        controller.switch(1).barrier(lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert len(fired) == 1

    def test_packet_out_transmits(self):
        sim, controller, dps, _ = build()
        sent = []
        dps[0].transmit = lambda p, pkt, size: sent.append(p)
        controller.switch(1).packet_out(udp_packet(), [Output(2)])
        sim.run_until_idle()
        assert sent == [2]


class TestComputeModel:
    def test_service_time_queues_packet_ins(self):
        sim, controller, dps, _ = build(service_time=0.01)
        for _ in range(5):
            dps[0].inject(udp_packet(), 1)
        sim.run_until_idle()
        assert controller.packet_ins_handled == 5
        # The 5th packet waited behind four 10 ms services.
        assert max(controller.packet_in_delays) >= 0.04

    def test_zero_service_time_is_instant(self):
        sim, controller, dps, _ = build(service_time=0.0)
        dps[0].inject(udp_packet(), 1)
        sim.run_until_idle()
        assert controller.packet_in_delays == [0.0]
