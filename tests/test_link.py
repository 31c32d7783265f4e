"""Link model tests: latency, bandwidth, queueing, loss, failure."""

import pytest

from repro.errors import TopologyError
from repro.netem import Attachment, Link
from repro.packet import Ethernet
from repro.sim import Simulator


def frame(size=100):
    payload = b"\x00" * max(size - 14, 0)
    return Ethernet(dst="00:00:00:00:00:02",
                    src="00:00:00:00:00:01") / payload


def make_link(sim, **kw):
    a_in, b_in = [], []
    a = Attachment("a", 1, lambda pkt: a_in.append((sim.now, pkt)))
    b = Attachment("b", 1, lambda pkt: b_in.append((sim.now, pkt)))
    return Link(sim, a, b, **kw), a_in, b_in


class TestDelivery:
    def test_propagation_delay(self):
        sim = Simulator()
        link, a_in, b_in = make_link(sim, delay=0.005, bandwidth_bps=0)
        link.send_from("a", frame())
        sim.run_until_idle()
        assert len(b_in) == 1
        assert b_in[0][0] == pytest.approx(0.005)
        assert a_in == []

    def test_bidirectional(self):
        sim = Simulator()
        link, a_in, b_in = make_link(sim, delay=0.001)
        link.send_from("a", frame())
        link.send_from("b", frame())
        sim.run_until_idle()
        assert len(a_in) == 1 and len(b_in) == 1

    def test_unknown_sender_rejected(self):
        sim = Simulator()
        link, _, _ = make_link(sim)
        with pytest.raises(TopologyError):
            link.send_from("zebra", frame())

    def test_serialisation_delay(self):
        sim = Simulator()
        # 1000-byte frame at 1 Mb/s = 8 ms of serialisation.
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6)
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        assert b_in[0][0] == pytest.approx(0.008)

    def test_back_to_back_frames_queue(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6)
        link.send_from("a", frame(1000))
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        arrivals = [t for t, _ in b_in]
        assert arrivals == [pytest.approx(0.008), pytest.approx(0.016)]

    def test_directions_do_not_contend(self):
        sim = Simulator()
        link, a_in, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6)
        link.send_from("a", frame(1000))
        link.send_from("b", frame(1000))
        sim.run_until_idle()
        assert a_in[0][0] == pytest.approx(0.008)
        assert b_in[0][0] == pytest.approx(0.008)


class TestQueueing:
    def test_drop_tail_when_backlog_full(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6,
                                  queue_capacity=2)
        for _ in range(5):
            link.send_from("a", frame(1000))
        sim.run_until_idle()
        assert len(b_in) == 2
        ab, _ = link.direction_stats()
        assert ab["dropped_queue"] == 3

    def test_queue_drains_over_time(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6,
                                  queue_capacity=2)
        link.send_from("a", frame(1000))
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        assert len(b_in) == 3


class TestLoss:
    def test_lossy_link_drops_some(self):
        sim = Simulator(seed=3)
        link, _, b_in = make_link(sim, delay=0.0, loss_rate=0.5)
        for _ in range(200):
            link.send_from("a", frame())
        sim.run_until_idle()
        assert 50 < len(b_in) < 150
        _, stats = link.direction_stats()
        ab, _ = link.direction_stats()
        assert ab["dropped_loss"] == 200 - len(b_in)

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            link, _, b_in = make_link(sim, loss_rate=0.3)
            for _ in range(50):
                link.send_from("a", frame())
            sim.run_until_idle()
            return len(b_in)

        assert run(1) == run(1)

    def test_invalid_loss_rate(self):
        sim = Simulator()
        with pytest.raises(TopologyError):
            make_link(sim, loss_rate=1.0)


class TestFailure:
    def test_failed_link_delivers_nothing(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.001)
        link.fail()
        link.send_from("a", frame())
        sim.run_until_idle()
        assert b_in == []

    def test_recovery_restores_delivery(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.001)
        link.fail()
        link.send_from("a", frame())
        link.recover()
        link.send_from("a", frame())
        sim.run_until_idle()
        assert len(b_in) == 1


class TestUtilisation:
    def test_utilisation_tracks_busy_fraction(self):
        sim = Simulator()
        link, _, _ = make_link(sim, delay=0.0, bandwidth_bps=1e6,
                               queue_capacity=0)
        # 125 frames × 1000 B × 8 = 1 Mb, sent over 2 simulated seconds
        # => ~50% utilisation.
        for i in range(125):
            sim.schedule(i * 0.016, link.send_from, "a", frame(1000))
        sim.run(until=2.0)
        assert link.max_utilisation == pytest.approx(0.5, rel=0.05)

    def test_window_reset(self):
        sim = Simulator()
        link, _, _ = make_link(sim, delay=0.0, bandwidth_bps=1e6)
        link.send_from("a", frame(1000))
        sim.run(until=1.0)
        link.reset_utilisation_window()
        sim.run(until=2.0)
        assert link.max_utilisation == 0.0

    def test_other_end(self):
        sim = Simulator()
        link, _, _ = make_link(sim)
        assert link.other_end("a").node_name == "b"
        assert link.other_end("b").node_name == "a"
        with pytest.raises(TopologyError):
            link.other_end("c")


class TestDepartureInstant:
    """A departure is a reserved ``(time, order)``, not an event: a send
    at the very instant a frame finishes serialising must see the
    backlog a dequeue event at that order would have left."""

    @pytest.mark.parametrize("stable_ties", [False, True])
    def test_a_send_at_the_departure_instant_sees_the_exact_backlog(
            self, stable_ties):
        sim = Simulator(stable_ties=stable_ties)
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6,
                                  queue_capacity=1)
        depart = 1000 * 8 / 1e6
        # Ordered before the first frame's departure: the backlog is
        # still full, so this frame is dropped.
        sim.schedule_at(depart, link.send_from, "a", frame(1000))
        link.send_from("a", frame(1000))
        # Ordered after it: the first frame has left, so this one goes.
        sim.schedule_at(depart, link.send_from, "a", frame(1000))
        sim.run_until_idle()
        ab, _ = link.direction_stats()
        assert ab["dropped_queue"] == 1
        assert [t for t, _ in b_in] == pytest.approx([depart, 2 * depart])

    def test_a_keyed_event_sorts_after_every_reserved_departure(self):
        # Stable-tie mode orders keyed events after unkeyed ones at the
        # same instant, whenever they were scheduled.
        sim = Simulator(stable_ties=True)
        link, _, b_in = make_link(sim, delay=0.0, bandwidth_bps=1e6,
                                  queue_capacity=1)
        depart = 1000 * 8 / 1e6
        sim.schedule_at(depart, link.send_from, "a", frame(1000),
                        key=(0, 0))
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        assert link.direction_stats()[0]["dropped_queue"] == 0
        assert len(b_in) == 2

    def test_a_send_between_runs_sees_every_departure_due(self):
        sim = Simulator()
        link, _, b_in = make_link(sim, delay=0.001, bandwidth_bps=1e6,
                                  queue_capacity=1)
        depart = 1000 * 8 / 1e6
        link.send_from("a", frame(1000))
        sim.run(until=depart)  # inclusive: the departure at ``depart`` ran
        link.send_from("a", frame(1000))
        sim.run(until=2 * depart, exclusive=True)  # the second one has not
        link.send_from("a", frame(1000))
        sim.run_until_idle()
        assert link.direction_stats()[0]["dropped_queue"] == 1
        assert len(b_in) == 2
        assert sim.events_processed == 2  # two arrivals, no departures
