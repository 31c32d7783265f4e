"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run_until_idle()
        assert order == ["early", "late", "latest"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run_until_idle()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run_until_idle() == 0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, order.append, "second")

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert order == ["first", "second"]
        assert sim.now == 2.0


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0  # clock advanced to the bound

    def test_run_until_resumes_cleanly(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["b"]

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(100):
            sim.schedule(float(i), lambda: None)
        executed = sim.run(max_events=10)
        assert executed == 10
        assert sim.pending_events == 90

    def test_max_events_bound_does_not_jump_the_clock(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda: fired.append(sim.now))
        ticks = []
        sim.observe_every(50.0, lambda: ticks.append(sim.now))
        assert sim.run(until=100.0, max_events=3) == 3
        assert sim.now == 2.0  # the t = 3 event is still due
        assert ticks == []  # and no observer fired at ``until``
        sim.run(until=100.0)
        assert fired == [float(i) for i in range(10)]  # never backwards
        assert (sim.now, ticks) == (100.0, [50.0, 100.0])

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 5


class TestPeriodic:
    def test_call_every_repeats_until_stopped(self):
        sim = Simulator()
        ticks = []
        stop = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        stop()
        sim.run(until=10.0)
        assert len(ticks) == 5

    def test_call_every_with_jitter_stays_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            ticks = []
            sim.call_every(1.0, lambda: ticks.append(sim.now), jitter=0.1)
            sim.run(until=10.0)
            return ticks

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_call_every_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)


class TestRandomness:
    def test_same_seed_same_stream(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_forked_rngs_are_independent_and_deterministic(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        fa1, fa2 = a.fork_rng(), a.fork_rng()
        fb1, _ = b.fork_rng(), b.fork_rng()
        assert fa1.random() == fb1.random()
        # Distinct children produce distinct streams.
        assert fa1.random() != fa2.random()


class TestPendingEventAccounting:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_events == 6

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: event.cancel())
        sim.schedule(3.0, lambda: None)
        sim.run_until_idle()
        assert fired == [1]
        assert sim.pending_events == 0

    def test_count_survives_heavy_cancel_churn(self):
        sim = Simulator(seed=3)
        rng = sim.fork_rng()
        live = []
        for i in range(500):
            event = sim.schedule(rng.uniform(0.0, 5.0), lambda: None)
            if rng.random() < 0.5:
                event.cancel()
            else:
                live.append(event)
        assert sim.pending_events == len(live)
        processed = sim.run_until_idle()
        assert processed == len(live)
        assert sim.pending_events == 0


class TestObservers:
    """The read-only observer side-channel (repro.obs rides this)."""

    def test_tick_fires_before_events_at_or_after_its_time(self):
        sim = Simulator()
        order = []
        sim.observe_every(1.0, lambda: order.append(("tick", sim.now)))
        sim.schedule(0.5, lambda: order.append(("event", 0.5)))
        sim.schedule(1.0, lambda: order.append(("event", 1.0)))
        sim.schedule(1.5, lambda: order.append(("event", 1.5)))
        sim.run_until_idle()
        assert order[:3] == [
            ("event", 0.5), ("tick", 1.0), ("event", 1.0),
        ]

    def test_ticks_fire_at_run_until_boundary(self):
        sim = Simulator()
        ticks = []
        sim.observe_every(0.25, lambda: ticks.append(sim.now))
        sim.run(until=1.0)  # no events at all
        assert ticks == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert sim.now == 1.0
        assert sim.events_processed == 0

    def test_observers_consume_no_sequence_numbers(self):
        def run(with_observer):
            sim = Simulator(seed=42)
            seen = []
            if with_observer:
                sim.observe_every(0.1, lambda: None)
            rng = sim.fork_rng()
            for i in range(5):
                sim.schedule(rng.uniform(0.0, 3.0),
                             lambda i=i: seen.append((sim.now, i)))
            sim.run(until=3.0)
            return seen

        assert run(True) == run(False)

    def test_schedule_from_observer_raises(self):
        sim = Simulator()

        def naughty():
            sim.schedule(0.1, lambda: None)

        sim.observe_every(0.5, naughty)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="read-only"):
            sim.run(until=1.0)

    def test_cancel_stops_future_ticks(self):
        sim = Simulator()
        ticks = []
        handle = sim.observe_every(0.2, lambda: ticks.append(sim.now))
        sim.schedule(1.0, handle.cancel)
        sim.run(until=2.0)
        assert all(t <= 1.0 for t in ticks)
        assert len(ticks) == 5

    def test_two_observers_fire_in_registration_order(self):
        sim = Simulator()
        order = []
        sim.observe_every(0.5, lambda: order.append("a"))
        sim.observe_every(0.5, lambda: order.append("b"))
        sim.run(until=0.5)
        assert order == ["a", "b"]

    def test_fired_counter_tracks_ticks(self):
        sim = Simulator()
        handle = sim.observe_every(0.1, lambda: None)
        sim.run(until=1.0)
        assert handle.fired == 10
