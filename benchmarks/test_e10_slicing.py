"""E10 / Figure 5 — Slice isolation under a misbehaving tenant.

Question: can one tenant's overload depress another tenant's
throughput, with and without dataplane meters enforcing slice caps?

Workload: two slices share one 20 Mb/s bottleneck link.  Tenant A (cap
8 Mb/s) behaves, offering a constant 6 Mb/s.  Tenant B (cap 8 Mb/s)
offers 2→40 Mb/s (sweeping from polite to hostile).

Expected shape: with enforcement, A's goodput stays at its offered
6 Mb/s at every B load, and B is clamped to its 8 Mb/s cap.  Without
enforcement, B's overload saturates the shared queue and A's goodput
collapses — the concrete argument for pushing isolation into the
dataplane instead of trusting tenants.
"""

import pytest

from repro.analysis import Series
from repro.apps import NetworkSlicing, ProactiveRouter
from repro.core import ZenPlatform
from repro.netem import CBRStream, FlowSink, Topology

from harness import publish

BOTTLENECK = 20e6
SLICE_CAP = 8e6
A_OFFER = 6e6
B_OFFERS = (2e6, 8e6, 20e6, 40e6)
MEASURE = 4.0


def build():
    """Two senders on s1, two receivers on s2, one bottleneck link."""
    topo = Topology()
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.add_link("s1", "s2", bandwidth_bps=BOTTLENECK,
                  queue_capacity=50)
    for name in ("a_src", "b_src"):
        topo.add_link(topo.add_host(name), "s1", bandwidth_bps=100e6)
    for name in ("a_dst", "b_dst"):
        topo.add_link(topo.add_host(name), "s2", bandwidth_bps=100e6)
    return topo


def run_point(b_offer, enforce):
    platform = ZenPlatform(build(), profile="bare")
    platform.router = platform.add_app(ProactiveRouter(table_id=1))
    slicing = platform.add_app(
        NetworkSlicing(table_id=0, next_table=1, enforce=enforce)
    )
    platform.start()
    platform.net.seed_static_arp()
    a_src, b_src = platform.host("a_src"), platform.host("b_src")
    a_dst, b_dst = platform.host("a_dst"), platform.host("b_dst")
    slicing.define_slice("tenant-a", [a_src.ip], rate_bps=SLICE_CAP)
    slicing.define_slice("tenant-b", [b_src.ip], rate_bps=SLICE_CAP)
    # Warm host discovery.
    for src, dst in ((a_src, a_dst), (b_src, b_dst)):
        src.send_udp(dst.ip, 7, 7, b"w")
        dst.send_udp(src.ip, 7, 7, b"w")
    platform.run(1.0)
    a_sink, b_sink = FlowSink(a_dst, 9000), FlowSink(b_dst, 9000)
    CBRStream(a_src, a_dst.ip, rate_bps=A_OFFER, packet_size=1000,
              duration=MEASURE + 1)
    CBRStream(b_src, b_dst.ip, rate_bps=b_offer, packet_size=1000,
              duration=MEASURE + 1)
    platform.run(MEASURE)
    return (a_sink.total_bytes * 8 / MEASURE,
            b_sink.total_bytes * 8 / MEASURE)


def run_experiment():
    series = Series(
        "E10 / Figure 5 — tenant A goodput (offers 6 Mb/s, cap 8) vs "
        "tenant B offered load over a shared 20 Mb/s link",
        "b_offered_mbps",
        ["a_goodput_enforced", "b_goodput_enforced",
         "a_goodput_unenforced", "b_goodput_unenforced"],
    )
    data = {}
    for b_offer in B_OFFERS:
        a_on, b_on = run_point(b_offer, enforce=True)
        a_off, b_off = run_point(b_offer, enforce=False)
        data[b_offer] = (a_on, b_on, a_off, b_off)
        series.add_point(b_offer / 1e6, a_on / 1e6, b_on / 1e6,
                         a_off / 1e6, b_off / 1e6)
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e10_slicing(results, benchmark):
    series, data = results
    publish("e10_figure5", series)
    benchmark.pedantic(lambda: run_point(20e6, True), rounds=1,
                       iterations=1)
    hostile = data[40e6]
    polite = data[2e6]
    # With meters, A's goodput is immune to B's hostility...
    assert hostile[0] == pytest.approx(A_OFFER, rel=0.1)
    assert polite[0] == pytest.approx(A_OFFER, rel=0.1)
    # ...and B is clamped near its cap.
    assert hostile[1] <= SLICE_CAP * 1.15
    # Without meters, the hostile B crushes A...
    assert hostile[2] < A_OFFER * 0.75
    # ...and takes far more than its share.
    assert hostile[3] > SLICE_CAP * 1.3
    # When B is polite, enforcement changes nothing for anyone.
    assert polite[2] == pytest.approx(A_OFFER, rel=0.1)
    assert polite[3] == pytest.approx(2e6, rel=0.1)
