"""Apps declare, the controller reconciles: ``Controller.update``.

A hypothesis state machine pins the primitive against real switches
(two owners, unowned rules beside them, channels that drop and return),
and a call-count sentinel pins what it bought on a failover-storm-shaped
run: no rule re-sent unchanged, no delete forgotten while a switch was
away.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.controller import Controller
from repro.controller.core import SwitchHandle
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.netem import Network, Topology
from repro.packet import MACAddress
from repro.workload import WorkloadSpec
from repro.workload.runner import assemble

# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
#: Two owners at different priorities, as every real app pair is.
OWNERS = {"low": 100, ("high", 7): 200}
DPID = st.integers(min_value=1, max_value=3)
PORT = st.integers(min_value=1, max_value=3)
#: A handful of matches, shared between the owners.
MACS = [MACAddress(bytes([2, 0, 0, 0, 0, n])) for n in range(1, 5)]
#: Matches only plain ``add_flow`` callers use, at the owners' priorities.
UNOWNED_MACS = [MACAddress(bytes([2, 0, 0, 0, 1, n])) for n in range(1, 3)]
WANTED = st.dictionaries(st.tuples(DPID, st.sampled_from(MACS)), PORT,
                         max_size=8)


class UpdateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.net = Network(Topology.linear(3, hosts_per_switch=0))
        self.controller = Controller(self.net.sim)
        for name in self.net.switches:
            channel = self.net.make_channel(name)
            self.controller.accept_channel(channel)
            channel.connect()
        self.tick(0.5)
        #: owner -> {(dpid, mac): port}, the last set each declared.
        self.wanted = {owner: {} for owner in OWNERS}
        #: (dpid, priority, mac) -> port for the unowned rules.
        self.unowned = {}
        #: The owner whose update is running, if one is.
        self.updating = []
        self._spy()

    # -- every flow-mod an update sends is checked against the ledger ----
    def _spy(self):
        machine = self
        ledger = self.controller._ledger
        self._real = SwitchHandle.add_flow, SwitchHandle.delete_flows

        def add_flow(handle, match, actions, priority=0, **spec):
            if machine.updating:
                held = ledger.get(handle.dpid, {}).get(
                    (spec.get("table_id", 0), priority, match))
                assert held is None or not (
                    held["actions"] == actions
                    and held["owner"] == spec["owner"]
                ), f"re-sent unchanged: {handle.dpid} {match} {actions}"
            machine._real[0](handle, match, actions, priority, **spec)

        def delete_flows(handle, match=None, table_id=0, priority=None,
                         **kwargs):
            if machine.updating:
                held = ledger[handle.dpid][(table_id, priority, match)]
                assert held["owner"] == machine.updating[0], (
                    f"{machine.updating[0]} deleted a rule of "
                    f"{held['owner']}")
            machine._real[1](handle, match, table_id, priority, **kwargs)

        SwitchHandle.add_flow = add_flow
        SwitchHandle.delete_flows = delete_flows

    def teardown(self):
        try:
            self.settle()
        finally:
            SwitchHandle.add_flow, SwitchHandle.delete_flows = self._real

    def tick(self, seconds):
        self.net.sim.run(until=self.net.sim.now + seconds)

    def declare(self, owner):
        priority = OWNERS[owner]
        self.updating.append(owner)
        try:
            self.controller.update(owner, [
                (dpid, {"match": Match(eth_dst=mac),
                        "actions": [Output(port)], "priority": priority})
                for (dpid, mac), port in self.wanted[owner].items()
            ])
        finally:
            self.updating.pop()

    # -- rules ------------------------------------------------------------
    @rule(owner=st.sampled_from(list(OWNERS)), wanted=WANTED)
    def update(self, owner, wanted):
        self.wanted[owner] = wanted
        self.declare(owner)

    @rule(dpid=DPID, mac=st.sampled_from(UNOWNED_MACS), port=PORT,
          priority=st.sampled_from(sorted(OWNERS.values())))
    def unowned_add(self, dpid, mac, port, priority):
        switch = self.controller.switches.get(dpid)
        if switch is not None:
            switch.add_flow(Match(eth_dst=mac), [Output(port)],
                            priority=priority)
            self.unowned[(dpid, priority, mac)] = port

    @rule(dpid=DPID)
    def channel_down(self, dpid):
        # Let what is in flight land first.  Resync reconciles by key
        # (FLOW stats carry no actions, PROTOCOL.md section 9): a lost
        # add or delete is repaired, a lost *change* of an existing
        # entry's actions is not, with or without ``update``.
        self.tick(0.01)
        self.net.channel(self.net.switch_name(dpid)).disconnect()

    @rule(dpid=DPID)
    def channel_up(self, dpid):
        self.net.channel(self.net.switch_name(dpid)).connect()

    @rule(seconds=st.sampled_from([0.001, 0.05, 0.5]))
    def wait(self, seconds):
        self.tick(seconds)

    @rule()
    def settle(self):
        """Every channel up, resyncs done, one more update per owner:
        tables == what was declared (+ the unowned rules) == ledger."""
        for name in self.net.switches:
            self.net.channel(name).connect()
        self.tick(3.0)
        assert sorted(self.controller.switches) == [1, 2, 3]
        for owner in OWNERS:
            self.declare(owner)
        self.tick(1.0)
        expected = dict(self.unowned)
        for owner, wanted in self.wanted.items():
            for (dpid, mac), port in wanted.items():
                expected[(dpid, OWNERS[owner], mac)] = port
        tables = {
            (dp.dpid, entry.priority, entry.match.fields["eth_dst"]):
                entry.actions[0].port
            for dp in self.net.switches.values()
            for entry in dp.tables[0]
            if entry.priority in OWNERS.values()
        }
        ledger = {
            (dpid, priority, match.fields["eth_dst"]):
                spec["actions"][0].port
            for dpid, flows in self.controller._ledger.items()
            for (_table, priority, match), spec in flows.items()
        }
        assert tables == expected
        assert ledger == expected
        for owner, wanted in self.wanted.items():
            assert (sorted((dpid, spec["match"].fields["eth_dst"])
                           for dpid, spec in self.controller.owned(owner))
                    == sorted(wanted))


TestUpdateMachine = UpdateMachine.TestCase


# ----------------------------------------------------------------------
# update(owner, rules, on_done)
# ----------------------------------------------------------------------
def test_on_done_waits_for_a_barrier_from_every_touched_switch():
    net = Network(Topology.linear(3, hosts_per_switch=0))
    controller = Controller(net.sim)
    for name in net.switches:
        channel = net.make_channel(name, latency=0.01)
        controller.accept_channel(channel)
        channel.connect()
    net.sim.run(until=1.0)
    rules = [(dpid, {"match": Match(eth_dst=MACS[0]),
                     "actions": [Output(1)]}) for dpid in (1, 2)]
    done = []
    controller.update("app", rules,
                      on_done=lambda: done.append(net.sim.now))
    assert not done
    net.sim.run(until=2.0)
    assert done == [1.0 + 2 * 0.01]  # one control round trip
    assert [dp.flow_count() for dp in net.switches.values()] == [1, 1, 0]
    # Nothing to send: nothing to wait for.
    controller.update("app", rules, on_done=lambda: done.append("again"))
    assert done[-1] == "again"


# ----------------------------------------------------------------------
# The tier-1 sentinel
# ----------------------------------------------------------------------
def test_an_update_sends_only_what_changed(monkeypatch):
    """Call-count sentinel: machine-independent, so it can gate tier 1.

    A shortened ``failover_storm`` (channel flap on an edge switch, a
    switch crash, one link flap; fat-tree k=4, proactive).  Of the
    router's flow-mods none re-sends a rule the ledger already holds
    unchanged (R) and no delete is dropped because its switch was away
    while the ledger keeps the rule (F).  At the parent of this change
    the full-length unit read 619 adds, R 41, D 102, F 45.
    """
    spec = WorkloadSpec(
        "update-sentinel",
        topology={"family": "fat_tree",
                  "params": {"k": 4, "bandwidth_bps": 1e9}},
        seed=1,
        duration=3.0,
        traffic=[{"kind": "flows", "rate": 60.0,
                  "sizes": {"dist": "fixed", "size": 3_000},
                  "start": 0.3, "duration": 1.0}],
        faults=[
            {"kind": "channel_flap", "switch": "p2e0", "at": 0.5,
             "down_for": 0.3, "period": 0.9, "count": 1},
            {"kind": "switch_crash", "switch": "p1a0", "at": 0.7,
             "restart_after": 0.6},
            {"kind": "link_flap", "a": "p0a0", "b": "c0", "at": 1.8,
             "down_for": 0.3, "period": 0.7, "count": 1},
        ],
    )
    live = assemble(spec)
    router = live.platform.router
    controller = router.controller
    counts = dict.fromkeys("UARDF", 0)
    real_update = controller.update
    real_add = SwitchHandle.add_flow
    real_delete = SwitchHandle.delete_flows
    updating = []

    def update(owner, rules):
        assert owner == router.name
        counts["U"] += 1
        rules = list(rules)
        wanted = {(dpid, rule["match"]) for dpid, rule in rules}
        # Out of reach: held by the router, no longer wanted, on a
        # switch that is away.  Forgotten, if nobody holds it afterwards.
        away = {(dpid, spec["match"])
                for dpid, spec in controller.owned(owner)
                if dpid not in controller.switches} - wanted
        updating.append(owner)
        try:
            real_update(owner, rules)
        finally:
            updating.pop()
        counts["F"] += len(away - {
            (dpid, spec["match"]) for dpid, spec in controller.owned(owner)})

    def add_flow(handle, match, actions, priority=0, **rest):
        if updating:
            counts["A"] += 1
            held = controller._ledger.get(handle.dpid, {}).get(
                (rest["table_id"], priority, match))
            if held is not None and held["actions"] == actions:
                counts["R"] += 1
        real_add(handle, match, actions, priority, **rest)

    def delete_flows(handle, *args, **kwargs):
        if updating:
            counts["D"] += 1
        real_delete(handle, *args, **kwargs)

    monkeypatch.setattr(controller, "update", update)
    monkeypatch.setattr(SwitchHandle, "add_flow", add_flow)
    monkeypatch.setattr(SwitchHandle, "delete_flows", delete_flows)
    live.platform.run(spec.duration)
    # CI runs this test with -s and greps the line into the summary.
    print(f"\nupdate sentinel: {counts['U']} updates, {counts['A']} adds, "
          f"{counts['R']} re-sent unchanged, {counts['D']} deletes, "
          f"{counts['F']} forgotten while away")
    assert counts["U"] >= 5 and counts["A"] >= 300 and counts["D"] >= 10
    assert counts["R"] == 0
    assert counts["F"] == 0
    owned = sum(1 for _ in controller.owned(router.name))
    assert router.rules_installed == owned > 0
