"""Symbolic reachability over a :class:`NetworkSnapshot`.

Two engines cooperate here, split so the checker can be aggressive about
exploration without ever risking a false positive:

* a **symbolic explorer** walks packet *classes* (a positive
  :class:`~repro.dataplane.match.Match` plus a list of excluded
  matches) through the frozen pipelines, splitting a class at every
  rule boundary it crosses.  Rewrites are tracked in a substitution map
  (field → concrete value), so un-rewritten fields stay expressed in
  ingress terms and the Match algebra (`intersect` / `is_subset_of` /
  `overlaps`) applies directly.  The explorer's only job is to
  *enumerate interesting ingress classes* and materialise a witness
  packet for each;
* a **concrete interpreter** replays one witness flow key through the
  snapshot with the exact semantics of
  :meth:`~repro.dataplane.switch.Datapath._walk` — canonical first-match
  lookup, rewrite-then-emit action lists, stage-keyed group selection,
  the hairpin guard, flood fanout, TTL expiry — and its terminals are
  the *only* evidence invariants may cite.

Anything the explorer finds that the interpreter cannot reproduce is
silently dropped: the checker under-reports rather than ever crying
wolf.  Neither engine touches a live object — no ``lookup()``, no
``select_buckets()``, no counters, no kernel events.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.dataplane.actions import (
    DecTTL,
    Group,
    Meter,
    Output,
    PORT_ALL,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    PORT_TABLE,
    PopVLAN,
    PushVLAN,
    SetDSCP,
    SetEthDst,
    SetEthSrc,
    SetIPDst,
    SetIPSrc,
    SetL4Dst,
    SetL4Src,
    SetVLAN,
)
from repro.dataplane.match import MATCH_FIELDS, Match, FlowKey, VLAN_ABSENT
from repro.packet import IPv4Address, IPv4Network, MACAddress

from repro.check.snapshot import DatapathSnap, NetworkSnapshot

__all__ = [
    "PacketClass",
    "Terminal",
    "ConcreteTrace",
    "trace_packet",
    "explore",
    "BLACKHOLE_KINDS",
    "INITIAL_TTL",
]

#: Terminal kinds that mean "traffic silently dies in the dataplane".
#: Everything else (delivery, punts to a *live* controller, explicit
#: policy drops, the hairpin guard) is intended behaviour.
BLACKHOLE_KINDS = frozenset({
    "dead_port",       # output to a down/absent port
    "dead_link",       # port up but the link (or far end) is down
    "miss_drop",       # table miss with drop/fall-off-pipeline handling
    "ff_no_live",      # fast-failover group with every bucket dead
    "punt_dead",       # punt at a switch whose control channel is down
    "bad_group",       # action references a group that does not exist
    "ttl_expired",     # the packet aged out mid-network
    "ingress_down",    # the packet's own ingress port is down
})

#: TTL assumed for witness packets (matches the emulator's default).
INITIAL_TTL = 64

_MAX_GROUP_DEPTH = 4

# Deterministic defaults for witness materialisation.  The 02:ee prefix
# is locally administered and never collides with emulator-minted MACs
# (02:00:...), so a default witness is recognisably synthetic.
_WITNESS_DEFAULTS: Dict[str, Any] = {
    "in_port": 1,
    "eth_src": MACAddress("02:ee:00:00:00:01"),
    "eth_dst": MACAddress("02:ee:00:00:00:02"),
    "eth_type": 0x0800,
    "vlan_vid": VLAN_ABSENT,
    "ip_src": IPv4Address("10.254.0.1"),
    "ip_dst": IPv4Address("10.254.0.2"),
    "ip_proto": 17,
    "ip_dscp": 0,
    "l4_src": 4242,
    "l4_dst": 4243,
}

_FIELD_LIMIT = {
    "eth_type": 1 << 16,
    "vlan_vid": 1 << 12,
    "ip_proto": 1 << 8,
    "ip_dscp": 1 << 6,
    "l4_src": 1 << 16,
    "l4_dst": 1 << 16,
}


def _bump(field: str, value: Any) -> Any:
    """The next candidate value for ``field`` (wrapping, deterministic)."""
    if isinstance(value, MACAddress):
        return MACAddress((value.value + 1) & ((1 << 48) - 1))
    if isinstance(value, IPv4Address):
        return IPv4Address((value.value + 1) & ((1 << 32) - 1))
    limit = _FIELD_LIMIT.get(field)
    if field == "vlan_vid":
        # VLAN_ABSENT (-1) bumps to tag 1, then walks the vid space.
        nxt = value + 1 if value >= 1 else 1
        return nxt if nxt < limit else VLAN_ABSENT
    if limit is not None:
        return (value + 1) % limit
    return value + 1


def _outside_network(net: IPv4Network) -> Optional[IPv4Address]:
    """A deterministic address just outside ``net`` (None for 0.0.0.0/0)."""
    if net.prefix_len == 0:
        return None
    size = 1 << (32 - net.prefix_len)
    base = net.address.value & ~(size - 1) & ((1 << 32) - 1)
    return IPv4Address((base + size) & ((1 << 32) - 1))


def _inside_network(net: IPv4Network, offset: int) -> IPv4Address:
    size = 1 << (32 - net.prefix_len)
    base = net.address.value & ~(size - 1) & ((1 << 32) - 1)
    return IPv4Address(base + (offset % size))


class PacketClass:
    """A set of ingress packets: a positive pattern minus excluded ones.

    ``positive`` is a :class:`Match` every member satisfies; each entry
    of ``excludes`` is a :class:`Match` no member satisfies.  The class
    is *ingress-relative*: all constraints talk about header fields as
    they were when the packet entered the network.
    """

    __slots__ = ("positive", "excludes")

    def __init__(self, positive: Match,
                 excludes: Tuple[Match, ...] = ()) -> None:
        self.positive = positive
        self.excludes = excludes

    # -- algebra -------------------------------------------------------
    def restrict(self, match: Match) -> Optional["PacketClass"]:
        """Members that additionally satisfy ``match`` (None if none)."""
        merged = self.positive.intersect(match)
        if merged is None:
            return None
        kept = tuple(e for e in self.excludes if merged.overlaps(e))
        for e in kept:
            if merged.is_subset_of(e):
                return None  # an exclude covers the whole class
        return PacketClass(merged, kept)

    def subtract(self, match: Match) -> Optional["PacketClass"]:
        """Members that do *not* satisfy ``match`` (None if none left)."""
        if not self.positive.overlaps(match):
            return self
        if self.positive.is_subset_of(match):
            return None
        return PacketClass(self.positive, self.excludes + (match,))

    def contains(self, key: FlowKey) -> bool:
        """Is the concrete ``key`` a member of this class?"""
        if not self.positive.matches(key):
            return False
        return not any(e.matches(key) for e in self.excludes)

    # -- materialisation ----------------------------------------------
    def witness(self) -> Optional[FlowKey]:
        """A concrete member of this class, or None if we cannot build
        one.  Deterministic: same class, same witness."""
        values = dict(_WITNESS_DEFAULTS)
        positive = self.positive.fields
        for field, constraint in positive.items():
            if isinstance(constraint, IPv4Network):
                values[field] = _inside_network(constraint, 0)
            else:
                values[field] = constraint
        for _ in range(64):
            key = FlowKey(**values)
            offender = None
            for exclude in self.excludes:
                if exclude.matches(key):
                    offender = exclude
                    break
            if offender is None:
                return key
            if not self._dodge(values, positive, offender):
                return None
        return None

    def _dodge(self, values: Dict[str, Any], positive: Dict[str, Any],
               exclude: Match) -> bool:
        """Perturb one field of ``values`` to escape ``exclude``,
        respecting the positive constraints.  False when impossible."""
        for field in MATCH_FIELDS:
            if field not in exclude or field == "in_port":
                continue
            bound = positive.get(field)
            constraint = exclude.get(field)
            if bound is None:
                if isinstance(constraint, IPv4Network):
                    outside = _outside_network(constraint)
                    if outside is None:
                        continue
                    values[field] = outside
                else:
                    values[field] = _bump(field, values[field])
                return True
            if isinstance(bound, IPv4Network):
                # Walk the prefix's host space looking for a value the
                # exclude rejects.
                current = values[field]
                offset = (current.value - bound.address.value) & 0xFFFFFFFF
                candidate = _inside_network(bound, offset + 1)
                if candidate.value != current.value:
                    values[field] = candidate
                    return True
            # Exact positive pin: this field cannot move.
        return False

    def to_dict(self) -> dict:
        return {
            "positive": {k: str(v) for k, v in
                         sorted(self.positive.fields.items())},
            "excludes": [
                {k: str(v) for k, v in sorted(e.fields.items())}
                for e in self.excludes
            ],
        }

    def __repr__(self) -> str:
        extra = f" minus {len(self.excludes)}" if self.excludes else ""
        return f"<PacketClass {self.positive!r}{extra}>"


# ----------------------------------------------------------------------
# Concrete interpretation
# ----------------------------------------------------------------------

def _key_fields(key: FlowKey) -> Dict[str, Any]:
    return {f: getattr(key, f) for f in MATCH_FIELDS}


def _sig(fields: Dict[str, Any], ttl: int) -> tuple:
    return tuple(
        getattr(fields[f], "value", fields[f]) for f in MATCH_FIELDS
    ) + (ttl,)


def _make_key(fields: Dict[str, Any]) -> FlowKey:
    return FlowKey(**fields)


class Terminal:
    """Where (one copy of) a packet ended up."""

    __slots__ = ("kind", "switch", "port", "host", "detail", "path")

    def __init__(self, kind: str, switch: Optional[str] = None,
                 port: Optional[int] = None, host: Optional[str] = None,
                 detail: str = "",
                 path: Tuple[Tuple[str, int], ...] = ()) -> None:
        self.kind = kind
        self.switch = switch
        self.port = port
        self.host = host
        self.detail = detail
        #: The (switch, in_port) hops this copy traversed, in order.
        self.path = path

    @property
    def is_blackhole(self) -> bool:
        return self.kind in BLACKHOLE_KINDS

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "switch": self.switch,
            "port": self.port,
            "host": self.host,
            "detail": self.detail,
            "path": [list(h) for h in self.path],
        }

    def __repr__(self) -> str:
        where = self.host or self.switch or "?"
        return f"<Terminal {self.kind} @ {where}>"


class ConcreteTrace:
    """Every terminal of one injected witness packet."""

    __slots__ = ("key", "start_switch", "start_port", "terminals")

    def __init__(self, key: FlowKey, start_switch: str,
                 start_port: int, terminals: List[Terminal]) -> None:
        self.key = key
        self.start_switch = start_switch
        self.start_port = start_port
        self.terminals = terminals

    @property
    def loops(self) -> List[Terminal]:
        return [t for t in self.terminals if t.kind == "loop"]

    @property
    def blackholes(self) -> List[Terminal]:
        return [t for t in self.terminals if t.is_blackhole]

    def delivered_to(self, host: str) -> bool:
        return any(t.kind == "delivered" and t.host == host
                   for t in self.terminals)

    def __repr__(self) -> str:
        kinds = ",".join(sorted({t.kind for t in self.terminals}))
        return f"<ConcreteTrace {self.start_switch}:{self.start_port} [{kinds}]>"


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int) -> None:
        self.left = limit

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def trace_packet(snap: NetworkSnapshot, switch: str, in_port: int,
                 key: FlowKey, max_nodes: int = 4096) -> ConcreteTrace:
    """Run one concrete flow key through the frozen network.

    Replicates the datapath pipeline exactly (see module docstring) and
    follows every copy across links until it terminates.  Loops are
    detected as an exact (switch, in_port, header fields, ttl) state
    revisit along one causal chain.
    """
    terminals: List[Terminal] = []
    budget = _Budget(max_nodes)
    fields = _key_fields(key)
    fields["in_port"] = in_port
    # Worklist items: (switch, in_port, fields, ttl, path-of-sigs, hops)
    work: List[tuple] = [(switch, in_port, fields, INITIAL_TTL, (), ())]
    while work:
        sw_name, port, flds, ttl, path, hops = work.pop()
        if not budget.take():
            terminals.append(Terminal("budget", sw_name, port, path=hops))
            continue
        sw = snap.switches.get(sw_name)
        if sw is None:
            terminals.append(Terminal("dead_link", sw_name, port,
                                      path=hops))
            continue
        if not sw.port_is_live(port):
            terminals.append(Terminal(
                "ingress_down", sw_name, port, path=hops,
                detail="packet arrived on a down port"))
            continue
        state = (sw_name, port) + _sig(flds, ttl)
        if state in path:
            terminals.append(Terminal(
                "loop", sw_name, port, path=hops + ((sw_name, port),),
                detail="pipeline state revisited"))
            continue
        _pipeline(snap, sw, port, flds, ttl, path + (state,),
                  hops + ((sw_name, port),), terminals, work, budget)
    return ConcreteTrace(key, switch, in_port, terminals)


def _pipeline(snap: NetworkSnapshot, sw: DatapathSnap, in_port: int,
              fields: Dict[str, Any], ttl: int, path: tuple, hops: tuple,
              terminals: List[Terminal], work: List[tuple],
              budget: _Budget) -> None:
    """One switch's table walk for a concrete packet."""
    table_id = 0
    while True:
        key = _make_key(fields)
        entry = None
        for cand in sw.tables[table_id].entries:
            if cand.match.matches(key):
                entry = cand
                break
        if entry is None:
            if sw.miss_behaviour == "continue":
                if table_id + 1 < len(sw.tables):
                    table_id += 1
                    continue
                terminals.append(Terminal(
                    "miss_drop", sw.name, in_port, path=hops,
                    detail=f"fell off table {table_id}"))
                return
            if sw.miss_behaviour == "controller":
                kind = "punt" if sw.channel_up else "punt_dead"
                terminals.append(Terminal(
                    kind, sw.name, in_port, path=hops,
                    detail=f"miss in table {table_id}"))
                return
            terminals.append(Terminal(
                "miss_drop", sw.name, in_port, path=hops,
                detail=f"miss in table {table_id} (drop)"))
            return
        result = _exec_actions(
            snap, sw, entry.actions, fields, ttl, key, in_port, 0,
            path, hops, terminals, work, budget,
            has_goto=entry.goto_table is not None,
        )
        if result is None:
            return  # TTL expired mid-action-list
        fields, ttl = result
        if entry.goto_table is None:
            return
        if entry.goto_table >= len(sw.tables):
            # The live datapath would raise; treat as a drop-dead end.
            terminals.append(Terminal(
                "miss_drop", sw.name, in_port, path=hops,
                detail=f"goto past pipeline ({entry.goto_table})"))
            return
        table_id = entry.goto_table


def _exec_actions(snap: NetworkSnapshot, sw: DatapathSnap,
                  actions: Iterable, fields: Dict[str, Any], ttl: int,
                  stage_key: FlowKey, in_port: int, depth: int,
                  path: tuple, hops: tuple, terminals: List[Terminal],
                  work: List[tuple], budget: _Budget,
                  has_goto: bool = False
                  ) -> Optional[Tuple[Dict[str, Any], int]]:
    """Mirror of ``apply_actions`` + ``_execute``: rewrites in list
    order, then every emission uses the final header values.  Returns
    the rewritten (fields, ttl) or None when the packet died here."""
    working = dict(fields)
    out_ports: List[int] = []
    group_ids: List[int] = []
    meter_ids: List[int] = []
    for action in actions:
        if isinstance(action, Output):
            out_ports.append(action.port)
        elif isinstance(action, Group):
            group_ids.append(action.group_id)
        elif isinstance(action, Meter):
            meter_ids.append(action.meter_id)
        elif isinstance(action, SetEthSrc):
            working["eth_src"] = action.mac
        elif isinstance(action, SetEthDst):
            working["eth_dst"] = action.mac
        elif isinstance(action, SetIPSrc):
            working["ip_src"] = action.ip
        elif isinstance(action, SetIPDst):
            working["ip_dst"] = action.ip
        elif isinstance(action, SetL4Src):
            working["l4_src"] = action.port
        elif isinstance(action, SetL4Dst):
            working["l4_dst"] = action.port
        elif isinstance(action, SetDSCP):
            working["ip_dscp"] = action.dscp
        elif isinstance(action, (PushVLAN, SetVLAN)):
            working["vlan_vid"] = action.vid
        elif isinstance(action, PopVLAN):
            working["vlan_vid"] = VLAN_ABSENT
        elif isinstance(action, DecTTL):
            if ttl <= 1:
                kind = "ttl_expired" if sw.channel_up else "punt_dead"
                terminals.append(Terminal(
                    "ttl_expired", sw.name, in_port, path=hops,
                    detail=kind))
                return None
            ttl -= 1
        # Unknown action types rewrite nothing the key can see.
    # Meters are modelled as pass-through: the checker reasons about
    # reachability, not rate conformance, and guessing token-bucket
    # state would risk false positives.
    for port_no in out_ports:
        _emit(snap, sw, working, ttl, in_port, port_no, path, hops,
              terminals, work, budget)
    for group_id in group_ids:
        _run_group(snap, sw, working, ttl, stage_key, in_port, group_id,
                   depth, path, hops, terminals, work, budget)
    if not out_ports and not group_ids and not meter_ids and not has_goto:
        terminals.append(Terminal(
            "policy_drop", sw.name, in_port, path=hops,
            detail="empty action list"))
    return working, ttl


def _run_group(snap: NetworkSnapshot, sw: DatapathSnap,
               fields: Dict[str, Any], ttl: int, stage_key: FlowKey,
               in_port: int, group_id: int, depth: int, path: tuple,
               hops: tuple, terminals: List[Terminal], work: List[tuple],
               budget: _Budget) -> None:
    if depth >= _MAX_GROUP_DEPTH:
        terminals.append(Terminal(
            "bad_group", sw.name, in_port, path=hops,
            detail=f"group recursion past {_MAX_GROUP_DEPTH}"))
        return
    group = sw.groups.get(group_id)
    if group is None:
        terminals.append(Terminal(
            "bad_group", sw.name, in_port, path=hops,
            detail=f"no such group {group_id}"))
        return
    buckets = _select_buckets(group, stage_key, sw)
    if not buckets:
        terminals.append(Terminal(
            "ff_no_live", sw.name, in_port, path=hops,
            detail=f"group {group_id}: no live bucket"))
        return
    for bucket_actions in buckets:
        _exec_actions(snap, sw, bucket_actions, fields, ttl, stage_key,
                      in_port, depth + 1, path, hops, terminals, work,
                      budget)


def _select_buckets(group, key: FlowKey, sw: DatapathSnap) -> List[tuple]:
    """Counter-free replica of :meth:`GroupEntry.select_buckets`."""
    buckets = group.buckets  # (actions, watch_port, weight) triples
    if group.group_type == "all":
        return [b[0] for b in buckets]
    if group.group_type == "indirect":
        return [buckets[0][0]]
    if group.group_type == "select":
        total = sum(b[2] for b in buckets)
        slot = hash(key) % total
        upto = 0
        for actions, _watch, weight in buckets:
            upto += weight
            if slot < upto:
                return [actions]
        return [buckets[-1][0]]
    # fast failover
    for actions, watch, _weight in buckets:
        if watch is None or sw.port_is_live(watch):
            return [actions]
    return []


def _emit(snap: NetworkSnapshot, sw: DatapathSnap,
          fields: Dict[str, Any], ttl: int, in_port: int, port_no: int,
          path: tuple, hops: tuple, terminals: List[Terminal],
          work: List[tuple], budget: _Budget) -> None:
    if port_no == PORT_CONTROLLER:
        kind = "punt" if sw.channel_up else "punt_dead"
        terminals.append(Terminal(kind, sw.name, in_port, path=hops,
                                  detail="output:CONTROLLER"))
        return
    if port_no == PORT_TABLE:
        nf = dict(fields)
        work.append((sw.name, in_port, nf, ttl, path, hops[:-1]))
        return
    if port_no == PORT_IN_PORT:
        _transmit(snap, sw, fields, ttl, in_port, in_port, path, hops,
                  terminals, work)
        return
    if port_no in (PORT_FLOOD, PORT_ALL):
        for number in sorted(sw.ports):
            port = sw.ports[number]
            if number == in_port and port_no == PORT_FLOOD:
                continue
            if not port.up or (port.no_flood and port_no == PORT_FLOOD):
                continue
            _transmit(snap, sw, fields, ttl, in_port, number, path, hops,
                      terminals, work)
        return
    if port_no == in_port:
        # The datapath's hairpin guard: never emit on the ingress port
        # unless IN_PORT was named explicitly.
        terminals.append(Terminal("hairpin", sw.name, in_port,
                                  path=hops))
        return
    _transmit(snap, sw, fields, ttl, in_port, port_no, path, hops,
              terminals, work)


def _transmit(snap: NetworkSnapshot, sw: DatapathSnap,
              fields: Dict[str, Any], ttl: int, in_port: int,
              port_no: int, path: tuple, hops: tuple,
              terminals: List[Terminal], work: List[tuple]) -> None:
    if not sw.port_is_live(port_no):
        terminals.append(Terminal(
            "dead_port", sw.name, port_no, path=hops,
            detail=f"output to down port {port_no}"))
        return
    peer = snap.adjacency.get((sw.name, port_no))
    if peer is None:
        terminals.append(Terminal(
            "dead_port", sw.name, port_no, path=hops,
            detail=f"port {port_no} has no link"))
        return
    kind, peer_name, peer_port, link_up = peer
    if not link_up:
        terminals.append(Terminal(
            "dead_link", sw.name, port_no, path=hops,
            detail=f"link to {peer_name} is down"))
        return
    if kind == "host":
        terminals.append(Terminal(
            "delivered", sw.name, port_no, host=peer_name, path=hops))
        return
    nf = dict(fields)
    nf["in_port"] = peer_port
    work.append((peer_name, peer_port, nf, ttl, path, hops))


# ----------------------------------------------------------------------
# Symbolic exploration
# ----------------------------------------------------------------------

_REWRITE_FIELD = {
    SetEthSrc: ("eth_src", "mac"),
    SetEthDst: ("eth_dst", "mac"),
    SetIPSrc: ("ip_src", "ip"),
    SetIPDst: ("ip_dst", "ip"),
    SetL4Src: ("l4_src", "port"),
    SetL4Dst: ("l4_dst", "port"),
    SetDSCP: ("ip_dscp", "dscp"),
    SetVLAN: ("vlan_vid", "vid"),
    PushVLAN: ("vlan_vid", "vid"),
}


def _satisfies(value: Any, constraint: Any) -> bool:
    """Does a concrete ``value`` satisfy one match constraint?"""
    if isinstance(constraint, IPv4Network):
        return isinstance(value, IPv4Address) and constraint.contains(value)
    return value == constraint


class _SymState:
    __slots__ = ("switch", "in_port", "cls", "sigma", "chain")

    def __init__(self, switch: str, in_port: int, cls: PacketClass,
                 sigma: Dict[str, Any], chain: tuple) -> None:
        self.switch = switch
        self.in_port = in_port
        self.cls = cls
        self.sigma = sigma
        self.chain = chain


def explore(snap: NetworkSnapshot, switch: str, in_port: int,
            seed: PacketClass, max_states: int = 2048
            ) -> List[PacketClass]:
    """Enumerate ingress packet classes that take distinct paths.

    Returns candidate classes (ingress-relative); callers materialise a
    witness per class and confirm behaviour with :func:`trace_packet`.
    The list is deterministic and deduplicated by class signature.
    """
    candidates: List[PacketClass] = []
    seen_cls: set = set()

    def emit_candidate(cls: PacketClass) -> None:
        sig = (cls.positive, cls.excludes)
        if sig not in seen_cls:
            seen_cls.add(sig)
            candidates.append(cls)

    budget = _Budget(max_states)
    start_sigma = {"in_port": in_port}
    work: List[_SymState] = [
        _SymState(switch, in_port, seed, start_sigma, ())
    ]
    while work:
        st = work.pop()
        if not budget.take():
            emit_candidate(st.cls)
            continue
        sw = snap.switches.get(st.switch)
        if sw is None or not sw.port_is_live(st.in_port):
            emit_candidate(st.cls)
            continue
        sig = (st.switch, st.in_port,
               tuple(sorted((k, getattr(v, "value", v))
                            for k, v in st.sigma.items())))
        if sig in st.chain:
            emit_candidate(st.cls)  # symbolic cycle: let concrete decide
            continue
        _sym_pipeline(snap, sw, st, sig, emit_candidate, work)
    return candidates


def _sym_pipeline(snap: NetworkSnapshot, sw: DatapathSnap, st: _SymState,
                  sig: tuple, emit_candidate, work: List[_SymState]
                  ) -> None:
    """Symbolically walk one switch's pipeline, splitting ``st.cls``
    along rule boundaries.  Each split branch either continues into the
    topology (new worklist state) or bottoms out as a candidate."""
    # Stack of (table_id, cls, sigma) branches inside this switch.
    branches = [(0, st.cls, dict(st.sigma))]
    while branches:
        table_id, cls, sigma = branches.pop()
        if table_id >= len(sw.tables):
            emit_candidate(cls)
            continue
        remaining: Optional[PacketClass] = cls
        for entry in sw.tables[table_id].entries:
            if remaining is None:
                break
            pinned_ok = True
            free: Dict[str, Any] = {}
            for name, constraint in entry.match.fields.items():
                if name in sigma:
                    if not _satisfies(sigma[name], constraint):
                        pinned_ok = False
                        break
                else:
                    free[name] = constraint
            if not pinned_ok:
                continue  # no current packet can match this rule
            if free:
                free_match = Match(**free)
                hit = remaining.restrict(free_match)
                if hit is None:
                    continue
                next_remaining = remaining.subtract(free_match)
            else:
                hit, next_remaining = remaining, None
            _sym_actions(snap, sw, entry, hit, dict(sigma), st,
                         table_id, branches, emit_candidate, work)
            remaining = next_remaining
        if remaining is not None:
            # Table miss for what's left of the class.
            emit_candidate(remaining)


def _sym_actions(snap: NetworkSnapshot, sw: DatapathSnap, entry,
                 cls: PacketClass, sigma: Dict[str, Any], st: _SymState,
                 table_id: int, branches: list, emit_candidate,
                 work: List[_SymState]) -> None:
    out_ports: List[int] = []
    group_ids: List[int] = []
    for action in entry.actions:
        if isinstance(action, Output):
            out_ports.append(action.port)
        elif isinstance(action, Group):
            group_ids.append(action.group_id)
        elif isinstance(action, Meter):
            pass
        elif isinstance(action, PopVLAN):
            sigma["vlan_vid"] = VLAN_ABSENT
        elif isinstance(action, DecTTL):
            pass  # concrete confirmation models TTL
        else:
            spec = _REWRITE_FIELD.get(type(action))
            if spec is not None:
                field, attr = spec
                sigma[field] = getattr(action, attr)
    action_lists: List[List[int]] = [out_ports]
    for group_id in group_ids:
        group = sw.groups.get(group_id)
        if group is None:
            emit_candidate(cls)
            continue
        for bucket_ports in _sym_group_ports(group, sw):
            action_lists.append(bucket_ports)
    emitted = False
    for ports in action_lists:
        for port_no in ports:
            emitted = True
            _sym_emit(snap, sw, cls, sigma, st, port_no, emit_candidate,
                      work)
    if entry.goto_table is not None and entry.goto_table < len(sw.tables):
        branches.append((entry.goto_table, cls, sigma))
    elif not emitted:
        # Dead end inside this switch (drop/punt): candidate as-is.
        emit_candidate(cls)


def _sym_group_ports(group, sw: DatapathSnap) -> List[List[int]]:
    """Output ports per bucket the group might use.  SELECT explores
    every bucket — the concrete pass resolves which one actually
    fires."""
    buckets = group.buckets
    chosen: List[tuple] = []
    if group.group_type == "indirect":
        chosen = [buckets[0]]
    elif group.group_type == "ff":
        for b in buckets:
            if b[1] is None or sw.port_is_live(b[1]):
                chosen = [b]
                break
    else:  # all / select: explore everything
        chosen = list(buckets)
    result = []
    for actions, _watch, _weight in chosen:
        ports = [a.port for a in actions if isinstance(a, Output)]
        if ports:
            result.append(ports)
    return result


def _sym_emit(snap: NetworkSnapshot, sw: DatapathSnap, cls: PacketClass,
              sigma: Dict[str, Any], st: _SymState, port_no: int,
              emit_candidate, work: List[_SymState]) -> None:
    if port_no in (PORT_CONTROLLER, PORT_IN_PORT):
        emit_candidate(cls)
        return
    if port_no == PORT_TABLE:
        emit_candidate(cls)
        return
    targets: List[int] = []
    if port_no in (PORT_FLOOD, PORT_ALL):
        for number in sorted(sw.ports):
            port = sw.ports[number]
            if number == st.in_port and port_no == PORT_FLOOD:
                continue
            if not port.up or (port.no_flood and port_no == PORT_FLOOD):
                continue
            targets.append(number)
    else:
        targets.append(port_no)
    for number in targets:
        peer = snap.adjacency.get((sw.name, number))
        if peer is None or not peer[3] or peer[0] == "host":
            emit_candidate(cls)
            continue
        _kind, peer_name, peer_port, _up = peer
        nsigma = dict(sigma)
        nsigma["in_port"] = peer_port
        sig = (sw.name, st.in_port,
               tuple(sorted((k, getattr(v, "value", v))
                            for k, v in sigma.items())))
        work.append(_SymState(peer_name, peer_port, cls, nsigma,
                              st.chain + (sig,)))
