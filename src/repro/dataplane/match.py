"""Flow keys and match structures — the heart of match-action forwarding.

A :class:`FlowKey` is the concrete tuple of header fields extracted once
per packet at pipeline ingress.  A :class:`Match` is a pattern over those
fields: unset fields are wildcards, IP fields accept prefixes, and matches
are orderable by :attr:`specificity` so tests can reason about overlap.

The field set mirrors the OpenFlow 1.0 12-tuple (minus physical-layer
oddities), which is what the calibration band's reference systems (Ryu,
Open vSwitch) expose by default.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import DataplaneError
from repro.packet import (
    ARP,
    ICMP,
    IPv4,
    IPv4Address,
    IPv4Network,
    MACAddress,
    Packet,
    TCP,
    UDP,
    VLAN,
    Ethernet,
)
from repro.packet.ethernet import ETHERTYPES
from repro.packet.ipv4 import IP_PROTOS

__all__ = ["FlowKey", "Match", "VLAN_ABSENT", "MATCH_FIELDS"]

#: Sentinel for "the frame carries no 802.1Q tag" in the vlan_vid field.
VLAN_ABSENT = -1

#: Every field a Match may constrain, in canonical order.
MATCH_FIELDS: Tuple[str, ...] = (
    "in_port",
    "eth_src",
    "eth_dst",
    "eth_type",
    "vlan_vid",
    "ip_src",
    "ip_dst",
    "ip_proto",
    "ip_dscp",
    "l4_src",
    "l4_dst",
)

_FIELD_SET = frozenset(MATCH_FIELDS)
_ALL_VALUES = itemgetter(*MATCH_FIELDS)


#: The header classes a flow key reads, and which of them (if any) each
#: header class seen so far is: ``issubclass`` asked once per class.
_KINDS = (Ethernet, VLAN, IPv4, ARP, TCP, UDP, ICMP)
_KIND_OF: Dict[type, Optional[type]] = {}


class FlowKey:
    """The concrete header fields of one packet, extracted at ingress.

    Fields that do not exist in the packet (e.g. ``l4_src`` of an ARP
    frame) are ``None``; a Match constraining such a field cannot match
    the packet.
    """

    __slots__ = MATCH_FIELDS

    def __init__(
        self,
        in_port: Optional[int] = None,
        eth_src: Optional[MACAddress] = None,
        eth_dst: Optional[MACAddress] = None,
        eth_type: Optional[int] = None,
        vlan_vid: int = VLAN_ABSENT,
        ip_src: Optional[IPv4Address] = None,
        ip_dst: Optional[IPv4Address] = None,
        ip_proto: Optional[int] = None,
        ip_dscp: Optional[int] = None,
        l4_src: Optional[int] = None,
        l4_dst: Optional[int] = None,
    ) -> None:
        self.in_port = in_port
        self.eth_src = eth_src
        self.eth_dst = eth_dst
        self.eth_type = eth_type
        self.vlan_vid = vlan_vid
        self.ip_src = ip_src
        self.ip_dst = ip_dst
        self.ip_proto = ip_proto
        self.ip_dscp = ip_dscp
        self.l4_src = l4_src
        self.l4_dst = l4_dst

    @classmethod
    def from_packet(cls, packet: Packet, in_port: Optional[int] = None) -> "FlowKey":
        """Extract the flow key of ``packet`` as received on ``in_port``.

        One pass over the header stack: the first header of each kind
        supplies its fields, wherever it sits.
        """
        headers = packet.headers
        first: Dict[type, int] = {}  # kind -> index of its first header
        for i, header in enumerate(headers):
            header_cls = type(header)
            try:
                kind = _KIND_OF[header_cls]
            except KeyError:
                kind = _KIND_OF[header_cls] = next(
                    (k for k in _KINDS if issubclass(header_cls, k)), None)
            if kind is not None:
                first.setdefault(kind, i)
        successors = headers[1:]
        successors.append(None)

        eth_src = eth_dst = eth_type = None
        vlan_vid = VLAN_ABSENT
        i = first.get(Ethernet)
        if i is not None:
            eth = headers[i]
            eth_src = eth.src
            eth_dst = eth.dst
            # What the wire will say, not the not-yet-linked field.
            eth_type = ETHERTYPES.code_for(successors[i], eth.ethertype)
        i = first.get(VLAN)
        if i is not None:
            vlan = headers[i]
            vlan_vid = vlan.vid
            # Match on the inner protocol.
            eth_type = ETHERTYPES.code_for(successors[i], vlan.ethertype)
        ip_src = ip_dst = ip_proto = ip_dscp = None
        i = first.get(IPv4)
        if i is not None:
            ip = headers[i]
            ip_src = ip.src
            ip_dst = ip.dst
            ip_proto = IP_PROTOS.code_for(successors[i], ip.proto)
            ip_dscp = ip.dscp
        elif ARP in first:
            # OpenFlow convention: ARP SPA/TPA ride the IP fields.
            arp = headers[first[ARP]]
            ip_src = arp.sender_ip
            ip_dst = arp.target_ip
            ip_proto = arp.opcode
        l4_src = l4_dst = None
        if TCP in first:
            tcp = headers[first[TCP]]
            l4_src, l4_dst = tcp.src_port, tcp.dst_port
        elif UDP in first:
            udp = headers[first[UDP]]
            l4_src, l4_dst = udp.src_port, udp.dst_port
        elif ICMP in first:
            # OpenFlow convention: ICMP type/code ride the L4 port fields.
            icmp = headers[first[ICMP]]
            l4_src, l4_dst = icmp.icmp_type, icmp.code
        return cls(in_port, eth_src, eth_dst, eth_type, vlan_vid,
                   ip_src, ip_dst, ip_proto, ip_dscp, l4_src, l4_dst)

    def as_dict(self) -> Dict[str, Any]:
        return {f: getattr(self, f) for f in MATCH_FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(
            getattr(self, f).value if hasattr(getattr(self, f), "value")
            else getattr(self, f)
            for f in MATCH_FIELDS
        ))

    def __repr__(self) -> str:
        set_fields = ", ".join(
            f"{f}={v}" for f, v in self.as_dict().items()
            if v is not None and not (f == "vlan_vid" and v == VLAN_ABSENT)
        )
        return f"FlowKey({set_fields})"


_IPField = Union[str, IPv4Address, IPv4Network]


def _normalise_ip(value: _IPField) -> Union[IPv4Address, IPv4Network]:
    if isinstance(value, (IPv4Address, IPv4Network)):
        return value
    if isinstance(value, str) and "/" in value:
        return IPv4Network(value)
    return IPv4Address(value)


#: Fields whose values are normalised to address objects, and how.
_NORMALISERS = {
    "eth_src": MACAddress,
    "eth_dst": MACAddress,
    "ip_src": _normalise_ip,
    "ip_dst": _normalise_ip,
}
_TYPED = (MACAddress, IPv4Address)


class Match:
    """An immutable pattern over :data:`MATCH_FIELDS`.

    Unset fields are wildcards.  ``ip_src``/``ip_dst`` may be exact
    addresses or :class:`IPv4Network` prefixes (given as ``"10.0.0.0/8"``).
    ``vlan_vid`` may be :data:`VLAN_ABSENT` to require an untagged frame.

    >>> m = Match(eth_type=0x0800, ip_dst="10.0.1.0/24")
    >>> m.matches(FlowKey(eth_type=0x0800, ip_dst=IPv4Address("10.0.1.7")))
    True
    """

    __slots__ = ("_fields", "_hash", "_exact")

    def __init__(self, **fields: Any) -> None:
        if not _FIELD_SET.issuperset(fields):
            unknown = set(fields) - _FIELD_SET
            raise DataplaneError(
                f"unknown match field(s): {', '.join(sorted(unknown))}"
            )
        normalised: Dict[str, Any] = {}
        for name, value in fields.items():
            if value is None:
                continue
            normalise = _NORMALISERS.get(name)
            normalised[name] = (value if normalise is None
                                else normalise(value))
        self._seal(normalised)

    def _seal(self, fields: Dict[str, Any]) -> None:
        """Adopt ``fields`` and compute, once, what a match is asked for
        on every table operation: its hash and its exact key."""
        self._fields = fields
        # Field names are unique, so the sort never compares values.
        self._hash = hash(tuple(sorted(fields.items())))
        if (len(fields) == len(MATCH_FIELDS)
                and not isinstance(fields["ip_src"], IPv4Network)
                and not isinstance(fields["ip_dst"], IPv4Network)):
            self._exact = _ALL_VALUES(fields)
        else:
            self._exact = None

    @classmethod
    def from_typed(cls, fields: Dict[str, Any]) -> "Match":
        """Trusted constructor for callers that already hold canonical
        values (``MACAddress``, ``IPv4Address``/``IPv4Network``, ints,
        no ``None``) under known field names — the wire decoder and
        :meth:`exact`.  The dict is adopted, not copied.
        """
        match = cls.__new__(cls)
        match._seal(fields)
        return match

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fields(self) -> Dict[str, Any]:
        """A copy of the constrained field mapping."""
        return dict(self._fields)

    def get(self, name: str) -> Any:
        return self._fields.get(name)

    @property
    def exact_key(self) -> Optional[Tuple]:
        """The value tuple, in :data:`MATCH_FIELDS` order, when this
        match is fully specified; ``None`` for anything wildcarded.

        A fully-specified match constrains every field with an exact
        value (no IP prefixes), so it matches exactly the keys whose
        field tuple equals this one — the property the flow table's
        exact-match hash relies on.
        """
        return self._exact

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    @property
    def is_wildcard(self) -> bool:
        """True for the match-everything pattern."""
        return not self._fields

    @property
    def specificity(self) -> int:
        """How many field-bits this match pins down.

        Exact fields count 32; IP prefixes count their prefix length.
        Used for diagnostics and for deterministic tie-breaking in tests —
        the dataplane itself orders strictly by entry priority.
        """
        score = 0
        for name, value in self._fields.items():
            if isinstance(value, IPv4Network):
                score += value.prefix_len
            else:
                score += 32
        return score

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def matches(self, key: FlowKey) -> bool:
        """True when every constrained field agrees with ``key``."""
        for name, expected in self._fields.items():
            actual = getattr(key, name)
            if name == "vlan_vid":
                if actual != expected:
                    return False
                continue
            if actual is None:
                return False
            if isinstance(expected, IPv4Network):
                if not expected.contains(actual):
                    return False
            elif expected != actual:
                return False
        return True

    def matches_packet(self, packet: Packet,
                       in_port: Optional[int] = None) -> bool:
        """Convenience: extract the key and test it."""
        return self.matches(FlowKey.from_packet(packet, in_port))

    def is_subset_of(self, other: "Match") -> bool:
        """True when every key matched by ``self`` is matched by ``other``.

        Conservative for IP prefixes (exact containment check); used by
        flow-mod delete-with-wildcard semantics and by the policy compiler
        to prune shadowed rules.
        """
        for name, their in other._fields.items():
            ours = self._fields.get(name)
            if ours is None:
                return False  # we are wider on this field
            if isinstance(their, IPv4Network):
                if isinstance(ours, IPv4Network):
                    if ours.prefix_len < their.prefix_len:
                        return False
                    if not their.contains(ours.address):
                        return False
                elif not their.contains(ours):
                    return False
            elif isinstance(ours, IPv4Network):
                return False  # ours is a prefix, theirs exact: wider
            elif ours != their:
                return False
        return True

    def overlaps(self, other: "Match") -> bool:
        """True when some key could match both patterns."""
        for name in set(self._fields) & set(other._fields):
            a, b = self._fields[name], other._fields[name]
            a_net = isinstance(a, IPv4Network)
            b_net = isinstance(b, IPv4Network)
            if a_net and b_net:
                shorter, longer = (a, b) if a.prefix_len <= b.prefix_len else (b, a)
                if not shorter.contains(longer.address):
                    return False
            elif a_net:
                if not a.contains(b):
                    return False
            elif b_net:
                if not b.contains(a):
                    return False
            elif a != b:
                return False
        return True

    def intersect(self, other: "Match") -> Optional["Match"]:
        """The match accepting exactly the keys both accept.

        Returns ``None`` when the intersection is empty (conflicting
        constraints).  IP prefixes intersect to the longer prefix when
        one contains the other.
        """
        merged: Dict[str, Any] = dict(self._fields)
        for name, their in other._fields.items():
            ours = merged.get(name)
            if ours is None:
                merged[name] = their
                continue
            ours_net = isinstance(ours, IPv4Network)
            their_net = isinstance(their, IPv4Network)
            if ours_net and their_net:
                shorter, longer = (
                    (ours, their) if ours.prefix_len <= their.prefix_len
                    else (their, ours)
                )
                if not shorter.contains(longer.address):
                    return None
                merged[name] = longer
            elif ours_net:
                if not ours.contains(their):
                    return None
                merged[name] = their
            elif their_net:
                if not their.contains(ours):
                    return None
                # keep ours (the exact address)
            elif ours != their:
                return None
        return Match(**merged)

    @classmethod
    def exact(cls, key: FlowKey) -> "Match":
        """The exact-match pattern for a flow key (microflow rule).

        Fields the packet does not have stay wildcarded, matching how a
        reactive controller installs per-flow rules.
        """
        fields = {}
        for name in MATCH_FIELDS:
            value = getattr(key, name)
            if value is not None:
                fields[name] = value
        # A key extracted from a packet is already typed; one built by
        # hand (tests, the checker) may hold literals.
        for name, normalise in _NORMALISERS.items():
            value = fields.get(name)
            if value is not None and type(value) not in _TYPED:
                fields[name] = normalise(value)
        return cls.from_typed(fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        # The sealed hash settles most unequal pairs with an int compare
        # (a same-priority wildcard scan is a run of such pairs).
        return self._hash == other._hash and self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_wildcard:
            return "Match(*)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._fields.items()))
        return f"Match({inner})"
