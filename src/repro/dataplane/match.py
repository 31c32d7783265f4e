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

from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

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

__all__ = ["FlowKey", "Match", "VLAN_ABSENT", "MATCH_FIELDS", "wire_fields"]

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


#: The header classes a flow key reads.
_KINDS = (Ethernet, VLAN, IPv4, ARP, TCP, UDP, ICMP)

#: The address classes a key or a match may hold in an address field.
_TYPED = (MACAddress, IPv4Address)


class FlowKey:
    """The concrete header fields of one packet, extracted at ingress.

    Fields that do not exist in the packet (e.g. ``l4_src`` of an ARP
    frame) are ``None``; a Match constraining such a field cannot match
    the packet.  Address literals become ``MACAddress``/``IPv4Address``:
    tables hash these values, and a ``str`` does not hash like one.
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
        self.eth_src = (eth_src if eth_src is None
                        or type(eth_src) in _TYPED else MACAddress(eth_src))
        self.eth_dst = (eth_dst if eth_dst is None
                        or type(eth_dst) in _TYPED else MACAddress(eth_dst))
        self.eth_type = eth_type
        self.vlan_vid = vlan_vid
        self.ip_src = (ip_src if ip_src is None
                       or type(ip_src) in _TYPED else IPv4Address(ip_src))
        self.ip_dst = (ip_dst if ip_dst is None
                       or type(ip_dst) in _TYPED else IPv4Address(ip_dst))
        self.ip_proto = ip_proto
        self.ip_dscp = ip_dscp
        self.l4_src = l4_src
        self.l4_dst = l4_dst

    @classmethod
    def from_packet(cls, packet: Packet, in_port: Optional[int] = None) -> "FlowKey":
        """Extract the flow key of ``packet`` as received on ``in_port``.

        The first header of each kind supplies its fields, wherever it
        sits: one extractor per sequence of header classes, compiled on
        first sight (:func:`_compile_extractor`), reads them.
        """
        headers = packet.headers
        layout = tuple(map(type, headers))
        extract = _EXTRACTORS.get(layout)
        if extract is None:
            extract = _EXTRACTORS[layout] = _compile_extractor(layout)
        # Header fields are typed already: skip __init__'s conversion.
        key = cls.__new__(cls)
        key.in_port = in_port
        extract(key, headers)
        return key

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


def _kind_of(header_cls: type) -> Optional[type]:
    """Which of :data:`_KINDS` a header class is, if any."""
    return next((k for k in _KINDS if issubclass(header_cls, k)), None)


#: Key extractors by the sequence of header classes of a packet.
_EXTRACTORS: Dict[tuple, Callable[[FlowKey, list], None]] = {}


def _compile_extractor(layout: tuple) -> Callable[[FlowKey, list], None]:
    """``extract(key, headers)``: fill every field of ``key`` but
    ``in_port`` from a header stack whose classes are ``layout``.  The
    source holds only header indices and the fixed statements below."""
    first: Dict[type, int] = {}  # kind -> index of its first header
    for i, header_cls in enumerate(layout):
        kind = _kind_of(header_cls)
        if kind is not None:
            first.setdefault(kind, i)

    def after(i: int) -> str:  # what the demux field links to
        return f"h[{i + 1}]" if i + 1 < len(layout) else "None"

    lines = []
    i = first.get(Ethernet)
    if i is None:
        lines.append("key.eth_src = key.eth_dst = key.eth_type = None")
    else:
        # What the wire will say, not the not-yet-linked field.
        lines += [f"eth = h[{i}]", "key.eth_src = eth.src",
                  "key.eth_dst = eth.dst",
                  f"key.eth_type = ethertype({after(i)}, eth.ethertype)"]
    i = first.get(VLAN)
    if i is None:
        lines.append("key.vlan_vid = VLAN_ABSENT")
    else:
        # Match on the inner protocol.
        lines += [f"vlan = h[{i}]", "key.vlan_vid = vlan.vid",
                  f"key.eth_type = ethertype({after(i)}, vlan.ethertype)"]
    i = first.get(IPv4)
    if i is not None:
        lines += [f"ip = h[{i}]", "key.ip_src = ip.src", "key.ip_dst = ip.dst",
                  f"key.ip_proto = ip_proto({after(i)}, ip.proto)",
                  "key.ip_dscp = ip.dscp"]
    elif ARP in first:
        # OpenFlow convention: ARP SPA/TPA ride the IP fields.
        lines += [f"arp = h[{first[ARP]}]", "key.ip_src = arp.sender_ip",
                  "key.ip_dst = arp.target_ip", "key.ip_proto = arp.opcode",
                  "key.ip_dscp = None"]
    else:
        lines.append("key.ip_src = key.ip_dst = key.ip_proto = "
                     "key.ip_dscp = None")
    l4 = next((first[k] for k in (TCP, UDP) if k in first), None)
    if l4 is not None:
        lines += [f"key.l4_src = h[{l4}].src_port",
                  f"key.l4_dst = h[{l4}].dst_port"]
    elif ICMP in first:
        # OpenFlow convention: ICMP type/code ride the L4 port fields.
        lines += [f"key.l4_src = h[{first[ICMP]}].icmp_type",
                  f"key.l4_dst = h[{first[ICMP]}].code"]
    else:
        lines.append("key.l4_src = key.l4_dst = None")
    namespace = {"ethertype": ETHERTYPES.code_for,
                 "ip_proto": IP_PROTOS.code_for, "VLAN_ABSENT": VLAN_ABSENT}
    exec("def extract(key, h):\n"
         + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace["extract"]


_header_fields = attrgetter(*MATCH_FIELDS[1:])


def wire_fields(packet: Packet) -> Tuple[tuple, tuple]:
    """What a datapath has :meth:`Packet.read` keep per wire image: the
    ten header-derived fields of :meth:`FlowKey.from_packet`, ``eth_src``
    to ``l4_dst``, twice.  First as a key holds them, so that
    ``FlowKey(in_port, *fields)`` is the packet's key on any port; then
    with each address as its integer, so that a tuple of them hashes and
    compares without leaving C (the microflow cache's probe).
    """
    fields = _header_fields(FlowKey.from_packet(packet))
    return fields, tuple([v.value if type(v) in _TYPED else v
                          for v in fields])


def _normalise_ip(value: Any) -> Union[IPv4Address, IPv4Network]:
    if isinstance(value, IPv4Address):
        return value
    if isinstance(value, str) and "/" in value:
        value = IPv4Network(value)
    if isinstance(value, IPv4Network):
        # A /32 is its address, as the wire decoder returns it: the
        # two forms of one rule must be one ledger and table key.
        return value.address if value.prefix_len == 32 else value
    return IPv4Address(value)


#: Fields whose values are normalised to address objects, and how.
_NORMALISERS = {
    "eth_src": MACAddress,
    "eth_dst": MACAddress,
    "ip_src": _normalise_ip,
    "ip_dst": _normalise_ip,
}

#: The integer fields and the values their wire field can carry
#: (PROTOCOL.md §4.1); ``vlan_vid`` also takes :data:`VLAN_ABSENT`.
_INT_RANGES = {
    "in_port": 0xFFFFFFFF,
    "eth_type": 0xFFFF,
    "vlan_vid": 4095,
    "ip_proto": 0xFF,
    "ip_dscp": 63,
    "l4_src": 0xFFFF,
    "l4_dst": 0xFFFF,
}


def _check_int(name: str, value: Any) -> int:
    """``value`` if an integer field can carry it, else a
    :class:`DataplaneError` naming the field."""
    top = _INT_RANGES[name]
    if (type(value) is bool or not isinstance(value, int)
            or not (0 <= value <= top
                    or (name == "vlan_vid" and value == VLAN_ABSENT))):
        raise DataplaneError(
            f"match field {name} must be an integer in 0..{top}"
            + (" or VLAN_ABSENT" if name == "vlan_vid" else "")
            + f", got {value!r}")
    return value


class Shape:
    """Which fields a match constrains, and how: ``fields`` is
    ``((name, mask), ...)`` in :data:`MATCH_FIELDS` order, ``mask`` being
    ``None`` for an exact value or the netmask of an IP prefix.

    Matches of one shape differ only in their *masked values* (a prefix
    counts as its network integer), so a table files them in one hash:
    ``values_of(match fields)`` is a rule's row, ``project(key)`` the
    row a key falls in — ``None``, or a tuple holding ``None``, when the
    key lacks a constrained field, which no rule's values equal.  Shapes
    are interned, so both functions are built once per shape.
    """

    __slots__ = ("fields", "project", "values_of")

    def __init__(self, fields: Tuple[Tuple[str, Optional[int]], ...]) -> None:
        self.fields = fields
        names = [name for name, _mask in fields]
        if not names:
            self.project = self.values_of = lambda _: ()
        elif all(mask is None for _name, mask in fields):
            # One name yields the bare value, several a tuple: both sides.
            self.project = attrgetter(*names)
            self.values_of = itemgetter(*names)
        else:
            # Compiled from MATCH_FIELDS names and integer masks only.
            absent = " or ".join(f"key.{name} is None"
                                 for name, mask in fields if mask is not None)
            values = ", ".join(
                f"key.{name}" if mask is None else f"key.{name}.value & {mask}"
                for name, mask in fields)
            self.project = eval(
                f"lambda key: None if {absent} else ({values},)")
            self.values_of = lambda match_fields: tuple(
                match_fields[name] if mask is None
                else match_fields[name].address.value
                for name, mask in fields)


#: Interned shapes, by (bit set of constrained fields, prefix masks).
_SHAPES: Dict[tuple, Shape] = {}
_FIELD_BIT = {name: 1 << i for i, name in enumerate(MATCH_FIELDS)}


def _shape_of(fields: Dict[str, Any]) -> Shape:
    ip_src, ip_dst = fields.get("ip_src"), fields.get("ip_dst")
    key = (sum(map(_FIELD_BIT.__getitem__, fields)),
           ip_src.netmask_int() if isinstance(ip_src, IPv4Network) else None,
           ip_dst.netmask_int() if isinstance(ip_dst, IPv4Network) else None)
    shape = _SHAPES.get(key)
    if shape is None:
        masks = {"ip_src": key[1], "ip_dst": key[2]}
        shape = _SHAPES[key] = Shape(tuple(
            (name, masks.get(name)) for name in MATCH_FIELDS
            if name in fields))
    return shape


class Match:
    """An immutable pattern over :data:`MATCH_FIELDS`.

    Unset fields are wildcards.  ``ip_src``/``ip_dst`` may be exact
    addresses or :class:`IPv4Network` prefixes (given as ``"10.0.0.0/8"``);
    a ``/32`` is its address.  The integer fields take what their wire
    field carries (``ip_dscp`` 0–63, ``vlan_vid`` 0–4095 or
    :data:`VLAN_ABSENT` to require an untagged frame); anything else is
    a :class:`DataplaneError` naming the field.

    >>> m = Match(eth_type=0x0800, ip_dst="10.0.1.0/24")
    >>> m.matches(FlowKey(eth_type=0x0800, ip_dst=IPv4Address("10.0.1.7")))
    True
    """

    __slots__ = ("_fields", "_hash", "_shape", "_values")

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
            if normalise is not None:
                value = normalise(value)
            elif not (type(value) is int and 0 <= value <= _INT_RANGES[name]):
                value = _check_int(name, value)
            normalised[name] = value
        self._seal(normalised)

    def _seal(self, fields: Dict[str, Any]) -> None:
        """Adopt ``fields`` and compute the hash once; :meth:`index` is
        deferred, so a match that is only encoded never pays for it."""
        self._fields = fields
        # Field names are unique, so the sort never compares values.
        self._hash = hash(tuple(sorted(fields.items())))
        self._shape: Optional[Shape] = None

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

    def index(self) -> Tuple[Shape, Any]:
        """``(shape, masked values)``: the subtable and row a classifier
        files this match in.  It accepts exactly the keys with
        ``shape.project(key) == masked values``.  Computed once."""
        shape = self._shape
        if shape is None:
            shape = self._shape = _shape_of(self._fields)
            self._values = shape.values_of(self._fields)
        return shape, self._values

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
        flow-mod delete-with-wildcard semantics and by the reachability
        checker.
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
        return cls.from_typed(fields)  # a key's addresses are typed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        # The sealed hash settles most unequal pairs with an int compare.
        return self._hash == other._hash and self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_wildcard:
            return "Match(*)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._fields.items()))
        return f"Match({inner})"
