"""Header/packet framework: typed headers stacked into packets.

A :class:`Packet` is an ordered stack of :class:`Header` objects plus an
opaque payload.  Headers compose with the ``/`` operator in the style of
scapy::

    pkt = (Ethernet(src=h1.mac, dst=h2.mac)
           / IPv4(src=h1.ip, dst=h2.ip)
           / UDP(src_port=1234, dst_port=53)
           / b"payload")

On :meth:`Packet.encode` each header gets the chance to fix up linkage
fields (ethertype, IP protocol number, lengths, checksums) from its
successor, so callers rarely need to set them by hand.  :meth:`Packet.decode`
reverses the process byte-exactly.

A packet keeps its last serialisation (the *wire image*) and hands it
back from ``encode()``, ``len()``, ``==`` and ``summary()`` for as long
as no header changed; see :meth:`Packet.encode` for how that is checked.
:meth:`Packet.read` also keeps what a reader derived from that image.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.errors import DecodeError, PacketError

__all__ = ["DemuxRegistry", "Header", "Packet", "Raw"]

H = TypeVar("H", bound="Header")

_new = object.__new__


class Header:
    """Base class for every protocol header.

    Subclasses implement:

    * :meth:`encode` — serialise to bytes, given the already-encoded bytes
      of everything that follows (for length/checksum computation).
    * :meth:`decode` — parse from a buffer, returning the header and the
      number of bytes consumed.
    * :meth:`payload_class` — which header type follows, according to this
      header's demux field (ethertype, protocol number, ...); ``None`` means
      the rest of the buffer is raw payload.
    * :meth:`link_to` — fix up this header's demux field to point at a
      successor header before encoding.

    Field values are *values*: ints, bytes, addresses.  Assign a new one
    to change a field; a container mutated in place is invisible to the
    packet's wire-image check (:meth:`Packet.encode`).  ``__init__`` must
    set every declared slot.
    """

    name = "header"

    # No per-instance __dict__: headers are the highest-volume objects
    # on the hot path (every frame decode allocates a stack of them),
    # and slots cut both allocation time and per-instance memory.
    # Subclasses outside repro.packet may omit __slots__ and regain a
    # __dict__; fields(), copy() and _state handle both layouts.
    __slots__ = ()

    #: Every slot of the class, base classes first.
    _slot_names: Tuple[str, ...] = ()
    #: ``h._state(h)`` is a snapshot of everything ``h`` can put on the
    #: wire: its class and slot values through one C-level
    #: ``attrgetter``, plus a copy of the ``__dict__`` for a subclass
    #: that has one.  Equal snapshots serialise to the same bytes.
    _state = staticmethod(attrgetter("__class__"))

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._slot_names = names = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
        )
        state = attrgetter("__class__", *names)
        if cls.__dictoffset__:
            slots = state

            def state(header):
                return slots(header), dict(vars(header))
        cls._state = staticmethod(state)
        if getattr(cls.copy, "_generic", False):
            cls.copy = Header.copy  # never a base class's compiled copy

    def encode(self, following: bytes) -> bytes:
        raise NotImplementedError

    @classmethod
    def decode(cls: Type[H], data: bytes) -> Tuple[H, int]:
        raise NotImplementedError

    def payload_class(self) -> Optional[Type["Header"]]:
        return None

    def link_to(self, successor: Optional["Header"]) -> None:
        """Adjust demux fields for the header that follows; default no-op."""

    def __truediv__(self, other: Union["Header", bytes, "Packet"]) -> "Packet":
        return Packet([self]) / other

    def copy(self: H) -> H:
        """A header of the same type with the same field values."""
        cls = type(self)
        if not cls.__dictoffset__:
            # A slotted class copies with straight-line code, compiled
            # at its first copy and then called directly.
            cls.copy = _compile_copy(cls, cls._slot_names)
            return cls.copy(self)
        clone = cls.__new__(cls)
        for name in cls._slot_names:
            setattr(clone, name, getattr(self, name))
        vars(clone).update(vars(self))
        return clone

    #: Marks a copy that each subclass starts again from, unless it
    #: defines its own.
    copy._generic = True

    def fields(self) -> dict:
        """A name→value mapping of the public fields, for repr/tests."""
        cls = type(self)
        found = {name: getattr(self, name) for name in cls._slot_names
                 if hasattr(self, name)}
        if cls.__dictoffset__:
            found.update(vars(self))
        return {k: v for k, v in found.items() if not k.startswith("_")}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.fields() == other.fields()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields().items())
        return f"{type(self).__name__}({inner})"


def _compile_copy(cls: type, names: Tuple[str, ...]):
    """``Header.copy`` for a slotted class, one assignment per slot.
    Its source holds slot names only, which are identifiers."""
    lines = "".join(f"    clone.{name} = self.{name}\n" for name in names)
    namespace = {"new": _new, "cls": cls}
    exec("def copy(self):\n    clone = new(cls)\n" + lines
         + "    return clone\n", namespace)
    copy = namespace["copy"]
    copy._generic = True
    return copy


class DemuxRegistry:
    """The codes of one demux field (EtherType, IP protocol number) and
    the header classes they select, looked up in either direction."""

    def __init__(self) -> None:
        self._classes: Dict[int, Type[Header]] = {}
        #: code_of() per class asked; forgotten when a class registers.
        self._codes: Dict[type, Optional[int]] = {}

    def register(self, code: int, header_cls: Type[Header]) -> None:
        self._classes[code] = header_cls
        self._codes.clear()

    def lookup(self, code: int) -> Optional[Type[Header]]:
        return self._classes.get(code)

    def code_of(self, header_cls: type) -> Optional[int]:
        """The first code registered for ``header_cls`` or a base of it."""
        try:
            return self._codes[header_cls]
        except KeyError:
            pass
        found = None
        for code, cls in self._classes.items():
            if issubclass(header_cls, cls):
                found = code
                break
        self._codes[header_cls] = found
        return found

    def code_for(self, successor: Optional[Header], declared: int) -> int:
        """The value the demux field takes on the wire when ``successor``
        follows: its registered code, else what the field already says
        (a header built with ``/`` is only linked at encode time)."""
        if successor is not None:
            code = self.code_of(type(successor))
            if code is not None:
                return code
        return declared


class Raw(Header):
    """An opaque byte payload presented as a header for uniform stacking."""

    name = "raw"
    __slots__ = ("data",)

    def __init__(self, data: bytes = b"") -> None:
        self.data = bytes(data)

    def encode(self, following: bytes) -> bytes:
        return self.data + following

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Raw", int]:
        return cls(data), len(data)

    def __len__(self) -> int:
        return len(self.data)


class Packet:
    """An ordered stack of headers plus trailing payload bytes."""

    __slots__ = ("headers", "trace_id", "_wire", "_stamp", "_memo")

    def __init__(self, headers: Optional[Sequence[Header]] = None) -> None:
        self.headers: List[Header] = list(headers or [])
        #: Telemetry trace id (``repro.telemetry``); ``None`` when the
        #: frame is untraced.  Out-of-band metadata: never serialised,
        #: never part of equality, but preserved across :meth:`copy` so
        #: flooded duplicates stay in their originator's trace.
        self.trace_id: Optional[int] = None
        #: The wire image: the bytes of the last :meth:`encode` and the
        #: state of every header as it was serialised.  The stamp list
        #: is replaced, never edited, so copies may share it.
        self._wire: Optional[bytes] = None
        self._stamp: Optional[list] = None
        #: ``(stamp, derive, derive(self))`` of the last :meth:`read`:
        #: good while ``stamp`` is still this packet's validated stamp.
        self._memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __truediv__(self, other: Union[Header, bytes, "Packet"]) -> "Packet":
        if isinstance(other, Packet):
            return Packet(self.headers + other.headers)
        if isinstance(other, Header):
            return Packet(self.headers + [other])
        if isinstance(other, (bytes, bytearray)):
            return Packet(self.headers + [Raw(bytes(other))])
        raise PacketError(f"cannot stack {type(other).__name__} onto a packet")

    def copy(self) -> "Packet":
        """A packet with its own header objects and the same field values.

        Whoever wants to rewrite a frame that has been sent or received
        copies it first; the clone keeps the ``trace_id`` and shares the
        (immutable) wire image until one of its headers changes.
        """
        clone = _new(Packet)
        clone.headers = [header.copy() for header in self.headers]
        clone.trace_id = self.trace_id
        clone._wire = self._wire
        clone._stamp = self._stamp
        clone._memo = self._memo
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, header_type: Type[H]) -> Optional[H]:
        """The first header of the given type, or ``None``."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    def __contains__(self, header_type: type) -> bool:
        return self.get(header_type) is not None

    def __getitem__(self, header_type: Type[H]) -> H:
        header = self.get(header_type)
        if header is None:
            raise KeyError(header_type.__name__)
        return header

    def __iter__(self) -> Iterator[Header]:
        return iter(self.headers)

    @property
    def payload(self) -> bytes:
        """The bytes of the trailing :class:`Raw` header, if any."""
        raw = self.get(Raw)
        return raw.data if raw is not None else b""

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def _cached_wire(self) -> Optional[bytes]:
        """The last serialisation, or ``None`` if a header changed since.

        Validity is checked on read: the stamp taken at serialisation is
        compared with the headers as they are now.  That sees a field
        write, a header inserted into or removed from ``headers``, and a
        write through another packet that shares a header object — none
        of which a packet could be told about by the writer.
        """
        wire = self._wire
        if wire is not None and self._stamp == [
            h._state(h) for h in self.headers
        ]:
            return wire
        return None

    def encode(self) -> bytes:
        """Serialise the packet, fixing up linkage fields along the way.

        The bytes are kept, and returned again without re-packing while
        every header is in the state it was serialised in.
        """
        wire = self._cached_wire()
        return wire if wire is not None else self._serialise()

    def _serialise(self) -> bytes:
        """Pack the headers and take a new stamp, unconditionally."""
        headers = self.headers
        # Let each header learn about its successor (ethertype, proto...).
        for i, header in enumerate(headers):
            header.link_to(headers[i + 1] if i + 1 < len(headers) else None)
        # Encode back-to-front so lengths and checksums see their payload.
        wire = b""
        for header in reversed(headers):
            wire = header.encode(wire)
        # Stamped after the fix-ups: relinking an unchanged stack is a
        # no-op, so skipping it on a hit changes nothing.
        self._stamp = [h._state(h) for h in headers]
        self._wire = wire
        return wire

    def __len__(self) -> int:
        wire = self._cached_wire()
        return len(wire if wire is not None else self._serialise())

    def read(self, derive: Callable[["Packet"], Any]) -> Tuple[int, Any]:
        """``(len(self), derive(self))`` for one validation of the stamp.

        ``derive`` must depend on nothing but the headers.  Its result is
        kept beside the wire image and is good for exactly as long: while
        the stamp it was made under is the one just validated (stamps are
        replaced, never edited, so that is an identity test).  Copies
        share it, so a frame's hops and a flood's duplicates derive once.
        """
        size = len(self)  # the validation; serialises if it has to
        memo = self._memo
        if memo is None or memo[0] is not self._stamp or memo[1] is not derive:
            memo = self._memo = (self._stamp, derive, derive(self))
        return size, memo[2]

    @classmethod
    def decode(cls, data: bytes, first: Optional[Type[Header]] = None) -> "Packet":
        """Parse ``data``, starting from ``first`` (default: Ethernet).

        Decoding follows each header's demux field until a header reports
        no known successor; any remaining bytes become a :class:`Raw`
        trailer.
        """
        if first is None:
            # Imported lazily to avoid a circular import at module load.
            from repro.packet.ethernet import Ethernet

            first = Ethernet
        headers: List[Header] = []
        cursor: Optional[Type[Header]] = first
        remaining = bytes(data)
        while cursor is not None and remaining:
            try:
                header, consumed = cursor.decode(remaining)
            except DecodeError:
                raise
            except Exception as exc:  # struct errors, index errors, ...
                raise DecodeError(
                    f"failed to decode {cursor.__name__}: {exc}"
                ) from exc
            headers.append(header)
            remaining = remaining[consumed:]
            cursor = header.payload_class()
        if remaining:
            headers.append(Raw(remaining))
        # The wire image is not seeded from ``data``: re-encoding is not
        # byte-identical for IPv4 options or a non-zero UDP checksum.
        return cls(headers)

    def summary(self) -> str:
        """A compact one-line description, e.g. ``Ethernet/IPv4/UDP(64B)``."""
        names = "/".join(type(h).__name__ for h in self.headers)
        return f"{names}({len(self)}B)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self.encode() == other.encode()

    def __repr__(self) -> str:
        return f"<Packet {self.summary()}>"
