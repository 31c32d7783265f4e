"""Metrics registry: Counters, Gauges, and Histograms with labels.

The registry is the passive half of the telemetry plane.  A count has
one owner: where a layer already keeps it (a link's ``tx_packets``, a
table's ``lookup_count``), the layer *binds* a read-through child to
that attribute at construction (:meth:`MetricFamily.bind`) and its hot
path does nothing for telemetry; where no layer keeps it (histogram
observations, label sets discovered mid-run, children several writers
share), the component pushes into a child from :meth:`MetricFamily.labels`.
Two properties keep it honest for a deterministic simulator:

* **No side effects on the simulation.**  Metrics never schedule events
  or draw random numbers, so a registry cannot perturb a run.
* **Cheap enough to be always on.**  A read-through child costs nothing
  until a scrape reads it; pushed children are bound once by their
  owner, so a hot path pays one method call.

Snapshots are fully deterministic: families and label sets are emitted
in sorted order, and values are plain ints/floats.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.telemetry.sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "OVERFLOW_LABEL",
]

#: Default histogram buckets, tuned for simulated latencies (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0,
)

#: Label value all over-cap label sets collapse into (cardinality guard).
OVERFLOW_LABEL = "__overflow__"

#: Cap on distinct label sets per family, read when a registry is
#: built.  High enough that no legitimate per-switch/per-link family on
#: the shipped topologies gets near it; low enough that a per-flow
#: label on a million-flow run cannot blow up memory.
MAX_LABEL_SETS = 1024


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self):
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus style).

    Alongside the fixed buckets, every histogram feeds a mergeable
    :class:`~repro.telemetry.sketch.QuantileSketch`, so percentiles
    (:meth:`quantile`) are available at any accuracy the bucket layout
    cannot provide — and the ``repro.obs`` time-series engine can diff
    cumulative sketches into per-scrape windows.
    """

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "count", "sum", "sketch")

    #: Percentiles exported in snapshots and the metrics table.
    EXPORT_QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.sketch.observe(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def quantile(self, q: float) -> Optional[float]:
        """The sketched value at quantile ``q``; None while empty."""
        return self.sketch.quantile(q)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                repr(bound): cumulative
                for bound, cumulative in zip(self.buckets, self.bucket_counts)
            },
            "quantiles": {
                f"p{int(q * 100)}": self.quantile(q)
                for q in self.EXPORT_QUANTILES
            },
        }


class _Bound:
    """Read-through child: the owning layer keeps the count and
    ``snapshot`` *is* its reader, so there is nothing to ``inc`` or
    ``set``."""

    __slots__ = ("snapshot",)

    def __init__(self, read: Callable[[], float]) -> None:
        self.snapshot = read

    @property
    def value(self):
        return self.snapshot()


class MetricFamily:
    """A named metric with a fixed label schema and one child per value
    combination.  Children are memoised, so hot paths bind them once.

    Cardinality is capped: once ``max_label_sets`` distinct label sets
    exist, further new label sets collapse into one shared overflow
    child (every label valued :data:`OVERFLOW_LABEL`), so a mistaken
    per-flow label costs one warning counter, not unbounded memory.
    """

    __slots__ = ("name", "help", "labelnames", "_ctor", "_ctor_kwargs",
                 "children", "max_label_sets", "overflowed", "_on_overflow")

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], ctor,
                 max_label_sets: int = MAX_LABEL_SETS,
                 on_overflow: Optional[Callable[[str], None]] = None,
                 **ctor_kwargs) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._ctor = ctor
        self._ctor_kwargs = ctor_kwargs
        self.children: Dict[Tuple[str, ...], object] = {}
        self.max_label_sets = max_label_sets
        #: Label sets redirected into the overflow child so far.
        self.overflowed = 0
        self._on_overflow = on_overflow

    @property
    def kind(self) -> str:
        return self._ctor.kind

    def _key(self, values) -> Tuple[str, ...]:
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {key}"
            )
        return key

    def bind(self, label_values: Sequence, read: Callable[[], float]) -> None:
        """Create the read-through child for ``label_values``: its
        value is ``read()``, a count the caller's layer already keeps.

        A bound child has exactly one owner, so a label set that
        already has a child — pushed or bound — is a ``ValueError``
        here, at attach time, rather than two writers silently sharing
        one series.  Bound children are minted once at construction by
        their owners and are exempt from the cardinality cap.
        """
        key = self._key(label_values)
        if key in self.children:
            raise ValueError(
                f"metric {self.name!r} already has a child for {key}"
            )
        self.children[key] = _Bound(read)

    def labels(self, *values) -> object:
        key = self._key(values)
        child = self.children.get(key)
        if child is None:
            if (self.labelnames
                    and len(self.children) >= self.max_label_sets):
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
                self.overflowed += 1
                if self._on_overflow is not None:
                    self._on_overflow(self.name)
                child = self.children.get(key)
                if child is not None:
                    return child
            child = self._ctor(**self._ctor_kwargs)
            self.children[key] = child
        return child

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "values": {
                ",".join(key): child.snapshot()
                for key, child in sorted(self.children.items())
            },
        }


class MetricsRegistry:
    """Holds every metric family; components get-or-create by name."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self.max_label_sets = MAX_LABEL_SETS
        self._m_overflow: Optional[MetricFamily] = None

    # -- family constructors -------------------------------------------
    # Given a label schema (the empty one included) these return the
    # family, whose children come from labels() or bind(); with
    # ``labels`` omitted they return the bare metric of a zero-label
    # family, which is how an unlabelled pushed metric reads best.
    def counter(self, name: str, help_text: str = "",
                labels: Optional[Sequence[str]] = None):
        return self._family(name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Sequence[str]] = None):
        return self._family(name, help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Sequence[str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS):
        return self._family(name, help_text, labels, Histogram,
                            buckets=buckets)

    def _family(self, name: str, help_text: str, labels, ctor, **kwargs):
        bare = labels is None
        labels = () if bare else labels
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help_text, labels, ctor,
                                  max_label_sets=self.max_label_sets,
                                  on_overflow=self._note_overflow,
                                  **kwargs)
            self._families[name] = family
        elif family.kind != ctor.kind or family.labelnames != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.labelnames}"
            )
        return family.labels() if bare else family

    def _note_overflow(self, family_name: str) -> None:
        """Bump the cardinality-guard warning counter for a family.

        Counts *calls* redirected to the overflow child, so a hot path
        that keeps minting fresh label sets shows up loudly.
        """
        if self._m_overflow is None:
            self._m_overflow = MetricFamily(
                "telemetry_label_overflow_total",
                "labels() calls redirected to the overflow bucket "
                "because the family hit its label-set cap",
                ("family",), Counter,
                max_label_sets=self.max_label_sets,
            )
            self._families[self._m_overflow.name] = self._m_overflow
        self._m_overflow.labels(family_name).inc()

    # -- introspection --------------------------------------------------
    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def get(self, name: str, *labels):
        """The current child value, or None — a test/export convenience."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str(v) for v in labels)
        child = family.children.get(key)
        return child.snapshot() if child is not None else None

    def snapshot(self) -> dict:
        """Every family, sorted by name; values sorted by label key."""
        return {
            name: family.snapshot()
            for name, family in sorted(self._families.items())
        }

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._families)} families>"

