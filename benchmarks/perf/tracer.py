"""Outside-in span tracer: per-layer self time without touching src/.

Installed around one user-level call, the tracer monkey-patches

(a) ``Simulator.schedule_at`` (``schedule`` funnels into it), so every
    callback the kernel dispatches opens a *root* span attributed to
    the layer that owns the callback's module, plus the callbacks
    handed to ``call_every`` / ``observe_every``;
(b) a fixed table of public cross-layer entry points (``TARGETS``) as
    child spans;
(c) the public callback attributes and registrations through which one
    layer hands work to another (``ChannelEndpoint.handler``,
    ``Datapath.on_packet_in`` ..., ``Host.bind_udp``), attributed to the
    layer of whatever callable is stored there — the only way the
    switch agent and the controller's message handler show up, since
    neither has a public method on the hot path.

A span is ``(name, start_ns, end_ns, parent)``.  Self time is duration
minus the time covered by child spans; it is folded into per-name
aggregates as spans close, and the first ``keep`` raw spans are kept
for the output file.  Wrapper overhead lands in the *parent's* self
time (the clock is read inside the wrapper), which is why end-to-end
numbers never come from a traced run.

The table names public functions only and tolerates a missing one
(listed in :attr:`SpanTracer.missing`; its spans read zero): a later
refactor must not be able to break the benchmark it is measured by.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in report order (this repo's modules).
LAYERS = (
    "sim.kernel", "sim.shard", "netem.link", "netem.host", "packet",
    "dataplane.switch", "dataplane.flowtable", "southbound.codec",
    "southbound.channel", "southbound.agent", "controller.core",
    "controller.discovery", "apps", "telemetry", "obs", "faults",
    "workload",
)

#: Module prefix -> layer, longest prefix wins.  Anything not listed
#: (this benchmark's own closures, the platform assembly in
#: ``repro.core``) is the cost of driving the load: ``workload``.
_MODULE_LAYERS = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.shard": "sim.shard",
    "repro.netem.traffic": "workload",
    "repro.netem.host": "netem.host",
    "repro.netem": "netem.link",
    "repro.packet": "packet",
    "repro.dataplane.flowtable": "dataplane.flowtable",
    "repro.dataplane.match": "dataplane.flowtable",
    "repro.dataplane": "dataplane.switch",
    "repro.southbound.codec": "southbound.codec",
    "repro.southbound.messages": "southbound.codec",
    "repro.southbound.channel": "southbound.channel",
    "repro.southbound.agent": "southbound.agent",
    "repro.controller.discovery": "controller.discovery",
    "repro.controller.hosttracker": "controller.discovery",
    "repro.graphutil": "controller.discovery",
    "repro.controller": "controller.core",
    "repro.apps": "apps",
    "repro.telemetry": "telemetry",
    "repro.trace": "telemetry",
    "repro.obs": "obs",
    "repro.faults": "faults",
    "repro.workload": "workload",
}

#: (module, class or None, attribute): public entry points wrapped as
#: child spans, attributed to the layer of ``module``.
TARGETS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.sim.kernel", "Simulator", "run"),
    ("repro.netem.link", "Link", "send_from"),
    ("repro.netem.host", "Host", "send_frame"),
    ("repro.netem.host", "Host", "receive"),
    ("repro.packet.base", "Packet", "encode"),
    ("repro.packet.base", "Packet", "decode"),
    ("repro.packet.base", "Packet", "copy"),
    ("repro.packet.base", "Packet", "__len__"),
    ("repro.dataplane.match", "FlowKey", "from_packet"),
    ("repro.dataplane.switch", "Datapath", "inject"),
    ("repro.dataplane.switch", "Datapath", "send_packet_out"),
    ("repro.dataplane.switch", "Datapath", "install_flow"),
    ("repro.dataplane.switch", "Datapath", "remove_flows"),
    ("repro.dataplane.flowtable", "FlowTable", "lookup"),
    ("repro.dataplane.flowtable", "FlowTable", "insert"),
    ("repro.dataplane.flowtable", "FlowTable", "delete"),
    ("repro.dataplane.flowtable", "FlowTable", "expire"),
    ("repro.southbound.messages", None, "encode_message"),
    ("repro.southbound.messages", None, "decode_message"),
    ("repro.southbound.channel", "ChannelEndpoint", "send"),
    ("repro.southbound.channel", "ChannelEndpoint", "request"),
    ("repro.controller.core", "Controller", "publish"),
    ("repro.controller.core", "SwitchHandle", "add_flow"),
    ("repro.controller.core", "SwitchHandle", "delete_flows"),
    ("repro.controller.core", "SwitchHandle", "packet_out"),
    ("repro.controller.core", "SwitchHandle", "barrier"),
    ("repro.controller.discovery", "TopologyDiscovery", "graph"),
    ("repro.apps.proactive_router", "ProactiveRouter", "schedule_rebuild"),
    ("repro.telemetry.trace", "Tracer", "start_trace"),
    ("repro.telemetry.trace", "Tracer", "record"),
    ("repro.telemetry.trace", "Tracer", "end_span"),
    ("repro.telemetry.trace", "Tracer", "stash"),
    ("repro.telemetry.trace", "Tracer", "adopt"),
    ("repro.obs", "ObsPlane", "finish"),
    ("repro.obs", "ObsPlane", "artifact"),
    ("repro.sim.shard.engine", None, "run_sharded"),
)

#: ``App`` hooks wrapped on every loaded subclass that overrides them.
APP_HOOKS = ("on_packet_in", "on_port_status")

#: (module, class, attribute): public callback slots; whatever callable
#: is assigned runs as a span of the layer that defines it.
CALLBACK_SLOTS = (
    ("repro.southbound.channel", "ChannelEndpoint", "handler"),
    ("repro.dataplane.switch", "Datapath", "on_packet_in"),
    ("repro.dataplane.switch", "Datapath", "on_flow_removed"),
    ("repro.dataplane.switch", "Datapath", "on_port_status"),
)

#: Classes whose instances the tracer remembers, so that public
#: counters can be read when the call returns whichever entry point
#: built them.
CAPTURED = (
    ("repro.netem.network", "Network"),
    ("repro.controller.core", "Controller"),
)


def layer_of_module(module: Optional[str]) -> str:
    name = module or ""
    while name:
        layer = _MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return "workload"


def _is_traced(fn: Callable) -> bool:
    return hasattr(getattr(fn, "__func__", fn), "__wrapped__")


class _Slot:
    """Data descriptor standing in for a public callback attribute."""

    def __init__(self, tracer: "SpanTracer", cls: str, attr: str) -> None:
        self.tracer = tracer
        self.attr = attr
        self.label = f"{cls}.{attr}"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.attr)

    def __set__(self, obj, value) -> None:
        if value is not None:
            value = self.tracer.wrap_callable(value, self.label)
        obj.__dict__[self.attr] = value


class SpanTracer:
    """See the module docstring.  Use as a context manager."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        #: name -> [name, layer, calls, self_ns, total_ns, last end_ns]
        self.aggregates: Dict[str, list] = {}
        #: First ``keep`` spans as [name, start_ns, end_ns, parent index].
        self.raw: List[list] = []
        self.missing: List[str] = []
        #: class name -> instances built while installed (see CAPTURED).
        self.captured: Dict[str, list] = {name: [] for _, name in CAPTURED}
        self.root_ns = 0          # total duration of top-level spans
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._by_code: Dict[object, list] = {}

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------
    def _record(self, layer: str, name: str) -> list:
        record = self.aggregates.get(name)
        if record is None:
            record = self.aggregates[name] = [name, layer, 0, 0, 0, 0]
        return record

    def _open(self) -> list:
        """Push a frame ``[start_ns, child_ns, raw index]``; the caller
        stamps ``frame[0]`` last so this bookkeeping is not timed."""
        raw, stack = self.raw, self._stack
        if len(raw) < self.keep:
            index = len(raw)
            raw.append([None, 0, 0, stack[-1][2] if stack else -1])
        else:
            index = -1
        frame = [0, 0, index]
        stack.append(frame)
        return frame

    def _close(self, frame: list, record: list, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        record[2] += 1
        record[3] += duration - frame[1]
        record[4] += duration
        record[5] = end
        if stack:
            stack[-1][1] += duration
        else:
            self.root_ns += duration
        if frame[2] >= 0:
            span = self.raw[frame[2]]
            span[0], span[1], span[2] = record[0], frame[0], end

    def _traced(self, fn: Callable, record: list) -> Callable:
        open_span, close_span = self._open, self._close
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = open_span()
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, record, clock())

        traced.__wrapped__ = fn
        return traced

    def wrap_callable(self, fn: Callable,
                      label: Optional[str] = None) -> Callable:
        """A span around ``fn``, attributed to the layer of the function
        it resolves to (bound methods, closures) and named
        ``<layer>:<label>`` — by default the function's qualified name,
        for a callback slot the public name of the slot."""
        if _is_traced(fn):
            return fn
        return self._traced(fn, self._record_for(fn, label))

    def _record_for(self, fn: Callable, label: Optional[str] = None) -> list:
        func = getattr(fn, "__func__", fn)
        # Cached by code object: closures differ, their code does not.
        code = getattr(func, "__code__", None) if label is None else None
        record = self._by_code.get(code) if code is not None else None
        if record is None:
            layer = layer_of_module(getattr(func, "__module__", None))
            name = label or getattr(func, "__qualname__", type(fn).__name__)
            record = self._record(layer, f"{layer}:{name}")
            if code is not None:
                self._by_code[code] = record
        return record

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _resolve(self, module: str, cls: Optional[str]):
        try:
            owner = importlib.import_module(module)
            return getattr(owner, cls) if cls else owner
        except (ImportError, AttributeError):
            return None

    def _patch_target(self, module: str, cls: Optional[str],
                      attr: str) -> None:
        label = f"{cls}.{attr}" if cls else attr
        owner = self._resolve(module, cls)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module}:{label}")
            return
        record = self._record(layer_of_module(module), label)
        if cls is None:
            # A module-level function: rebind the name wherever it has
            # already been imported to (``from x import f``).
            traced = self._traced(raw, record)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.startswith("repro") and vars(mod).get(attr) is raw:
                    self._set(mod, attr, traced)
        elif isinstance(raw, classmethod):
            self._set(owner, attr,
                      classmethod(self._traced(raw.__func__, record)))
        elif isinstance(raw, staticmethod):
            self._set(owner, attr,
                      staticmethod(self._traced(raw.__func__, record)))
        else:
            self._set(owner, attr, self._traced(raw, record))

    def _patch_kernel(self) -> None:
        kernel = self._resolve("repro.sim.kernel", "Simulator")
        if kernel is None:
            self.missing.append("repro.sim.kernel:Simulator")
            return
        open_span, close_span = self._open, self._close
        clock = time.perf_counter_ns
        record_for = self._record_for

        def dispatch(callback, *args):
            """Root span of one kernel event."""
            record = record_for(callback)
            frame = open_span()
            frame[0] = clock()
            try:
                return callback(*args)
            finally:
                close_span(frame, record, clock())

        schedule_at = kernel.schedule_at
        call_every = kernel.call_every
        observe_every = kernel.observe_every

        def traced_schedule_at(sim, when, callback, *args, key=None):
            if _is_traced(callback):  # a wrapped entry point, scheduled
                return schedule_at(sim, when, callback, *args, key=key)
            return schedule_at(sim, when, dispatch, callback, *args, key=key)

        def traced_call_every(sim, interval, callback, *args, jitter=0.0):
            return call_every(sim, interval, self.wrap_callable(callback),
                              *args, jitter=jitter)

        def traced_observe_every(sim, interval, callback):
            return observe_every(sim, interval,
                                 self.wrap_callable(callback))

        self._set(kernel, "schedule_at", traced_schedule_at)
        self._set(kernel, "call_every", traced_call_every)
        self._set(kernel, "observe_every", traced_observe_every)

    def _patch_apps(self) -> None:
        base = self._resolve("repro.controller.core", "App")
        if base is None:
            self.missing.append("repro.controller.core:App")
            return
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in APP_HOOKS:
                raw = vars(cls).get(hook)
                if raw is not None:
                    record = self._record(layer_of_module(cls.__module__),
                                          f"{cls.__name__}.{hook}")
                    self._set(cls, hook, self._traced(raw, record))

    def _patch_callbacks(self) -> None:
        for module, cls, attr in CALLBACK_SLOTS:
            owner = self._resolve(module, cls)
            if owner is None:
                self.missing.append(f"{module}:{cls}.{attr}")
                continue
            self._set(owner, attr, _Slot(self, cls, attr))
        host = self._resolve("repro.netem.host", "Host")
        bind_udp = vars(host).get("bind_udp") if host is not None else None
        if bind_udp is None:
            self.missing.append("repro.netem.host:Host.bind_udp")
            return

        def traced_bind_udp(self_host, port, handler, *args, **kwargs):
            return bind_udp(self_host, port, self.wrap_callable(handler),
                            *args, **kwargs)

        self._set(host, "bind_udp", traced_bind_udp)

    def _patch_captures(self) -> None:
        for module, name in CAPTURED:
            cls = self._resolve(module, name)
            init = vars(cls).get("__init__") if cls is not None else None
            if init is None:
                self.missing.append(f"{module}:{name}.__init__")
                continue

            def capturing(obj, *args, _init=init,
                          _seen=self.captured[name], **kwargs):
                _seen.append(obj)
                return _init(obj, *args, **kwargs)

            self._set(cls, "__init__", capturing)

    def __enter__(self) -> "SpanTracer":
        try:
            # Load every app module first so __subclasses__ sees them.
            importlib.import_module("repro.core")
            self._patch_kernel()
            for module, cls, attr in TARGETS:
                self._patch_target(module, cls, attr)
            self._patch_apps()
            self._patch_callbacks()
            self._patch_captures()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` over every layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for _, layer, calls, self_ns, _, _ in self.aggregates.values():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_ns / 1e9
        return out

    def calls(self, name: str) -> int:
        record = self.aggregates.get(name)
        return record[2] if record is not None else 0

    def slot_calls(self, label: str) -> int:
        """Calls through a callback slot, whichever layer served it."""
        return sum(record[2] for name, record in self.aggregates.items()
                   if name.endswith(f":{label}"))

    def total_s(self, name: str) -> float:
        record = self.aggregates.get(name)
        return record[4] / 1e9 if record is not None else 0.0

    def last_end_ns(self, name: str) -> int:
        """``perf_counter_ns`` at which the last such span closed."""
        record = self.aggregates.get(name)
        return record[5] if record is not None else 0

    def table(self) -> List[dict]:
        """Per-span-name aggregates, largest self time first."""
        rows = [{"name": name, "layer": layer, "calls": calls,
                 "self_s": self_ns / 1e9, "total_s": total_ns / 1e9}
                for name, layer, calls, self_ns, total_ns, _
                in self.aggregates.values() if calls]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
