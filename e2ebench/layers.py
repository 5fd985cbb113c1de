"""Layer-attributed host-time tracing for one simulator run.

The tracer wraps the public entry points of each layer of ``repro`` at
class level, from outside the program: nothing under ``src/`` is edited.
Wrappers must be installed before ``build_system`` so that bound
references taken at construction time (handlers registered with the
network, pre-bound trace emitters, pre-bound registry instruments) go
through them.

Attribution rules
-----------------
* A wrapped call opens a span of its layer; a layer's *self time* is the
  duration of its spans minus the time covered by their child spans.
  Durations are integer nanoseconds, so the self times of all layers sum
  exactly to the root span (the traced ``System.run``).
* The kernel hands control to other layers through ``Event.fire``.  An
  event whose callback is not itself a wrapped entry point (a private
  handler such as ``Network._deliver`` or a closure such as the storage
  device's completion) gets a span of the layer that *defined* the
  callback, found from its module.  Completion callbacks handed to
  stable storage (``on_done``) are routed the same way, so a protocol's
  "logged, now deliver" closure is charged to the protocol, not to
  the device that invoked it.
* Helpers called many times per delivery (``DeterminantLog.logged_at``,
  ``Node.next_ssn``, the volatile logs) are left unwrapped: their time
  counts as self time of the entry point that called them.
* Spans live in memory (an ``array`` of fixed-width records) and are
  written out only after the run, by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: every layer self time is reported for; ``other`` is the root span's own
#: time plus callbacks from modules no layer claims
LAYERS = (
    "sim",
    "trace",
    "spans",
    "net.transmit",
    "net.handoff",
    "net.transport",
    "node.receive",
    "protocols.send",
    "protocols.receive",
    "protocols.control",
    "app.deliver",
    "workloads",
    "storage",
    "recovery",
    "oracle.online",
    "oracle.check",
    "system",
    "ledger",
    "sampler",
    "sanitizer",
    "registry",
    "other",
)
_LAYER_ID = {name: index for index, name in enumerate(LAYERS)}
_OTHER = _LAYER_ID["other"]

#: explicit entry points: (module, class, methods, layer).  Each method is
#: wrapped on the class and on every subclass that defines it itself.
#: A missing class or method raises, so a rename cannot drop a layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.kernel", "Simulator",
     ("run", "schedule", "schedule_at", "schedule_fast", "schedule_fast_at"), "sim"),
    ("repro.sim.events", "EventHandle", ("cancel",), "sim"),
    ("repro.sim.trace", "TraceRecorder", ("record", "finalize"), "trace"),
    ("repro.sim.trace", "BoundEmitter", ("__call__",), "trace"),
    ("repro.sim.spans", "SpanTracker", ("begin", "end"), "spans"),
    ("repro.sim.spans", "SpanChainTracker", ("on_event",), "spans"),
    ("repro.net.network", "Network", ("send", "transmit", "broadcast"), "net.transmit"),
    ("repro.net.network", "Network", ("hand_to_handler",), "net.handoff"),
    ("repro.net.transport", "ReliableTransport",
     ("send", "on_ack", "on_receive", "on_deregister"), "net.transport"),
    ("repro.core.node", "Node",
     ("receive", "deliver_app", "commit_output", "maybe_checkpoint", "force_checkpoint"),
     "node.receive"),
    ("repro.core.node", "Node",
     ("crash", "begin_restart", "apply_checkpoint", "mark_replay_start",
      "complete_recovery", "voluntary_rollback", "apply_snapshot", "block", "unblock"),
     "recovery"),
    ("repro.procs.process", "ApplicationProcess",
     ("deliver", "initial_sends", "snapshot", "restore", "reset"), "app.deliver"),
    ("repro.workloads.generators", "Workload", ("initial_sends", "on_deliver"), "workloads"),
    ("repro.storage.stable", "StableStorage",
     ("write", "read", "write_bootstrap", "log_append", "log_read",
      "log_truncate_head", "reclaim", "abort_pending"), "storage"),
    ("repro.storage.checkpoint", "CheckpointStore",
     ("save", "restore", "restore_line"), "storage"),
    ("repro.recovery.sequencer", "Sequencer", ("receive",), "recovery"),
    ("repro.procs.failure", "FailureDetector", ("notify_crash", "notify_up"), "recovery"),
    ("repro.core.oracle", "ConsistencyOracle",
     ("on_send", "on_deliver", "on_rollback", "on_gc"), "oracle.online"),
    ("repro.core.oracle", "ConsistencyOracle", ("check_safety",), "oracle.check"),
    ("repro.core.system", "System", ("_check_output_safety",), "oracle.check"),
    ("repro.core.system", "System", ("summarize",), "system"),
    ("repro.obs.ledger", "CostLedger",
     ("charge_wire", "charge_storage", "charge_batch", "charge_gc",
      "begin_episode", "end_episode", "summary"), "ledger"),
    ("repro.obs.sampler", "CostSampler", ("flush_to", "finalize"), "sampler"),
    ("repro.sanitizer.monitor", "Sanitizer", ("on_event", "finalize", "report"), "sanitizer"),
    ("repro.core.metrics_registry", "Counter", ("inc",), "registry"),
    ("repro.core.metrics_registry", "Gauge", ("set", "add"), "registry"),
    ("repro.core.metrics_registry", "Histogram", ("observe",), "registry"),
    ("repro.core.metrics_registry", "MetricsRegistry",
     ("counter", "gauge", "histogram", "snapshot"), "registry"),
)

#: class families whose every public method is an entry point: each
#: concrete protocol and recovery class wraps the methods it defines
#: itself.  Protocol methods split into send / receive / control.
FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.protocols.base", "LoggingProtocol", "protocols.control"),
    ("repro.recovery.base", "RecoveryManager", "recovery"),
)
_PROTOCOL_LAYER = {
    "send_app": "protocols.send",
    "on_app_message": "protocols.receive",
    "on_app_message_during_recovery": "protocols.receive",
}
#: names that must exist on a family root, so a rename fails loudly
_FAMILY_REQUIRED = {
    "LoggingProtocol": ("send_app", "on_app_message", "on_protocol_message",
                        "on_app_message_during_recovery"),
    "RecoveryManager": ("on_crash", "begin_recovery", "on_control", "on_peer_status"),
}
#: construction-time wiring, not run-time work
_FAMILY_SKIP = frozenset({"attach"})

#: storage entry points whose completion callback is routed to the layer
#: that defined it: method -> (parameter name, positional index after self)
_CALLBACK_ARGS = {
    ("StableStorage", "write"): ("on_done", 3),
    ("StableStorage", "read"): ("on_done", 2),
    ("StableStorage", "log_append"): ("on_done", 3),
    ("StableStorage", "log_read"): ("on_done", 2),
    ("CheckpointStore", "save"): ("on_done", 6),
    ("CheckpointStore", "restore"): ("on_done", 0),
    ("CheckpointStore", "restore_line"): ("on_done", 1),
}

#: entry points whose per-call inclusive durations are kept (for
#: percentiles); every other entry point keeps a count and a total
TIMED = frozenset({"CheckpointStore.save"})

#: callback module prefix -> layer, longest prefix first
_MODULE_LAYER = (
    ("repro.net.network", "net.handoff"),
    ("repro.net.transport", "net.transport"),
    ("repro.storage", "storage"),
    ("repro.core.node", "node.receive"),
    ("repro.core.oracle", "oracle.online"),
    ("repro.core.metrics_registry", "registry"),
    ("repro.protocols", "protocols.control"),
    ("repro.recovery", "recovery"),
    ("repro.procs.failure", "recovery"),
    ("repro.procs.process", "app.deliver"),
    ("repro.workloads", "workloads"),
    ("repro.obs.sampler", "sampler"),
    ("repro.obs", "ledger"),
    ("repro.sanitizer", "sanitizer"),
    ("repro.sim.spans", "spans"),
    ("repro.sim.trace", "trace"),
    ("repro.sim", "sim"),
)
#: private node callbacks that belong to the restart path
_QUALNAME_LAYER = {
    "Node._restart_if_current": "recovery",
    "Node._on_restored": "recovery",
    "Node._finish_restore": "recovery",
}

#: fields of one span record in :attr:`Tracer.spans`
SPAN_FIELDS = ("id", "parent", "layer", "start_ns", "end_ns")


class Tracer:
    """Span stack, per-layer self time and per-entry call counts."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.active = False
        self.self_ns = [0] * len(LAYERS)
        #: entry key ("Class.method") -> [calls, inclusive ns]
        self.entries: Dict[str, List[int]] = {}
        #: entry key -> inclusive ns of every call (TIMED keys only)
        self.durations: Dict[str, array] = {key: array("q") for key in TIMED}
        #: flat span records, len(SPAN_FIELDS) ints each
        self.spans = array("q")
        self.root_ns = 0
        # frames: [layer, start_ns, child_ns, span_id]
        self._stack: List[List[int]] = []
        self._next_id = 0
        self._callback_layer: Dict[Any, Optional[int]] = {}

    # -- span bookkeeping ---------------------------------------------
    def call(self, layer: int, entry: Optional[List[int]], key: Optional[str],
             fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [layer, 0, 0, span_id]
        stack.append(frame)
        start = frame[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[2]
            parent = stack[-1]
            parent[2] += duration
            self.spans.extend((span_id, parent[3], layer, start, end))
            if entry is not None:
                entry[0] += 1
                entry[1] += duration
                if key in self.durations:
                    self.durations[key].append(duration)

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as the root span (layer ``other``) with tracing on."""
        if self.active:
            raise RuntimeError("tracer is already running")
        self.active = True
        span_id = self._next_id
        self._next_id += 1
        frame = [_OTHER, 0, 0, span_id]
        self._stack.append(frame)
        start = frame[1] = self.clock()
        try:
            return fn()
        finally:
            end = self.clock()
            self._stack.pop()
            self.active = False
            self.root_ns = end - start
            self.self_ns[_OTHER] += self.root_ns - frame[2]
            self.spans.extend((span_id, -1, _OTHER, start, end))

    # -- callback classification --------------------------------------
    def layer_of_callback(self, fn: Any) -> Optional[int]:
        """Layer id for a callback, or ``None`` when it opens its own span."""
        func = getattr(fn, "__func__", fn)
        if getattr(func, "_e2e_layer", None) is not None:
            return None
        owner = getattr(fn, "__self__", None)
        if owner is not None and type(owner).__module__ == "repro.sim.timers":
            # a timer fires its registered callback: charge that instead
            return self.layer_of_callback(owner._callback)
        code = getattr(func, "__code__", None)
        cache_key = code if code is not None else type(func)
        layer = self._callback_layer.get(cache_key, -1)
        if layer == -1:
            layer = _LAYER_ID[_classify(func)]
            self._callback_layer[cache_key] = layer
        return layer

    def routed(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a completion callback in a span of its defining layer."""
        layer = self.layer_of_callback(callback)
        if layer is None:
            return callback

        def route(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return callback(*args, **kwargs)
            return self.call(layer, None, None, callback, args, kwargs)

        route._e2e_layer = LAYERS[layer]
        return route

    # -- results ------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer in seconds."""
        return {name: ns / 1e9 for name, ns in zip(LAYERS, self.self_ns)}

    def calls(self, key: str) -> int:
        """Calls of one entry point (``"Class.method"``) while tracing."""
        entry = self.entries.get(key)
        return entry[0] if entry is not None else 0

    def inclusive_seconds(self, *keys: str) -> float:
        """Summed inclusive time of the given entry points, in seconds."""
        return sum(self.entries[k][1] for k in keys if k in self.entries) / 1e9

    def write_spans(self, path: str) -> int:
        """Write span records to ``path`` (raw int64) plus a JSON sidecar.

        Returns the number of spans written.
        """
        with open(path, "wb") as handle:
            self.spans.tofile(handle)
        count = len(self.spans) // len(SPAN_FIELDS)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": SPAN_FIELDS, "dtype": "int64", "layers": LAYERS,
                 "spans": count, "clock": "perf_counter_ns"},
                handle, indent=1,
            )
        return count


def _classify(func: Any) -> str:
    qualname = getattr(func, "__qualname__", "")
    if qualname in _QUALNAME_LAYER:
        return _QUALNAME_LAYER[qualname]
    module = getattr(func, "__module__", "") or ""
    for prefix, layer in _MODULE_LAYER:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _make_wrapper(tracer: Tracer, fn: Callable[..., Any], layer: int, key: str,
                  callback_arg: Optional[Tuple[str, int]]) -> Callable[..., Any]:
    entry = tracer.entries.setdefault(key, [0, 0])
    call = tracer.call

    if callback_arg is None:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            return call(layer, entry, key, fn, args, kwargs)
    else:
        name, index = callback_arg
        position = index + 1  # after self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if kwargs.get(name) is not None:
                kwargs[name] = tracer.routed(kwargs[name])
            elif len(args) > position and args[position] is not None:
                args = args[:position] + (tracer.routed(args[position]),) + args[position + 1:]
            return call(layer, entry, key, fn, args, kwargs)

    functools.update_wrapper(wrapper, fn)
    wrapper._e2e_layer = LAYERS[layer]
    return wrapper


def _subclasses(cls: type) -> Iterable[type]:
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        pending.extend(current.__subclasses__())


def _load(module: str, name: str) -> type:
    cls = getattr(importlib.import_module(module), name, None)
    if not isinstance(cls, type):
        raise LookupError(f"entry-point class {module}.{name} not found")
    return cls


def _plan() -> List[Tuple[type, str, str]]:
    """Every (class, method, layer) to wrap; raises on a missing name."""
    # the registries import every concrete protocol, recovery manager
    # and workload, so __subclasses__ sees them all
    importlib.import_module("repro.protocols")
    importlib.import_module("repro.recovery")
    importlib.import_module("repro.workloads")
    plan: Dict[Tuple[type, str], str] = {}
    for module, class_name, methods, layer in ENTRY_POINTS:
        root = _load(module, class_name)
        for method in methods:
            if not callable(getattr(root, method, None)):
                raise LookupError(f"entry point {class_name}.{method} not found")
            for cls in _subclasses(root):
                if inspect.isfunction(cls.__dict__.get(method)):
                    plan[(cls, method)] = layer
    for module, class_name, default_layer in FAMILIES:
        root = _load(module, class_name)
        for method in _FAMILY_REQUIRED[class_name]:
            if not callable(getattr(root, method, None)):
                raise LookupError(f"entry point {class_name}.{method} not found")
        for cls in _subclasses(root):
            for method, value in cls.__dict__.items():
                if (
                    method.startswith("_")
                    or method in _FAMILY_SKIP
                    or not inspect.isfunction(value)
                ):
                    continue
                plan[(cls, method)] = _PROTOCOL_LAYER.get(method, default_layer)
    return [(cls, method, layer) for (cls, method), layer in plan.items()]


class Installation:
    """Wrappers installed for one :class:`Tracer`; undone by :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: List[Tuple[type, str, Any]] = []

    def install(self) -> "Installation":
        """Wrap every planned entry point and the kernel's event dispatch."""
        tracer = self.tracer
        try:
            for cls, method, layer in _plan():
                original = cls.__dict__[method]
                key = f"{cls.__name__}.{method}"
                wrapper = _make_wrapper(
                    tracer, original, _LAYER_ID[layer], key,
                    _CALLBACK_ARGS.get((cls.__name__, method)),
                )
                self._originals.append((cls, method, original))
                setattr(cls, method, wrapper)
            event_cls = _load("repro.sim.events", "Event")
            original_fire = event_cls.__dict__["fire"]
            self._originals.append((event_cls, "fire", original_fire))
            setattr(event_cls, "fire", _dispatch_wrapper(tracer, original_fire))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute to its original function."""
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Installation":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()


def _dispatch_wrapper(tracer: Tracer, original_fire: Callable[[Any], None]):
    call = tracer.call

    def fire(event: Any) -> None:
        if not tracer.active:
            return original_fire(event)
        layer = tracer.layer_of_callback(event.fn)
        if layer is None:
            return original_fire(event)
        return call(layer, None, None, original_fire, (event,), {})

    functools.update_wrapper(fire, original_fire)
    return fire
