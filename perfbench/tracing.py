"""Outside-in host-time tracing for the benchmark's traced runs.

Spans are recorded by wrappers this module installs on the simulator's
public classes *before* a system is built (some collaborators hoist bound
methods at construction time) and removes afterwards.  Nothing under
``src/`` knows about them.

A span has a layer name, a start and an end on ``time.perf_counter``, and
a parent: the span that was open when it started.  Spans are folded into
per-``(layer, parent layer)`` totals as they close, so a traced run keeps
no per-span state beyond the open stack.  A layer's *self time* is its
spans' durations minus the time covered by their child spans.

Wrap points are named by dotted path.  A wrap point that no longer exists
(a later change renamed or deleted it) is skipped with a warning and only
its layer's metrics go missing; the end-to-end run never depends on it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: parent name of spans opened directly by the event loop's dispatch
ROOT = "sim.loop"

#: the per-layer metrics every traced run reports, in output order
LAYERS = (
    "kernel",
    "kernel.scheduler",
    "kernel.migration",
    "kernel.datamove",
    "kernel.linkupdate",
    "net.network",
    "net.reliable",
    "net.channel",
    "net.topology",
    "obs.metrics",
    "policy",
)

#: module prefix -> layer, for callbacks the event loop dispatches; the
#: longest matching prefix wins, unmatched callbacks get no span
CALLBACK_LAYERS = {
    "repro.kernel": "kernel",
    "repro.kernel.scheduler": "kernel.scheduler",
    "repro.kernel.migration": "kernel.migration",
    "repro.kernel.datamove": "kernel.datamove",
    "repro.net.network": "net.network",
    "repro.net.reliable": "net.reliable",
    "repro.net.channel": "net.channel",
    "repro.net.topology": "net.topology",
    "repro.obs": "obs.metrics",
    "repro.policy": "policy",
}

#: kernel control handlers form their own layers, by op first, then by
#: the handler's module: migration's bulk state chunks and segment
#: requests are data moves, the rest of its protocol is migration
CONTROL_OP_LAYERS = {
    "link-update": "kernel.linkupdate",
    "migrate-process": "kernel.migration",
    "mig-data": "kernel.datamove",
    "mig-move-req": "kernel.datamove",
}
CONTROL_MODULE_LAYERS = {
    "repro.kernel.migration": "kernel.migration",
    "repro.kernel.datamove": "kernel.datamove",
}

#: (dotted method path, layer) pairs wrapped as plain spans
METHOD_SPANS = (
    ("repro.kernel.kernel.Kernel.route_message", "kernel"),
    ("repro.kernel.kernel.Kernel.deliver_local", "kernel"),
    ("repro.kernel.kernel.Kernel.send_from_process", "kernel"),
    ("repro.kernel.kernel.Kernel.spawn", "kernel"),
    ("repro.kernel.scheduler.RoundRobinScheduler.enqueue",
     "kernel.scheduler"),
    ("repro.kernel.scheduler.RoundRobinScheduler.pick_next",
     "kernel.scheduler"),
    ("repro.net.network.Network.send", "net.network"),
    ("repro.net.reliable.ReliableTransport.send", "net.reliable"),
    ("repro.net.reliable.ReliableTransport.on_packet", "net.reliable"),
    ("repro.net.channel.Channel.transmit", "net.channel"),
    ("repro.net.topology.Topology.next_hop", "net.topology"),
    ("repro.obs.metrics.Counter.inc", "obs.metrics"),
    ("repro.obs.metrics.Gauge.set", "obs.metrics"),
    ("repro.obs.metrics.Gauge.inc", "obs.metrics"),
    ("repro.obs.metrics.Histogram.observe", "obs.metrics"),
    ("repro.sim.shard.ShardRuntime.inject", "sync.unpack"),
    ("multiprocessing.connection.Connection.send_bytes", "sync.wait"),
    ("multiprocessing.connection.Connection.recv_bytes", "sync.wait"),
)

#: module-level functions wrapped as spans where their callers look them
#: up: (module, name, layer)
FUNCTION_SPANS = (
    ("repro.net.network", "pack_record", "sync.pack"),
    ("repro.sim.barrier", "pack_blob", "sync.pack"),
    ("repro.sim.barrier", "unpack_record", "sync.unpack"),
)

#: event-loop scheduling entry points whose callbacks get spans
LOOP_METHODS = (
    "repro.sim.loop.EventLoop.call_at",
    "repro.sim.loop.EventLoop.call_after",
    "repro.sim.loop.EventLoop.call_soon",
    "repro.sim.loop.KeyedEventLoop.call_at",
    "repro.sim.loop.KeyedEventLoop.call_after",
    "repro.sim.loop.KeyedEventLoop.call_soon",
    "repro.sim.loop.KeyedEventLoop.schedule_record",
)

CONTROL_METHODS = (
    "repro.kernel.kernel.Kernel.register_control",
    "repro.kernel.kernel.Kernel.register_process_control",
)

WINDOW_METHOD = "repro.sim.shard.ShardRuntime.run_window"


class SpanAggregator:
    """Open-span stack plus per-(layer, parent) self-time totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every total; the next span starts a fresh run."""
        #: open spans, innermost last: [layer, start, child seconds]
        self.stack: list[list[Any]] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: loop callbacks dispatched per layer (spans the loop opened)
        self.fired: dict[str, int] = defaultdict(int)
        #: callbacks handed to the event loop
        self.scheduled = 0
        #: seconds in ShardRuntime.run_window, less packing inside it
        self.window_s = 0.0
        #: inclusive seconds in sync.pack spans (for busy = window - pack)
        self.pack_s = 0.0
        self.started = self.clock()

    def enter(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            key = (layer, parent[0])
        else:
            key = (layer, ROOT)
        self.self_s[key] += duration - child
        self.calls[key] += 1
        if layer == "sync.pack":
            self.pack_s += duration

    def export(self) -> dict[str, Any]:
        """The totals as plain data (picklable, for fork workers)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "fired": dict(self.fired),
            "scheduled": self.scheduled,
            "window_s": self.window_s,
            "pack_s": self.pack_s,
            "wall_s": self.clock() - self.started,
        }


def layer_totals(exported: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Fold ``(layer, parent)`` totals into per-layer self time and calls."""
    totals: dict[str, dict[str, float]] = {}
    for (layer, _parent), seconds in exported["self_s"].items():
        entry = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += seconds
    for (layer, _parent), count in exported["calls"].items():
        totals[layer]["calls"] += count
    return totals


def _resolve(path: str) -> tuple[Any, str]:
    """Split ``pkg.mod.Class.attr`` into (owner object, attr), importing
    the longest module prefix; raises LookupError if anything is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise LookupError(path)
        if not hasattr(owner, parts[-1]):
            raise LookupError(path)
        return owner, parts[-1]
    raise LookupError(path)


def callback_layer(callback: Any) -> str | None:
    """The layer owning a loop callback, from its defining module."""
    module = getattr(callback, "__module__", None)
    if module is None:
        func = getattr(callback, "func", None)  # functools.partial
        module = getattr(func, "__module__", None)
    if not module:
        return None
    while module:
        layer = CALLBACK_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


class Instrumentation:
    """Installs and removes the span wrappers around one traced run."""

    def __init__(self, agg: SpanAggregator) -> None:
        self.agg = agg
        self._undo: list[tuple[Any, str, Any]] = []
        #: wrap points that could not be found (their layers go missing)
        self.missing_layers: set[str] = set()

    def _patch(
        self, path: str, layer: str, make, own_only: bool = False
    ) -> None:
        """Replace *path* with ``make(current)``; with *own_only*, leave an
        inherited attribute alone (the base class's patch covers it)."""
        try:
            owner, name = _resolve(path)
        except LookupError:
            self.missing_layers.add(layer)
            print(
                f"perfbench: wrap point {path} not found; "
                f"dropping {layer} metrics",
                file=sys.stderr,
            )
            return
        own = name in vars(owner)
        if own_only and not own:
            return
        current = getattr(owner, name)
        self._undo.append((owner, name, current if own else None))
        setattr(owner, name, make(current))

    def install(self) -> None:
        agg = self.agg
        enter = agg.enter
        exit_ = agg.exit

        def span(layer: str):
            def make(original):
                def wrapper(*args, **kwargs):
                    enter(layer)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        exit_()

                return wrapper

            return make

        def traced_callback(callback):
            layer = callback_layer(callback)
            if layer is None:
                return callback

            def dispatched(*args):
                agg.fired[layer] += 1
                enter(layer)
                try:
                    callback(*args)
                finally:
                    exit_()

            return dispatched

        def loop_method(original):
            if original.__name__ == "schedule_record":

                def schedule(self, record, callback, *args):
                    agg.scheduled += 1
                    return original(
                        self, record, traced_callback(callback), *args
                    )

                return schedule

            def schedule(self, when, callback, *args):
                agg.scheduled += 1
                return original(self, when, traced_callback(callback), *args)

            return schedule

        def call_soon(original):
            def schedule(self, callback, *args):
                agg.scheduled += 1
                return original(self, traced_callback(callback), *args)

            return schedule

        def control(original):
            def register(self, op, handler):
                layer = CONTROL_OP_LAYERS.get(op) or (
                    CONTROL_MODULE_LAYERS.get(
                        getattr(handler, "__module__", ""), "kernel"
                    )
                )
                return original(self, op, span(layer)(handler))

            return register

        def window(original):
            def run_window(self, deadline):
                pack_before = agg.pack_s
                start = agg.clock()
                try:
                    return original(self, deadline)
                finally:
                    agg.window_s += (agg.clock() - start) - (
                        agg.pack_s - pack_before
                    )

            return run_window

        for path in LOOP_METHODS:
            make = call_soon if path.endswith("call_soon") else loop_method
            self._patch(path, "sim.loop", make, own_only=True)
        for path in CONTROL_METHODS:
            self._patch(path, "kernel", control)
        for path, layer in METHOD_SPANS:
            self._patch(path, layer, span(layer))
        for module, name, layer in FUNCTION_SPANS:
            self._patch(f"{module}.{name}", layer, span(layer))
        self._patch(WINDOW_METHOD, "sync.busy", window)

    def remove(self) -> None:
        """Restore every wrapped attribute, innermost patch first."""
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


#: number of shards the per-shard metrics are reported for
SHARD_SLOTS = 2


class Summary:
    """Per-layer metrics of one traced execution, plus integrity problems."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []


def summarize(
    timelines: list[dict[str, Any]],
    events: int,
    messages: int,
    sync: list[dict[str, int]],
    missing: set[str] = frozenset(),
) -> Summary:
    """Turn exported span totals into the per-layer metrics.

    *timelines* holds one export per event loop that ran: one for the
    classic engine, one per fork worker for the sharded engine.  Their
    time base is the sum of their ``wall_s``: the traced ``run_s`` for
    the classic engine, and shard-seconds (each worker's wall time from
    the start of execution to its collection) when workers run at once.
    ``sim.loop.self_s`` is that base minus every attributed span, so the
    layer self times and it sum to the base by construction; the check
    below guards the arithmetic, and no self time may be negative.
    """
    out = Summary()
    metrics = out.metrics
    base = sum(t["wall_s"] for t in timelines)
    totals: dict[str, dict[str, float]] = {}
    for timeline in timelines:
        for layer, entry in layer_totals(timeline).items():
            slot = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
            slot["self_s"] += entry["self_s"]
            slot["calls"] += entry["calls"]
    attributed = sum(entry["self_s"] for entry in totals.values())
    loop_self = base - attributed

    for layer in LAYERS:
        if layer in missing:
            continue
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    if "sim.loop" not in missing:
        metrics["sim.loop.self_s"] = (loop_self, "s")
        metrics["sim.loop.scheduled"] = (
            sum(t["scheduled"] for t in timelines), "count",
        )
    metrics["sim.loop.events"] = (events, "count")
    metrics["sim.loop.events_per_msg"] = (events / messages, "ratio")
    if "net.reliable" not in missing:
        metrics["net.reliable.timer_fires"] = (
            sum(t["fired"].get("net.reliable", 0) for t in timelines),
            "count",
        )

    # One timeline per fork worker; the classic engine has no shards and
    # reports zeros.
    shard_timelines = timelines if sync else []
    busy = []
    for s in range(SHARD_SLOTS):
        timeline = (
            shard_timelines[s] if s < len(shard_timelines) else None
        )
        own = layer_totals(timeline) if timeline else {}
        row = {"sync.busy": timeline["window_s"] if timeline else 0.0}
        for layer in ("sync.wait", "sync.pack", "sync.unpack"):
            row[layer] = own.get(layer, {}).get("self_s", 0.0)
        busy.append(row["sync.busy"])
        for layer, seconds in row.items():
            if layer not in missing:
                metrics[f"sync.s{s}.{layer[5:]}_s"] = (seconds, "s")
        if "sync.busy" not in missing:
            metrics[f"sync.s{s}.busy_frac"] = (
                busy[s] / timeline["wall_s"] if timeline else 0.0, "ratio",
            )
    metrics["sync.rounds"] = (sum(x["rounds"] for x in sync), "count")
    metrics["sync.records"] = (
        sum(x["records_sent"] for x in sync), "count",
    )
    metrics["sync.bytes"] = (sum(x["bytes_sent"] for x in sync), "B")
    if "sync.busy" not in missing:
        metrics["sync.critical_shard"] = (
            busy.index(max(busy)), "index",
        )
    metrics["trace.coverage"] = (attributed / base, "ratio")

    negative = sorted(
        layer for layer, entry in totals.items() if entry["self_s"] < 0
    )
    if negative or loop_self < 0:
        out.problems.append(
            f"negative self time in {negative or ['sim.loop']}"
        )
    if abs(attributed + loop_self - base) > 1e-9 * max(base, 1.0):
        out.problems.append("layer self times do not sum to the run time")
    return out
