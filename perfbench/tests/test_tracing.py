"""Self-time arithmetic and wrap-point handling of the span tracer."""

import pytest

import tracing
from tracing import ROOT, Instrumentation, SpanAggregator, summarize


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def nested_run():
    """kernel[0,10] > net.reliable[2,7] > net.topology[3,4], then a
    second top-level net.channel[12,15], on a 20-second timeline."""
    clock = FakeClock()
    agg = SpanAggregator(clock)
    for at, action in (
        (0, "kernel"),
        (2, "net.reliable"),
        (3, "net.topology"),
        (4, None),
        (7, None),
        (10, None),
        (12, "net.channel"),
        (15, None),
    ):
        clock.now = float(at)
        if action is None:
            agg.exit()
        else:
            agg.enter(action)
    clock.now = 20.0
    return agg


def test_self_time_subtracts_child_spans():
    exported = nested_run().export()
    assert exported["self_s"] == {
        ("net.topology", "net.reliable"): 1.0,
        ("net.reliable", "kernel"): 4.0,
        ("kernel", ROOT): 5.0,
        ("net.channel", ROOT): 3.0,
    }
    assert exported["wall_s"] == 20.0


def test_summary_sums_to_the_time_base():
    summary = summarize(
        [nested_run().export()], events=40, messages=10, sync=[],
    )
    m = {name: value for name, (value, _unit) in summary.metrics.items()}
    assert summary.problems == []
    assert m["kernel.self_s"] == 5.0
    assert m["sim.loop.self_s"] == 20.0 - 13.0
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["sim.loop.self_s"] == 20.0
    assert m["trace.coverage"] == pytest.approx(13.0 / 20.0)
    assert m["sim.loop.events_per_msg"] == 4.0
    assert m["sync.rounds"] == 0 and m["sync.s0.busy_s"] == 0.0


def test_negative_loop_time_is_a_problem():
    exported = nested_run().export()
    exported["wall_s"] = 10.0  # shorter than the attributed 13 s
    summary = summarize([exported], events=1, messages=1, sync=[])
    assert summary.problems


def test_shard_timelines_add_up_and_name_the_critical_shard():
    timelines = []
    for busy in (6.0, 9.0):
        exported = nested_run().export()
        exported["window_s"] = busy
        timelines.append(exported)
    sync = [
        {"rounds": 3, "records_sent": 5, "bytes_sent": 100},
        {"rounds": 3, "records_sent": 7, "bytes_sent": 120},
    ]
    summary = summarize(timelines, events=80, messages=20, sync=sync)
    m = {name: value for name, (value, _unit) in summary.metrics.items()}
    assert m["sim.loop.self_s"] == 40.0 - 26.0
    assert m["sync.critical_shard"] == 1
    assert m["sync.s1.busy_frac"] == 9.0 / 20.0
    assert (m["sync.rounds"], m["sync.records"], m["sync.bytes"]) == (
        6, 12, 220,
    )


def test_callback_layer_uses_the_longest_module_prefix():
    def fn():
        pass

    fn.__module__ = "repro.kernel.migration"
    assert tracing.callback_layer(fn) == "kernel.migration"
    fn.__module__ = "repro.kernel.links"
    assert tracing.callback_layer(fn) == "kernel"
    fn.__module__ = "repro.workloads.pingpong"
    assert tracing.callback_layer(fn) is None


def test_missing_wrap_point_drops_only_its_layer(monkeypatch, capsys):
    monkeypatch.setattr(
        tracing,
        "METHOD_SPANS",
        tracing.METHOD_SPANS + (("repro.kernel.kernel.Kernel.gone", "x"),),
    )
    from repro.kernel.kernel import Kernel

    before = Kernel.route_message
    instrumentation = Instrumentation(SpanAggregator())
    instrumentation.install()
    try:
        assert Kernel.route_message is not before
    finally:
        instrumentation.remove()
    assert Kernel.route_message is before
    assert instrumentation.missing_layers == {"x"}
    assert "Kernel.gone not found" in capsys.readouterr().err


def test_remove_restores_inherited_attributes():
    from repro.sim.loop import KeyedEventLoop

    instrumentation = Instrumentation(SpanAggregator())
    instrumentation.install()
    instrumentation.remove()
    import multiprocessing.connection as mpc

    assert "send_bytes" not in vars(mpc.Connection)
    assert "call_at" in vars(KeyedEventLoop)


def test_loop_callbacks_get_spans_after_a_reset():
    from repro.sim.loop import EventLoop

    agg = SpanAggregator()
    instrumentation = Instrumentation(agg)
    instrumentation.install()
    try:
        loop = EventLoop()
        agg.reset()  # the harness resets between build and execution

        def on_timer():
            pass

        on_timer.__module__ = "repro.net.reliable"
        loop.call_after(5, on_timer)
        loop.call_soon(lambda: None)  # this module: no layer, no span
        loop.run()
    finally:
        instrumentation.remove()
    exported = agg.export()
    assert exported["fired"] == {"net.reliable": 1}
    assert exported["calls"] == {("net.reliable", ROOT): 1}
    assert exported["scheduled"] == 2
