"""Host-time benchmark of the DEMOS/MP simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mesh64 --seed 0 --seconds 20 --trace 0

``--trace 0`` executes the workload repeatedly for ``--seconds`` and
reports the end-to-end metrics (``setup_s``, ``run_s``, ``msgs_per_s``,
``peak_rss_mb``).  ``--trace 1`` splits the same budget between untraced
and traced executions and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
host (``nproc``, Python version) and the seed.  Standard error gets the
sample counts and the unscaled median and slowest execution time.

``setup_s``, ``run_s`` and ``msgs_per_s`` are scaled to a reference
host.  A fixed pure-Python reference pass runs beside every build and
between slices of every execution on the classic engine, and their
seconds are scaled by ``REFERENCE_S`` over the passes beside them: on a
shared host the speed of one core drifts by tens of percent over
minutes, and both sides of the ratio drift together (see
``README.md``).

Every execution is checked: its fingerprint of simulation-protocol
counters must match every other execution of the run and, at the
recorded seed, the value in ``fingerprints.json``.  A mismatch, an
unfinished operation, a refused migration or a readback error counts as
a failed operation.  ``--record`` rewrites ``fingerprints.json`` from
the recorded seed; ``torus256_x2`` is recorded at ``shards=1`` on the
serial executor, so the forked two-shard run is held to the serial
reference.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FINGERPRINTS = HERE / "fingerprints.json"

#: the seed ``fingerprints.json`` was recorded at
RECORDED_SEED = 0

#: throwaway builds after each execution, so ``setup_s`` is a median of
#: many samples spread over the run even when executions are long
SETUP_SAMPLES = 4

#: rounds of the host-speed reference: one pass takes about
#: ``REFERENCE_S`` on the host the benchmark was written on
REFERENCE_ROUNDS = 4_000
REFERENCE_S = 0.005


def reference() -> float:
    """Seconds for one pass of fixed pure-Python work, garbage collector
    paused: heap pushes and pops of tuples, string slicing and dict
    counting, the interpreter's work in an event loop.  It never imports
    the simulator, so no change to the simulator moves it."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    heap: list[tuple[int, int, str]] = []
    counts: dict[str, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for seq in range(REFERENCE_ROUNDS):
        push(heap, (seq * 7919 % 10007, seq, str(seq)))
    while heap:
        _, _, name = pop(heap)
        counts[name[-2:]] = counts.get(name[-2:], 0) + 1
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def _load_workloads():
    if not (SRC / "repro").is_dir():
        raise SystemExit(
            f"perfbench: simulator sources not found at {SRC}; run from "
            "the root of a repository checkout"
        )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import scenarios

    return scenarios


def load_fingerprints() -> dict[str, dict[str, int]]:
    return json.loads(FINGERPRINTS.read_text())


def check(
    outcomes: list, recorded: dict[str, int] | None
) -> tuple[int, list[str]]:
    """Failed operations and problems across one run's executions.

    *recorded* is the fingerprint at the recorded seed (None for any
    other seed, where the executions must agree with each other).
    """
    problems = []
    failed = 0
    expected = recorded if recorded is not None else outcomes[0].fingerprint
    for index, outcome in enumerate(outcomes):
        failed += outcome.failed
        if outcome.failed:
            problems.append(
                f"execution {index}: {outcome.failed} of "
                f"{outcome.attempted} operations failed"
            )
        if outcome.fingerprint != expected:
            failed += 1
            diff = {
                key: (expected.get(key), value)
                for key, value in outcome.fingerprint.items()
                if expected.get(key) != value
            }
            problems.append(f"execution {index}: fingerprint diff {diff}")
    return failed, problems


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _timed_build(build, seed: int, **kwargs) -> tuple[float, Any]:
    gc.collect()
    started = time.perf_counter()
    execute = build(seed, **kwargs)
    return time.perf_counter() - started, execute


def _scaled_build(build, seed: int) -> tuple[float, Any]:
    """Build between two reference passes: the seconds, scaled by
    ``REFERENCE_S`` over their mean, and the ``execute`` callable."""
    gc.collect()
    before = reference()
    started = time.perf_counter()
    execute = build(seed)
    elapsed = time.perf_counter() - started
    return elapsed * REFERENCE_S / ((before + reference()) / 2), execute


def _timed_execute(execute) -> tuple[float, Any]:
    started = time.perf_counter()
    outcome = execute()
    return time.perf_counter() - started, outcome


def _scaled_execute(execute) -> tuple[float, float, Any]:
    """Execute with a reference pass before, after and between the
    slices the workload cuts its run into; the passes are not counted
    in the execution's time.

    Returns the scaled seconds, the raw seconds and the outcome.  Each
    slice is scaled by ``REFERENCE_S`` over the mean of the two passes
    beside it.  A run of one slice (the fork workload, whose workers
    cannot be paused) has no passes inside it to pair with, so its
    scaled seconds are its raw seconds.
    """
    refs = [reference()]
    slices = []
    started = time.perf_counter()

    def lap() -> None:
        nonlocal started
        slices.append(time.perf_counter() - started)
        refs.append(reference())
        started = time.perf_counter()

    outcome = execute(lap)
    slices.append(time.perf_counter() - started)
    raw = sum(slices)
    if len(slices) == 1:
        return raw, raw, outcome
    refs.append(reference())
    scaled = sum(
        seconds * REFERENCE_S / ((before + after) / 2)
        for seconds, before, after in zip(slices, refs, refs[1:])
    )
    return scaled, raw, outcome


def measure(scenarios, workload: str, seed: int, seconds: float) -> dict:
    """Untraced executions for *seconds* (at least two): end-to-end.

    ``run_s`` is the median of the executions' scaled seconds (see
    :func:`_scaled_execute`) and ``setup_s`` the median of the builds'
    (see :func:`_scaled_build`).  The raw median and slowest execution
    are returned in ``samples``."""
    build = scenarios.WORKLOADS[workload]
    deadline = time.perf_counter() + seconds
    setups, scaled, runs, outcomes = [], [], [], []
    while len(runs) < 2 or time.perf_counter() < deadline:
        setup_s, execute = _scaled_build(build, seed)
        scaled_s, run_s, outcome = _scaled_execute(execute)
        del execute
        setups.append(setup_s)
        scaled.append(scaled_s)
        runs.append(run_s)
        outcomes.append(outcome)
        for _ in range(SETUP_SAMPLES):
            setups.append(_scaled_build(build, seed)[0])
    run_s = statistics.median(scaled)
    messages = outcomes[0].fingerprint["messages_delivered"]
    return {
        "outcomes": outcomes,
        "samples": {
            "executions": len(runs),
            "setups": len(setups),
            "raw_run_s_median": statistics.median(runs),
            "raw_run_s_max": max(runs),
        },
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "msgs_per_s": (messages / run_s, "1/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
    }


def measure_traced(
    scenarios, workload: str, seed: int, seconds: float
) -> dict:
    """Untraced executions for half of *seconds*, then traced ones for
    the rest (at least one each): per-layer metrics of the traced
    execution with the median run time; every traced execution's span
    arithmetic is checked."""
    import tracing

    build = scenarios.WORKLOADS[workload]
    started = time.perf_counter()
    plain_runs, outcomes = [], []
    while not plain_runs or time.perf_counter() < started + seconds / 2:
        _, execute = _timed_build(build, seed)
        run_s, outcome = _timed_execute(execute)
        del execute
        plain_runs.append(run_s)
        outcomes.append(outcome)

    traced = []
    while not traced or time.perf_counter() < started + seconds:
        agg = tracing.SpanAggregator()
        instrumentation = tracing.Instrumentation(agg)
        instrumentation.install()
        try:
            kwargs = (
                {"worker_trace": agg.export}
                if workload == "torus256_x2" else {}
            )
            _, execute = _timed_build(build, seed, **kwargs)
            agg.reset()
            run_s, outcome = _timed_execute(execute)
            del execute
        finally:
            instrumentation.remove()
        timelines = outcome.worker_traces or [agg.export()]
        if not outcome.worker_traces:
            timelines[0]["wall_s"] = run_s
        summary = tracing.summarize(
            timelines,
            events=outcome.events,
            messages=outcome.fingerprint["messages_delivered"],
            sync=outcome.sync,
            missing=instrumentation.missing_layers,
        )
        traced.append((run_s, summary))
        outcomes.append(outcome)

    problems = [p for _, summary in traced for p in summary.problems]
    traced.sort(key=lambda entry: entry[0])
    summary = traced[len(traced) // 2][1]
    summary.metrics["trace.overhead_x"] = (
        statistics.median(r for r, _ in traced)
        / statistics.median(plain_runs),
        "ratio",
    )
    return {
        "outcomes": outcomes,
        "metrics": summary.metrics,
        "problems": problems,
    }


def record(scenarios) -> None:
    """Rewrite fingerprints.json from one execution per workload at the
    recorded seed (torus256_x2 on one shard, serial executor)."""
    fingerprints = {}
    for workload, build in scenarios.WORKLOADS.items():
        kwargs = (
            {"shards": 1, "executor": "serial"}
            if workload == "torus256_x2" else {}
        )
        outcome = build(RECORDED_SEED, **kwargs)()
        if outcome.failed:
            raise SystemExit(f"{workload}: {outcome.failed} failed ops")
        fingerprints[workload] = outcome.fingerprint
        print(workload, outcome.fingerprint, file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=2) + "\n")


def run(
    scenarios,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    recorded: dict[str, int] | None,
) -> dict:
    """One benchmark run: the result object printed as the last line."""
    result = (measure_traced if trace else measure)(
        scenarios, workload, seed, seconds
    )
    outcomes = result["outcomes"]
    failed, problems = check(outcomes, recorded)
    problems += result.get("problems", [])
    for problem in problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    if "samples" in result:
        print(
            f"perfbench: {workload}: samples {json.dumps(result['samples'])}",
            file=sys.stderr,
        )
    return {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite fingerprints.json at the recorded seed and exit",
    )
    args = parser.parse_args(argv)
    scenarios = _load_workloads()
    if args.record:
        record(scenarios)
        return 0
    if args.workload not in scenarios.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(scenarios.WORKLOADS)}"
        )
    recorded = (
        load_fingerprints()[args.workload]
        if args.seed == RECORDED_SEED else None
    )
    result = run(
        scenarios, args.workload, args.seed, args.seconds,
        bool(args.trace), recorded,
    )
    print(json.dumps({
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "seed": args.seed,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
        },
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
