"""End-to-end checks of the harness on shrunken workloads."""

import itertools

import pytest

import run
import scenarios


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so a run takes seconds."""
    monkeypatch.setitem(scenarios.MIGRATE_IO, "clients", 4)
    monkeypatch.setitem(scenarios.MIGRATE_IO, "operations", 3)
    for key, value in (
        ("machines", 16),
        ("pingers_per_server", 1),
        ("ping_rounds", 2),
        ("compute_rate_per_ms", 0.1),
        ("server_moves", 4),
        ("duration", 700_000),
    ):
        monkeypatch.setitem(scenarios.TORUS256, key, value)
    return scenarios


def test_tampered_fingerprint_fails_the_run(small):
    truth = small.migrate_io(0)().fingerprint
    good = run.run(small, "migrate_io", 0, 0, False, truth)
    assert good["correct"] and good["failed"] == 0

    tampered = dict(truth, messages_delivered=truth["messages_delivered"] + 1)
    bad = run.run(small, "migrate_io", 0, 0, False, tampered)
    assert not bad["correct"]
    # every execution of the run mismatched: one failed op each
    assert bad["failed"] >= 2


def test_unrecorded_seed_checks_runs_agree(small):
    result = run.run(small, "migrate_io", 7, 0, False, None)
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "setup_s", "run_s", "msgs_per_s", "peak_rss_mb",
    }


def test_fork_fingerprint_matches_serial_reference(small):
    serial = small.torus256(0, shards=1, executor="serial")()
    forked = small.torus256(0, shards=2, executor="fork")()
    assert forked.fingerprint == serial.fingerprint
    assert forked.failed == serial.failed == 0


def test_traced_run_keeps_the_fingerprint(small):
    result = run.run(small, "torus256_x2", 0, 0, True, None)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sync.rounds"] > 0
    assert metrics["sync.s0.busy_s"] > 0 and metrics["sync.s1.wait_s"] > 0
    assert metrics["trace.overhead_x"] > 0
    assert metrics["sim.loop.self_s"] >= 0


def test_slicing_leaves_the_simulation_unchanged(small, monkeypatch):
    monkeypatch.setattr(small, "SLICE_EVENTS", 500)
    for build in (small.mesh64, small.migrate_io):
        laps = []
        sliced = build(3)(lambda: laps.append(None))
        assert laps, "a classic-engine execution is cut into slices"
        assert sliced.fingerprint == build(3)().fingerprint


def test_slices_scale_by_the_passes_beside_them(monkeypatch):
    passes = iter([0.005, 0.015, 0.005])
    monkeypatch.setattr(run, "reference", lambda: next(passes))
    clock = itertools.chain([0.0, 1.0, 1.0, 3.0], itertools.repeat(3.0))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))

    def execute(lap):
        lap()
        return "outcome"

    # slice 1: 1 s beside passes of 5 and 15 ms; slice 2: 2 s beside
    # 15 and 5 ms. Each counts half its seconds on the 5 ms host.
    scaled, raw, outcome = run._scaled_execute(execute)
    assert scaled == pytest.approx(1.5)
    assert (raw, outcome) == (3.0, "outcome")


def test_one_slice_is_not_scaled(monkeypatch):
    monkeypatch.setattr(run, "reference", lambda: 0.5)
    scaled, raw, _ = run._scaled_execute(lambda lap: None)
    assert scaled == raw
