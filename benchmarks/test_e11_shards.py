"""E11 — Sharded parallel execution: determinism parity and speedup.

The sharded engine (``repro.sim.shard``) splits the cluster across
worker processes synchronised at pairwise rendezvous.  Its whole
value rests on one claim: **the shard count is invisible in the
simulation's results**.  This benchmark runs the cluster-scale protocol
scenario twice — ``shards=1`` on the serial reference executor and
``shards=N`` on the fork executor — and asserts every gated counter is
byte-identical, then reports the wall-clock speedup (meta only, not
gated: wall time depends on the host).

The scenario mirrors ``test_e11_cluster_scale`` with the two engine-
mandated substitutions that keep it shard-layout independent *and*
fork-safe: the global threshold balancer becomes one
:class:`~repro.policy.load_balancer.DomainLoadBalancer` per torus row
(rows never straddle shards), and forced server moves are machine-
anchored ``schedule_migration`` calls within the victim's row (live
process generators cannot cross a fork boundary).

Wires are 1 ms here (vs 100 us in the classic scenario): the minimum
wire latency is the conservative lookahead, and a 10x bigger window
amortises each rendezvous over ~10x more events — the knob that makes
parallelism pay.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from conftest import print_table, write_bench_artifact

from repro.core.config import SystemConfig, near_square_factor
from repro.policy.load_balancer import DomainLoadBalancer
from repro.sim.shard import ShardedSystem
from repro.workloads.compute import compute_bound
from repro.workloads.generators import poisson_plan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


@dataclass(frozen=True)
class ShardBenchParams:
    """One sharded cluster scenario size."""

    name: str
    machines: int  #: torus node count
    shards: int  #: parallel worker count for the sharded run
    pingers_per_server: int
    ping_rounds: int
    compute_rate_per_ms: float
    compute_window: int
    compute_work: int
    server_moves: int
    duration: int
    latency: int = 1_000  #: wire latency == conservative lookahead
    topology: str = "torus"  #: SystemConfig topology shape
    #: slow-tier wire latency (torus verticals + column wraps); the
    #: gap between this and `latency` is what the pair cadence harvests
    backbone_latency: int | None = None


FULL = ShardBenchParams(
    name="e11_shards",
    machines=256,  # 16x16 torus, 4 rows of 16 per shard
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
)

#: the classic e11 full-cluster shape — 64 machines, every pair one
#: hop — sharded.  A mesh partitions freely (alignment 1), so the
#: contiguous 16-machine shard ranges keep the 8-wide balancer domains
#: whole; parity here proves the engine on a dense topology too.
MESH = ShardBenchParams(
    name="e11_shards_mesh",
    machines=64,
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_200_000,
    topology="mesh",
)

#: CI `shard-smoke`: tiny torus, 2 shards, same parity gate
SMOKE = ShardBenchParams(
    name="e11_shards_smoke",
    machines=8,  # 2x4 torus, one row per shard
    shards=2,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=200_000,
    compute_work=40_000,
    server_moves=4,
    duration=700_000,
)

#: the FULL scenario on a two-tier torus: local wires 1 ms, inter-row
#: backbone 4 ms, so each shard pair's exchange cadence is 4 grid
#: windows and only the 4 wire-connected pairs of the row-band ring
#: rendezvous at all (vs 6 all-pairs).
ELIDE = ShardBenchParams(
    name="e11_shards_elide",
    machines=256,
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
    backbone_latency=4_000,
)

#: the dense uniform-latency mesh: every shard pair is wire-connected
#: and the pair period degenerates to the window grid, so there is
#: little to elide — this arm proves the schedule is *still*
#: byte-identical across shard counts when the cadence buys nothing.
MESH_ELIDE = ShardBenchParams(
    name="e11_shards_mesh_elide",
    machines=64,
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_200_000,
    topology="mesh",
)

#: CI `cadence-smoke`: 4x4 two-tier torus, one row per shard, same
#: gates as the full two-tier arm at 1/16th the size
ELIDE_SMOKE = ShardBenchParams(
    name="e11_shards_elide_smoke",
    machines=16,
    shards=4,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=200_000,
    compute_work=40_000,
    server_moves=4,
    duration=700_000,
    backbone_latency=4_000,
)

#: run-ahead headline: the ELIDE scenario swept across shards
#: {1, 2, 4, 8} — the wall-clock curve of the dynamic rendezvous
#: schedule
RUNAHEAD = ShardBenchParams(
    name="e11_shards_runahead",
    machines=256,
    shards=8,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
    backbone_latency=4_000,
)

#: CI `runahead-smoke`: the two-tier smoke shape swept across
#: shards {1, 2, 4}, same parity and rounds gates
RUNAHEAD_SMOKE = ShardBenchParams(
    name="e11_shards_runahead_smoke",
    machines=16,
    shards=4,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=200_000,
    compute_work=40_000,
    server_moves=4,
    duration=700_000,
    backbone_latency=4_000,
)

#: the ROADMAP's 1,024-machine step, sharded: 32x32 torus, 8 rows/shard
XSPARSE = ShardBenchParams(
    name="e11_shards_xsparse",
    machines=1024,
    shards=4,
    pingers_per_server=1,
    ping_rounds=8,
    compute_rate_per_ms=0.5,
    compute_window=400_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
)


def run_sharded_cluster(p: ShardBenchParams, shards: int, executor: str):
    """Build the scenario, execute it, and return merged counters."""
    system = ShardedSystem(SystemConfig(
        machines=p.machines,
        topology=p.topology,
        latency=p.latency,
        shards=shards,
        backbone_latency=p.backbone_latency,
        trace_categories=(),  # tracing off: measure the bare hot path
        metrics_enabled=False,  # plain integer counters only
    ))
    cols = p.machines // near_square_factor(p.machines)
    boards = [ResultsBoard() for _ in system.shards]
    balancers_by_shard: list[list[DomainLoadBalancer]] = [
        [] for _ in system.shards
    ]

    # One echo server per machine, one service name per machine.
    server_pids = {}
    for m in range(p.machines):
        server_pids[m] = system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=f"echo-{m}",
        )

    # Pingers spread around the machines, staggered, each posting to
    # its *client* machine's shard board (pingers only ever migrate
    # within their row, so the board stays shard-local).
    for m in range(p.machines):
        for k in range(p.pingers_per_server):
            client = (m + 1 + 7 * k) % p.machines
            board = boards[system.plan.shard_of(client)]
            system.schedule_spawn(
                30_000 + 500 * (m * p.pingers_per_server + k),
                client,
                lambda ctx, _m=m, _b=board: pinger(
                    ctx, service_name=f"echo-{_m}", rounds=p.ping_rounds,
                    payload_bytes=32, gap=1_000, board=_b, key="ping",
                ),
                name="pinger",
            )

    # Skewed compute arrivals: machines 0-3 (all in torus row 0) catch
    # everything and row 0's balancer has to spread it.
    hot = {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
    hot_board = boards[system.plan.shard_of(0)]
    plan = poisson_plan(
        system,
        lambda ctx: compute_bound(
            ctx, total=p.compute_work, board=hot_board,
        ),
        rate_per_ms=p.compute_rate_per_ms,
        duration=p.compute_window,
        machine_weights=hot,
    )
    for arrival in plan:
        system.schedule_spawn(
            arrival.at, arrival.machine, arrival.program,
            name=arrival.name,
        )

    # One domain balancer per torus row; rows never straddle shards.
    for row in range(p.machines // cols):
        row_machines = list(range(row * cols, (row + 1) * cols))
        view = system.domain_view(row_machines)
        balancer = DomainLoadBalancer(
            view, domain=f"row{row}", interval=20_000, threshold=3,
            sustain=2, cooldown=100_000,
        )
        balancer.install()
        balancers_by_shard[system.plan.shard_of(row_machines[0])].append(
            balancer,
        )
        system.call_at(p.duration, row_machines[0], balancer.stop)

    # Forced churn, fork-safe: each victim server moves half a row over,
    # anchored at its home machine (skipped if a balancer got there
    # first — a per-machine decision, identical for every shard count).
    for j in range(p.server_moves):
        victim = (2 * j) % p.machines
        row_start = (victim // cols) * cols
        dest = row_start + (victim - row_start + cols // 2) % cols
        system.schedule_migration(
            80_000 + 15_000 * j, server_pids[victim], victim, dest,
        )

    def collect(shard):
        kstats = [shard.kernels[m].stats for m in shard.machines]
        net = shard.network.stats
        board = boards[shard.index]
        records = [
            record
            for m in shard.machines
            for record in shard.kernels[m].migration.completed
        ]
        return {
            "processes_spawned": sum(
                s.processes_spawned for s in kstats
            ),
            "compute_done": len(board.get("compute")),
            "pingers_done": len(board.get("ping-summary")),
            "migrations_completed": len(records),
            "migrations_ok": sum(1 for r in records if r.success),
            "balancer_migrations": sum(
                b.stats.migrations_succeeded
                for b in balancers_by_shard[shard.index]
            ),
            "forwards": sum(s.messages_forwarded for s in kstats),
            "link_updates_sent": sum(
                s.link_updates_sent for s in kstats
            ),
            "link_updates_applied": sum(
                s.link_updates_applied for s in kstats
            ),
            "links_retargeted": sum(s.links_retargeted for s in kstats),
            "messages_delivered": sum(
                s.messages_delivered for s in kstats
            ),
            "admin_payload_bytes": net.payload_bytes_by_category["admin"],
            "datamove_payload_bytes": (
                net.payload_bytes_by_category["datamove"]
                + net.payload_bytes_by_category["dma"]
            ),
            "packets_sent": net.packets_sent,
            "wire_bytes_sent": net.bytes_sent,
            "events_fired": shard.loop.events_fired,
            "sync_stats": shard.network.sync.as_dict(),
        }

    started = time.perf_counter()
    per_shard = system.execute(p.duration, collect, executor=executor)
    wall = time.perf_counter() - started

    merged = {
        key: sum(part[key] for part in per_shard)
        for key in per_shard[0]
        if key != "sync_stats"
    }
    merged["compute_jobs"] = len(plan)
    events = merged.pop("events_fired")
    sync = {
        key: sum(part["sync_stats"][key] for part in per_shard)
        for key in per_shard[0]["sync_stats"]
    }
    return merged, sync, events, wall


def _sharded_arms(p: ShardBenchParams, shard_counts):
    """Run *p* at every shard count (shards=1 serial, the rest forked)
    and gate each arm against the shards=1 reference bit for bit."""
    arms = {}
    for n in shard_counts:
        executor = "serial" if n == 1 else "fork"
        arms[n] = run_sharded_cluster(p, n, executor)
    reference, _, ref_events, _ = arms[min(shard_counts)]
    for n, (merged, _, events, _) in arms.items():
        assert merged == reference, (
            f"shards={n} diverged from the shards=1 reference: "
            + str({
                key: (reference[key], merged[key])
                for key in reference
                if reference[key] != merged.get(key)
            })
        )
        assert events == ref_events, (n, events, ref_events)
    return arms


def _parity_and_report(p: ShardBenchParams) -> None:
    # THE gate: the shard count must be invisible in every counter.
    arms = _sharded_arms(p, (1, p.shards))
    reference, _, ref_events, ref_wall = arms[1]
    _, _, sh_events, sh_wall = arms[p.shards]

    # Wall clock is meta only: speedup needs actual cores.  On a
    # single-core host the workers time-slice and the ratio reads as
    # pure barrier overhead (~0.9x); on >= `shards` cores the same
    # scenario measures real parallelism.
    speedup = ref_wall / max(sh_wall, 1e-9)
    events_per_sec = sh_events / max(sh_wall, 1e-9)
    print_table(
        f"E11: sharded execution parity ({p.machines} machines, "
        f"{p.shards} shards)",
        ["metric", "value"],
        [[key, value] for key, value in sorted(reference.items())]
        + [
            ["events_fired (not gated)", ref_events],
            ["serial wall s (not gated)", f"{ref_wall:.2f}"],
            [f"fork x{p.shards} wall s (not gated)", f"{sh_wall:.2f}"],
            ["speedup (not gated)", f"{speedup:.2f}x"],
            ["events/sec sharded (not gated)", f"{events_per_sec:,.0f}"],
        ],
        notes="all counters byte-identical between shards=1 and "
              f"shards={p.shards}; wall clock reported only",
    )
    write_bench_artifact(
        p.name,
        reference,
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "shards": p.shards,
            "lookahead_us": p.latency,
            "events_fired": ref_events,
            "serial_wall_seconds": round(ref_wall, 3),
            "sharded_wall_seconds": round(sh_wall, 3),
            "speedup": round(speedup, 2),
            "events_per_sec": round(events_per_sec),
            "cpu_count": os.cpu_count(),
            "paper": "per-processor kernels make the machine the unit "
                     "of distribution; conservative windows keep the "
                     "simulation bit-exact across workers",
        },
    )
    # Sanity floor, same spirit as the classic e11 checks.
    assert reference["pingers_done"] == p.machines * p.pingers_per_server
    assert reference["compute_done"] == reference["compute_jobs"]
    assert reference["migrations_ok"] >= 1
    assert reference["balancer_migrations"] >= 1
    assert reference["forwards"] >= 1
    assert reference["link_updates_applied"] >= 1


def _elide_and_report(p: ShardBenchParams) -> None:
    """Pair-cadence gates: parity across shard counts, plus the sync
    overhead of the rendezvous schedule, pinned exactly."""
    shard_counts = sorted({1, 2, p.shards})
    arms = _sharded_arms(p, shard_counts)
    reference, _, ref_events, ref_wall = arms[1]
    _, sync, _, wall = arms[p.shards]
    if p.backbone_latency is not None:
        # On a two-tier topology the schedule must actually skip grid
        # windows between rendezvous.
        assert sync["windows_elided"] > 0

    print_table(
        f"E11: barrier elision ({p.machines} machines, "
        f"{p.shards} shards, backbone "
        f"{p.backbone_latency or p.latency}us)",
        ["metric", "value"],
        [[key, value] for key, value in sync.items()]
        + [
            ["events_fired (gated)", ref_events],
            [f"fork x{p.shards} wall s (not gated)", f"{wall:.2f}"],
        ],
        notes=f"all counters byte-identical across shards "
              f"{shard_counts}; sync overhead gated exactly",
    )
    write_bench_artifact(
        p.name,
        {
            **reference,
            **{f"elided_sync_{k}": v for k, v in sync.items()},
        },
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "shards": p.shards,
            "shard_counts_gated": shard_counts,
            "lookahead_us": p.latency,
            "backbone_latency_us": p.backbone_latency,
            "events_fired": ref_events,
            "serial_wall_seconds": round(ref_wall, 3),
            "elided_fork_wall_seconds": round(wall, 3),
            "cpu_count": os.cpu_count(),
            "paper": "records carry their grid window, so shard pairs "
                     "can exchange at their wire latency's cadence "
                     "instead of every window — fewer, fatter "
                     "rendezvous with bit-identical results",
        },
    )
    assert reference["pingers_done"] == p.machines * p.pingers_per_server
    assert reference["compute_done"] == reference["compute_jobs"]


def _runahead_and_report(
    p: ShardBenchParams,
    shard_counts: tuple[int, ...],
    speedup_floor: float | None,
) -> None:
    """Run-ahead gates: every shard count lands on the shards=1
    reference bit for bit, rounds and bytes are pinned exactly, and —
    when the host has the cores — the wall-clock curve bends down."""
    arms = _sharded_arms(p, shard_counts)
    reference, _, ref_events, _ = arms[1]
    walls = {n: arm[3] for n, arm in arms.items()}
    syncs = {n: arm[1] for n, arm in arms.items()}
    top = max(shard_counts)
    assert syncs[top]["windows_elided"] > 0

    cores = os.cpu_count() or 1
    speedups = {
        n: walls[1] / max(walls[n], 1e-9)
        for n in shard_counts
        if n > 1
    }
    if speedup_floor is not None and cores >= 4 and 4 in speedups:
        assert speedups[4] >= speedup_floor, (
            f"shards=4 speedup {speedups[4]:.2f}x on a {cores}-core "
            f"host, floor {speedup_floor}x"
        )

    print_table(
        f"E11: run-ahead execution ({p.machines} machines, shards "
        f"{list(shard_counts)}, backbone {p.backbone_latency}us)",
        ["metric", "value"],
        [
            [f"sync rounds x{n} (gated)", syncs[n]["rounds"]]
            for n in shard_counts if n > 1
        ]
        + [["events_fired (gated)", ref_events]]
        + [
            [f"wall s x{n} (not gated)", f"{walls[n]:.2f}"]
            for n in shard_counts
        ]
        + [
            [f"speedup x{n} (not gated)", f"{s:.2f}x"]
            for n, s in speedups.items()
        ],
        notes=f"all counters byte-identical across shards "
              f"{list(shard_counts)}; "
              f"wall clock honest for cpu_count={cores}",
    )
    write_bench_artifact(
        p.name,
        {
            **reference,
            **{
                f"runahead_sync_rounds_x{n}": syncs[n]["rounds"]
                for n in shard_counts if n > 1
            },
            **{
                f"runahead_sync_bytes_x{n}": syncs[n]["bytes_sent"]
                for n in shard_counts if n > 1
            },
            f"runahead_windows_elided_x{top}":
                syncs[top]["windows_elided"],
        },
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "shard_counts_gated": list(shard_counts),
            "lookahead_us": p.latency,
            "backbone_latency_us": p.backbone_latency,
            "events_fired": ref_events,
            "cpu_count": cores,
            **{
                f"wall_seconds_x{n}": round(walls[n], 3)
                for n in shard_counts
            },
            **{
                f"speedup_x{n}": round(s, 2)
                for n, s in speedups.items()
            },
            "paper": "between rendezvous each shard owns a provably "
                     "safe local time range and runs it without "
                     "synchronising; meetings happen only when the "
                     "pair can actually exchange traffic",
        },
    )
    assert reference["pingers_done"] == p.machines * p.pingers_per_server
    assert reference["compute_done"] == reference["compute_jobs"]


def test_e11_shards(bench_once):
    bench_once(_parity_and_report, FULL)


def test_e11_shards_mesh(bench_once):
    bench_once(_parity_and_report, MESH)


def test_e11_shards_smoke(bench_once):
    bench_once(_parity_and_report, SMOKE)


def test_e11_shards_xsparse(bench_once):
    bench_once(_parity_and_report, XSPARSE)


def test_e11_shards_elide(bench_once):
    bench_once(_elide_and_report, ELIDE)


def test_e11_shards_mesh_elide(bench_once):
    bench_once(_elide_and_report, MESH_ELIDE)


def test_e11_shards_elide_smoke(bench_once):
    bench_once(_elide_and_report, ELIDE_SMOKE)


def test_e11_shards_runahead(bench_once):
    bench_once(_runahead_and_report, RUNAHEAD, (1, 2, 4, 8), 1.5)


def test_e11_shards_runahead_smoke(bench_once):
    bench_once(_runahead_and_report, RUNAHEAD_SMOKE, (1, 2, 4), None)
