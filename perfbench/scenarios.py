"""The benchmark's workloads, built through the simulator's public API.

Each workload function takes the seed, builds and fully installs one
scenario (system built, processes spawned, arrivals and migrations
scheduled) and returns an ``execute`` callable.  Calling it runs the
scenario to quiescence and returns an :class:`Outcome`.  The split is
what the harness times: building is ``setup_s``, executing is ``run_s``.
``execute`` takes an optional ``lap`` callable, called between fixed
slices of the run on the classic engine so the harness can time each
slice; slicing leaves the simulation itself unchanged.

The scenarios are defined here, not imported from ``benchmarks/``, so
edits to the experiment tests cannot change a workload.  Why each
workload exists is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import System, SystemConfig
from repro.core.config import near_square_factor
from repro.kernel.memory import MemoryImage
from repro.policy.load_balancer import (
    DEFAULT_EXCLUDE,
    DomainLoadBalancer,
    ThresholdLoadBalancer,
)
from repro.sim.shard import ShardedSystem
from repro.workloads.compute import compute_bound
from repro.workloads.file_clients import file_io_client
from repro.workloads.generators import ArrivalGenerator, poisson_plan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

#: echo servers share one process name so balancers can leave them to
#: the forced moves (a balancer-moved server would make a forced move a
#: no-op, i.e. a failed operation)
ECHO_NAME = "echo"
BALANCER_EXCLUDE = DEFAULT_EXCLUDE | {ECHO_NAME}


@dataclass
class Outcome:
    """What one execution produced."""

    #: simulation-protocol counters only; compared against the recorded
    #: value at the default seed and across runs of any seed
    fingerprint: dict[str, int]
    attempted: int
    failed: int
    #: events the loops fired (not in the fingerprint: it may move)
    events: int
    #: per-shard ``SyncStats`` counters (empty for the classic engine)
    sync: list[dict[str, int]] = field(default_factory=list)
    #: per-shard span totals returned by traced fork workers
    worker_traces: list[dict[str, Any]] = field(default_factory=list)


def _fingerprint(
    kernels,
    networks,
    migrations_ok: int,
    clients_done: int,
    jobs_done: int,
    file_io_errors: int = 0,
) -> dict[str, int]:
    stats = [k.stats for k in kernels]
    nets = [n.stats for n in networks]
    return {
        "messages_delivered": sum(s.messages_delivered for s in stats),
        "forwards": sum(s.messages_forwarded for s in stats),
        "link_updates_applied": sum(s.link_updates_applied for s in stats),
        "packets_sent": sum(n.packets_sent for n in nets),
        "wire_bytes": sum(n.bytes_sent for n in nets),
        "migrations_ok": migrations_ok,
        "clients_done": clients_done,
        "jobs_done": jobs_done,
        "file_io_errors": file_io_errors,
    }


#: events per timed slice of a classic-engine run to quiescence
SLICE_EVENTS = 10_000
#: simulated microseconds per timed slice of a run to a deadline
SLICE_US = 25_000


def _no_lap() -> None:
    pass


def _run(system: System, lap: Callable[[], None], until: int | None = None):
    """``system.run(until)`` in slices, calling *lap* after each one.

    The slices end at fixed event counts or simulated times, so an
    execution of a given seed always has the same slices."""
    if until is None:
        while system.run(max_events=SLICE_EVENTS) == SLICE_EVENTS:
            lap()
        return
    now = system.loop.now
    while now < until:
        now = min(now + SLICE_US, until)
        system.run(until=now)
        lap()


#: selects the run-ahead sharded schedule while ``SystemConfig`` still
#: has the switch; once the classic schedule is gone, run-ahead is the
#: only one and there is nothing to select
RUN_AHEAD = (
    {"barrier_elision": True}
    if "barrier_elision" in {f.name for f in dataclasses.fields(SystemConfig)}
    else {}
)


# ----------------------------------------------------------------------
# mesh64: the e11 cluster shape on the classic single-loop engine
# ----------------------------------------------------------------------

MESH64 = {
    "machines": 64,
    "pingers_per_server": 6,
    "ping_rounds": 40,
    "compute_rate_per_ms": 1.0,
    "compute_window": 600_000,
    "compute_work": 40_000,
    "server_moves": 32,
    "duration": 1_200_000,
}


def mesh64(seed: int) -> Callable[..., Outcome]:
    p = MESH64
    n = p["machines"]
    rng = random.Random(seed)
    board = ResultsBoard()
    system = System(SystemConfig(
        machines=n,
        seed=seed,
        trace_categories=(),
        metrics_enabled=False,
    ))
    servers = {
        m: system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=ECHO_NAME,
        )
        for m in range(n)
    }
    pingers = 0
    for m in range(n):
        for k in range(p["pingers_per_server"]):
            program = (
                lambda ctx, _m=m: pinger(
                    ctx, service_name=f"echo-{_m}",
                    rounds=p["ping_rounds"], payload_bytes=32, gap=1_000,
                    board=board, key="ping",
                )
            )
            system.loop.call_at(
                30_000 + 500 * pingers,
                lambda _p=program, _c=(m + 1 + 7 * k) % n: system.spawn(
                    _p, machine=_c, name="pinger",
                ),
            )
            pingers += 1

    hot = rng.sample(range(n), 4)
    plan = poisson_plan(
        system,
        lambda ctx: compute_bound(ctx, total=p["compute_work"], board=board),
        rate_per_ms=p["compute_rate_per_ms"],
        duration=p["compute_window"],
        machine_weights=dict(zip(hot, (0.4, 0.3, 0.2, 0.1))),
    )
    ArrivalGenerator(system, plan).install()
    balancer = ThresholdLoadBalancer(
        system, interval=20_000, threshold=3, sustain=2, cooldown=100_000,
        exclude_names=BALANCER_EXCLUDE,
    )
    balancer.install()

    tickets = []
    for j, victim in enumerate(rng.sample(range(n), p["server_moves"])):
        system.loop.call_at(
            80_000 + 15_000 * j,
            lambda _pid=servers[victim], _dest=(victim + n // 2) % n: (
                tickets.append(system.migrate(_pid, _dest))
            ),
        )

    def execute(lap: Callable[[], None] = _no_lap) -> Outcome:
        _run(system, lap, until=p["duration"])
        balancer.stop()
        _run(system, lap)
        moved = sum(1 for t in tickets if t.done and t.success)
        clients = len(board.get("ping-summary"))
        jobs = len(board.get("compute"))
        return Outcome(
            fingerprint=_fingerprint(
                system.kernels,
                [system.network],
                migrations_ok=sum(
                    1 for r in system.migration_records() if r.success
                ),
                clients_done=clients,
                jobs_done=jobs,
            ),
            attempted=pingers + len(plan) + p["server_moves"],
            failed=(pingers - clients) + (len(plan) - jobs)
            + (p["server_moves"] - moved),
            events=system.loop.events_fired,
        )

    return execute


# ----------------------------------------------------------------------
# torus256_x2: the sharded engine on a two-tier 16x16 torus
# ----------------------------------------------------------------------

TORUS256 = {
    "machines": 256,
    "pingers_per_server": 4,
    "ping_rounds": 12,
    "compute_rate_per_ms": 1.0,
    "compute_window": 600_000,
    "compute_work": 40_000,
    "server_moves": 32,
    "duration": 1_500_000,
}


def torus256(
    seed: int,
    shards: int = 2,
    executor: str = "fork",
    worker_trace: Callable[[], dict[str, Any]] | None = None,
) -> Callable[..., Outcome]:
    """*worker_trace*, when given, is called inside each shard's worker
    after quiescence and its result returned in ``worker_traces``."""
    p = TORUS256
    n = p["machines"]
    rng = random.Random(seed)
    system = ShardedSystem(SystemConfig(
        machines=n,
        topology="torus",
        latency=1_000,
        backbone_latency=4_000,
        shards=shards,
        seed=seed,
        trace_categories=(),
        metrics_enabled=False,
        **RUN_AHEAD,
    ))
    cols = n // near_square_factor(n)
    boards = [ResultsBoard() for _ in system.shards]

    servers = {
        m: system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=ECHO_NAME,
        )
        for m in range(n)
    }
    # Each pinger posts to its client machine's shard board; pingers
    # only ever move within their row, so boards stay shard-local.
    pingers = 0
    for m in range(n):
        for k in range(p["pingers_per_server"]):
            client = (m + 1 + 7 * k) % n
            system.schedule_spawn(
                30_000 + 500 * pingers,
                client,
                lambda ctx, _m=m, _b=boards[system.plan.shard_of(client)]: (
                    pinger(
                        ctx, service_name=f"echo-{_m}",
                        rounds=p["ping_rounds"], payload_bytes=32,
                        gap=1_000, board=_b, key="ping",
                    )
                ),
                name="pinger",
            )
            pingers += 1

    # Skewed compute load on four machines of one row: that row's
    # balancer has to spread it.
    hot_row = rng.randrange(n // cols)
    hot = [hot_row * cols + c for c in rng.sample(range(cols), 4)]
    hot_board = boards[system.plan.shard_of(hot[0])]
    plan = poisson_plan(
        system,
        lambda ctx: compute_bound(
            ctx, total=p["compute_work"], board=hot_board,
        ),
        rate_per_ms=p["compute_rate_per_ms"],
        duration=p["compute_window"],
        machine_weights=dict(zip(hot, (0.4, 0.3, 0.2, 0.1))),
    )
    for arrival in plan:
        system.schedule_spawn(
            arrival.at, arrival.machine, arrival.program, name=arrival.name,
        )

    # One balancer per torus row; rows never straddle shards.
    for row in range(n // cols):
        machines = list(range(row * cols, (row + 1) * cols))
        balancer = DomainLoadBalancer(
            system.domain_view(machines), domain=f"row{row}",
            interval=20_000, threshold=3, sustain=2, cooldown=100_000,
            exclude_names=BALANCER_EXCLUDE,
        )
        balancer.install()
        system.call_at(p["duration"], machines[0], balancer.stop)

    # Forced moves half a row over, anchored at the victim's machine so
    # they run inside the owning fork worker.
    for j, victim in enumerate(rng.sample(range(n), p["server_moves"])):
        row_start = (victim // cols) * cols
        board = boards[system.plan.shard_of(victim)]
        system.schedule_migration(
            80_000 + 15_000 * j,
            servers[victim],
            victim,
            row_start + (victim - row_start + cols // 2) % cols,
            on_done=lambda ok, _record, _b=board: _b.post("move", ok),
        )

    def collect(shard) -> dict[str, Any]:
        board = boards[shard.index]
        kernels = [shard.kernels[m] for m in shard.machines]
        return {
            "fingerprint": _fingerprint(
                kernels,
                [shard.network],
                migrations_ok=sum(
                    1
                    for k in kernels
                    for r in k.migration.completed
                    if r.success
                ),
                clients_done=len(board.get("ping-summary")),
                jobs_done=len(board.get("compute")),
            ),
            "moved": sum(1 for ok in board.get("move") if ok),
            "events": shard.loop.events_fired,
            "sync": shard.network.sync.as_dict(),
            "trace": worker_trace() if worker_trace else None,
        }

    def execute(lap: Callable[[], None] = _no_lap) -> Outcome:
        # one slice: the forked workers run the whole execution
        parts = system.execute(p["duration"], collect, executor=executor)
        fingerprint = {
            key: sum(part["fingerprint"][key] for part in parts)
            for key in parts[0]["fingerprint"]
        }
        moved = sum(part["moved"] for part in parts)
        clients = fingerprint["clients_done"]
        jobs = fingerprint["jobs_done"]
        return Outcome(
            fingerprint=fingerprint,
            attempted=pingers + len(plan) + p["server_moves"],
            failed=(pingers - clients) + (len(plan) - jobs)
            + (p["server_moves"] - moved),
            events=sum(part["events"] for part in parts),
            sync=[part["sync"] for part in parts] if shards > 1 else [],
            worker_traces=[
                part["trace"] for part in parts if part["trace"] is not None
            ],
        )

    return execute


# ----------------------------------------------------------------------
# migrate_io: file-I/O clients chased by closed-loop migrations
# ----------------------------------------------------------------------

MIGRATE_IO = {
    "machines": 16,
    "clients": 40,
    "operations": 12,
    "write_size": 600,
    "io_gap": 500,
    "move_gap": 50_000,
    #: code + data + stack of each client's image: 32 KB in all
    "image": (16_384, 12_288, 4_096),
}


def migrate_io(seed: int) -> Callable[..., Outcome]:
    p = MIGRATE_IO
    n = p["machines"]
    board = ResultsBoard()
    system = System(SystemConfig(
        machines=n,
        seed=seed,
        trace_categories=(),
        metrics_enabled=True,
    ))
    code, data, stack = p["image"]
    moves = {"requested": 0, "ok": 0, "refused": 0}

    def move(pid, rng: random.Random) -> None:
        """Request the client's next move; the next one is requested only
        after this one completes, so no request meets a moving process."""
        kernel = system.kernel_hosting(pid)
        if kernel is None:
            return  # the client finished its rounds and exited
        dest = rng.choice([m for m in range(n) if m != kernel.machine])
        moves["requested"] += 1

        def done(ok: bool, _record) -> None:
            moves["ok" if ok else "refused"] += 1
            system.loop.call_after(p["move_gap"], move, pid, rng)

        if not system.migrate(pid, dest, on_done=done).initiated:
            moves["refused"] += 1

    def start(client: int) -> None:
        pid = system.spawn(
            lambda ctx: file_io_client(
                ctx, tag=client, operations=p["operations"],
                write_size=p["write_size"], gap=p["io_gap"], board=board,
            ),
            machine=2 + client % (n - 2),
            name="file-io",
            memory=MemoryImage.sized(code=code, data=data, stack=stack),
        )
        rng = random.Random(seed * 1_000_003 + client)
        system.loop.call_after(
            rng.randrange(p["move_gap"]), move, pid, rng,
        )

    for client in range(p["clients"]):
        system.loop.call_at(20_000 + 3_000 * client, start, client)

    def execute(lap: Callable[[], None] = _no_lap) -> Outcome:
        _run(system, lap)
        summaries = board.get("file-io")
        rounds_done = sum(s["operations"] for s in summaries)
        errors = sum(len(s["errors"]) for s in summaries)
        rounds = p["clients"] * p["operations"]
        return Outcome(
            fingerprint=_fingerprint(
                system.kernels,
                [system.network],
                migrations_ok=moves["ok"],
                clients_done=len(summaries),
                jobs_done=rounds_done,
                file_io_errors=errors,
            ),
            attempted=rounds + moves["requested"],
            failed=(rounds - rounds_done) + moves["refused"] + errors,
            events=system.loop.events_fired,
        )

    return execute


WORKLOADS: dict[str, Callable[..., Callable[..., Outcome]]] = {
    "mesh64": mesh64,
    "torus256_x2": torus256,
    "migrate_io": migrate_io,
}
