"""Run-ahead rendezvous: keyed tie-breaks, pair cadence, sync stats.

The sharded engine's claim is the determinism gate: the gated counters
are identical across shard counts and executors, with ``shards=1`` on
the serial executor as the reference — the keyed event loop makes
injection timing invisible, so skipping rendezvous is unobservable in
the simulation.
"""

import pickle
import threading
from multiprocessing import Pipe

import pytest

from repro.core.config import SystemConfig
from repro.errors import ClockError, ConfigError, SimulationError
from repro.net.topology import Topology
from repro.sim.barrier import (
    CapturedPayload,
    HopRecord,
    ShardSchedule,
    SyncStats,
    merge_sorted_records,
    pack_blob,
    pack_record,
    run_in_process,
    run_over_pipes,
    sort_records,
    unpack_record,
)
from repro.net.network import ShardNetwork
from repro.sim.loop import EventLoop, KeyedEventLoop
from repro.sim.shard import ShardedSystem, ShardPlan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


# ---------------------------------------------------------------------------
# KeyedEventLoop units
# ---------------------------------------------------------------------------


class TestKeyedEventLoop:
    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError, match="grid"):
            KeyedEventLoop(0)

    def test_locals_keep_schedule_order_within_a_window(self):
        loop = KeyedEventLoop(10)
        fired = []
        loop.call_at(25, fired.append, "a")
        loop.call_after(25, fired.append, "b")
        loop.call_at(25, fired.append, "c")
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_records_slot_between_window_locals(self):
        """The canonical slot: window-g locals, then window-g records,
        then window-g+1 locals — regardless of injection order."""
        loop = KeyedEventLoop(10)
        fired = []
        # Window-1 record injected *before* anything else exists.
        loop.schedule_record(
            HopRecord(25, 0, 1, 1, None, gen=1), fired.append, "rec-g1"
        )
        loop.schedule_record(
            HopRecord(25, 0, 1, 2, None, gen=0), fired.append, "rec-g0-b"
        )
        loop.schedule_record(
            HopRecord(25, 0, 1, 1, None, gen=0), fired.append, "rec-g0-a"
        )
        loop.call_at(25, fired.append, "local-g0")  # now=0 -> window 0
        # Advance the clock into window 1, then schedule another local.
        loop.call_at(12, loop.call_at, 25, fired.append, "local-g1")
        loop.run()
        assert fired == [
            "local-g0", "rec-g0-a", "rec-g0-b", "local-g1", "rec-g1",
        ]

    def test_record_order_is_injection_order_free(self):
        loop_a = KeyedEventLoop(10)
        loop_b = KeyedEventLoop(10)
        records = [
            HopRecord(40, src, dst, seq, None, gen=2)
            for src, dst, seq in [(3, 1, 1), (0, 1, 5), (0, 1, 2)]
        ]
        fired_a, fired_b = [], []
        for r in records:
            loop_a.schedule_record(r, fired_a.append, r)
        for r in reversed(records):
            loop_b.schedule_record(r, fired_b.append, r)
        loop_a.run()
        loop_b.run()
        assert fired_a == fired_b == sort_records(records)

    def test_schedule_record_rejects_past_arrivals(self):
        loop = KeyedEventLoop(10)
        loop.call_at(50, lambda: None)
        loop.run()
        with pytest.raises(ClockError):
            loop.schedule_record(
                HopRecord(25, 0, 1, 1, None), lambda: None
            )


# ---------------------------------------------------------------------------
# Schedule / merge helpers
# ---------------------------------------------------------------------------


class TestMergeSortedRecords:
    def test_merge_equals_sorted_concatenation(self):
        a = sort_records([
            HopRecord(30, 0, 4, 1, None),
            HopRecord(10, 1, 4, 2, None),
            HopRecord(10, 1, 4, 1, None),
        ])
        b = sort_records([
            HopRecord(10, 2, 5, 1, None),
            HopRecord(20, 0, 5, 1, None),
        ])
        assert merge_sorted_records([a, b]) == sort_records(a + b)


class TestPackBlob:
    def test_roundtrip(self):
        record = HopRecord(10, 0, 1, 1, "payload", gen=3)
        assert pickle.loads(pack_blob([record])) == [record]


class TestRecordWireFormat:
    """The per-record blob: atom tokens, positional state, envelopes."""

    @staticmethod
    def _record(serial_burn=0):
        from repro.kernel.ids import ProcessAddress, ProcessId
        from repro.kernel.links import (
            DataArea,
            Link,
            LinkAttribute,
            LinkSnapshot,
        )
        from repro.kernel.messages import Message, MessageKind
        from repro.net.packet import Packet, PacketKind

        # Burn serials so two builds of the "same" record come from
        # visibly different counter states (the serial-executor case).
        for _ in range(serial_burn):
            Packet(0, 0, PacketKind.ACK, 0, None, 0)
        snap = LinkSnapshot(
            ProcessAddress(ProcessId(1, 7), 3),
            LinkAttribute.DATA_READ,
            DataArea(0, 64),
        )
        message = Message(
            dest=ProcessAddress(ProcessId(2, 9), 4),
            sender=ProcessAddress(ProcessId(0, 3), 0),
            kind=MessageKind.USER,
            op="req",
            payload={"n": 1},
            payload_bytes=16,
            links=(snap, LinkSnapshot.of(Link(snap.address))),
        )
        message.delivered_link_ids = (9, 10)  # receiver-local noise
        packet = Packet(0, 4, PacketKind.DATA, 5, message, 40)
        return HopRecord(12_000, 0, 4, 5, packet, gen=12)

    def test_roundtrip_restores_the_wire_fields(self):
        from repro.kernel.links import LinkAttribute
        from repro.net.packet import PacketKind

        blob = pack_record(self._record())
        back = unpack_record(blob)
        assert (back.arrival, back.src, back.dst, back.wire_seq) == (
            12_000, 0, 4, 5,
        )
        assert back.gen == 12
        packet = back.packet
        assert packet.kind is PacketKind.DATA
        message = packet.payload
        assert message.op == "req"
        assert message.links[0].attributes is LinkAttribute.DATA_READ
        assert message.dest.pid.local_id == 9
        assert hash(message.dest.pid) == hash(message.dest.pid)

    def test_receiver_local_state_is_minted_fresh(self):
        original = self._record()
        back = unpack_record(pack_record(original))
        # Serials are address-space diagnostics: re-minted, not copied.
        assert back.packet.serial != original.packet.serial
        assert back.packet.payload.serial != original.packet.payload.serial
        # Delivery marks belong to the receiver that made them.
        assert original.packet.payload.delivered_link_ids == (9, 10)
        assert back.packet.payload.delivered_link_ids == ()

    def test_blob_bytes_ignore_producer_counter_state(self):
        """The executor-exactness core: two object graphs that differ
        only in address-space-local counters pack to identical bytes."""
        assert pack_record(self._record()) == pack_record(
            self._record(serial_burn=17)
        )

    def test_unpicklable_payload_packs_as_capture_envelope(self):
        def live():
            yield

        generator = live()
        record = HopRecord(500, 1, 2, 3, generator, gen=0)
        surrogate = unpack_record(pack_record(record))
        captured = surrogate.packet
        assert isinstance(captured, CapturedPayload)
        assert captured.kind == "generator"
        assert captured.size_bytes == 0
        # The envelope's bytes are as deterministic as any other's.
        assert pack_record(record) == pack_record(record)


# ---------------------------------------------------------------------------
# Plan / config wiring
# ---------------------------------------------------------------------------


class TestPairPeriods:
    def test_backbone_pairs_get_coarse_periods(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000,
            backbone_latency=4_000, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.lookahead == 1_000
        assert plan.pair_periods == {(0, 1): 4_000}

    def test_uniform_latency_degenerates_to_the_window_grid(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.pair_periods == {(0, 1): 1_000}

    def test_wireless_pairs_are_absent(self):
        # 4x4 torus in 4 one-row shards: rows form a ring, so shards
        # 0-2 and 1-3 share no wire and must never rendezvous.
        config = SystemConfig(
            machines=16, topology="torus", latency=1_000, shards=4,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert set(plan.pair_periods) == {
            (0, 1), (1, 2), (2, 3), (0, 3),
        }

    def test_period_snaps_down_to_the_grid(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000,
            backbone_latency=2_500, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.pair_periods == {(0, 1): 2_000}


class TestConfigValidation:
    def test_backbone_needs_a_backbone_topology(self):
        with pytest.raises(ConfigError, match="backbone"):
            SystemConfig(
                machines=8, topology="mesh", backbone_latency=500,
            ).validate()

    def test_backbone_slower_than_local_wires(self):
        with pytest.raises(ConfigError, match="backbone_latency"):
            SystemConfig(
                machines=8, topology="torus", latency=1_000,
                backbone_latency=500,
            ).validate()

    def test_elision_needs_nonzero_latency(self):
        # The minimum wire latency is the grid record keys live on.
        with pytest.raises(ConfigError, match=r"latency >= 1"):
            SystemConfig(machines=4, latency=0, shards=2).validate()

    def test_elision_needs_a_keyed_loop(self):
        with pytest.raises(SimulationError, match="KeyedEventLoop"):
            ShardNetwork(
                EventLoop(), Topology.line(2, latency=100),
                shard_index=0, shard_of=lambda m: 0, machines=[0, 1],
            )


# ---------------------------------------------------------------------------
# Schedule error paths
# ---------------------------------------------------------------------------


class _StubPeer:
    """Just enough ShardPeer for exercising schedule error paths."""

    def __init__(self, outboxes=None):
        self._outboxes = outboxes or {}

    def now(self):
        return 7_000

    def next_event_time(self):
        return None

    def run_window(self, deadline):
        pass

    def drain_outboxes(self):
        out, self._outboxes = self._outboxes, {}
        return out

    def take_outbox(self, dest):
        return self._outboxes.pop(dest, [])


class TestScheduleErrors:
    def test_unknown_destination_shard_is_an_error(self):
        entry = (HopRecord(10, 0, 1, 1, None), b"")
        schedule = ShardSchedule(0, _StubPeer({5: [entry]}), 1_000, {}, 1)
        with pytest.raises(
            SimulationError, match=r"shard 0 .*unknown shards \[5\] at t=7000"
        ):
            run_in_process([schedule], None)

    def test_own_shard_records_loop_back_without_a_pipe(self):
        """A hop whose next stop is in the same shard is scheduled on
        the loop at once — it never waits in an outbox."""
        loop = KeyedEventLoop(100)
        network = ShardNetwork(
            loop, Topology.line(2, latency=100),
            shard_index=0, shard_of=lambda m: 0, machines=[0, 1],
        )
        got = []
        network.register_receiver(1, lambda src, payload: got.append(payload))
        network.send(0, 1, "hello", 5)
        assert network.take_outboxes() == {}
        loop.run()
        assert got == ["hello"]

    def test_desync_is_refused(self):
        """Partners that disagree on a meeting would hand frames to the
        wrong exchange; the in-process transport must refuse."""
        schedules = [
            ShardSchedule(s, _StubPeer(), 1_000, {(0, 1): period}, 2)
            for s, period in ((0, 1_000), (1, 2_000))
        ]
        with pytest.raises(SimulationError, match="desync"):
            run_in_process(schedules, 5_000)

    def test_dead_worker_is_diagnosed_not_hung(self):
        """A worker that dies mid-exchange (unpicklable cross-shard
        payload) must surface as SimulationError with exit codes, not
        deadlock its peers."""
        system = _build_pingpong(shards=2, backbone=None)
        # A payload closure over a generator cannot cross the pipe.
        gen = (x for x in range(3))
        system.schedule_spawn(
            40_000, 0,
            lambda ctx: _poison_sender(ctx, gen),
            name="poison",
        )
        with pytest.raises(SimulationError, match="died.*exit codes"):
            system.execute(
                300_000, lambda shard: None, executor="fork",
            )


def _poison_sender(ctx, payload):
    # Machine 0 is in shard 0; the "e7" server is on machine 7 in
    # shard 1 for the 8-machine 2-shard split, so this message must
    # cross the worker pipe — and a generator payload cannot pickle.
    from repro.servers.common import lookup_service

    service = yield from lookup_service(ctx, "e7")
    yield ctx.send(service, op="poison", payload=payload)


# ---------------------------------------------------------------------------
# End-to-end parity
# ---------------------------------------------------------------------------


def _build_pingpong(shards, backbone, machines=8):
    system = ShardedSystem(SystemConfig(
        machines=machines, topology="torus", latency=1_000,
        shards=shards, trace_categories=(), metrics_enabled=False,
        backbone_latency=backbone,
    ))
    boards = [ResultsBoard() for _ in system.shards]
    for m in range(machines):
        system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"e{_m}"),
            machine=m,
        )
    for m in range(machines):
        client = (m + 3) % machines
        board = boards[system.plan.shard_of(client)]
        system.schedule_spawn(
            10_000 + 700 * m, client,
            lambda ctx, _m=m, _b=board: pinger(
                ctx, service_name=f"e{_m}", rounds=6,
                payload_bytes=32, gap=1_000, board=_b, key="ping",
            ),
        )
    return system


def _collect(shard):
    kstats = [shard.kernels[m].stats for m in shard.machines]
    return {
        "delivered": sum(s.messages_delivered for s in kstats),
        "spawned": sum(s.processes_spawned for s in kstats),
        "packets": shard.network.stats.packets_sent,
        "wire_bytes": shard.network.stats.bytes_sent,
        "events": shard.loop.events_fired,
    }


def _run(shards, backbone, executor=None, until=300_000):
    system = _build_pingpong(shards, backbone)
    executor = executor or ("serial" if shards == 1 else "fork")
    parts = system.execute(
        until,
        lambda shard: (_collect(shard), shard.network.sync.as_dict()),
        executor=executor,
    )
    merged = {
        key: sum(part[0][key] for part in parts) for key in parts[0][0]
    }
    sync = {
        key: sum(part[1][key] for part in parts) for key in parts[0][1]
    }
    return merged, sync


class TestElisionParity:
    """``shards=1`` on the serial executor is the reference (every
    committed baseline pins its counters)."""

    def test_elided_counters_match_classic_uniform_latency(self):
        reference, _ = _run(1, None)
        assert _run(2, None, executor="serial")[0] == reference
        assert _run(2, None)[0] == reference

    def test_elided_counters_match_classic_backbone(self):
        reference, _ = _run(1, 4_000)
        assert _run(2, 4_000, executor="serial")[0] == reference
        assert _run(2, 4_000)[0] == reference

    def test_serial_and_fork_elided_agree(self):
        serial, serial_sync = _run(2, 4_000, executor="serial")
        fork, fork_sync = _run(2, 4_000, executor="fork")
        assert serial == fork
        # Executor-exact, bytes included: records are packed at
        # production time and the wire form excludes address-space-local
        # fields (serials, receiver-minted link ids), so both executors
        # measure identical blobs.
        assert serial_sync == fork_sync

    def test_pipe_transport_matches_in_process(self):
        """The forked worker's pipe loop, run on two threads over real
        pipes in this process: the same schedules rehydrating records
        from frames land on the in-process counters, sync included."""
        serial = _build_pingpong(2, 4_000)
        serial.run(until=300_000)
        serial.drain()
        piped = _build_pingpong(2, 4_000)
        a, b = Pipe()
        conns = [{1: a}, {0: b}]
        errors = []

        def worker(index):
            try:
                for horizon in (300_000, None):
                    run_over_pipes(
                        piped._schedules[index], conns[index], horizon
                    )
            except Exception as exc:  # surface it, unblock the peer
                errors.append(exc)
                conns[index][1 - index].close()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        for mine, theirs in zip(piped.shards, serial.shards):
            assert _collect(mine) == _collect(theirs)
            assert mine.network.sync.as_dict() == (
                theirs.network.sync.as_dict()
            )

    def test_elision_actually_elides(self):
        horizon = 300_000
        system = _build_pingpong(2, 4_000)
        system.run(until=horizon)
        syncs = [shard.network.sync for shard in system.shards]
        assert all(sync.windows_elided > 0 for sync in syncs)
        # The static cadence meets pair (0, 1) every 4 ms period up to
        # the horizon; run-ahead skips meetings when nothing is due.
        static_rounds = 2 * (horizon // 4_000)
        assert sum(sync.rounds for sync in syncs) < static_rounds * 0.8

    def test_resumed_horizons_match_a_single_run(self):
        single = _run(2, 4_000, executor="serial")[0]
        system = _build_pingpong(2, 4_000)
        system.run(until=140_000)
        system.run(until=300_000)
        system.drain()
        resumed = {
            key: sum(
                _collect(shard)[key] for shard in system.shards
            )
            for key in (
                "delivered", "spawned", "packets",
                "wire_bytes", "events",
            )
        }
        assert resumed == single

    def test_resume_mid_runahead_off_grid_matches_a_single_run(self):
        """Interrupting a horizon at an off-grid tick mid-run-ahead and
        resuming must not replay a meeting or re-execute a window: the
        runner persists the agreed schedule and the completed clock, so
        chopped-up horizons land on the identical counters."""
        single = _run(2, 4_000, executor="serial")[0]
        system = _build_pingpong(2, 4_000)
        for until in (7_919, 53_147, 147_001, 300_000):
            system.run(until=until)
        system.drain()
        resumed = {
            key: sum(
                _collect(shard)[key] for shard in system.shards
            )
            for key in (
                "delivered", "spawned", "packets",
                "wire_bytes", "events",
            )
        }
        assert resumed == single

    def test_rendezvous_replay_is_refused(self):
        """The runner's replay guard: a pair scheduled to meet at or
        before its last completed rendezvous is a scheduler bug and
        must surface, not silently double-exchange."""

        class _Inert:
            pass

        schedule = ShardSchedule(0, _Inert(), 1_000, {(0, 1): 1_000}, 2)
        schedule._last_met[(0, 1)] = 4_000
        with pytest.raises(SimulationError, match="replay"):
            next(schedule.steps(2_000))

    def test_shards_1_elided_never_packs_a_blob(self):
        _, sync = _run(1, 4_000)
        assert sync == SyncStats().as_dict()


# ---------------------------------------------------------------------------
# Live payloads under elision
# ---------------------------------------------------------------------------


class TestLivePayloadsUnderElision:
    """Records are packed into a capture envelope — an unpicklable
    payload gets a deterministic surrogate for the byte accounting while
    the *original* live object crosses shards in the serial executor."""

    @staticmethod
    def _migrating(shards):
        system = ShardedSystem(SystemConfig(
            machines=8, topology="torus", latency=1_000, shards=shards,
            trace_categories=(), metrics_enabled=False,
            backbone_latency=4_000,
        ))
        progress = []

        def worker(ctx):
            while True:
                yield ctx.compute(5_000)
                progress.append(ctx.machine)

        pid = system.spawn(worker, machine=0, name="subject")
        dest = 4  # the first machine of shard 1 when shards=2
        ticket = system.migrate(pid, dest)
        system.run(until=2_000_000)
        merged = {
            key: sum(_collect(s)[key] for s in system.shards)
            for key in (
                "delivered", "spawned", "packets", "wire_bytes",
            )
        }
        assert ticket.done and ticket.success
        assert system.where_is(pid) == dest
        assert dest in progress
        return merged

    def test_live_generator_migration_parity(self):
        # The migrating process's generator frame is live (it closes
        # over `progress`); the move must cross the shard boundary and
        # land on the single-shard counters.
        assert self._migrating(shards=2) == self._migrating(shards=1)

    def test_fork_still_rejects_live_cross_shard_payloads(self):
        system = _build_pingpong(shards=2, backbone=4_000)
        gen = (x for x in range(3))
        system.schedule_spawn(
            40_000, 0,
            lambda ctx: _poison_sender(ctx, gen),
            name="poison",
        )
        # The capture envelope makes the *frame* picklable, so the
        # sender survives; the receiving worker refuses to rehydrate
        # the surrogate and dies with a diagnosis.
        with pytest.raises(SimulationError, match="died"):
            system.execute(
                300_000, lambda shard: None, executor="fork",
            )
