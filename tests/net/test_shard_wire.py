"""The shard network's wire step against :meth:`Channel.transmit`.

A :class:`~repro.net.network.ShardNetwork` never builds channels: its
``_transmit_hop`` turns every transmit into hop records.  It must still
follow the channel's wire rule exactly — the same fault draws from the
same named stream, the same serialisation behind ``busy`` and the same
jitter — or a sharded run would drift from the single-loop one.  These
tests drive one wire both ways with the same seed and the same
transmits (bursts of back-to-back packets of mixed sizes, so later
ones queue behind earlier ones) and compare drops, duplicate copies
and arrival times.  The cross-shard variant also checks that every
queued record matches its packed wire blob field for field.
"""

import dataclasses
import random

import pytest

from repro.net.channel import Channel, FaultPlan
from repro.net.network import ShardNetwork
from repro.net.packet import PACKET_HEADER_BYTES, Packet, PacketKind
from repro.net.topology import Topology
from repro.sim.barrier import unpack_record
from repro.sim.loop import EventLoop, KeyedEventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

LATENCY = 1_000
BANDWIDTH = 1_000  #: bytes per ms, so a packet serialises in size µs

PLANS = [
    FaultPlan(),
    FaultPlan(
        drop_probability=0.2, duplicate_probability=0.3, max_jitter=250
    ),
    FaultPlan(duplicate_probability=0.5),
    FaultPlan(max_jitter=700),
]


def transmits():
    """(time, packet seq, payload bytes): bursts of 1-3 packets at one
    instant, gaps short enough that the wire is often still busy."""
    draw = random.Random(1983)
    schedule, now, seq = [], 0, 0
    for _ in range(40):
        now += draw.choice((0, 0, 50, 400, 3_000))
        for _ in range(draw.randint(1, 3)):
            seq += 1
            size = draw.choice((4, 60, 500, 1_500, 4_000))
            schedule.append((now, seq, size))
    return schedule


def packet(seq, size):
    # An ack: landing one at machine 1 only pops an unknown send entry,
    # so the direct variant can deliver without side traffic.
    return Packet(
        src=0,
        dst=1,
        kind=PacketKind.ACK,
        seq=seq,
        payload=seq,
        payload_bytes=size,
        category="ack",
    )


def channel_run(plan, seed):
    loop = EventLoop()
    arrivals, drops, duplicates = [], [], []
    rngs = RandomStreams(seed)
    channel = Channel(
        loop,
        Topology.line(2, LATENCY, BANDWIDTH).wire(0, 1),
        deliver=lambda p: arrivals.append((loop.now, p.seq)),
        faults=plan,
        rng=rngs.stream("channel/0->1"),
        on_drop=lambda p: drops.append(p.seq),
        on_duplicate=lambda p: duplicates.append(p.seq),
    )
    for time, seq, size in transmits():
        loop.call_at(time, channel.transmit, packet(seq, size))
    loop.run()
    return sorted(arrivals), drops, duplicates


def record_fields(record):
    """Every field of a hop record, the packet by its wire state."""
    return (
        record.arrival,
        record.src,
        record.dst,
        record.wire_seq,
        record.gen,
        record.packet.__getstate__(),
    )


def shard_network(plan, seed, cross):
    loop = KeyedEventLoop(grid=LATENCY)
    tracer = Tracer(lambda: loop.now, enabled_categories=("net",))
    network = ShardNetwork(
        loop,
        Topology.line(2, LATENCY, BANDWIDTH),
        shard_index=0,
        shard_of=lambda m: 1 if cross and m == 1 else 0,
        machines=[0] if cross else [0, 1],
        tracer=tracer,
        rngs=RandomStreams(seed),
        faults=plan,
    )
    for time, seq, size in transmits():
        loop.call_at(time, network._transmit_hop, 0, 1, packet(seq, size))
    return loop, network, tracer


def shard_run(plan, seed, cross):
    loop, network, tracer = shard_network(plan, seed, cross)
    delivered = []
    network.on_record_delivered = delivered.append
    loop.run()
    if cross:
        records = [record for record, _ in network.take_outbox(1)]
        assert delivered == []
    else:
        records = delivered
    drops = [r.fields["seq"] for r in tracer.records("net", "drop")]
    duplicates = [
        r.fields["seq"] for r in tracer.records("net", "duplicate")
    ]
    return records, drops, duplicates


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("cross", [False, True], ids=["direct", "cross"])
class TestWireRuleMatchesChannel:
    def test_drops_duplicates_and_arrivals(self, plan, seed, cross):
        want_arrivals, want_drops, want_duplicates = channel_run(plan, seed)
        records, drops, duplicates = shard_run(plan, seed, cross)
        assert drops == want_drops
        assert duplicates == want_duplicates
        got = sorted((r.arrival, r.packet.seq) for r in records)
        assert got == want_arrivals

    def test_wire_seq_counts_every_copy_in_transmit_order(
        self, plan, seed, cross
    ):
        records, _, _ = shard_run(plan, seed, cross)
        by_seq = sorted(records, key=lambda r: r.wire_seq)
        assert [r.wire_seq for r in by_seq] == list(range(1, len(records) + 1))
        # Copies leave in transmit order, so packet seqs never go back.
        packet_seqs = [r.packet.seq for r in by_seq]
        assert packet_seqs == sorted(packet_seqs)
        assert {(r.src, r.dst) for r in records} <= {(0, 1)}


def test_faults_exercised():
    """The fault plans above really drop, duplicate and queue."""
    _, drops, duplicates = channel_run(PLANS[1], 0)
    assert drops and duplicates
    perfect, _, _ = channel_run(PLANS[0], 0)
    transit = {
        seq: time - sent - LATENCY
        for (time, seq), (sent, _, _) in zip(perfect, transmits())
    }
    sizes = {seq: size + PACKET_HEADER_BYTES for _, seq, size in transmits()}
    # Some packet waited behind the busy wire, not just its own bytes.
    assert any(transit[s] > sizes[s] for s in transit)


class TestQueuedRecordsMatchTheirBlobs:
    def test_unpacked_blob_has_the_queued_fields(self):
        loop, network, _ = shard_network(PLANS[1], 3, cross=True)
        loop.run()
        entries = network.take_outbox(1)
        assert entries
        for record, blob in entries:
            assert record_fields(unpack_record(blob)) == record_fields(record)

    def test_cross_shard_record_is_frozen(self):
        loop, network, _ = shard_network(PLANS[0], 0, cross=True)
        loop.run()
        record, _ = network.take_outbox(1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.arrival = 0
