"""Run-ahead rendezvous schedule for sharded execution.

The sharded engine (:mod:`repro.sim.shard`) partitions the machine set
into shards, each with its own :class:`~repro.sim.loop.KeyedEventLoop`.
Machines only interact through the network, and every wire has a
non-zero latency, so a packet put on a wire at time ``t`` cannot affect
any machine before ``t + L``.  That is the conservative-PDES lookahead
argument this module turns into a schedule.

**Byte-identical for every shard count.**  Every inter-machine hop is a
record tagged with the grid window it was produced in — a
:class:`HopRecord` across shards, a :class:`LocalHop` within one
(``gen``; the grid is the minimum latency over *all* wires, so it does
not depend on the partition).  The keyed event loop files a record
under ``(gen, src, dst, wire_seq)`` rather than under its injection
order, so a record may be injected one window early or five windows
late and still fire in the same slot.  Hops that stay inside a shard are
scheduled directly; hops that cross shards wait in an outbox for the
pair's next rendezvous.

**Pairwise cadence.**  Shard pair ``(i, j)`` exchanges only at multiples
of its ``period`` — the minimum latency over wires crossing the pair,
snapped down to the grid.  A record produced after one rendezvous cannot
arrive before the next, so handing it over then is still early enough.
Pairs no wire crosses never meet during the horizon phase.

**Run-ahead.**  At each meeting the two sides exchange, alongside their
records, their next pending event time and the earliest rendezvous of
any *other* incident pair; from those both compute the same activity
bound and agree on the pair's next meeting (:func:`agree_next_meeting`).
Every grid window in between runs back-to-back with no barrier touch; a
pair with no wake source parks.  Two clamps keep the
meeting-before-arrival invariant when work appears from outside the
simulation: entering a run re-arms every pair to its first period
multiple after the resumed clock, and firing a barrier action re-arms
every pair to its first period multiple after the action tick.  Extra
meetings are always safe; late ones never happen.

**Drain.**  Past the horizon, quiescence is a *global* property, so the
schedule falls back to all-pairs rounds, each strided by the shard's
minimum incident pair period (:func:`drain_step`).

:class:`ShardSchedule` holds all of that once, per shard, as a generator
of :class:`Exchange` and :class:`Stop` steps.  Two transports drive it:
:func:`run_in_process` pairs matching exchanges of every shard in this
process (live record objects cross shards, so live-generator migration
works), and :func:`run_over_pipes` drives one shard in a forked worker,
shipping each frame with ``send_bytes``/``recv_bytes`` and rehydrating
records with :func:`unpack_record`.  Byte counts in :class:`SyncStats`
are executor-exact: every cross-shard record is pickled once, at
production time (:func:`pack_record`), and both transports count the
same frames.  A payload that cannot pickle (a live process generator
mid-migration) is *captured*: its blob carries a
:class:`CapturedPayload` stand-in, which only the pipe transport
refuses.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from heapq import heappop, heappush
from heapq import merge as _heapq_merge
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Generator, Iterable, Protocol

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection


@dataclass(frozen=True, slots=True)
class HopRecord:
    """One packet hop travelling along one wire between two shards.

    ``wire_seq`` is a per-directed-wire monotone counter owned by the
    wire's source shard; together with ``(arrival, src, dst)`` it gives
    every record a total order that does not depend on the shard
    layout.  ``gen`` is the grid window the hop was *produced* in — the
    slot the keyed event loop files it under, so a record can be
    injected at any rendezvous without moving in the order.

    Only cross-shard hops are HopRecords.  They are frozen because the
    wire blob is packed the moment the record is made
    (:func:`pack_record`), and the serial transport later hands over the
    live record in the blob's place: the two must never differ.  A hop
    that stays inside its shard is a :class:`LocalHop` instead.
    """

    arrival: int  #: simulated time the hop completes at ``dst``
    src: int  #: machine the hop leaves from
    dst: int  #: machine the hop arrives at (next hop, not final dest)
    wire_seq: int  #: per-wire transmit counter (duplicates get their own)
    packet: Any  #: the in-flight :class:`~repro.net.packet.Packet`
    gen: int = 0  #: grid window of production (the loop's slot key)

    def __getstate__(self) -> tuple:
        """Positional wire state: every record blob repeats this class,
        so field-name dict keys would be pure overhead on the pipe."""
        return (
            self.arrival, self.src, self.dst, self.wire_seq,
            self.packet, self.gen,
        )

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class LocalHop:
    """A hop whose both ends sit in one shard: the fields of a
    :class:`HopRecord`, in a plain slots class.

    Nearly every hop is one of these.  It is scheduled the moment it is
    made and read once when it arrives; it is never packed, never sent
    through a pipe and never sorted into an outbox, so it needs neither
    the frozen dataclass's immutability nor its construction cost.
    """

    __slots__ = ("arrival", "src", "dst", "wire_seq", "packet", "gen")

    def __init__(
        self,
        arrival: int,
        src: int,
        dst: int,
        wire_seq: int,
        packet: Any,
        gen: int,
    ) -> None:
        self.arrival = arrival
        self.src = src
        self.dst = dst
        self.wire_seq = wire_seq
        self.packet = packet
        self.gen = gen


#: Canonical record order (see module docstring).
RECORD_KEY = attrgetter("arrival", "src", "dst", "wire_seq")

#: Pipes carry one pre-pickled frame per peer per exchange, so each
#: rendezvous is a single send/recv pair and its size is countable; the
#: protocol is pinned so byte counts are deterministic across
#: interpreter versions.
WIRE_PICKLE_PROTOCOL = min(pickle.HIGHEST_PROTOCOL, 5)


def pack_blob(payload: Any) -> bytes:
    """Pickle one rendezvous frame into the blob the pipe carries."""
    return pickle.dumps(payload, WIRE_PICKLE_PROTOCOL)


@dataclass(frozen=True, slots=True)
class CapturedPayload:
    """Wire stand-in for a packet that cannot pickle (capture envelope).

    A live process generator mid-migration has no byte form, but its
    hop record still needs a deterministic wire frame: the record's
    blob carries this pure-data surrogate instead (same declared sizes,
    so byte accounting stays executor-independent), while the live
    record object itself is what the in-process transport hands over.
    A forked worker that rehydrates one of these refuses the run —
    there is no live object on its side of the pipe to fall back to.
    """

    kind: str  #: class name of the packet that could not pickle
    size_bytes: int  #: the packet's declared wire size


#: lazily built identity-stable objects every record blob references —
#: the classes and enum members of the wire vocabulary.  Packing each
#: record standalone loses the memo sharing a whole-outbox pickle gets,
#: so these are replaced by short persistent-id tokens instead of
#: repeating ``module.QualName`` boilerplate in every blob.
_WIRE_ATOMS: tuple[Any, ...] = ()
_WIRE_ATOM_TOKENS: dict[int, int] = {}


def _wire_atom_tokens() -> dict[int, int]:
    global _WIRE_ATOMS, _WIRE_ATOM_TOKENS
    if not _WIRE_ATOMS:
        from repro.kernel.ids import ProcessAddress, ProcessId
        from repro.kernel.links import (
            DataArea,
            Link,
            LinkAttribute,
            LinkSnapshot,
        )
        from repro.kernel.messages import Message, MessageKind
        from repro.net.packet import Packet, PacketKind

        _WIRE_ATOMS = (
            HopRecord, CapturedPayload,
            Packet, PacketKind, *PacketKind,
            Message, MessageKind, *MessageKind,
            ProcessId, ProcessAddress,
            LinkSnapshot, LinkAttribute, *LinkAttribute,
            DataArea, Link,
        )
        _WIRE_ATOM_TOKENS = {
            id(atom): token for token, atom in enumerate(_WIRE_ATOMS)
        }
    return _WIRE_ATOM_TOKENS


class _RecordPickler(pickle.Pickler):
    """Record pickler with the wire vocabulary tokenised."""

    def persistent_id(self, obj: Any) -> int | None:
        return _wire_atom_tokens().get(id(obj))


class _RecordUnpickler(pickle.Unpickler):
    """Inverse of :class:`_RecordPickler`."""

    def persistent_load(self, pid: int) -> Any:
        _wire_atom_tokens()
        return _WIRE_ATOMS[pid]


def unpack_record(blob: bytes) -> HopRecord:
    """One record back from its :func:`pack_record` wire blob."""
    return _RecordUnpickler(io.BytesIO(blob)).load()


def pack_record(record: HopRecord) -> bytes:
    """One cross-shard record's wire blob, packed at production time.

    Packing at the production instant — not at the rendezvous — is
    what makes byte counts executor-exact: the producing shard's
    object graph at that instant is identical whether it runs in the
    shared serial process or in a forked worker, whereas by rendezvous
    time an in-process peer may have mutated shared state a worker
    could never see.  Payloads that cannot pickle are captured (see
    :class:`CapturedPayload`).
    """
    try:
        return _pack_record_blob(record)
    except Exception:
        packet = record.packet
        surrogate = HopRecord(
            record.arrival,
            record.src,
            record.dst,
            record.wire_seq,
            CapturedPayload(
                type(packet).__name__,
                getattr(packet, "size_bytes", 0),
            ),
            record.gen,
        )
        return _pack_record_blob(surrogate)


def _pack_record_blob(record: HopRecord) -> bytes:
    buffer = io.BytesIO()
    _RecordPickler(buffer, WIRE_PICKLE_PROTOCOL).dump(record)
    return buffer.getvalue()


def record_entry_key(entry: "tuple[HopRecord, bytes]"):
    """Canonical order for ``(record, blob)`` outbox entries (the blob
    tags along, the record decides)."""
    return RECORD_KEY(entry[0])


def merge_sorted_records(
    lists: Iterable[list[HopRecord]],
) -> list[HopRecord]:
    """Merge per-source pre-sorted record lists into canonical order.

    Every list is already sorted by :data:`RECORD_KEY` (outboxes are
    sorted when drained) and the key is globally unique, so a k-way
    merge produces exactly what re-sorting the concatenation would.
    """
    return list(_heapq_merge(*lists, key=RECORD_KEY))


def sort_records(records: Iterable[HopRecord]) -> list[HopRecord]:
    """Records in canonical injection order."""
    return sorted(records, key=RECORD_KEY)


def window_end(time: int, lookahead: int) -> int:
    """End of the grid-aligned window containing *time*."""
    return (time // lookahead + 1) * lookahead


@dataclass(frozen=True, slots=True)
class BarrierAction:
    """One global action pinned to a tick on the window grid.

    ``key`` is pure data (kind string + machine ids) and totally orders
    same-tick actions the way :data:`RECORD_KEY` orders hop records:
    the firing order is a function of the schedule alone, never of the
    shard layout or of registration order.
    """

    at: int  #: fire time; must be a multiple of the window grid
    key: tuple  #: pure-data tie-break among same-tick actions
    callback: Any
    args: tuple


class BarrierActionQueue:
    """Pending global actions for a sharded run (fail-stop crashes).

    A crash mutates state on several shards at once, so it cannot be a
    loop event — it fires while every shard is stopped with all events
    strictly before the action time executed and none at it.  Action
    times sit on the window grid, which also re-arms every rendezvous
    to the period grid after the tick.
    """

    def __init__(self, lookahead: int) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.lookahead = lookahead
        self._pending: list[BarrierAction] = []
        self.fired = 0

    def add(self, at: int, key: tuple, callback: Any, *args: Any) -> None:
        """Register *callback* to fire at time *at*."""
        if at < 0 or at % self.lookahead:
            raise ValueError(
                f"barrier action at t={at} is not aligned to the "
                f"{self.lookahead}us window grid"
            )
        self._pending.append(BarrierAction(at, key, callback, args))

    def pending(self) -> int:
        """Actions registered but not yet fired."""
        return len(self._pending)

    def next_time(self) -> int | None:
        """Earliest pending action time, or None."""
        if not self._pending:
            return None
        return min(action.at for action in self._pending)

    def take_due(self, at: int) -> list[BarrierAction]:
        """Pop every action scheduled for *at*, in key order."""
        due = [a for a in self._pending if a.at == at]
        self._pending = [a for a in self._pending if a.at != at]
        due.sort(key=lambda a: a.key)
        self.fired += len(due)
        return due


class SyncStats:
    """Synchronisation-overhead counters for one shard.

    Everything here is deterministic — rounds and record counts follow
    the (deterministic) schedule, and byte counts measure the pickled
    blobs with a pinned protocol — so benchmarks gate these numbers
    exactly, per artifact.  They are *not* part of the shard-count
    parity set: a ``shards=1`` run has no peers and therefore no
    synchronisation traffic at all.
    """

    __slots__ = (
        "rounds",
        "records_sent",
        "records_received",
        "bytes_sent",
        "bytes_received",
        "windows_elided",
    )

    def __init__(self) -> None:
        self.rounds = 0  #: pairwise exchanges this shard took part in
        self.records_sent = 0
        self.records_received = 0
        self.bytes_sent = 0  #: pickled blob bytes shipped to peers
        self.bytes_received = 0
        #: grid windows crossed between rendezvous without a barrier
        self.windows_elided = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (benchmark artifacts)."""
        return {name: getattr(self, name) for name in self.__slots__}


def drain_step(
    pair_periods: dict[tuple[int, int], int], shard: int, lookahead: int
) -> int:
    """How far *shard* may run past a drain exchange's global floor.

    After an all-pairs exchange every shard knows the global next-event
    time ``nxt`` and holds every already-produced record; any *new*
    cross-shard influence originates at an event >= ``nxt`` and must
    traverse a wire crossing one of the shard's incident pairs, so it
    cannot arrive before ``nxt + period(pair)``.  The minimum incident
    period is therefore a sound per-round stride (a shard with no
    incident pairs keeps a one-window stride; it receives nothing
    either way).
    """
    incident = [
        period
        for (i, j), period in pair_periods.items()
        if shard in (i, j)
    ]
    return min(incident, default=lookahead)


def first_multiple_after(period: int, time: int) -> int:
    """Smallest multiple of *period* strictly after *time*."""
    return (time // period + 1) * period


def agree_next_meeting(
    t: int, period: int, act_a: int | None, act_b: int | None
) -> int | None:
    """The next rendezvous both sides of a pair commit to at meeting *t*.

    ``act_*`` is one side's earliest possible future activity: its next
    pending event, the earliest arrival this meeting just injected into
    it, or the soonest rendezvous of any *other* incident pair — third
    shards only influence it at meetings, and a record is always
    delivered at or before its arrival time, so nothing woken by that
    meeting runs earlier than the meeting itself.  Any record produced
    by an event at ``p >= act`` arrives at ``>= p + period``, so the
    partner may run unsynchronised through ``min(act) + period - 1``;
    the next meeting is that ceiling snapped *down* to the period grid
    (meetings stay on the grid so ``windows_elided`` accounting and the
    re-arm clamps compose), never earlier than ``t + period``.  Both
    sides with no wake source at all park the pair (``None``): each is
    provably idle until a run re-entry or barrier action re-arms every
    pair.
    """
    act = _next_time(act_a, act_b)
    if act is None:
        return None
    aligned = (act + period) // period * period
    return max(aligned, t + period)


class ShardPeer(Protocol):
    """What a :class:`ShardSchedule` needs from one shard's runtime."""

    def now(self) -> int:
        """The shard's clock."""
        ...  # pragma: no cover

    def next_event_time(self) -> int | None:
        """Earliest pending event on this shard's loop, or None."""
        ...  # pragma: no cover

    def run_window(self, deadline: int) -> None:
        """Execute all events with ``time <= deadline``."""
        ...  # pragma: no cover

    def advance_to(self, time: int) -> None:
        """Move the clock to *time* (no events there by contract)."""
        ...  # pragma: no cover

    def freeze_at(self, time: int) -> None:
        """Pin the clock at *time* without executing events there (a
        barrier action fires before the window that contains it)."""
        ...  # pragma: no cover

    def drain_outboxes(self) -> dict[int, list]:
        """Take (and clear) every pending ``(record, blob)`` entry,
        keyed by destination shard, each list in canonical order."""
        ...  # pragma: no cover

    def take_outbox(self, dest: int) -> list:
        """Take (and clear) the entries for one destination shard."""
        ...  # pragma: no cover

    def inject(self, records: list[HopRecord]) -> None:
        """Schedule *records* on this shard's loop."""
        ...  # pragma: no cover


def _next_time(*candidates: int | None) -> int | None:
    """Minimum of the non-None candidates (None when all are None)."""
    live = [c for c in candidates if c is not None]
    return min(live) if live else None


@dataclass(slots=True)
class Frame:
    """What one shard ships to a partner at one exchange.

    ``blob`` is the wire form — ``(record blobs, head, bound)`` packed
    with :func:`pack_blob` — and is what :class:`SyncStats` counts;
    ``records`` are the same records as objects (the live originals in
    process, rehydrated copies across a pipe).
    """

    records: list[HopRecord]
    blob: bytes
    head: int | None  #: the sender's next pending event time
    #: horizon meetings: the sender's earliest other rendezvous;
    #: drain rounds: the earliest arrival the sender ships this round
    bound: int | None


@dataclass(slots=True)
class Exchange:
    """Schedule step: swap frames with shard *peer*.

    ``key`` is the meeting time in the horizon phase and the round
    number in the drain; both partners yield the same key, and the
    globally least ``(key, i, j)`` is always ready on both sides.
    """

    key: int
    peer: int
    frame: Frame


@dataclass(slots=True)
class Stop:
    """Schedule step: frozen at *at*; fire the due barrier actions."""

    at: int


Step = Generator["Exchange | Stop", "Frame | None", None]


class ShardSchedule:
    """One shard's run-ahead schedule, transport-free.

    Owns the meeting heap, the re-arm clamps, the meeting agreement,
    the replay guard, frame packing with :class:`SyncStats` accounting,
    and the all-pairs drain.  :meth:`steps` is a generator: it drives
    the shard's loop between rendezvous and yields each exchange (the
    transport sends back the partner's :class:`Frame`) and each
    barrier-action stop.  Agreement state persists across calls, so a
    resumed horizon never replays a meeting.
    """

    def __init__(
        self,
        index: int,
        peer: ShardPeer,
        lookahead: int,
        pair_periods: dict[tuple[int, int], int],
        shards: int,
        sync: SyncStats | None = None,
        actions: BarrierActionQueue | None = None,
    ) -> None:
        self.index = index
        self.peer = peer
        self.lookahead = lookahead
        #: this shard's incident pairs — its slice of the schedule
        self.pair_periods = {
            pair: period
            for pair, period in pair_periods.items()
            if index in pair
        }
        #: every other shard, in the drain's exchange order
        self.partners = [s for s in range(shards) if s != index]
        self.sync = sync if sync is not None else SyncStats()
        #: global actions the schedule stops for (read-only here; the
        #: transport fires them once every shard has stopped)
        self.actions = actions
        #: last completed rendezvous per pair (the replay guard)
        self._last_met = dict.fromkeys(self.pair_periods, 0)
        #: each pair's agreed next meeting (None == parked)
        self._next_meet: dict[tuple[int, int], int | None] = {}
        #: clock the shard has been advanced to by completed horizons
        self._completed_through = 0
        self._drain_step = drain_step(self.pair_periods, index, lookahead)

    def steps(self, horizon: int | None) -> Step:
        """Run-ahead up to *horizon*; all-pairs drain without one."""
        if horizon is None:
            return self._drain()
        return self._run_ahead(horizon)

    def _next_action_time(self, horizon: int | None) -> int | None:
        at = self.actions.next_time() if self.actions is not None else None
        if at is None or (horizon is not None and at > horizon):
            return None
        return at

    def _rearm(
        self, after: int, horizon: int, heap: list[tuple[int, int, int]]
    ) -> None:
        """Move every pair's next meeting to its first period multiple
        after *after*: whatever driver code or a barrier action did at
        *after* cannot arrive anywhere before that.  Every meeting up to
        *after* has run, so an agreed one is on the period grid past it
        and never earlier than this clamp; a parked pair wakes up."""
        for pair, period in self.pair_periods.items():
            t = first_multiple_after(period, after)
            self._next_meet[pair] = t
            if t <= horizon:
                heappush(heap, (t, *pair))

    def _other_pair_bound(self, exclude: tuple[int, int]) -> int | None:
        """Earliest *other* rendezvous of this shard — the soonest any
        third shard can inject new work into it (records injected at a
        meeting never have arrivals before the meeting time)."""
        return _next_time(
            *(t for pair, t in self._next_meet.items() if pair != exclude)
        )

    def _exchange(
        self,
        key: int,
        other: int,
        entries: list[tuple[HopRecord, bytes]],
        head: int | None,
        bound: int | None,
    ) -> Generator[Exchange, Frame, Frame]:
        """Swap frames with shard *other* and count the round."""
        frame = Frame(
            [record for record, _ in entries],
            pack_blob(([blob for _, blob in entries], head, bound)),
            head,
            bound,
        )
        theirs = yield Exchange(key, other, frame)
        sync = self.sync
        sync.rounds += 1
        sync.bytes_sent += len(frame.blob)
        sync.bytes_received += len(theirs.blob)
        sync.records_sent += len(entries)
        sync.records_received += len(theirs.records)
        return theirs

    def _run_ahead(self, horizon: int) -> Step:
        peer = self.peer
        next_meet = self._next_meet
        heap: list[tuple[int, int, int]] = []
        # Driver code may have scheduled anything at >= the resumed
        # clock between runs, so every pair looks again within a period.
        self._rearm(self._completed_through, horizon, heap)
        # Tick already executed through (run_until is inclusive, so a
        # rendezvous at t needs execution through t - 1).
        frontier = self._completed_through
        while True:
            at = self._next_action_time(horizon)
            limit = horizon if at is None else at
            while heap and heap[0][0] <= limit:
                t, i, j = heappop(heap)
                pair = (i, j)
                if t != next_meet[pair]:
                    continue  # superseded by a re-arm clamp
                last = self._last_met[pair]
                if t <= last:
                    raise SimulationError(
                        f"rendezvous replay: pair {pair} met at {last}, "
                        f"scheduled again at {t}"
                    )
                if t - 1 > frontier:
                    peer.run_window(t - 1)
                    frontier = t - 1
                other = j if self.index == i else i
                out = peer.take_outbox(other)
                head = peer.next_event_time()
                bound = self._other_pair_bound(pair)
                theirs = yield from self._exchange(
                    t, other, out, head, bound
                )
                skipped = (t - last) // self.lookahead - 1
                if skipped > 0:
                    self.sync.windows_elided += skipped
                self._last_met[pair] = t
                if theirs.records:
                    peer.inject(theirs.records)
                nxt = agree_next_meeting(
                    t,
                    self.pair_periods[pair],
                    _next_time(
                        head, bound, *(r.arrival for r in theirs.records)
                    ),
                    _next_time(
                        theirs.head,
                        theirs.bound,
                        *(record.arrival for record, _ in out),
                    ),
                )
                next_meet[pair] = nxt
                if nxt is not None and nxt <= horizon:
                    heappush(heap, (nxt, i, j))
            if at is None:
                break
            if at - 1 > frontier:
                peer.run_window(at - 1)
                frontier = at - 1
            peer.freeze_at(at)
            yield Stop(at)
            self._rearm(at, horizon, heap)
        if horizon > frontier:
            peer.run_window(horizon)
        peer.advance_to(horizon)
        self._completed_through = horizon

    def _drain(self) -> Step:
        """All-pairs rounds to global quiescence, each strided by this
        shard's :func:`drain_step`; barrier actions registered past the
        horizon fire between rounds."""
        peer = self.peer
        lookahead = self.lookahead
        round_no = 0
        while True:
            outboxes = peer.drain_outboxes()
            head = peer.next_event_time()
            min_out = _next_time(
                *(
                    record.arrival
                    for entries in outboxes.values()
                    for record, _ in entries
                )
            )
            nxt = _next_time(head, min_out)
            inbound: list[list[HopRecord]] = []
            for other in self.partners:
                theirs = yield from self._exchange(
                    round_no, other, outboxes.pop(other, []), head, min_out
                )
                if theirs.records:
                    inbound.append(theirs.records)
                nxt = _next_time(nxt, theirs.head, theirs.bound)
            if outboxes:
                raise SimulationError(
                    f"shard {self.index} produced records for unknown "
                    f"shards {sorted(outboxes)} at t={peer.now()}"
                )
            if inbound:
                peer.inject(merge_sorted_records(inbound))
            round_no += 1
            at = self._next_action_time(None)
            if at is not None and (nxt is None or nxt >= at):
                peer.freeze_at(at)
                yield Stop(at)
                continue
            if nxt is None:
                return
            deadline = window_end(nxt, lookahead) - 1
            deadline += self._drain_step - lookahead
            if at is not None:
                deadline = min(deadline, at - 1)
            peer.run_window(deadline)


def _resume(steps: Step, value: Frame | None) -> Exchange | Stop | None:
    try:
        return steps.send(value)
    except StopIteration:
        return None


def run_in_process(
    schedules: list[ShardSchedule],
    horizon: int | None,
    actions: BarrierActionQueue | None = None,
) -> None:
    """Drive every shard's schedule in this process.

    Repeatedly pairs the globally least pending exchange — by the
    schedule's ordering argument it is pending on both sides — and
    hands each side the other's frame, live records included.  When
    every shard has stopped at a barrier action, fires the due actions
    in key order and resumes them all.
    """
    runs = [schedule.steps(horizon) for schedule in schedules]
    pending = [_resume(steps, None) for steps in runs]
    while True:
        meetings = [
            (step.key, min(s, step.peer), max(s, step.peer))
            for s, step in enumerate(pending)
            if isinstance(step, Exchange)
        ]
        if meetings:
            key, i, j = min(meetings)
            low, high = pending[i], pending[j]
            if not all(
                isinstance(step, Exchange)
                and (step.key, step.peer) == (key, other)
                for step, other in ((low, j), (high, i))
            ):
                raise SimulationError(
                    f"rendezvous desync: shards {i} and {j} are not both "
                    f"at exchange {key}"
                )
            pending[i] = _resume(runs[i], high.frame)
            pending[j] = _resume(runs[j], low.frame)
            continue
        stops = [step for step in pending if step is not None]
        if not stops:
            return
        for action in actions.take_due(stops[0].at):
            action.callback(*action.args)
        pending = [_resume(steps, None) for steps in runs]


def run_over_pipes(
    schedule: ShardSchedule,
    conns: dict[int, "Connection"],
    horizon: int | None,
) -> None:
    """Drive one shard's schedule from a forked worker.

    Each exchange is one ``send_bytes``/``recv_bytes`` pair on the pipe
    to the partner (lower index sends first, so the rendezvous pattern
    is deadlock-free); inbound records are rehydrated from their
    production-time blobs.
    """
    steps = schedule.steps(horizon)
    index = schedule.index
    step = _resume(steps, None)
    while step is not None:
        other = step.peer
        conn = conns[other]
        if index < other:
            conn.send_bytes(step.frame.blob)
            data = conn.recv_bytes()
        else:
            data = conn.recv_bytes()
            conn.send_bytes(step.frame.blob)
        blobs, head, bound = pickle.loads(data)
        records = [_rehydrate(blob, index, other) for blob in blobs]
        step = _resume(steps, Frame(records, data, head, bound))


def _rehydrate(blob: bytes, index: int, sender: int) -> HopRecord:
    """One inbound record from its production-time blob."""
    record = unpack_record(blob)
    if isinstance(record.packet, CapturedPayload):
        raise SimulationError(
            f"shard {index} received a captured {record.packet.kind} "
            f"payload from shard {sender}: a live cross-shard payload "
            "(e.g. a migrating process generator) cannot cross a fork "
            "boundary — run this scenario on the serial executor"
        )
    return record
