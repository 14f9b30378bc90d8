"""The network facade kernels talk to.

``Network`` wires together the topology, lossy per-wire channels, and one
:class:`~repro.net.reliable.ReliableTransport` endpoint per machine.
Packets are routed hop-by-hop along latency-weighted shortest paths; fault
injection (if configured) applies independently on every hop.

Kernels use exactly two operations:

- :meth:`Network.send` — reliably deliver an opaque payload to a machine;
- :meth:`Network.register_receiver` — claim a machine's inbound payloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError, UnknownMachineError
from repro.net.channel import Channel, FaultPlan
from repro.net.packet import Packet
from repro.net.reliable import DEFAULT_RTO, ReliableTransport
from repro.net.stats import NetworkStats
from repro.net.topology import MachineId, Topology
from repro.sim.barrier import (
    HopRecord,
    LocalHop,
    SyncStats,
    pack_record,
    record_entry_key,
)
from repro.sim.loop import EventLoop, KeyedEventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

Receiver = Callable[[MachineId, Any], None]


class Network:
    """All inter-machine communication for one simulated system."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        tracer: Tracer | None = None,
        rngs: RandomStreams | None = None,
        faults: FaultPlan | None = None,
        rto: int = DEFAULT_RTO,
        metrics: "MetricsRegistry | None" = None,
        machines: list[MachineId] | None = None,
    ) -> None:
        self.loop = loop
        self.topology = topology
        self.tracer = tracer
        self.stats = NetworkStats()
        if metrics is not None:
            metrics.register_collector(self.stats.publish)
        self._rngs = rngs or RandomStreams(0)
        self._default_faults = faults or FaultPlan()
        self._channels: dict[tuple[MachineId, MachineId], Channel] = {}
        self._transports: dict[MachineId, ReliableTransport] = {}
        #: fail-stop takeover: traffic addressed to a crashed machine is
        #: carried to (and accepted by) its executor, modelling the
        #: published-communications recovery the paper defers to (§4)
        self._redirects: dict[MachineId, MachineId] = {}
        # A sharded system builds one facade per shard, with transports
        # only for the machines that shard owns (packets to everyone
        # else leave as hop records, see ShardNetwork below).
        for machine in (
            topology.machines if machines is None else machines
        ):
            self._transports[machine] = ReliableTransport(
                machine,
                loop,
                # Route from the transport's physical machine, not from
                # packet.src: an executor acks with the dead machine's
                # address in the src field.
                transmit_fn=(
                    lambda packet, _here=machine:
                    self._forward_from(_here, packet)
                ),
                stats=self.stats,
                tracer=tracer,
                rto=rto,
            )

    # ------------------------------------------------------------------
    # Kernel-facing API
    # ------------------------------------------------------------------

    def register_receiver(
        self, machine: MachineId, receiver: Receiver
    ) -> None:
        """Deliver in-order payloads arriving at *machine* to *receiver*."""
        transport = self._transport(machine)
        transport.deliver_fn = receiver

    def send(
        self,
        src: MachineId,
        dst: MachineId,
        payload: Any,
        payload_bytes: int,
        category: str = "user",
    ) -> None:
        """Reliably send *payload* from machine *src* to machine *dst*."""
        if src == dst:
            raise UnknownMachineError(
                f"machine {src} tried to use the network to reach itself; "
                "local delivery never touches the wire"
            )
        self._transport(src).send(dst, payload, payload_bytes, category)

    def set_faults(
        self,
        faults: FaultPlan,
        a: MachineId | None = None,
        b: MachineId | None = None,
    ) -> None:
        """Apply a fault plan to one wire pair (both directions) or, with no
        machines given, to every current and future channel."""
        if a is None and b is None:
            self._default_faults = faults
            for channel in self._channels.values():
                channel.faults = faults
            return
        if a is None or b is None:
            raise UnknownMachineError(
                "set_faults needs both machines or neither"
            )
        for pair in ((a, b), (b, a)):
            self._channel(*pair).faults = faults

    def cut_pairs(
        self, group_a: Iterable[MachineId], group_b: Iterable[MachineId]
    ) -> list[tuple[MachineId, MachineId]]:
        """The wire pairs whose endpoints straddle the two groups.

        Only physically adjacent pairs count: routing still follows the
        (unchanged) shortest paths, so faulting exactly these wires is
        what stops — or degrades — all traffic that must cross the cut.
        """
        b_set = set(group_b)
        return [
            (a, b)
            for a in sorted(group_a)
            for b in self.topology.neighbors(a)
            if b in b_set
        ]

    def partition(
        self,
        group_a: Iterable[MachineId],
        group_b: Iterable[MachineId],
        plan: FaultPlan | None = None,
    ) -> int:
        """Sever (or degrade) every wire between the two machine groups.

        With no *plan*, the cut wires drop everything — a clean network
        partition.  The reliable transport keeps retransmitting across
        the cut, so traffic resumes exactly-once after :meth:`heal`.
        Returns the number of wire pairs affected.
        """
        plan = plan if plan is not None else FaultPlan(drop_probability=1.0)
        pairs = self.cut_pairs(group_a, group_b)
        for a, b in pairs:
            self.set_faults(plan, a, b)
        return len(pairs)

    def heal(
        self,
        group_a: Iterable[MachineId],
        group_b: Iterable[MachineId],
    ) -> int:
        """Restore the cut wires to the network's default fault plan."""
        pairs = self.cut_pairs(group_a, group_b)
        for a, b in pairs:
            self.set_faults(self._default_faults, a, b)
        return len(pairs)

    def redirect_machine(
        self, dead: MachineId, executor: MachineId
    ) -> None:
        """Deliver all traffic addressed to *dead* at *executor* instead.

        Installed by crash recovery: the executor's transport accepts the
        dead machine's packets (and acks them), so senders' outstanding
        retransmissions settle instead of looping forever.
        """
        if dead == executor:
            raise UnknownMachineError("a machine cannot execute itself")
        self._transport(dead)  # validate both exist
        self._transport(executor)
        self._redirects[dead] = executor
        # Chase chains: anything previously redirected to `dead` now
        # lands on the executor too.
        for original, target in list(self._redirects.items()):
            if target == dead:
                self._redirects[original] = executor

    def effective_destination(self, machine: MachineId) -> MachineId:
        """Where traffic addressed to *machine* is actually delivered."""
        return self._redirects.get(machine, machine)

    def crash_machine(self, dead: MachineId, executor: MachineId) -> None:
        """Fail-stop *dead* at the transport level.

        Installs the redirect, hands the dead machine's receive-stream
        state (the published mirror) to the executor so redirected
        packets keep their sequence spaces, and abandons the dead
        machine's own unacknowledged sends — fail-stop semantics: they
        may or may not have been delivered.
        """
        self.redirect_machine(dead, executor)
        dead_transport = self._transport(dead)
        self._transport(executor).absorb_recv_states(
            dead_transport.export_recv_states()
        )
        abandoned = dead_transport.abandon_sends()
        if self.tracer is not None:
            self.tracer.record(
                "net",
                "crash",
                machine=dead,
                executor=executor,
                abandoned_sends=abandoned,
            )

    def in_flight(self) -> int:
        """Packets currently on some wire (diagnostics)."""
        return sum(c.in_flight for c in self._channels.values())

    def unacked(self) -> int:
        """Packets awaiting acknowledgement across all machines."""
        return sum(t.unacked_count for t in self._transports.values())

    def quiescent(self) -> bool:
        """True when nothing is in flight and nothing awaits an ack."""
        return self.in_flight() == 0 and self.unacked() == 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transport(self, machine: MachineId) -> ReliableTransport:
        try:
            return self._transports[machine]
        except KeyError:
            raise UnknownMachineError(f"unknown machine {machine}") from None

    def _channel(self, a: MachineId, b: MachineId) -> Channel:
        channel = self._channels.get((a, b))
        if channel is None:
            wire = self.topology.wire(a, b)
            channel = Channel(
                self.loop,
                wire,
                deliver=lambda pkt, _here=b: self._forward_from(_here, pkt),
                faults=self._default_faults,
                rng=self._rngs.stream(f"channel/{a}->{b}"),
                on_drop=self._note_drop,
                on_duplicate=self._note_duplicate,
            )
            self._channels[(a, b)] = channel
        return channel

    def _forward_from(self, here: MachineId, packet: Packet) -> None:
        """One routing step: hand *packet* to *here*'s transport if it
        is the (possibly redirected) destination, else put it on the
        wire to the next hop."""
        destination = packet.dst
        if self._redirects:
            destination = self._redirects.get(destination, destination)
        if here == destination:
            self._transport(here).on_packet(packet)
            return
        self._transmit_hop(
            here, self.topology.next_hop(here, destination), packet
        )

    def _transmit_hop(
        self, here: MachineId, next_hop: MachineId, packet: Packet
    ) -> None:
        """Put *packet* on the wire from *here* to *next_hop*."""
        channel = self._channels.get((here, next_hop))
        if channel is None:
            channel = self._channel(here, next_hop)
        channel.transmit(packet)

    def _note_drop(self, packet: Packet) -> None:
        self.stats.note_drop()
        if self.tracer is not None:
            self.tracer.record(
                "net",
                "drop",
                src=packet.src,
                dst=packet.dst,
                seq=packet.seq,
            )

    def _note_duplicate(self, packet: Packet) -> None:
        self.stats.note_duplicate()
        if self.tracer is not None:
            self.tracer.record(
                "net",
                "duplicate",
                src=packet.src,
                dst=packet.dst,
                seq=packet.seq,
            )


class _WireState:
    """One directed wire as its source shard sees it.

    Built on the wire's first transmit and never moved: the facts that
    cannot change (destination shard, latency, bandwidth) sit beside
    the state :meth:`Channel.transmit` keeps for a channel — the
    serialisation horizon ``busy``, the monotone hop counter ``seq``
    and the fault stream (``None`` on a perfect network).
    """

    __slots__ = ("dest_shard", "latency", "bandwidth", "busy", "seq", "rng")

    def __init__(
        self, dest_shard: int, latency: int, bandwidth: int, rng: Any
    ) -> None:
        self.dest_shard = dest_shard
        self.latency = latency
        self.bandwidth = max(bandwidth, 1)
        self.busy = 0
        self.seq = 0
        self.rng = rng


class ShardNetwork(Network):
    """The network facade for one shard of a sharded system.

    Same kernel-facing API as :class:`Network`, but it owns transports
    only for the shard's machines, and every wire transmit becomes a
    hop record tagged with its production window.  The loop must be a
    :class:`~repro.sim.loop.KeyedEventLoop`: records are scheduled under
    their canonical key, which makes injection timing irrelevant to
    delivery order (see :mod:`repro.sim.barrier`).  So a hop whose next
    stop is in this shard is scheduled immediately as a
    :class:`~repro.sim.barrier.LocalHop`, and a hop bound for another
    shard waits in that shard's outbox for the pair's next rendezvous,
    as a ``(record, blob)`` entry of a frozen
    :class:`~repro.sim.barrier.HopRecord` and its blob, pickled at
    production time (:func:`~repro.sim.barrier.pack_record`), so byte
    accounting is executor-exact and unpicklable payloads degrade to a
    capture envelope instead of an error.

    Per-wire state — destination shard, latency, bandwidth, the
    serialisation horizon ``busy``, the monotone hop counter and the
    fault-injection stream — is one :class:`_WireState` per directed
    wire, created on the wire's first transmit.  It lives with the
    wire's *source* shard, so it is touched by exactly one worker and
    its evolution is shard-layout independent.  The fault plan is fixed
    when the network is built (``set_faults`` refuses), so whether a
    hop draws from a fault stream at all is decided once, here.

    Fail-stop takeover works, but only through
    :meth:`~repro.sim.shard.ShardedSystem.crash_transport`, which
    replicates the redirect onto every shard's routing view from a
    barrier action (:meth:`install_redirect`); the direct
    :meth:`redirect_machine` / :meth:`crash_machine` entry points
    refuse, because one shard flipping alone would desynchronise
    routing.  Retroactive ``set_faults`` stays unsupported (the default
    plan from the config applies to every wire from the start).
    """

    def __init__(
        self,
        loop: KeyedEventLoop,
        topology: Topology,
        shard_index: int,
        shard_of: Callable[[MachineId], int],
        machines: list[MachineId],
        tracer: Tracer | None = None,
        rngs: RandomStreams | None = None,
        faults: FaultPlan | None = None,
        rto: int = DEFAULT_RTO,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        super().__init__(
            loop,
            topology,
            tracer=tracer,
            rngs=rngs,
            faults=faults,
            rto=rto,
            metrics=metrics,
            machines=machines,
        )
        if not isinstance(loop, KeyedEventLoop):
            raise SimulationError(
                "a shard network needs a KeyedEventLoop (record keys are "
                "the loop's tie-break)"
            )
        self.shard_index = shard_index
        self._grid = loop.grid
        self._clock = loop.clock
        self.shard_of = shard_of
        self.machines = list(machines)
        #: sync-overhead counters the shard schedule fills in
        self.sync = SyncStats()
        #: test hook: called with each delivered hop record (a
        #: HopRecord or a LocalHop)
        self.on_record_delivered: Callable[..., None] | None = None
        #: per destination shard: (record, blob) entries, the blob
        #: packed at production time (pack_record)
        self._outboxes: dict[int, list[tuple[HopRecord, bytes]]] = {}
        self._wires: dict[tuple[MachineId, MachineId], _WireState] = {}
        #: the fault plan every wire draws from, None when it is perfect
        self._faults: FaultPlan | None = (
            None if self._default_faults.is_perfect else self._default_faults
        )
        self._inbound_pending = 0

    # -- rendezvous handoff --------------------------------------------

    def take_outboxes(self) -> dict[int, list[tuple[HopRecord, bytes]]]:
        """Pending entries keyed by destination shard (clears them),
        each list sorted into canonical order so a drain round merges
        pre-sorted per-source lists instead of re-sorting."""
        outboxes = self._outboxes
        self._outboxes = {}
        for entries in outboxes.values():
            entries.sort(key=record_entry_key)
        return outboxes

    def take_outbox(self, dest: int) -> list[tuple[HopRecord, bytes]]:
        """Pending entries for one destination shard, pre-sorted (clears
        just that outbox) — what a pairwise rendezvous ships."""
        entries = self._outboxes.pop(dest, [])
        entries.sort(key=record_entry_key)
        return entries

    def receive_record(self, record: HopRecord | LocalHop) -> None:
        """Schedule one hop at its arrival tick, under its record key
        (so the call order does not matter)."""
        self._inbound_pending += 1
        self.loop.schedule_record(record, self._record_arrived, record)

    def _record_arrived(self, record: HopRecord | LocalHop) -> None:
        self._inbound_pending -= 1
        if self.on_record_delivered is not None:
            self.on_record_delivered(record)
        self._forward_from(record.dst, record.packet)

    # -- hop transmission ----------------------------------------------

    def _transmit_hop(
        self, here: MachineId, next_hop: MachineId, packet: Packet
    ) -> None:
        """Mirror of :meth:`Channel.transmit`, emitting hop records.

        Same fault draws from the same named stream, same wire
        serialisation rule (a wire is serial: a packet cannot start
        serialising before the previous one finished), same jitter, but
        the arrival is a hop record instead of a scheduled callback.
        """
        wire = self._wires.get((here, next_hop))
        if wire is None:
            wire = self._open_wire(here, next_hop)
        copies = 1
        plan = self._faults
        if plan is not None:
            rng = wire.rng
            if (
                plan.drop_probability
                and rng.random() < plan.drop_probability
            ):
                self._note_drop(packet)
                return
            if (
                plan.duplicate_probability
                and rng.random() < plan.duplicate_probability
            ):
                copies = 2
                self._note_duplicate(packet)
        now = self._clock._now
        serialization = packet.size_bytes * 1_000 // wire.bandwidth
        # Tag the production window; a hop staying in this shard needs
        # no rendezvous at all — its key already places it.
        gen = now // self._grid
        for _ in range(copies):
            busy = wire.busy
            departs = (busy if busy > now else now) + serialization
            wire.busy = departs
            arrival = departs + wire.latency
            if plan is not None and plan.max_jitter:
                arrival += wire.rng.randint(0, plan.max_jitter)
            seq = wire.seq = wire.seq + 1
            if wire.dest_shard == self.shard_index:
                self.receive_record(
                    LocalHop(arrival, here, next_hop, seq, packet, gen)
                )
            else:
                # Pack the wire blob *now*: the producing shard's state
                # at this instant is executor-independent, so counted
                # bytes (and shipped bytes) are too.
                record = HopRecord(arrival, here, next_hop, seq, packet, gen)
                self._outboxes.setdefault(wire.dest_shard, []).append(
                    (record, pack_record(record))
                )

    def _open_wire(self, here: MachineId, next_hop: MachineId) -> _WireState:
        """The wire's state, built on its first transmit — which is
        also when its fault stream is created, as a channel's is."""
        spec = self.topology.wire(here, next_hop)
        rng = None
        if self._faults is not None:
            rng = self._rngs.stream(f"channel/{here}->{next_hop}")
        wire = _WireState(
            self.shard_of(next_hop), spec.latency, spec.bandwidth, rng
        )
        self._wires[(here, next_hop)] = wire
        return wire

    # -- diagnostics -----------------------------------------------------

    def in_flight(self) -> int:
        """Hops waiting in outboxes plus scheduled-but-not-arrived ones."""
        queued = sum(len(box) for box in self._outboxes.values())
        return queued + self._inbound_pending

    # -- unsupported under sharding --------------------------------------

    def set_faults(
        self,
        faults: FaultPlan,
        a: MachineId | None = None,
        b: MachineId | None = None,
    ) -> None:
        raise SimulationError(
            "set_faults is not supported on a sharded network; configure "
            "SystemConfig.faults before building the system"
        )

    def redirect_machine(self, dead: MachineId, executor: MachineId) -> None:
        raise SimulationError(
            "direct fail-stop takeover is not supported on one shard "
            "network; go through ShardedSystem.crash_transport so every "
            "shard's routing view flips at the same barrier"
        )

    def crash_machine(self, dead: MachineId, executor: MachineId) -> None:
        raise SimulationError(
            "direct fail-stop takeover is not supported on one shard "
            "network; go through ShardedSystem.crash_transport so every "
            "shard's routing view flips at the same barrier"
        )

    # -- sharded fail-stop takeover ---------------------------------------

    def install_redirect(
        self, dead: MachineId, executor: MachineId
    ) -> None:
        """Route traffic addressed to *dead* towards *executor*.

        Called on **every** shard network by
        :meth:`~repro.sim.shard.ShardedSystem.crash_transport` from a
        barrier action, so all shards flip their (pure-data) routing
        view atomically.  No transport validation here — a shard
        usually owns neither machine; the sharded system validated
        both before fanning out.
        """
        if dead == executor:
            raise UnknownMachineError("a machine cannot execute itself")
        self._redirects[dead] = executor
        # Chase chains exactly as the single-loop facade does: anything
        # previously redirected to `dead` now lands on the executor.
        for original, target in list(self._redirects.items()):
            if target == dead:
                self._redirects[original] = executor
