"""The top-level System object: build, boot, run, migrate, inspect.

This is the library's public entry point::

    from repro import System, SystemConfig

    system = System(SystemConfig(machines=4))
    pid = system.spawn(my_program, machine=2, name="worker")
    ticket = system.migrate(pid, dest=3)
    system.run()
    assert ticket.success

A ``System`` owns one event loop, one network, and one kernel per machine,
and (by default) boots the paper's system processes: switchboard, process
manager, memory scheduler, the four-process file system, and the command
interpreter (Figure 2-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import SystemConfig
from repro.core.registry import registered_programs
from repro.errors import ConfigError, UnknownProcessError
from repro.kernel.context import ProcessContext
from repro.kernel.ids import ProcessAddress, ProcessId, kernel_address
from repro.kernel.kernel import Kernel
from repro.kernel.memory import MemoryImage
from repro.kernel.process_state import ProcessState
from repro.net.network import Network
from repro.net.topology import MachineId
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.spans import SpanCollector
from repro.sim.loop import EventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.stats.migration_cost import MigrationCostRecord

Program = Callable[[ProcessContext], Any]


def boot_standard_servers(system: Any) -> None:
    """Spawn the Figure 2-3 system processes in dependency order.

    *system* is duck-typed: it needs ``config``, ``topology``,
    ``kernel()``, ``well_known`` and ``server_pids``.  Shared by
    :class:`System` and :class:`repro.sim.shard.ShardedSystem`, so both
    boot bit-identical server populations.
    """
    from repro.servers.command_interpreter import command_interpreter_program
    from repro.servers.filesystem import boot_file_system
    from repro.servers.memory_scheduler import memory_scheduler_program
    from repro.servers.process_manager import process_manager_program
    from repro.servers.switchboard import switchboard_program

    control = system.config.control_machine
    machine_count = system.config.machines
    boot_server(system, "switchboard", switchboard_program, control)
    boot_server(
        system,
        "memory_scheduler",
        lambda ctx: memory_scheduler_program(ctx, machines=machine_count),
        control,
    )
    # The process manager holds a link to every kernel ("they control
    # processes by sending messages to kernels").
    kernel_links = {
        f"kernel:{m}": kernel_address(m) for m in system.topology.machines
    }
    boot_server(
        system, "process_manager", process_manager_program, control,
        extra_links=kernel_links,
    )
    boot_file_system(system, system.config.file_system_machine)
    boot_server(
        system, "command_interpreter", command_interpreter_program, control,
    )


def boot_server(
    system: Any,
    name: str,
    program: Program,
    machine: MachineId,
    extra_links: dict[str, ProcessAddress] | None = None,
) -> ProcessId:
    """Spawn one well-known server and publish its address."""
    pid = system.kernel(machine).spawn(
        program, name=name, extra_links=extra_links,
    )
    system.well_known[name] = ProcessAddress(pid, machine)
    system.server_pids[name] = pid
    return pid


@dataclass
class MigrationTicket:
    """Tracks one requested migration to completion."""

    pid: ProcessId
    dest: MachineId
    initiated: bool = False
    done: bool = False
    success: bool | None = None
    record: MigrationCostRecord | None = None

    def _complete(self, success: bool, record: MigrationCostRecord) -> None:
        self.done = True
        self.success = success
        self.record = record


class System:
    """One simulated DEMOS/MP installation."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.config.validate()
        self.loop = EventLoop()
        self.tracer = Tracer(
            lambda: self.loop.now,
            max_records=self.config.max_trace_records,
            enabled_categories=self.config.trace_categories,
        )
        self.rngs = RandomStreams(self.config.seed)
        #: the system-wide metrics registry every component publishes into
        self.metrics = MetricsRegistry(enabled=self.config.metrics_enabled)
        self.metrics.register_collector(self._publish_sim_metrics)
        #: migration spans assembled live from the tracer stream
        self.spans = SpanCollector(self.tracer)
        self.topology = self.config.build_topology()
        self.network = Network(
            self.loop,
            self.topology,
            tracer=self.tracer,
            rngs=self.rngs,
            faults=self.config.faults,
            rto=self.config.rto,
            metrics=self.metrics,
        )
        #: shared by every kernel; server boots add entries as they come up
        self.well_known: dict[str, ProcessAddress] = {}
        self.kernels: list[Kernel] = [
            Kernel(
                machine,
                self.loop,
                self.network,
                self.tracer,
                config=self.config.kernel_config(),
                well_known=self.well_known,
                metrics=self.metrics,
            )
            for machine in self.topology.machines
        ]
        for name, factory in registered_programs().items():
            for kernel in self.kernels:
                kernel.register_program(name, factory)
        #: pids of the system processes booted at start-up, by service name
        self.server_pids: dict[str, ProcessId] = {}
        if self.config.boot_servers:
            boot_standard_servers(self)
        self._load_reporting = False
        if self.config.load_report_interval > 0:
            self.start_load_reporting()

    # ------------------------------------------------------------------
    # Load reporting (§3.1: "The process manager and memory scheduler
    # already monitor system activity for memory and cpu scheduling, and
    # can use the same information to make process migration decisions.")
    # ------------------------------------------------------------------

    def start_load_reporting(self) -> None:
        """Make every kernel push periodic load/memory reports to the
        process manager and memory scheduler.

        Note: while reporting is active the event loop never drains; run
        the system with an explicit ``until`` and call
        :meth:`stop_load_reporting` before draining.
        """
        self._load_reporting = True
        interval = max(1, self.config.load_report_interval)
        self.loop.call_after(interval, self._report_loads)

    def stop_load_reporting(self) -> None:
        """Cease pushing load reports after the current tick."""
        self._load_reporting = False

    def _report_loads(self) -> None:
        if not self._load_reporting:
            return
        from repro.kernel.messages import MessageKind

        pm = self.well_known.get("process_manager")
        ms = self.well_known.get("memory_scheduler")
        for kernel in self.kernels:
            snapshot = kernel.load_snapshot()
            if pm is not None:
                kernel.send_to_process(
                    pm, "report-load", snapshot, payload_bytes=10,
                    kind=MessageKind.USER, category="load",
                )
            if ms is not None:
                kernel.send_to_process(
                    ms, "report-memory",
                    {"machine": kernel.machine,
                     "free": snapshot["memory_free"]},
                    payload_bytes=8, kind=MessageKind.USER,
                    category="load",
                )
        self.loop.call_after(
            max(1, self.config.load_report_interval), self._report_loads,
        )

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _publish_sim_metrics(self, registry: MetricsRegistry) -> None:
        """Registry collector for event-loop and tracer level facts."""
        registry.gauge("sim.now_us").set(self.loop.now)
        registry.counter("sim.events_fired").set_total(self.loop.events_fired)
        registry.gauge("sim.trace_records").set(len(self.tracer))
        registry.counter("sim.trace_dropped").set_total(self.tracer.dropped)
        registry.gauge("sim.migration_spans").set(len(self.spans))

    def kernel(self, machine: MachineId) -> Kernel:
        """The kernel running on *machine*."""
        try:
            return self.kernels[machine]
        except IndexError:
            raise ConfigError(f"no machine {machine}") from None

    def domain_view(self, machines: list[MachineId]) -> "SystemDomainView":
        """A window onto a subset of machines, for per-domain policies.

        Shaped like :class:`repro.sim.shard.DomainView`, so a
        :class:`~repro.policy.load_balancer.DomainLoadBalancer` runs
        unchanged against a single-loop system — same decisions, same
        traces — which is how benchmarks compare policies without
        paying for sharded execution.
        """
        return SystemDomainView(self, machines)

    def spawn(
        self,
        program: Program,
        machine: MachineId = 0,
        name: str = "",
        memory: MemoryImage | None = None,
        priority: int = 0,
    ) -> ProcessId:
        """Create a process on *machine* running *program*."""
        return self.kernel(machine).spawn(
            program, name=name, memory=memory, priority=priority,
        )

    def migrate(
        self,
        pid: ProcessId,
        dest: MachineId,
        on_done: Callable[[bool, MigrationCostRecord], None] | None = None,
    ) -> MigrationTicket:
        """Ask the kernel currently hosting *pid* to migrate it to *dest*.

        This is the direct mechanism-level entry (what the process manager
        does internally); returns a ticket that fills in when the source
        kernel sees the migration finish.
        """
        ticket = MigrationTicket(pid, dest)
        kernel = self.kernel_hosting(pid)
        if kernel is None:
            raise UnknownProcessError(f"{pid} is not running anywhere")

        def _done(success: bool, record: MigrationCostRecord) -> None:
            ticket._complete(success, record)
            if on_done is not None:
                on_done(success, record)

        ticket.initiated = kernel.migration.start(pid, dest, on_done=_done)
        return ticket

    def call_at(
        self,
        time: int,
        machine: MachineId,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule driver code at *time*.

        The *machine* anchor only matters on the sharded engine (it
        picks the shard loop); here every machine shares one loop.
        """
        self.loop.call_at(time, callback, *args)

    def call_at_barrier(
        self,
        time: int,
        key: tuple,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule a global action at *time*.

        One loop has nothing to stop, so this is a plain
        ``loop.call_at`` (*key* only orders same-tick actions on the
        sharded engine).  Registered before the workload, the action
        holds its tick's lowest sequence number and runs first — where
        the sharded engine runs it too.
        """
        self.loop.call_at(time, callback, *args)

    def crash_transport(self, dead: MachineId, executor: MachineId) -> None:
        """Fail-stop *dead*'s transport (:meth:`Network.crash_machine`)."""
        self.network.crash_machine(dead, executor)

    def run(
        self, until: int | None = None, max_events: int | None = None
    ) -> int:
        """Run the simulation; with *until*, stop the clock there."""
        if until is None:
            return self.loop.run(max_events=max_events)
        return self.loop.run_until(until, max_events=max_events)

    # ------------------------------------------------------------------
    # Inspection (the same surface the sharded engine offers)
    # ------------------------------------------------------------------

    def now(self) -> int:
        """The simulation clock."""
        return self.loop.now

    def kernels_in_machine_order(self) -> list[Kernel]:
        """Every kernel, ordered by machine id."""
        return list(self.kernels)

    def networks(self) -> list[Network]:
        """Every network facade (one on this engine)."""
        return [self.network]

    def tracer_for(self, machine: MachineId) -> Tracer:
        """The tracer that records *machine*'s events."""
        return self.tracer

    def metrics_for(self, machine: MachineId) -> MetricsRegistry:
        """The metrics registry *machine* publishes into."""
        return self.metrics

    def snapshot(self) -> MetricsSnapshot:
        """A snapshot of the system metrics registry."""
        return self.metrics.snapshot()

    def kernel_hosting(self, pid: ProcessId) -> Kernel | None:
        """The kernel where *pid* currently lives (omniscient; for tests,
        benchmarks and the embedded process manager)."""
        for kernel in self.kernels:
            if pid in kernel.processes:
                return kernel
        return None

    def where_is(self, pid: ProcessId) -> MachineId | None:
        """The machine currently hosting *pid*, or None."""
        kernel = self.kernel_hosting(pid)
        return kernel.machine if kernel is not None else None

    def process_state(self, pid: ProcessId) -> ProcessState | None:
        """The live state object for *pid*, wherever it is."""
        kernel = self.kernel_hosting(pid)
        return kernel.processes[pid] if kernel is not None else None

    def is_alive(self, pid: ProcessId) -> bool:
        """Whether *pid* is still running somewhere."""
        return self.kernel_hosting(pid) is not None

    def migration_records(self) -> list[MigrationCostRecord]:
        """Every completed migration's cost record, across all kernels,
        ordered by start time."""
        records = [
            record
            for kernel in self.kernels
            for record in kernel.migration.completed
        ]
        return sorted(records, key=lambda r: r.started_at)

    def total_forwarding_entries(self) -> int:
        """Forwarding addresses currently installed system-wide."""
        return sum(len(k.forwarding) for k in self.kernels)

    def loads(self) -> dict[MachineId, dict[str, Any]]:
        """Per-machine load snapshots (the §3.1 decision inputs)."""
        return {k.machine: k.load_snapshot() for k in self.kernels}

    def __repr__(self) -> str:
        return (
            f"System(machines={self.config.machines},"
            f" now={self.loop.now}us, events={self.loop.events_fired})"
        )


class SystemDomainView:
    """A domain-scoped window onto a single-loop :class:`System`.

    Duck-types :class:`repro.sim.shard.DomainView` (``loop``, ``tracer``,
    ``metrics``, ``kernels``, ``kernel()``), so per-domain policies see
    the same interface whether the system runs sharded or not.
    """

    def __init__(self, system: System, machines: list[MachineId]) -> None:
        self.loop = system.loop
        self.tracer = system.tracer
        self.metrics = system.metrics
        self.kernels = [system.kernel(m) for m in machines]
        self._by_machine = {k.machine: k for k in self.kernels}

    def kernel(self, machine: MachineId) -> Kernel:
        try:
            return self._by_machine[machine]
        except KeyError:
            raise ConfigError(
                f"machine {machine} is outside this domain"
            ) from None
