"""Multi-core batched execution: N cores sharing L2/LLC, DRAM and one MimicOS.

``MultiCoreVirtuoso`` generalises the single-core :class:`~repro.core
.virtuoso.Virtuoso` orchestrator to a multi-programmed machine:

* every simulated core is a :class:`SimulatedCore` — its own
  :class:`~repro.core.cpu.CoreModel` (pipeline cycles and counters), private
  L1 cache and L1 prefetcher (a :meth:`per-core view
  <repro.memhier.memory_system.MemoryHierarchy.per_core_view>` of the shared
  hierarchy), private TLB hierarchy and :class:`~repro.mmu.mmu.MMU` (with its
  own translation context and VPN translation cache);
* the L2 cache, the LLC, DRAM and the L2 prefetcher are shared, so co-running
  processes pollute each other's shared cache levels and contend on the DRAM
  row buffers;
* one :class:`~repro.mimicos.kernel.MimicOS` instance arbitrates page faults
  from every core through the existing functional channel; the coupling is
  rebound to the faulting core before each dispatch (``bind_core``), so the
  handler's instruction stream executes on — and pollutes the private state
  of — the core whose access faulted, verified by the instruction channel's
  destination routing.

Scheduling: each task (one workload bound to one process) is assigned to a
core round-robin at submission (task *i* → core *i* mod N).  Execution
interleaves ``execute_batch`` *chunks*: every scheduling round visits the
cores in index order and runs one chunk of that core's next runnable task.
A core that hosts several tasks round-robins between them, performing a full
context switch (MimicOS run-queue bookkeeping, ``MMU.set_context`` with a
TLB flush) whenever the incoming task's process differs from the one the
core currently runs; a process that last ran on a *different* core is
migrated in with the same full flush (`MMU.migrate_in` semantics — there are
no cross-core shootdowns to rely on).  An optional ``migrate_every`` knob
rotates the task→core assignment every N rounds to exercise migrations.

Determinism: the schedule is a pure function of the task list and
configuration and every RNG is explicitly seeded, so a multi-core run is
bit-identical across repeats and with the VPN translation cache on or off
(enforced by ``tests/test_fast_engine.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter
from repro.common.weak import WeakCallback
from repro.core.cpu import CoreModel
from repro.core.modes import FixedLatencyPageTable, OSCoupling, build_coupling
from repro.core.report import SimulationReport
from repro.core.virtuoso import (
    build_report,
    build_virtual_machine,
    prefault_pages,
    resolve_mmu_extensions,
    virtualization_details,
)
from repro.memhier.memory_system import MemoryHierarchy
from repro.mimicos.hypervisor import VirtualMachine
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mmu.extensions import MMUExtensions
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.storage.ssd import SSDModel


class CoreTask:
    """One workload bound to one process, scheduled in chunks on a core."""

    __slots__ = ("workload", "process", "name", "limit", "batches", "executed",
                 "done")

    def __init__(self, workload, process: Process, limit: Optional[int]):
        self.workload = workload
        self.process = process
        self.name = getattr(workload, "name", str(workload))
        self.limit = limit
        #: Lazily created chunk iterator (``workload.instruction_batches``).
        self.batches = None
        self.executed = 0
        self.done = False


class SimulatedCore:
    """One simulated core: private pipeline, L1, TLBs and MMU."""

    __slots__ = ("index", "core", "mmu", "tlbs", "memory", "tasks", "_cursor",
                 "current_pid", "task_names")

    def __init__(self, index: int, core: CoreModel, mmu: MMU,
                 tlbs: TLBHierarchy, memory: MemoryHierarchy):
        self.index = index
        self.core = core
        self.mmu = mmu
        self.tlbs = tlbs
        self.memory = memory
        self.tasks: List[CoreTask] = []
        self._cursor = 0
        #: Pid currently switched in on this core (None before the first task).
        self.current_pid: Optional[int] = None
        self.task_names: List[str] = []

    def next_task(self) -> Optional[CoreTask]:
        """Round-robin over this core's unfinished tasks (None when drained)."""
        count = len(self.tasks)
        for offset in range(count):
            task = self.tasks[(self._cursor + offset) % count] if count else None
            if task is not None and not task.done:
                self._cursor = (self._cursor + offset + 1) % count
                return task
        return None


@dataclass
class MultiCoreRunResult:
    """Outcome of one multi-core run: per-core reports plus a system merge."""

    #: One report per core, built with the same machinery as a single-core
    #: Virtuoso report.  Pipeline/TLB/MMU/stall fields are core-local;
    #: fault-latency, major-fault, swap and DRAM fields are system-wide
    #: (shared kernel / DRAM), identical in every per-core report.
    core_reports: List[SimulationReport] = field(default_factory=list)
    #: System-wide merge: additive core-local fields summed, shared fields
    #: taken once, derived metrics recomputed over the totals.
    merged: SimulationReport = None
    host_seconds: float = 0.0

    @property
    def kips(self) -> float:
        """Simulated kilo-instructions (app + kernel) per host second."""
        simulated = self.merged.instructions + self.merged.kernel_instructions
        if self.host_seconds <= 0:
            return 0.0
        return simulated / 1000.0 / self.host_seconds


class MultiCoreVirtuoso:
    """A fully assembled multi-core simulated system.

    With ``num_cores=1`` the component graph is exactly a single-core
    :class:`~repro.core.virtuoso.Virtuoso` (same construction order, same
    RNG forks), so a one-task run produces bit-identical statistics to
    ``Virtuoso.run`` — the anchor the invariance tests build on.
    """

    def __init__(self, config: SystemConfig, num_cores: int = 2, seed: int = 0,
                 mmu_extensions: Optional[MMUExtensions] = None):
        if num_cores < 1:
            raise ValueError("num_cores must be at least 1")
        self.config = config
        self.num_cores = num_cores
        self.rng = DeterministicRNG(seed)
        self.counters = Counter()

        # Shared hardware: core 0's hierarchy owns the shared L2/LLC/DRAM;
        # every other core gets a private-L1 view aliasing those levels.
        self.memory = MemoryHierarchy.from_system_config(config)
        self.ssd = SSDModel(config.ssd, config.core.frequency_ghz)
        # In virtualised mode the system MimicOS config describes the
        # hypervisor; the guest kernel (spawned through the VM) is the OS
        # the tasks, the run queue and the fault routing operate against.
        self.hypervisor: Optional[MimicOS] = None
        self.vm: Optional[VirtualMachine] = None
        if config.virtualization.enabled:
            self.hypervisor = MimicOS(config.mimicos, config.page_table, ssd=self.ssd,
                                      rng=self.rng.fork(3))
            self.vm = build_virtual_machine(self.hypervisor, config, self.rng)
            self.kernel = self.vm.guest
        else:
            self.kernel = MimicOS(config.mimicos, config.page_table, ssd=self.ssd,
                                  rng=self.rng.fork(3))

        mmu_extensions = resolve_mmu_extensions(config, mmu_extensions)
        self.cores: List[SimulatedCore] = []
        for index in range(num_cores):
            memory = self.memory if index == 0 else \
                MemoryHierarchy.per_core_view(self.memory, config)
            tlbs = TLBHierarchy(config.l1i_tlb, config.l1d_tlb_4k,
                                config.l1d_tlb_2m, config.l2_tlb)
            mmu = MMU(tlbs, memory, mmu_extensions, core_index=index)
            core = CoreModel(config.core, mmu, memory, core_index=index)
            self.cores.append(SimulatedCore(index, core, mmu, tlbs, memory))

        # One coupling / one kernel arbitrate faults from every core; each
        # core's fault callback rebinds the coupling to itself first, so the
        # handler stream is routed to (and executed on) the faulting core.
        self.coupling: OSCoupling = build_coupling(config.simulation, self.kernel,
                                                   self.cores[0].core, vm=self.vm)
        # Kernel-visible time is the leading core's clock: co-running cores
        # share wall time, so SSD channel queues and swap aging must not see
        # one core's future as another core's past.  (With one core this is
        # exactly the single-core clock.)  Callbacks from owned parts back
        # up hold their owner weakly (see repro.common.weak), so a dropped
        # system is freed at once.
        self.coupling.set_clock(WeakCallback(self._system_clock))
        route_fault = WeakCallback(self._route_fault)
        for unit in self.cores:
            unit.mmu.set_fault_callback(partial(route_fault, unit.index))
            # Kernel unmaps/remaps broadcast a TLB shootdown to every core;
            # each MMU acts only when it currently runs the target address
            # space (the IPI filter real kernels apply).  In virtualised
            # mode this is the guest kernel's shootdown; hypervisor remaps
            # of guest-RAM backing broadcast a nested invalidation to every
            # core on top (no pid filter — combined mappings are suspect on
            # every core running any guest context).
            self.kernel.register_tlb_listener(unit.mmu.invalidate_translation)
            if self.vm is not None:
                self.vm.register_nested_invalidation_listener(
                    unit.mmu.on_nested_shootdown)

        #: Emulation-mode fixed-latency wrappers, keyed by pid.
        self._emulation_wrappers: Dict[int, FixedLatencyPageTable] = {}

        if config.mimicos.fragmentation_target < 1.0:
            # config.mimicos describes the hypervisor in virtualised mode.
            (self.hypervisor or self.kernel).fragment_memory()

    def _system_clock(self) -> int:
        return max(unit.core.cycles for unit in self.cores)

    def _route_fault(self, core_index: int, pid: int, virtual_address: int):
        """Core ``core_index``'s fault callback: run the fault on that core."""
        unit = self.cores[core_index]
        self.coupling.bind_core(unit.core, unit.index)
        return self.coupling.handle_page_fault(pid, virtual_address)

    # ------------------------------------------------------------------ #
    # Address-space setup
    # ------------------------------------------------------------------ #
    def create_process(self, name: str = "") -> Process:
        """Create a process (its MMU context is established when scheduled).

        In virtualised mode the process lives inside the guest OS.
        """
        if self.vm is not None:
            return self.vm.create_guest_process(name)
        process = self.kernel.create_process(name)
        page_table = process.page_table
        if self.config.simulation.os_mode == "emulation" and not page_table.replaces_tlbs:
            page_table = FixedLatencyPageTable(page_table,
                                               self.config.simulation.fixed_ptw_latency)
            self._emulation_wrappers[process.pid] = page_table
        return process

    def prefault(self, process: Process, addresses) -> int:
        """Install translations functionally, charging no simulated time
        (see :func:`~repro.core.virtuoso.prefault_pages`)."""
        return prefault_pages(self, process, addresses)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _context_switch(self, unit: SimulatedCore, task: CoreTask) -> None:
        """Switch ``task`` in on ``unit`` if it is not already current.

        A switch is needed when the core runs a different process, or when
        the incoming process last ran on another core (migration).  Both
        take the full path: MimicOS bookkeeping plus ``set_context`` with a
        TLB flush, which also drops the core's VPN translation cache.
        """
        process = task.process
        if unit.current_pid == process.pid and process.last_core == unit.index:
            return
        self.kernel.context_switch(unit.index, process)
        if self.vm is not None:
            # The incoming guest context brings its per-core 2-D unit; the
            # flush below drops its nested TLB with the rest (untagged-TLB
            # semantics, same as the native context switch).
            unit.mmu.set_nested_unit(self.vm.nested_unit_for(process, unit.index))
        page_table = self._emulation_wrappers.get(process.pid, process.page_table)
        unit.mmu.set_context(process.pid, page_table, flush_tlbs=True)
        unit.current_pid = process.pid
        self.counters.add("context_switches")

    def _next_chunk(self, task: CoreTask, batch_size: int):
        """Pull the task's next chunk; marks it done (and returns None) when
        the stream is exhausted.  Chunk generation draws only workload RNG
        state, so pulling before the context switch cannot perturb simulated
        statistics — it just lets the scheduler skip switching in a task
        that has no work left."""
        if task.batches is None:
            task.batches = task.workload.instruction_batches(task.process,
                                                             batch_size)
        batch = next(task.batches, None)
        if batch is None:
            task.done = True
        return batch

    def _execute_chunk(self, unit: SimulatedCore, task: CoreTask, batch) -> int:
        """Run one pulled chunk of ``task`` on ``unit``; returns count run."""
        remaining = None if task.limit is None else task.limit - task.executed
        executed = unit.core.execute_batch(batch, remaining)
        task.executed += executed
        if task.limit is not None and task.executed >= task.limit:
            task.done = True
        return executed

    def _rotate_assignment(self, rotation: int) -> None:
        """Shift every task one core to the right (the migration policy)."""
        all_tasks: List[CoreTask] = []
        for unit in self.cores:
            all_tasks.extend(unit.tasks)
            unit.tasks = []
        for position, task in enumerate(all_tasks):
            target = self.cores[(position + rotation) % self.num_cores]
            target.tasks.append(task)
            # Per-core reports list every task that ran on the core, so a
            # migrated-in workload is attributed to its new core too.
            if task.name not in target.task_names:
                target.task_names.append(task.name)

    # ------------------------------------------------------------------ #
    # Main run loop
    # ------------------------------------------------------------------ #
    def run(self, workloads: Sequence[object],
            processes: Optional[Sequence[Process]] = None,
            max_instructions: Optional[int] = None,
            setup: bool = True,
            migrate_every: Optional[int] = None) -> MultiCoreRunResult:
        """Co-run ``workloads`` (task *i* on core *i* mod N) and report.

        ``max_instructions`` bounds each task individually (falling back to
        ``SimulationConfig.max_instructions``).  ``migrate_every`` rotates
        the task→core assignment every that-many scheduling rounds; the
        default (None) keeps static affinity.
        """
        if not workloads:
            raise ValueError("need at least one workload")

        limit = max_instructions or self.config.simulation.max_instructions
        tasks: List[CoreTask] = []
        task_by_pid: Dict[int, CoreTask] = {}
        for position, workload in enumerate(workloads):
            if processes is not None:
                process = processes[position]
            else:
                process = self.create_process(getattr(workload, "name", ""))
            if setup:
                workload.setup(self.kernel, process)
            if getattr(workload, "prefault", False):
                self.prefault(process, workload.prefault_addresses(process))
            task = CoreTask(workload, process, limit)
            tasks.append(task)
            task_by_pid[process.pid] = task
            self.kernel.enqueue_runnable(process.pid)

        # Drain the kernel run queue (FIFO) onto the cores round-robin —
        # the submission-order affinity the chunk interleaving preserves.
        position = 0
        while True:
            process = self.kernel.next_runnable()
            if process is None:
                break
            task = task_by_pid[process.pid]
            unit = self.cores[position % self.num_cores]
            unit.tasks.append(task)
            unit.task_names.append(task.name)
            position += 1

        batch_size = self.config.simulation.batch_size
        start_wall = time.perf_counter()
        rounds = 0
        while True:
            if migrate_every and rounds and rounds % migrate_every == 0:
                self._rotate_assignment(1)
            progressed = False
            for unit in self.cores:
                while True:
                    task = unit.next_task()
                    if task is None:
                        break
                    batch = self._next_chunk(task, batch_size)
                    if batch is None:
                        continue  # just drained; try this core's next task
                    self._context_switch(unit, task)
                    self._execute_chunk(unit, task, batch)
                    progressed = True
                    break
            rounds += 1
            if not progressed:
                break
        host_seconds = time.perf_counter() - start_wall
        self.counters.add("scheduling_rounds", rounds)
        self.counters.add("workloads_run", len(tasks))
        return self._build_result(host_seconds)

    # ------------------------------------------------------------------ #
    # Report assembly
    # ------------------------------------------------------------------ #
    def _build_result(self, host_seconds: float) -> MultiCoreRunResult:
        core_reports = []
        for unit in self.cores:
            name = "+".join(unit.task_names) if unit.task_names else "idle"
            core_reports.append(build_report(
                name, host_seconds, config=self.config, core=unit.core,
                mmu=unit.mmu, tlbs=unit.tlbs, memory=unit.memory,
                kernel=self.kernel, coupling=self.coupling))
        merged = self._merge_reports(core_reports, host_seconds)
        return MultiCoreRunResult(core_reports=core_reports, merged=merged,
                                  host_seconds=host_seconds)

    def _merge_reports(self, core_reports: List[SimulationReport],
                       host_seconds: float) -> SimulationReport:
        total_instructions = sum(r.instructions for r in core_reports)
        total_kernel = sum(r.kernel_instructions for r in core_reports)
        total_cycles = sum(r.cycles for r in core_reports)
        total_walks = sum(r.page_walks for r in core_reports)
        total_ptw = sum(r.total_ptw_latency for r in core_reports)
        shared = core_reports[0]  # system-wide fields are identical per core
        merged = SimulationReport(
            workload="+".join(name for unit in self.cores
                              for name in unit.task_names),
            config_name=self.config.name,
            os_mode=self.config.simulation.os_mode,
            instructions=total_instructions,
            kernel_instructions=total_kernel,
            cycles=total_cycles,
            ipc=total_instructions / total_cycles if total_cycles else 0.0,
            l2_tlb_misses=sum(r.l2_tlb_misses for r in core_reports),
            page_walks=total_walks,
            average_ptw_latency=total_ptw / total_walks if total_walks else 0.0,
            total_ptw_latency=total_ptw,
            total_translation_latency=sum(r.total_translation_latency
                                          for r in core_reports),
            frontend_translation_cycles=sum(r.frontend_translation_cycles
                                            for r in core_reports),
            backend_translation_cycles=sum(r.backend_translation_cycles
                                           for r in core_reports),
            page_faults=sum(r.page_faults for r in core_reports),
            major_faults=shared.major_faults,
            fault_latency=shared.fault_latency,
            total_fault_latency=shared.total_fault_latency,
            swapped_pages=shared.swapped_pages,
            swap_cycles=shared.swap_cycles,
            dram_accesses=shared.dram_accesses,
            dram_row_conflicts=shared.dram_row_conflicts,
            dram_row_conflicts_translation=shared.dram_row_conflicts_translation,
            llc_misses=shared.llc_misses,
            translation_stall_cycles=sum(r.translation_stall_cycles
                                         for r in core_reports),
            fault_stall_cycles=sum(r.fault_stall_cycles for r in core_reports),
            data_stall_cycles=sum(r.data_stall_cycles for r in core_reports),
            host_seconds=host_seconds,
        )
        merged.details = {
            "cores": [
                {"core": unit.core.stats(), "mmu": unit.mmu.stats(),
                 "tlbs": unit.tlbs.stats(),
                 "l1": unit.memory.l1.stats(),
                 "hierarchy": unit.memory.counters.as_dict()}
                for unit in self.cores
            ],
            "shared_memory": {
                "l2": self.memory.l2.stats(),
                "l3": self.memory.l3.stats(),
                "dram": self.memory.dram.stats(),
            },
            "kernel": self.kernel.stats(),
            "coupling": self.coupling.stats(),
            "scheduler": self.counters.as_dict(),
        }
        if self.vm is not None:
            merged.details["virtualization"] = virtualization_details(self.vm,
                                                                      self.hypervisor)
        return merged
