"""The Virtuoso orchestrator: build a system, run workloads, report results.

``Virtuoso`` assembles every model a
:class:`~repro.common.config.SystemConfig` describes for ``num_cores``
simulated cores, wires the page-fault path together, and exposes the API
the examples and benchmarks use: :meth:`~Virtuoso.create_process` /
:meth:`~Virtuoso.map_workload` set up an address space,
:meth:`~Virtuoso.prefault` warms it without charging simulated time (the
paper's page-cache-warming methodology), :meth:`~Virtuoso.run` executes one
workload on core 0 and returns a :class:`~repro.core.report.SimulationReport`,
and :meth:`~Virtuoso.run_tasks` co-runs several and returns a
:class:`MultiCoreRunResult`.

Every core is a :class:`SimulatedCore` with its own
:class:`~repro.core.cpu.CoreModel`, L1 cache and L1 prefetcher, TLB
hierarchy and :class:`~repro.mmu.mmu.MMU`.  Core 0 owns the full
:class:`~repro.memhier.memory_system.MemoryHierarchy`; every other core gets
a :meth:`~repro.memhier.memory_system.MemoryHierarchy.per_core_view`
aliasing the shared L2, LLC, DRAM and L2 prefetcher, so co-runners pollute
each other's shared levels and contend on the DRAM row buffers.  One
MimicOS (in virtualised mode the guest kernel over a hypervisor) handles
every core's faults through one coupling, rebound to the faulting core
first (``bind_core``), so the handler's instruction stream executes on —
and pollutes the private state of — the core whose access faulted.

Scheduling: both run methods drive one chunk loop.  Each scheduling round
visits the cores in index order and runs one ``execute_batch`` chunk of the
core's next runnable task.  :meth:`~Virtuoso.run_tasks` admits its tasks
through the MimicOS run queue and puts task *i* on core *i* mod N.  A core
with several tasks round-robins between them, with a full context switch
(MimicOS bookkeeping, then ``MMU.set_context`` with a TLB flush) whenever
the incoming process differs from the current one or last ran on another
core (there are no cross-core shootdowns to rely on).
:meth:`~Virtuoso.run` switches its one process in with
:meth:`~Virtuoso.activate_process` (the flush alone), so a single workload
adds no scheduler bookkeeping to the kernel's statistics.

The schedule is a pure function of the task list and configuration and
every RNG is explicitly seeded, so a run is bit-identical across repeats
(``tests/test_fast_engine.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter
from repro.common.weak import WeakCallback
from repro.core.cpu import CoreModel
from repro.core.modes import FixedLatencyPageTable, OSCoupling, build_coupling
from repro.core.report import SimulationReport
from repro.memhier.memory_system import MemoryHierarchy
from repro.mimicos.hypervisor import VirtualMachine
from repro.mimicos.kernel import MimicOS
from repro.mimicos.ops import DiscardedTrace
from repro.mimicos.process import Process
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
        #: Pid switched in on this core (None until a task is, and after
        #: create_process re-points the MMU without a switch).
        self.current_pid: Optional[int] = None
        self.clear_tasks()

    def clear_tasks(self) -> None:
        """Forget the previous run's tasks (its counters stay cumulative)."""
        self.tasks: List[CoreTask] = []
        self.task_names: List[str] = []
        self._cursor = 0

    def next_task(self) -> Optional[CoreTask]:
        """Round-robin over this core's unfinished tasks (None when drained)."""
        count = len(self.tasks)
        for offset in range(count):
            task = self.tasks[(self._cursor + offset) % count]
            if not task.done:
                self._cursor = (self._cursor + offset + 1) % count
                return task
        return None


@dataclass
class MultiCoreRunResult:
    """Outcome of one :meth:`Virtuoso.run_tasks`: per-core reports plus a
    system merge."""

    #: One report per core, built like a :meth:`Virtuoso.run` report.
    #: Pipeline/TLB/MMU/stall fields are core-local; fault-latency,
    #: major-fault, swap and DRAM fields are system-wide (shared kernel /
    #: DRAM), identical in every per-core report.
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


class Virtuoso:
    """One fully assembled simulated system of ``num_cores`` cores.

    ``memory``, ``mmu``, ``core`` and ``tlbs`` name core 0's parts.
    """

    def __init__(self, config: SystemConfig, seed: int = 0, num_cores: int = 1):
        if num_cores < 1:
            raise ValueError("num_cores must be at least 1")
        self.config = config
        self.num_cores = num_cores
        self.rng = DeterministicRNG(seed)
        self.counters = Counter()

        # Storage and the OS.  In virtualised mode the system-level MimicOS
        # config describes the *hypervisor*; the guest kernel — the OS the
        # application, the run queue and every process-facing API below
        # sees — is spawned on top of it through the VirtualMachine.
        self.ssd = SSDModel(config.ssd, config.core.frequency_ghz)
        self.hypervisor: Optional[MimicOS] = None
        self.vm: Optional[VirtualMachine] = None
        if config.virtualization.enabled:
            self.hypervisor = MimicOS(config.mimicos, config.page_table, ssd=self.ssd,
                                      rng=self.rng.fork(3))
            self.vm = VirtualMachine.from_virtualization_config(
                self.hypervisor, config.virtualization, name=f"{config.name}-vm",
                rng=self.rng.fork(5))
            self.kernel = self.vm.guest
        else:
            self.kernel = MimicOS(config.mimicos, config.page_table, ssd=self.ssd,
                                  rng=self.rng.fork(3))

        # Hardware models: core 0's hierarchy owns the shared L2/LLC/DRAM;
        # every other core gets a private-L1 view aliasing those levels.
        self.memory = MemoryHierarchy.from_system_config(config)
        self.cores: List[SimulatedCore] = []
        for index in range(num_cores):
            memory = self.memory if index == 0 else \
                MemoryHierarchy.per_core_view(self.memory, config)
            tlbs = TLBHierarchy(config.l1i_tlb, config.l1d_tlb_4k,
                                config.l1d_tlb_2m, config.l2_tlb)
            mmu = MMU(tlbs, memory, core_index=index)
            core = CoreModel(config.core, mmu, memory, core_index=index)
            self.cores.append(SimulatedCore(index, core, mmu, tlbs, memory))
        first = self.cores[0]
        self.core, self.mmu, self.tlbs = first.core, first.mmu, first.tlbs

        # One coupling / one kernel arbitrate faults from every core; each
        # core's fault callback rebinds the coupling to itself first, so the
        # handler stream is routed to (and executed on) the faulting core.
        self.coupling: OSCoupling = build_coupling(config.simulation, self.kernel,
                                                   self.core, vm=self.vm)
        # Kernel-visible time is the leading core's clock: co-running cores
        # share wall time, so SSD channel queues and swap aging must not see
        # one core's future as another core's past.  Callbacks from owned
        # parts back up hold their owner weakly (see repro.common.weak), so
        # a dropped system is freed at once.
        self.coupling.set_clock(WeakCallback(self._system_clock))
        handle_fault = WeakCallback(self._handle_page_fault)
        for unit in self.cores:
            unit.mmu.set_fault_callback(partial(handle_fault, unit.index))
            # Kernel unmaps/remaps (reclaim, khugepaged, THP promotion,
            # munmap, restrictive-mapping evictions) broadcast a TLB
            # shootdown to every core; each MMU acts only when it currently
            # runs the target address space (the IPI filter real kernels
            # apply).  In virtualised mode this is the guest kernel's
            # shootdown; hypervisor remaps of guest-RAM backing broadcast a
            # nested invalidation to every core on top (no pid filter —
            # combined mappings are suspect on every core running any guest
            # context).
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

    def _handle_page_fault(self, core_index: int, pid: int, virtual_address: int):
        """Core ``core_index``'s fault callback: run the fault on that core."""
        unit = self.cores[core_index]
        self.coupling.bind_core(unit.core)
        return self.coupling.handle_page_fault(pid, virtual_address)

    # ------------------------------------------------------------------ #
    # Address-space setup
    # ------------------------------------------------------------------ #
    def create_process(self, name: str = "") -> Process:
        """Create a process and point core 0's MMU at its address space.

        In virtualised mode the process lives inside the guest OS and the
        MMU additionally receives the process's 2-D translation unit.  The
        process is switched in (with a TLB flush) when it is scheduled.
        """
        if self.vm is not None:
            process = self.vm.create_guest_process(name)
        else:
            process = self.kernel.create_process(name)
            page_table = process.page_table
            if (self.config.simulation.os_mode == "emulation"
                    and not page_table.replaces_tlbs):
                self._emulation_wrappers[process.pid] = FixedLatencyPageTable(
                    page_table, self.config.simulation.fixed_ptw_latency)
        self._set_context(self.cores[0], process, flush_tlbs=False)
        return process

    def _set_context(self, unit: SimulatedCore, process: Process,
                     flush_tlbs: bool) -> None:
        """Point ``unit``'s MMU at ``process``.  A flush drops the core's
        TLBs and, in virtualised mode, the nested TLB of the incoming 2-D
        unit (untagged-TLB semantics).  Only a
        flushing switch makes ``process`` current on the core; after a bare
        re-point no process is, so the next scheduled task switches in."""
        if self.vm is not None:
            unit.mmu.set_nested_unit(self.vm.nested_unit_for(process, unit.index))
        page_table = self._emulation_wrappers.get(process.pid, process.page_table)
        unit.mmu.set_context(process.pid, page_table, flush_tlbs=flush_tlbs)
        unit.current_pid = process.pid if flush_tlbs else None

    def activate_process(self, process: Process) -> None:
        """Switch core 0 to ``process`` (flushing the TLBs, as on a context
        switch) without the kernel's scheduler bookkeeping."""
        self._set_context(self.cores[0], process, flush_tlbs=True)

    def map_workload(self, workload, process: Optional[Process] = None) -> Process:
        """Create (if needed) a process and let the workload build its VMAs."""
        if process is None:
            process = self.create_process(workload.name)
        workload.setup(self.kernel, process)
        return process

    # ------------------------------------------------------------------ #
    # Pre-faulting (warm-up)
    # ------------------------------------------------------------------ #
    def prefault(self, process: Process, addresses: Iterable[int]) -> int:
        """Fault in every unmapped page of ``addresses`` before the measured region.

        Mirrors the paper's methodology of warming the page cache / address
        space so experiments that study address translation are not
        dominated by cold faults; in virtualised mode the VM handler
        installs both dimensions (the guest translation and the host frame
        backing it).

        The faults run with a :class:`~repro.mimicos.ops.DiscardedTrace`:
        set-up charges no simulated time, so the kernel work is never
        recorded.  Every allocator, page-table, residency and kernel-address
        side effect is the same as under a recording trace.  Counts the
        faults in the ``prefaulted_pages`` counter and returns them; raises
        ``RuntimeError`` if an address segfaults.
        """
        handler = (self.vm.handle_guest_page_fault if self.vm is not None
                   else self.kernel.handle_page_fault)
        trace = DiscardedTrace("prefault")
        faults = 0
        for address in addresses:
            if process.page_table.lookup(address) is None:
                # One lookup per page: the handler trusts it (``unmapped``).
                if handler(process.pid, address, 0, trace, unmapped=True).segfault:
                    raise RuntimeError(f"prefault segfaulted at {address:#x}")
                faults += 1
        self.counters.add("prefaulted_pages", faults)
        return faults

    def _admit(self, workload, process: Optional[Process], setup: bool,
               max_instructions: Optional[int]) -> CoreTask:
        """Create (if needed), set up and prefault one task's process."""
        if process is None:
            process = self.create_process(getattr(workload, "name", ""))
        if setup:
            workload.setup(self.kernel, process)
        if getattr(workload, "prefault", False):
            self.prefault(process, workload.prefault_addresses(process))
        return CoreTask(workload, process,
                        max_instructions or self.config.simulation.max_instructions)

    def _assign(self, tasks: Sequence[CoreTask]) -> None:
        """Start a run: empty every core's task list, then deal ``tasks``
        out round-robin (task *i* on core *i* mod N)."""
        for unit in self.cores:
            unit.clear_tasks()
        for position, task in enumerate(tasks):
            unit = self.cores[position % self.num_cores]
            unit.tasks.append(task)
            unit.task_names.append(task.name)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, workload, process: Optional[Process] = None,
            max_instructions: Optional[int] = None,
            setup: bool = True) -> SimulationReport:
        """Simulate ``workload`` on core 0 and return that core's report."""
        task = self._admit(workload, process, setup, max_instructions)
        self._assign([task])
        self.activate_process(task.process)
        host_seconds = self._run_chunks()
        self.counters.add("workloads_run")
        report = self._core_report(self.cores[0], host_seconds)
        if self.vm is not None:
            report.details["virtualization"] = self._virtualization_details()
        return report

    def run_tasks(self, workloads: Sequence[object],
                  processes: Optional[Sequence[Process]] = None,
                  max_instructions: Optional[int] = None,
                  setup: bool = True) -> MultiCoreRunResult:
        """Co-run ``workloads`` (task *i* on core *i* mod N) and report.

        ``max_instructions`` bounds each task individually (falling back to
        ``SimulationConfig.max_instructions``).
        """
        if not workloads:
            raise ValueError("need at least one workload")
        task_by_pid: Dict[int, CoreTask] = {}
        for position, workload in enumerate(workloads):
            task = self._admit(workload,
                               None if processes is None else processes[position],
                               setup, max_instructions)
            task_by_pid[task.process.pid] = task
            self.kernel.enqueue_runnable(task.process.pid)

        # Drain the kernel run queue (FIFO) onto the cores round-robin —
        # the submission-order affinity the chunk interleaving preserves.
        tasks: List[CoreTask] = []
        process = self.kernel.next_runnable()
        while process is not None:
            tasks.append(task_by_pid[process.pid])
            process = self.kernel.next_runnable()
        self._assign(tasks)

        host_seconds = self._run_chunks()
        self.counters.add("workloads_run", len(tasks))
        core_reports = [self._core_report(unit, host_seconds) for unit in self.cores]
        return MultiCoreRunResult(core_reports=core_reports,
                                  merged=self._merge_reports(core_reports, host_seconds),
                                  host_seconds=host_seconds)

    def _run_chunks(self) -> float:
        """The chunk loop: run every assigned task to completion, one chunk
        per core per scheduling round; returns the host seconds it took."""
        batch_size = self.config.simulation.batch_size
        start_wall = time.perf_counter()
        rounds = 0
        while True:
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
        return host_seconds

    def _context_switch(self, unit: SimulatedCore, task: CoreTask) -> None:
        """Switch ``task`` in on ``unit`` if it is not already current.

        A switch is needed when the core runs a different process, or when
        the incoming process last ran on another core (migration).  Both
        take the full path: MimicOS bookkeeping plus ``set_context`` with a
        TLB flush.  A
        process :meth:`activate_process` switched in has never been
        scheduled (``last_core`` is None) and stays current.
        """
        process = task.process
        if (unit.current_pid == process.pid
                and process.last_core in (None, unit.index)):
            return
        self.kernel.context_switch(unit.index, process)
        self._set_context(unit, process, flush_tlbs=True)
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

    def _execute_chunk(self, unit: SimulatedCore, task: CoreTask, batch) -> None:
        """Run one pulled chunk of ``task`` on ``unit``."""
        remaining = None if task.limit is None else task.limit - task.executed
        task.executed += unit.core.execute_batch(batch, remaining)
        if task.limit is not None and task.executed >= task.limit:
            task.done = True

    # ------------------------------------------------------------------ #
    # Report assembly
    # ------------------------------------------------------------------ #
    def _core_report(self, unit: SimulatedCore, host_seconds: float) -> SimulationReport:
        name = "+".join(unit.task_names) if unit.task_names else "idle"
        return build_report(name, host_seconds, config=self.config, core=unit.core,
                            mmu=unit.mmu, tlbs=unit.tlbs, memory=unit.memory,
                            kernel=self.kernel, coupling=self.coupling)

    def _virtualization_details(self) -> Dict[str, object]:
        """The virtualisation section of a report's ``details`` (the parity
        harness diffs it like every other section)."""
        return {"vm": self.vm.stats(), "hypervisor": self.hypervisor.stats()}

    def _merge_reports(self, core_reports: List[SimulationReport],
                       host_seconds: float) -> SimulationReport:
        def total(name: str):
            return sum(getattr(report, name) for report in core_reports)

        instructions, cycles = total("instructions"), total("cycles")
        walks, ptw_latency = total("page_walks"), total("total_ptw_latency")
        shared = core_reports[0]  # system-wide fields are identical per core
        merged = SimulationReport(
            workload="+".join(name for unit in self.cores
                              for name in unit.task_names),
            config_name=self.config.name,
            os_mode=self.config.simulation.os_mode,
            instructions=instructions,
            kernel_instructions=total("kernel_instructions"),
            cycles=cycles,
            ipc=instructions / cycles if cycles else 0.0,
            l2_tlb_misses=total("l2_tlb_misses"),
            page_walks=walks,
            average_ptw_latency=ptw_latency / walks if walks else 0.0,
            total_ptw_latency=ptw_latency,
            total_translation_latency=total("total_translation_latency"),
            frontend_translation_cycles=total("frontend_translation_cycles"),
            backend_translation_cycles=total("backend_translation_cycles"),
            page_faults=total("page_faults"),
            major_faults=shared.major_faults,
            fault_latency=shared.fault_latency,
            total_fault_latency=shared.total_fault_latency,
            swapped_pages=shared.swapped_pages,
            swap_cycles=shared.swap_cycles,
            dram_accesses=shared.dram_accesses,
            dram_row_conflicts=shared.dram_row_conflicts,
            dram_row_conflicts_translation=shared.dram_row_conflicts_translation,
            llc_misses=shared.llc_misses,
            translation_stall_cycles=total("translation_stall_cycles"),
            fault_stall_cycles=total("fault_stall_cycles"),
            data_stall_cycles=total("data_stall_cycles"),
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
            merged.details["virtualization"] = self._virtualization_details()
        return merged


def build_report(workload_name: str, host_seconds: float, *, config: SystemConfig,
                 core: CoreModel, mmu: MMU, tlbs: TLBHierarchy,
                 memory: MemoryHierarchy, kernel: MimicOS,
                 coupling: OSCoupling) -> SimulationReport:
    """Assemble a :class:`SimulationReport` from one core's component set.

    ``core``/``mmu``/``tlbs``/``memory`` are that core's private models
    while ``kernel``, ``coupling`` and the L2/LLC/DRAM levels behind
    ``memory`` are system-wide — so in a multi-core system the
    fault-latency distribution, major-fault count, swap and DRAM fields of
    a per-core report describe the whole machine, not one core.
    """
    mmu_counters = mmu.counters.as_dict()
    dram = memory.dram
    page_table = mmu.page_table

    frontend = 0
    backend = 0
    if page_table is not None and hasattr(page_table, "latency_breakdown"):
        breakdown = page_table.latency_breakdown()
        frontend = breakdown.get("frontend", 0)
        backend = breakdown.get("backend", 0)

    report = SimulationReport(
        workload=workload_name,
        config_name=config.name,
        os_mode=config.simulation.os_mode,
        instructions=core.instructions,
        kernel_instructions=core.kernel_instructions,
        cycles=core.cycles,
        ipc=core.ipc,
        l2_tlb_misses=tlbs.l2_misses(),
        page_walks=mmu_counters.get("page_walks", 0),
        average_ptw_latency=mmu.average_ptw_latency(),
        total_ptw_latency=mmu.total_ptw_latency(),
        total_translation_latency=mmu.total_translation_latency(),
        frontend_translation_cycles=frontend,
        backend_translation_cycles=backend,
        page_faults=mmu_counters.get("page_faults", 0),
        major_faults=coupling.counters.get("major_faults"),
        fault_latency=coupling.fault_latency,
        total_fault_latency=coupling.fault_latency.total,
        swapped_pages=kernel.swap.counters.get("swap_outs"),
        swap_cycles=kernel.swap.swap_cycles,
        dram_accesses=dram.counters.get("accesses"),
        dram_row_conflicts=dram.counters.get("row_conflicts"),
        dram_row_conflicts_translation=dram.translation_row_conflicts(),
        llc_misses=memory.l3.misses(),
        translation_stall_cycles=core.breakdown.translation_cycles,
        fault_stall_cycles=core.breakdown.fault_cycles,
        data_stall_cycles=core.breakdown.data_stall_cycles,
        host_seconds=host_seconds,
    )
    report.details = {
        "mmu": mmu.stats(),
        "core": core.stats(),
        "kernel": kernel.stats(),
        "coupling": coupling.stats(),
        "memory": memory.stats(),
    }
    return report
