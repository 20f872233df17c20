"""The Virtuoso orchestrator: build a system, run a workload, report results.

``Virtuoso`` assembles every model described by a
:class:`~repro.common.config.SystemConfig` — the memory hierarchy, the TLB
hierarchy and MMU, MimicOS, the SSD, the OS coupling for the chosen mode —
wires the page-fault path together, and exposes a small API the examples and
benchmarks use:

* :meth:`create_process` / :meth:`map_workload` — set up an address space;
* :meth:`prefault` — touch pages functionally before the measured region
  (the paper's page-cache-warming methodology);
* :meth:`run` — execute a workload trace on the core model and return a
  :class:`~repro.core.report.SimulationReport`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, Optional

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
from repro.mmu.extensions import MMUExtensions
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.storage.ssd import SSDModel


def resolve_mmu_extensions(config: SystemConfig,
                           mmu_extensions: Optional[MMUExtensions]) -> MMUExtensions:
    """The MMU extension set a system runs with.

    Virtualised systems force ``nested_translation`` on: the 2-D walk *is*
    the translation hardware of a virtualised core, not an optional add-on.
    """
    extensions = mmu_extensions or MMUExtensions()
    if config.virtualization.enabled and not extensions.nested_translation:
        extensions = replace(extensions, nested_translation=True)
    return extensions


def build_virtual_machine(hypervisor: MimicOS, config: SystemConfig,
                          rng: DeterministicRNG) -> VirtualMachine:
    """Spawn the guest MimicOS over ``hypervisor`` per the system config."""
    return VirtualMachine.from_virtualization_config(
        hypervisor, config.virtualization, name=f"{config.name}-vm",
        rng=rng.fork(5))


def virtualization_details(vm: VirtualMachine, hypervisor: MimicOS) -> Dict[str, object]:
    """The virtualisation section of a report's ``details`` (the parity
    harness diffs it like every other section)."""
    return {
        "vm": vm.stats(),
        "hypervisor": hypervisor.stats(),
    }


def prefault_pages(system, process: Process, addresses: Iterable[int]) -> int:
    """Fault in every unmapped page of ``addresses`` before the measured region.

    Mirrors the paper's methodology of warming the page cache / address
    space so experiments that study address translation are not dominated
    by cold faults.  ``system`` is a :class:`Virtuoso` or a
    ``MultiCoreVirtuoso``; in virtualised mode its VM handler installs both
    dimensions (the guest translation and the host frame backing it).

    The faults run with a :class:`~repro.mimicos.ops.DiscardedTrace`: set-up
    charges no simulated time, so the kernel work is never recorded.  Every
    allocator, page-table, residency and kernel-address side effect is the
    same as under a recording trace.  Counts the faults in the system's
    ``prefaulted_pages`` counter and returns them; raises ``RuntimeError``
    if an address segfaults.
    """
    handler = (system.vm.handle_guest_page_fault if system.vm is not None
               else system.kernel.handle_page_fault)
    trace = DiscardedTrace("prefault")
    faults = 0
    for address in addresses:
        if process.page_table.lookup(address) is None:
            if handler(process.pid, address, 0, trace).segfault:
                raise RuntimeError(f"prefault segfaulted at {address:#x}")
            faults += 1
    system.counters.add("prefaulted_pages", faults)
    return faults


class Virtuoso:
    """One fully assembled simulated system."""

    def __init__(self, config: SystemConfig, seed: int = 0,
                 mmu_extensions: Optional[MMUExtensions] = None):
        self.config = config
        self.rng = DeterministicRNG(seed)
        self.counters = Counter()

        # Hardware models.
        self.memory = MemoryHierarchy.from_system_config(config)
        self.tlbs = TLBHierarchy(config.l1i_tlb, config.l1d_tlb_4k,
                                 config.l1d_tlb_2m, config.l2_tlb)
        self.mmu = MMU(self.tlbs, self.memory,
                       resolve_mmu_extensions(config, mmu_extensions))

        # Storage and the OS.  In virtualised mode the system-level MimicOS
        # config describes the *hypervisor*; the guest kernel — the OS the
        # application and every process-facing API below sees — is spawned
        # on top of it through the VirtualMachine.
        self.ssd = SSDModel(config.ssd, config.core.frequency_ghz)
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

        # Core model and the OS coupling.
        self.core = CoreModel(config.core, self.mmu, self.memory)
        self.coupling: OSCoupling = build_coupling(config.simulation, self.kernel,
                                                   self.core, vm=self.vm)
        # Callbacks from owned parts back up hold their owner weakly (see
        # repro.common.weak), so a dropped system is freed at once.
        self.mmu.set_fault_callback(WeakCallback(self.coupling.handle_page_fault))
        # Kernel unmaps/remaps (reclaim, khugepaged, THP promotion, munmap,
        # restrictive-mapping evictions) shoot stale translations out of the
        # TLBs, exactly as the IPI-based shootdown does on real hardware.
        # In virtualised mode this is the *guest* kernel's shootdown; the
        # hypervisor's remaps of guest-RAM backing additionally broadcast a
        # nested (combined-mapping) invalidation through the VM.
        self.kernel.register_tlb_listener(self.mmu.invalidate_translation)
        if self.vm is not None:
            self.vm.register_nested_invalidation_listener(self.mmu.on_nested_shootdown)

        #: Emulation-mode fixed-latency wrappers, keyed by pid.
        self._emulation_wrappers: Dict[int, FixedLatencyPageTable] = {}

        if config.mimicos.fragmentation_target < 1.0:
            # config.mimicos describes the hypervisor in virtualised mode.
            (self.hypervisor or self.kernel).fragment_memory()

    # ------------------------------------------------------------------ #
    # Address-space setup
    # ------------------------------------------------------------------ #
    def create_process(self, name: str = "") -> Process:
        """Create a process and point the MMU at its address space.

        In virtualised mode the process lives inside the guest OS and the
        MMU additionally receives the process's 2-D translation unit.
        """
        if self.vm is not None:
            process = self.vm.create_guest_process(name)
            self.mmu.set_nested_unit(self.vm.nested_unit_for(process))
            self.mmu.set_context(process.pid, process.page_table)
            return process
        process = self.kernel.create_process(name)
        page_table = process.page_table
        if self.config.simulation.os_mode == "emulation" and not page_table.replaces_tlbs:
            page_table = FixedLatencyPageTable(page_table,
                                               self.config.simulation.fixed_ptw_latency)
            self._emulation_wrappers[process.pid] = page_table
        self.mmu.set_context(process.pid, page_table)
        return process

    def activate_process(self, process: Process) -> None:
        """Switch the MMU to ``process`` (flushing the TLBs, as on a context switch)."""
        if self.vm is not None:
            self.mmu.set_nested_unit(self.vm.nested_unit_for(process))
        page_table = self._emulation_wrappers.get(process.pid, process.page_table)
        self.mmu.set_context(process.pid, page_table, flush_tlbs=True)

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
        """Install translations for ``addresses`` without charging simulation time.

        See :func:`prefault_pages`.  Returns the number of faults taken.
        """
        return prefault_pages(self, process, addresses)

    # ------------------------------------------------------------------ #
    # Main run loop
    # ------------------------------------------------------------------ #
    def run(self, workload, process: Optional[Process] = None,
            max_instructions: Optional[int] = None,
            setup: bool = True) -> SimulationReport:
        """Simulate ``workload`` and return the collected report."""
        if process is None:
            process = self.create_process(workload.name)
        if setup:
            workload.setup(self.kernel, process)
        if getattr(workload, "prefault", False):
            self.prefault(process, workload.prefault_addresses(process))
        self.activate_process(process)

        limit = max_instructions or self.config.simulation.max_instructions
        batch_size = self.config.simulation.batch_size
        start_wall = time.perf_counter()
        executed = 0
        for batch in workload.instruction_batches(process, batch_size):
            remaining = None if limit is None else limit - executed
            executed += self.core.execute_batch(batch, remaining)
            if limit is not None and executed >= limit:
                break
        host_seconds = time.perf_counter() - start_wall
        self.counters.add("workloads_run")
        report = build_report(getattr(workload, "name", str(workload)), host_seconds,
                              config=self.config, core=self.core, mmu=self.mmu,
                              tlbs=self.tlbs, memory=self.memory, kernel=self.kernel,
                              coupling=self.coupling)
        if self.vm is not None:
            report.details["virtualization"] = virtualization_details(self.vm,
                                                                      self.hypervisor)
        return report


def build_report(workload_name: str, host_seconds: float, *, config: SystemConfig,
                 core: CoreModel, mmu: MMU, tlbs: TLBHierarchy,
                 memory: MemoryHierarchy, kernel: MimicOS,
                 coupling: OSCoupling) -> SimulationReport:
    """Assemble a :class:`SimulationReport` from one core's component set.

    Shared by :class:`Virtuoso` (whose single core owns every component) and
    the multi-core orchestrator's per-core reports, where ``core``/``mmu``/
    ``tlbs``/``memory`` are that core's private models while ``kernel``,
    ``coupling`` and the L2/LLC/DRAM levels behind ``memory`` are system-wide
    — so in a multi-core system the fault-latency distribution, major-fault
    count, swap and DRAM fields of a per-core report describe the whole
    machine, not one core.
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
