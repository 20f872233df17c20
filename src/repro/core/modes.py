"""OS-coupling modes: imitation (Virtuoso), emulation, full-system, reference.

The coupling is the piece of Virtuoso that owns the protocol of §4.2: it
receives page-fault events from the MMU, calls MimicOS's fault handler (the
functional channel), turns the resulting kernel trace into an instruction
stream ended by a magic instruction (imitation/full-system modes), has the
core model execute it (the instruction-stream channel), and reports the
resulting latency back to the MMU.  Both channels are direct calls; the
coupling counts their traffic under ``functional_channel`` and
``instruction_channel`` in its statistics.

Four modes are provided:

* :class:`ImitationCoupling` — the paper's contribution.
* :class:`EmulationCoupling` — the fixed-latency baseline (how Sniper and
  ChampSim model VM out of the box).  MimicOS is still consulted so the
  functional state stays correct, but no instruction stream is injected and
  a constant latency is charged.
* :class:`FullSystemCoupling` — a gem5-FS stand-in: the same protocol as
  imitation but with the *whole* kernel simulated (larger instruction
  streams plus background kernel activity), used by the overhead studies.
* :class:`ReferenceCoupling` — the stand-in for the real validation machine:
  imitation plus the OS background noise and latency variance a real system
  exhibits (see DESIGN.md §2 for the substitution rationale).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, LatencyDistribution
from repro.core.cpu import CoreModel
from repro.core.instructions import OP_MAGIC
from repro.core.instrumentation import InstrumentationTool
from repro.mimicos.kernel import MimicOS
from repro.mimicos.ops import KernelRoutineTrace
from repro.pagetables.base import PageTableBase, WalkResult


class FixedLatencyPageTable(PageTableBase):
    """Decorator giving any page table a fixed hardware-walk latency.

    Used by the emulation baseline: walks cost a constant number of cycles
    and issue no memory traffic (exactly what a fixed-PTW-latency simulator
    models), while all software-visible behaviour is delegated to the real
    structure so the functional state remains correct.
    """

    kind = "fixed_latency"

    def __init__(self, inner: PageTableBase, fixed_latency: int):
        super().__init__(frame_allocator=inner.frame_allocator)
        self.inner = inner
        self.fixed_latency = fixed_latency
        self.overrides_allocation = inner.overrides_allocation
        self.replaces_tlbs = False

    # Software interface delegates wholesale.
    def insert(self, virtual_address, physical_address, page_size, trace=None):
        self.inner.insert(virtual_address, physical_address, page_size, trace)

    def remove(self, virtual_address, trace=None):
        return self.inner.remove(virtual_address, trace)

    def lookup(self, virtual_address):
        return self.inner.lookup(virtual_address)

    def translate_functional(self, virtual_address):
        return self.inner.translate_functional(virtual_address)

    def allocate_for_fault(self, pid, virtual_address, vma, buddy, trace=None):
        return self.inner.allocate_for_fault(pid, virtual_address, vma, buddy, trace)

    def walk(self, virtual_address, memory) -> WalkResult:
        self.counters.add("walks")
        mapping = self.inner.lookup(virtual_address)
        if mapping is None:
            self.counters.add("walk_faults")
            return WalkResult(found=False, latency=self.fixed_latency, memory_accesses=0)
        physical_base, page_size = mapping
        self.counters.add("walk_hits")
        return WalkResult(found=True, latency=self.fixed_latency, memory_accesses=0,
                          physical_base=physical_base, page_size=page_size)

    def _insert_structure(self, virtual_base, physical_base, page_size, trace):
        raise AssertionError("delegating wrapper never builds its own structure")

    def stats(self):
        merged = dict(self.inner.stats())
        merged.update(self.counters.as_dict())
        return merged


class OSCoupling:
    """Base class of the simulator <-> MimicOS couplings."""

    name = "base"

    def __init__(self, kernel: MimicOS, core: CoreModel,
                 simulation_config: SimulationConfig):
        self.kernel = kernel
        self.core = core
        self.simulation_config = simulation_config
        #: Page faults sent to MimicOS and answered (``requests``,
        #: ``responses``): the paper's functional channel.
        self.functional_channel = Counter()
        #: Kernel streams injected into the core and their instructions,
        #: terminators excluded: the instruction-stream channel.
        self.instruction_channel = Counter()
        self.counters = Counter()
        #: Per-fault latency in cycles (the Fig. 2 / 9 / 16 distributions).
        self.fault_latency = LatencyDistribution()
        #: Clock the kernel sees for time-dependent state (SSD channel
        #: queues, swap aging).  Defaults to the active core's cycles;
        #: Virtuoso installs its system clock (the leading core's cycles),
        #: because shared SSD queue state driven by divergent per-core
        #: clocks would charge one core's future as another core's
        #: queueing delay.
        self._clock: Optional[Callable[[], float]] = None

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Install a system-wide clock for kernel-visible time."""
        self._clock = clock

    def _now_cycles(self) -> int:
        if self._clock is not None:
            return int(self._clock())
        return int(self.core.cycles)

    def bind_core(self, core: CoreModel) -> None:
        """Route subsequent kernel work to ``core``.

        Virtuoso calls this from each core's fault callback before
        delegating to :meth:`handle_page_fault`, so the handler's
        instruction stream executes on — and its latency is charged to — the
        core whose access actually faulted.  With one core it rebinds the
        core passed at construction.
        """
        self.core = core

    def handle_page_fault(self, pid: int, virtual_address: int) -> Tuple[int, bool]:
        """MMU fault callback: returns (latency in cycles, handled)."""
        raise NotImplementedError

    def _dispatch_to_kernel(self, pid: int, virtual_address: int):
        """Hand one fault to MimicOS and return the kernel's result."""
        self.functional_channel.add("requests")
        result = self.kernel.handle_page_fault(pid, virtual_address,
                                               now_cycles=self._now_cycles())
        self.functional_channel.add("responses")
        return result

    def kernel_instructions_injected(self) -> int:
        """Total MimicOS instructions streamed into the core model."""
        return self.instruction_channel.get("instructions")

    def stats(self) -> Dict[str, object]:
        """Coupling-level statistics."""
        return {
            "counters": self.counters.as_dict(),
            "functional_channel": self.functional_channel.as_dict(),
            "instruction_channel": self.instruction_channel.as_dict(),
            "fault_latency": self.fault_latency.summary(),
        }


class ImitationCoupling(OSCoupling):
    """Virtuoso's imitation-based coupling: inject the handler's instructions."""

    name = "imitation"

    def __init__(self, kernel: MimicOS, core: CoreModel,
                 simulation_config: SimulationConfig,
                 instrumentation: Optional[InstrumentationTool] = None):
        super().__init__(kernel, core, simulation_config)
        self.instrumentation = instrumentation or InstrumentationTool(
            mode=simulation_config.instrumentation)

    def handle_page_fault(self, pid: int, virtual_address: int) -> Tuple[int, bool]:
        self.counters.add("page_faults")
        result = self._dispatch_to_kernel(pid, virtual_address)
        execution_cycles = self._execute_trace(result.trace)
        latency = int(execution_cycles) + result.disk_latency_cycles
        latency = self._post_process_latency(latency, result)
        self.fault_latency.add(latency)
        self.kernel.fault_latency.add(latency)
        if result.is_major:
            self.counters.add("major_faults")
        return latency, not result.segfault

    def _execute_trace(self, trace: KernelRoutineTrace) -> float:
        """Expand one kernel trace and execute it on the bound core.

        The magic instruction that ends the stream (§4.2: the core switches
        back to the application) is appended after the stream is counted.
        Returns the cycles the stream consumed.
        """
        batch = self.instrumentation.expand_batch(trace)
        self.instruction_channel.add("streams")
        self.instruction_channel.add("instructions", len(batch))
        batch.append(OP_MAGIC, 0)
        return self.core.execute_kernel_batch(batch)

    def _post_process_latency(self, latency: int, result) -> int:
        """Hook for subclasses (the reference coupling adds measured noise)."""
        return latency


class EmulationCoupling(OSCoupling):
    """Fixed-latency baseline: functional OS, constant page-fault cost."""

    name = "emulation"

    def handle_page_fault(self, pid: int, virtual_address: int) -> Tuple[int, bool]:
        self.counters.add("page_faults")
        result = self._dispatch_to_kernel(pid, virtual_address)
        latency = self.simulation_config.fixed_page_fault_latency + result.disk_latency_cycles
        self.fault_latency.add(latency)
        self.kernel.fault_latency.add(latency)
        return latency, not result.segfault


class FullSystemCoupling(ImitationCoupling):
    """Full-kernel stand-in: imitation plus the rest of the OS.

    Models what a full-system simulator pays: every handled event executes a
    larger slice of kernel code (``full_system_factor``), and unrelated
    background kernel activity (scheduler ticks, RCU callbacks, timers) is
    injected periodically.
    """

    name = "full_system"

    #: Extra kernel code executed relative to the targeted MimicOS modules.
    FULL_SYSTEM_FACTOR = 2.4
    #: One background-activity burst is injected every this many faults.
    BACKGROUND_INTERVAL = 8
    #: Instructions per background burst.
    BACKGROUND_INSTRUCTIONS = 600

    def __init__(self, kernel: MimicOS, core: CoreModel,
                 simulation_config: SimulationConfig):
        super().__init__(kernel, core, simulation_config,
                         instrumentation=InstrumentationTool(
                             mode=simulation_config.instrumentation,
                             full_system_factor=self.FULL_SYSTEM_FACTOR))
        self._faults_since_background = 0

    def handle_page_fault(self, pid: int, virtual_address: int) -> Tuple[int, bool]:
        latency, handled = super().handle_page_fault(pid, virtual_address)
        self._faults_since_background += 1
        if self._faults_since_background >= self.BACKGROUND_INTERVAL:
            self._faults_since_background = 0
            latency += int(self._execute_background())
            self.counters.add("background_bursts")
        return latency, handled

    def _background_trace(self) -> KernelRoutineTrace:
        trace = KernelRoutineTrace(routine="kernel_background")
        op = trace.new_op("scheduler_tick", work_units=self.BACKGROUND_INSTRUCTIONS // 4)
        for index in range(16):
            op.touch(0xFFFF_9000_0000_0000 + index * 256, is_write=index % 4 == 0)
        return trace

    def _execute_background(self) -> float:
        """Inject one background burst on the bound core."""
        return self.core.execute_kernel_batch(
            self.instrumentation.expand_batch(self._background_trace()))


class VirtualizedCoupling(ImitationCoupling):
    """Two-kernel coupling for virtualised guests (§6.1).

    The application runs inside a guest MimicOS whose "physical" memory is a
    region of the hypervisor MimicOS's virtual address space.  A guest page
    fault is dispatched to the :class:`~repro.mimicos.hypervisor
    .VirtualMachine`: the guest kernel resolves it against guest-physical
    memory and, when the chosen guest frame has no host backing yet, the
    hypervisor takes its own fault on the guest-RAM mapping.  *Both* kernels'
    traces are expanded and executed on the faulting core — the guest
    handler's instructions and the hypervisor's — so a nested fault costs
    two injected kernel streams plus both levels' disk latency, exactly the
    two-level cost profile the paper's virtualisation model describes.
    """

    name = "virtualized"

    def __init__(self, vm, core: CoreModel, simulation_config: SimulationConfig,
                 instrumentation: Optional[InstrumentationTool] = None):
        super().__init__(vm.guest, core, simulation_config, instrumentation)
        self.vm = vm

    def handle_page_fault(self, pid: int, virtual_address: int) -> Tuple[int, bool]:
        self.counters.add("page_faults")
        self.functional_channel.add("requests")
        result = self.vm.handle_guest_page_fault(pid, virtual_address,
                                                 now_cycles=self._now_cycles())
        self.functional_channel.add("responses")
        execution_cycles = self._execute_trace(result.guest.trace)
        if result.host is not None:
            self.counters.add("hypervisor_faults")
            execution_cycles += self._execute_trace(result.host.trace)
        latency = int(execution_cycles) + result.total_disk_latency_cycles
        latency = self._post_process_latency(latency, result.guest)
        self.fault_latency.add(latency)
        self.kernel.fault_latency.add(latency)
        if result.guest.is_major or (result.host is not None and result.host.is_major):
            self.counters.add("major_faults")
        return latency, not result.segfault


class ReferenceCoupling(ImitationCoupling):
    """Stand-in for the real validation machine (see DESIGN.md §2).

    Behaves like the imitation coupling but adds the effects a real kernel
    and real hardware exhibit on top of the modelled fault path: background
    OS activity interleaved with the application and a heavy-tailed latency
    perturbation of each fault (interrupt/lock/NUMA jitter).  Virtuoso is
    validated by how closely its estimates track this configuration.
    """

    name = "reference"

    NOISE_SIGMA = 0.35
    TAIL_PROBABILITY = 0.03
    TAIL_FACTOR = 12.0

    def __init__(self, kernel: MimicOS, core: CoreModel,
                 simulation_config: SimulationConfig, seed: int = 97):
        super().__init__(kernel, core, simulation_config)
        self.rng = DeterministicRNG(seed)

    def _post_process_latency(self, latency: int, result) -> int:
        noise = self.rng.lognormvariate(0.0, self.NOISE_SIGMA)
        perturbed = latency * noise
        if self.rng.random() < self.TAIL_PROBABILITY:
            perturbed *= self.TAIL_FACTOR
        return max(1, int(perturbed))


def build_coupling(simulation_config: SimulationConfig, kernel: MimicOS,
                   core: CoreModel, vm=None) -> OSCoupling:
    """Factory mapping ``SimulationConfig.os_mode`` to a coupling instance.

    When ``vm`` (a :class:`~repro.mimicos.hypervisor.VirtualMachine`) is
    given, the coupling routes application faults through the guest kernel
    and guest-RAM backing faults through the hypervisor; only the imitation
    protocol supports the two-stream injection this requires.
    """
    mode = simulation_config.os_mode
    if vm is not None:
        if mode != "imitation":
            raise ValueError(
                f"virtualized execution requires os_mode='imitation', got {mode!r}")
        return VirtualizedCoupling(vm, core, simulation_config)
    if mode == "imitation":
        return ImitationCoupling(kernel, core, simulation_config)
    if mode == "emulation":
        return EmulationCoupling(kernel, core, simulation_config)
    if mode == "full_system":
        return FullSystemCoupling(kernel, core, simulation_config)
    if mode == "reference":
        return ReferenceCoupling(kernel, core, simulation_config)
    raise ValueError(f"unknown OS coupling mode: {mode!r}")
