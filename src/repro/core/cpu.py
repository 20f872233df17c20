"""The core performance model (Sniper-like interval approximation).

The core model is deliberately simple — the paper's contribution is the OS
methodology, not a new out-of-order model — but it captures the effects the
experiments measure:

* every instruction pays a base CPI;
* a memory instruction additionally pays its translation latency (TLB,
  walks, page faults are serialising) and the part of its data latency the
  out-of-order window cannot hide (an MLP discount applied to off-chip
  latency);
* injected MimicOS instructions execute on the same core and access memory
  through the same hierarchy, so kernel work both consumes cycles and
  pollutes the caches / DRAM row buffers.

Application instructions run through :meth:`CoreModel.execute_batch`
(array-backed :class:`~repro.core.instructions.InstructionBatch` chunks);
injected MimicOS streams, run-length
:class:`~repro.core.instructions.KernelInstructionBatch` records, through
:meth:`CoreModel.execute_kernel_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.common.config import CoreConfig
from repro.common.stats import Counter
from repro.core.instructions import (
    OP_ALU,
    OP_LOAD,
    OP_REP,
    OP_STORE,
    OP_TOUCHES,
    InstructionBatch,
    KernelInstructionBatch,
)
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU

#: A binade no sum lies in (``nan <= x`` is false even for an infinite
#: ``x``): adding in it goes one step at a time.
_NO_BINADE = (math.nan, math.nan, 0.0)


def _binade(x: float, c: float) -> Tuple[float, float, float]:
    """The binade ``[lo, hi)`` holding ``x`` and the step ``c`` adds in it.

    Every float in ``[lo, hi)`` is a multiple of the binade's ulp, so
    adding ``c`` to one of them rounds ``c`` to a multiple of the ulp, the
    same ``step`` whatever the sum, as long as the sum does not pass
    ``hi``.  The exception is a tie (``c`` is an odd multiple of half the
    ulp), which rounds to even and so depends on the sum: such a binade,
    like ``x < c`` (the first add leaves the binade), ``c`` not positive
    and finite or ``x`` in the top binade, gives :data:`_NO_BINADE`.
    """
    if not 0.0 < c <= x < math.inf:
        return _NO_BINADE
    return _binade_of(math.frexp(x)[1], c)


@lru_cache(maxsize=1024)
def _binade_of(exponent: int, c: float) -> Tuple[float, float, float]:
    """:func:`_binade` of the binade ``[2**(exponent-1), 2**exponent)``."""
    if exponent > 1023:
        return _NO_BINADE
    hi = math.ldexp(1.0, exponent)
    lo = hi * 0.5
    ulp = math.ulp(lo)
    units = c / ulp          # exact: c <= x < hi = 2**53 ulps
    whole = math.floor(units)
    if units - whole == 0.5:
        return _NO_BINADE
    return lo, hi, (whole + (units - whole > 0.5)) * ulp


def add_repeated(x: float, n: int, c: float) -> Tuple[float, float, float, float]:
    """``x`` after adding ``c`` to it ``n`` times in order, and its binade.

    Returns ``(total, lo, hi, step)``: the float sum is exactly what ``n``
    single ``+=`` give, and while ``lo <= total`` and ``total + k * step <
    hi``, ``k`` further adds of ``c`` give ``total + k * step`` (see
    :func:`_binade`; ``k * step`` is exact below ``hi``).  Within a binade
    the adds are charged in one multiply; the add that crosses into the
    next binade, and every add in a binade with no step, goes alone.
    """
    while n > 0:
        lo, hi, step = _binade(x, c)
        if lo <= x:
            total = x + n * step
            if total < hi:
                return total, lo, hi, step
            # Charge the adds that stay below hi; the next one crosses it.
            k = int((hi - x) / step)
            while x + k * step >= hi:
                k -= 1
            x += k * step
            n -= k
        x += c
        n -= 1
    return (x,) + _binade(x, c)


#: :func:`add_repeated` for the kernel loop, memoised: a batch's total
#: restarts at 0.0 and the same handlers recur, so most of the runs that
#: leave a binade repeat an earlier ``(x, n, c)`` exactly.
_charge_run = lru_cache(maxsize=2048)(add_repeated)


def _charge(x: float, n: int, c: float, lo: float, hi: float,
            step: float) -> Tuple[float, float, float, float]:
    """:func:`add_repeated` for an ``x`` whose binade :func:`add_repeated`
    last gave as ``(lo, hi, step)``: one multiply, one add and a compare
    while the sum stays in it (and none for ``n == 0``)."""
    charged = x + n * step
    if lo <= x and charged < hi or n == 0:
        return charged, lo, hi, step
    return _charge_run(x, n, c)


@dataclass(slots=True)
class ExecutionBreakdown:
    """Cycle breakdown accumulated while executing instructions."""

    base_cycles: float = 0.0
    translation_cycles: float = 0.0
    fault_cycles: float = 0.0
    data_stall_cycles: float = 0.0
    kernel_cycles: float = 0.0


class CoreModel:
    """A single simulated core executing application and kernel streams.

    ``core_index`` identifies the core inside a system of several cores
    (see :class:`~repro.core.virtuoso.Virtuoso`); the first core is 0.
    Each core owns its pipeline state (cycles, instruction
    counts, stall breakdown) and issues memory traffic through its own
    (possibly per-core) MMU and memory-hierarchy view.
    """

    def __init__(self, config: CoreConfig, mmu: MMU, memory: MemoryHierarchy,
                 core_index: int = 0):
        self.config = config
        self.mmu = mmu
        self.memory = memory
        self.core_index = core_index
        self.cycles: float = 0.0
        self.instructions: int = 0
        self.kernel_instructions: int = 0
        self.breakdown = ExecutionBreakdown()
        self.counters = Counter()
        self._c_app_instructions = self.counters.hot("app_instructions")
        self._c_memory_instructions = self.counters.hot("memory_instructions")
        self._c_page_fault_instructions = self.counters.hot("page_fault_instructions")
        self._c_kernel_instructions = self.counters.hot("kernel_instructions")
        self._c_magic_instructions = self.counters.hot("magic_instructions")
        #: ``(base_cpi, lo, hi, step)``: the binade of ``breakdown.kernel_cycles``
        #: the last kernel batch left (see :func:`add_repeated`).
        self._kernel_binade = (self.config.base_cpi,) + _NO_BINADE

    # ------------------------------------------------------------------ #
    # Application execution
    # ------------------------------------------------------------------ #
    def execute_batch(self, batch: InstructionBatch, limit: Optional[int] = None) -> int:
        """Execute up to ``limit`` instructions from an array-backed batch.

        Every instruction pays the base CPI; a load or store additionally
        pays its translation latency (the first cycle overlaps issue), its
        fault latency and the part of its data latency the out-of-order
        window cannot hide.  State is held in locals and written back before
        each memory access, because the MMU's fault callback re-enters the
        core through :meth:`execute_kernel_batch` and reads ``self.cycles``.
        Returns the number of instructions executed.
        """
        kinds = batch.kinds
        addresses = batch.addresses
        pcs = batch.pcs
        count = len(kinds)
        if limit is not None and limit < count:
            count = limit
        if count <= 0:
            return 0

        config = self.config
        base_cpi = config.base_cpi
        exposed_fraction = 1.0 - config.mlp_factor
        access_fast = self.mmu.access_data_fast
        breakdown = self.breakdown

        cycles = self.cycles
        instructions = self.instructions
        base_cycles = breakdown.base_cycles
        translation_cycles = breakdown.translation_cycles
        fault_cycles = breakdown.fault_cycles
        data_stall_cycles = breakdown.data_stall_cycles
        memory_count = 0
        fault_count = 0

        for index in range(count):
            instructions += 1
            base_cycles += base_cpi
            address = addresses[index]
            if address is None:
                cycles += base_cpi
                continue
            op = kinds[index]
            if op != OP_LOAD and op != OP_STORE:
                cycles += base_cpi
                continue

            # Publish the state the page-fault path reads before re-entering
            # the core (kernel-stream injection uses the current cycle count).
            self.cycles = cycles
            self.instructions = instructions
            translation_latency, fault_penalty, page_fault, data_latency, served_by = \
                access_fast(address, op == OP_STORE, pcs[index])
            translation_penalty = translation_latency - fault_penalty - 1
            if translation_penalty < 0:
                # Only a zero-latency translation (nothing to overlap with the
                # issue cycle) may go below zero; a translation latency smaller
                # than its own fault component is an accounting bug.
                assert translation_latency >= fault_penalty, (
                    f"negative translation component for {address:#x}: "
                    f"latency={translation_latency} fault_latency={fault_penalty}")
                translation_penalty = 0
            if served_by == "L1" or served_by == "none":
                data_penalty = 0.0
            else:
                exposed = data_latency - 4
                data_penalty = exposed * exposed_fraction if exposed > 0 else 0.0

            cycles += base_cpi + (translation_penalty + fault_penalty + data_penalty)
            translation_cycles += translation_penalty
            fault_cycles += fault_penalty
            data_stall_cycles += data_penalty
            memory_count += 1
            if page_fault:
                fault_count += 1

        self.cycles = cycles
        self.instructions = instructions
        breakdown.base_cycles = base_cycles
        breakdown.translation_cycles = translation_cycles
        breakdown.fault_cycles = fault_cycles
        breakdown.data_stall_cycles = data_stall_cycles
        self._c_app_instructions[0] += count
        self._c_memory_instructions[0] += memory_count
        self._c_page_fault_instructions[0] += fault_count
        return count

    # ------------------------------------------------------------------ #
    # Kernel (MimicOS) execution
    # ------------------------------------------------------------------ #
    def execute_kernel_batch(self, batch: KernelInstructionBatch) -> float:
        """Execute an injected MimicOS batch.

        Kernel instructions bypass the application's page table (the kernel
        runs out of the direct map) but share the caches and DRAM, so their
        memory accesses are issued straight into the memory hierarchy with
        the ``kernel`` request type (``kernel_zero`` for a store) and the
        touch's PC.

        A touch record's touches run in order, each after its compute run
        and at the next PC slot.  A compute run of ``n`` (a touch's or an
        ``OP_ALU`` record's) adds ``base_cpi`` ``n`` times, in order, to
        both accumulators: ``n * base_cpi`` would round differently, and
        the float sums are part of every report.  So does a store, and a
        load whose latency the window hides; only a load's exposed latency
        and a REP add anything else.  The ``base_cpi`` adds between two
        such adds are counted (``pending``) and made as one run, through
        :func:`add_repeated`, which gives exactly the in-order sum.  Each
        accumulator keeps its current binade ``(lo, hi, step)`` from it,
        so a run that stays inside costs one multiply, one add and a
        compare.

        The cycles the batch consumed are *returned* but not added to the
        core's cycle count here: the MMU reports them back as the fault
        latency of the triggering access, and :meth:`execute_batch` charges
        them exactly once on the faulting instruction's critical path.
        """
        base_cpi = self.config.base_cpi
        exposed_fraction = 1.0 - self.config.mlp_factor
        memory = self.memory
        access_value = memory.access_value
        consumed_total = 0.0
        kernel_cycles = self.breakdown.kernel_cycles
        total_lo, total_hi, total_step = _NO_BINADE
        cpi, kernel_lo, kernel_hi, kernel_step = self._kernel_binade
        if cpi != base_cpi:
            kernel_lo, kernel_hi, kernel_step = _NO_BINADE
        magic_count = 0
        #: ``base_cpi`` adds not yet made to the two accumulators.
        pending = 0
        for op, value, pc in zip(batch.kinds, batch.values, batch.pcs):
            if op == OP_ALU:
                pending += value
            elif op == OP_TOUCHES:
                touches, run = value
                for address, is_write in touches:
                    if is_write:
                        # Page-zeroing stores stream through the
                        # write-combining path: the rep-counted zeroing
                        # instruction carries their cost; the access still
                        # pollutes the caches and DRAM.
                        access_value(address, True, "kernel_zero", pc)
                        pending += run + 1
                    else:
                        latency = access_value(address, False, "kernel", pc)
                        served_by = memory.last_served_by
                        if latency <= 4 or served_by == "L1" or served_by == "none":
                            pending += run + 1
                        else:
                            # The run, then the load's exposed latency.
                            consumed_total, total_lo, total_hi, total_step = _charge(
                                consumed_total, pending + run, base_cpi,
                                total_lo, total_hi, total_step)
                            kernel_cycles, kernel_lo, kernel_hi, kernel_step = _charge(
                                kernel_cycles, pending + run, base_cpi,
                                kernel_lo, kernel_hi, kernel_step)
                            pending = 0
                            consumed = base_cpi + (latency - 4) * exposed_fraction
                            consumed_total += consumed
                            kernel_cycles += consumed
                    pc += 4
            elif op == OP_REP:
                # Bulk (rep-prefixed) work: one cycle per repetition.
                consumed_total, total_lo, total_hi, total_step = _charge(
                    consumed_total, pending, base_cpi, total_lo, total_hi, total_step)
                kernel_cycles, kernel_lo, kernel_hi, kernel_step = _charge(
                    kernel_cycles, pending, base_cpi, kernel_lo, kernel_hi, kernel_step)
                pending = 0
                consumed = float(value)
                consumed_total += consumed
                kernel_cycles += consumed
            else:  # OP_MAGIC
                magic_count += 1
        consumed_total = _charge(consumed_total, pending, base_cpi,
                                 total_lo, total_hi, total_step)[0]
        kernel_cycles, kernel_lo, kernel_hi, kernel_step = _charge(
            kernel_cycles, pending, base_cpi, kernel_lo, kernel_hi, kernel_step)
        kernel_count = len(batch) - magic_count
        self.kernel_instructions += kernel_count
        self.breakdown.kernel_cycles = kernel_cycles
        self._kernel_binade = (base_cpi, kernel_lo, kernel_hi, kernel_step)
        self._c_kernel_instructions[0] += kernel_count
        self._c_magic_instructions[0] += magic_count
        return consumed_total

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def ipc(self) -> float:
        """Application instructions per cycle (kernel instructions excluded)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus the cycle breakdown."""
        return {
            "core_index": self.core_index,
            "counters": self.counters.as_dict(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "kernel_instructions": self.kernel_instructions,
            "ipc": self.ipc,
            "breakdown": {
                "base": self.breakdown.base_cycles,
                "translation": self.breakdown.translation_cycles,
                "fault": self.breakdown.fault_cycles,
                "data_stall": self.breakdown.data_stall_cycles,
                "kernel": self.breakdown.kernel_cycles,
            },
        }
