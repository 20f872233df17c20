"""Workload abstraction: how benchmarks feed programs to Virtuoso.

A workload owns two things: the address-space layout it needs (``setup``
creates its VMAs through MimicOS's ``mmap``) and the dynamic instruction
stream it executes (``instruction_batches`` yields array-backed
:class:`~repro.core.instructions.InstructionBatch` chunks).  Workloads are
synthetic but carry the memory-behaviour signature of the paper's benchmark
suites: footprint, access irregularity, VMA layout and allocation pattern —
the four properties the experiments depend on (see DESIGN.md §2).

Every generator appends opcodes, PCs and operands straight into parallel
lists; no per-instruction object is built.  The graph kernels, XSBench,
the FaaS functions and the image kernels cut the lists with
:func:`cut_batches` into batches of exactly ``batch_size`` instructions,
even in the middle of an operation; :class:`StreamBuilder`, LLM inference
and the microbenchmarks cut after the operation that fills a batch.  The
boundaries are part of the simulated behaviour (each batch is one
scheduling round), and either way a batch is built only when the core
asks for it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.core.instructions import (
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    InstructionBatch,
)
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process

#: Categories used by Fig. 1 and the workload registry.
LONG_RUNNING = "long_running"
SHORT_RUNNING = "short_running"


class Workload:
    """Base class of every synthetic workload."""

    name = "workload"
    category = LONG_RUNNING
    #: When True, Virtuoso installs all translations before the measured run
    #: (the paper's warm-up methodology for translation-focused studies).
    prefault = False

    def setup(self, kernel: MimicOS, process: Process) -> None:
        """Create the workload's VMAs (and any file-backed page-cache state)."""
        raise NotImplementedError

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        """Yield the dynamic instruction stream as array-backed batches.

        Every workload builds the arrays directly; see :func:`cut_batches`
        for streams whose batches hold exactly ``batch_size`` instructions.
        """
        raise NotImplementedError

    def prefault_addresses(self, process: Process) -> Iterator[int]:
        """Addresses to pre-fault when ``prefault`` is True (page-strided)."""
        for vma in process.vmas:
            address = vma.start
            while address < vma.end:
                yield address
                address += PAGE_SIZE_4K

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def cut_batches(kinds: List[int], pcs: List[int], addresses: List[Optional[int]],
                batch_size: int, final: bool = False) -> Iterator[InstructionBatch]:
    """Cut the stream built so far into batches of exactly ``batch_size``.

    ``kinds``, ``pcs`` and ``addresses`` are the parallel lists a generator
    appends to.  Every full batch is cut off their front, and the lists
    keep the rest in place, so the generator goes on appending to the same
    lists.  With ``final`` the rest follows as one shorter batch and the
    lists end empty.
    """
    count = len(kinds)
    start = 0
    while count - start >= batch_size:
        end = start + batch_size
        yield InstructionBatch(kinds[start:end], pcs[start:end], addresses[start:end])
        start = end
    if final and start < count:
        yield InstructionBatch(kinds[start:], pcs[start:], addresses[start:])
        start = count
    del kinds[:start]
    del pcs[:start]
    del addresses[:start]


class StreamBuilder:
    """Helper that turns address sequences into realistic instruction streams.

    Real programs interleave loads/stores with address arithmetic and
    branches; the builder emits ``compute_per_memory`` non-memory
    instructions around every memory access and assigns PCs from a small
    set of synthetic loop bodies so the IP-stride prefetcher and branch mix
    behave sensibly.
    """

    def __init__(self, rng: DeterministicRNG, compute_per_memory: int = 2,
                 write_fraction: float = 0.3, pc_base: int = 0x400000,
                 pc_count: int = 32):
        self.rng = rng
        self.compute_per_memory = compute_per_memory
        self.write_fraction = write_fraction
        self.pc_base = pc_base
        self.pc_count = pc_count
        self._pc_cursor = 0

    def emit_batches(self, addresses: Iterable[int],
                     writes: Optional[Iterable[bool]] = None,
                     batch_size: int = 4096) -> Iterator[InstructionBatch]:
        """Yield batches touching ``addresses`` in order.

        Every memory access is preceded by ``compute_per_memory``
        non-memory instructions (the last one a branch).  A store or load
        is chosen from ``writes`` when given, else by one RNG draw against
        ``write_fraction``.
        """
        write_iter = iter(writes) if writes is not None else None
        rng_random = self.rng.random
        write_fraction = self.write_fraction
        compute_per_memory = self.compute_per_memory
        pc_base = self.pc_base
        pc_count = self.pc_count
        last_compute = compute_per_memory - 1
        per_operation = compute_per_memory + 1

        batch = InstructionBatch()
        kinds = batch.kinds
        pcs = batch.pcs
        operands = batch.addresses
        count = 0
        cursor = self._pc_cursor
        for address in addresses:
            for index in range(compute_per_memory):
                kinds.append(OP_BRANCH if index == last_compute else OP_ALU)
                pcs.append(pc_base + (cursor % pc_count) * 4)
                cursor += 1
                operands.append(None)
            if write_iter is not None:
                is_write = next(write_iter, False)
            else:
                is_write = rng_random() < write_fraction
            kinds.append(OP_STORE if is_write else OP_LOAD)
            pcs.append(pc_base + (cursor % pc_count) * 4)
            cursor += 1
            operands.append(address)
            count += per_operation
            if count >= batch_size:
                self._pc_cursor = cursor
                yield batch
                batch = InstructionBatch()
                kinds = batch.kinds
                pcs = batch.pcs
                operands = batch.addresses
                count = 0
        self._pc_cursor = cursor
        if count:
            yield batch


def cold_hot_addresses(start: int, cold_touches: int, cold_stride: int,
                       hot_operations: int, hot_span: int,
                       rng: DeterministicRNG, interleave_regions: int = 1,
                       region_bytes: int = 0, mix_per_cold: int = 0) -> List[int]:
    """A cold fault phase followed by a hot random re-access phase, as a list.

    The signature access pattern of a freshly booted guest: first touch
    ``cold_touches`` pages stride-by-stride (every touch faults, so in a
    virtualised system each drives the guest handler *and* usually a
    hypervisor backing fault), then perform ``hot_operations`` uniform random
    accesses over the first ``hot_span`` bytes of the touched region (warm
    2-D translation: nested-TLB territory).

    ``interleave_regions`` > 1 deals the cold touches round-robin across
    that many ``region_bytes``-sized regions (touch *i* lands in region
    ``i % N``), so concurrently-growing arenas reach khugepaged's collapse
    threshold while faults are still arriving *from the other regions* —
    the window in which a collapsed region's old translations are stale but
    no fresh walk has re-covered it yet.  ``mix_per_cold`` inserts that many
    random re-touches of already-touched offsets after every cold touch,
    precisely to walk into such windows.

    Random draws go through the bulk RNG helpers, which are stream-exact
    with scalar draws.
    """
    region_stride = region_bytes if interleave_regions > 1 else 0
    cold_offsets = [(index % interleave_regions) * region_stride
                    + (index // interleave_regions) * cold_stride
                    for index in range(cold_touches)]
    if mix_per_cold > 0 and cold_touches > 0:
        # After cold touch i, re-touch mix_per_cold random already-touched
        # offsets (uniform over touches 0..i).  One float draw per re-touch.
        draws = rng.random_list(cold_touches * mix_per_cold)
        cold = []
        cursor = 0
        for index in range(cold_touches):
            cold.append(start + cold_offsets[index])
            for _ in range(mix_per_cold):
                pick = int(draws[cursor] * (index + 1))
                cursor += 1
                cold.append(start + cold_offsets[pick])
    else:
        cold = [start + offset for offset in cold_offsets]
    hot = [start + draw
           for draw in rng.randint_list(0, max(0, hot_span - 64), hot_operations)]
    return cold + hot


def span_mapped_addresses(offsets: List[int], span_starts: List[int],
                          span_bytes: int) -> List[int]:
    """Map linear footprint offsets onto discontiguous equal-size spans.

    Used when a workload's footprint is split across several VMAs (arena
    layouts with guard gaps between them): offset ``o`` lands at byte
    ``o % span_bytes`` of span ``o // span_bytes``.
    """
    return [span_starts[offset // span_bytes] + offset % span_bytes
            for offset in offsets]
