"""Short-running Function-as-a-Service workloads (JSON, AES, IMG-RES, WCNT, DB).

FaaS functions run for well under a second, so system-software costs —
above all physical-memory allocation in the page-fault handler — are never
amortised (Fig. 1 shows ~32 % of their time in allocation).  The workloads
here mirror that structure: a burst of ``mmap`` allocations at invocation,
first-touch faults over most of the allocated pages, a modest amount of
compute per touched page, and exit.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.common.addresses import KB, MB, PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.core.instructions import OP_ALU, OP_BRANCH, OP_LOAD, OP_STORE, InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import SHORT_RUNNING, Workload, cut_batches


class FaaSWorkload(Workload):
    """Base class: allocate buffers, fault them in, do some per-page compute."""

    category = SHORT_RUNNING
    prefault = False

    #: (size, file-backed?) of each buffer the function allocates.
    BUFFERS: Tuple[Tuple[int, bool], ...] = ((4 * MB, False),)
    #: Compute instructions per touched cache line.
    COMPUTE_PER_LINE = 4
    #: Fraction of each buffer actually touched.
    TOUCH_FRACTION = 1.0
    #: Cache-line touches per page.
    TOUCHES_PER_PAGE = 2

    def __init__(self, name: str, seed: int = 41, scale: float = 1.0):
        self.name = name
        self.seed = seed
        self.scale = scale
        self._vmas: List = []

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vmas = []
        for index, (size, file_backed) in enumerate(self.BUFFERS):
            scaled = max(PAGE_SIZE_4K, int(size * self.scale))
            kind = VMAKind.FILE_BACKED if file_backed else VMAKind.ANONYMOUS
            vma = kernel.mmap(process, scaled, kind=kind,
                              name=f"{self.name}-buf{index}",
                              populate_page_cache=file_backed)
            self._vmas.append(vma)

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        random = DeterministicRNG(self.seed).random
        # Every touched line: COMPUTE_PER_LINE non-memory instructions (a
        # branch first), then a load or a store, each at fixed PCs.
        compute = self.COMPUTE_PER_LINE
        compute_kinds = [OP_BRANCH if slot == 0 else OP_ALU for slot in range(compute)]
        compute_pcs = [0x420000 + slot * 4 for slot in range(compute)]
        no_operands = [None] * compute
        touches = [(touch * 64, 0x421000 + touch * 4) for touch in range(self.TOUCHES_PER_PAGE)]

        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        kinds_append, pcs_append, operands_append = kinds.append, pcs.append, operands.append
        for vma in self._vmas:
            pages = max(1, int((vma.size // PAGE_SIZE_4K) * self.TOUCH_FRACTION))
            for page in range(pages):
                base = vma.start + page * PAGE_SIZE_4K
                for offset, pc in touches:
                    kinds += compute_kinds
                    pcs += compute_pcs
                    operands += no_operands
                    kinds_append(OP_STORE if random() < 0.5 else OP_LOAD)
                    pcs_append(pc)
                    operands_append(base + offset)
                if len(kinds) >= batch_size:
                    yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)


class JSONWorkload(FaaSWorkload):
    """JSON deserialisation: parse an input buffer into freshly allocated objects."""

    BUFFERS = ((2 * MB, True), (6 * MB, False))
    COMPUTE_PER_LINE = 6
    TOUCHES_PER_PAGE = 3

    def __init__(self, seed: int = 41, scale: float = 1.0):
        super().__init__(name="JSON", seed=seed, scale=scale)


class AESWorkload(FaaSWorkload):
    """AES encryption of a payload: compute-heavy, streaming over two buffers."""

    BUFFERS = ((4 * MB, True), (4 * MB, False))
    COMPUTE_PER_LINE = 10
    TOUCHES_PER_PAGE = 2

    def __init__(self, seed: int = 43, scale: float = 1.0):
        super().__init__(name="AES", seed=seed, scale=scale)


class ImageResizeWorkload(FaaSWorkload):
    """Image resizing: read a decoded image, write a smaller output image."""

    BUFFERS = ((8 * MB, True), (2 * MB, False))
    COMPUTE_PER_LINE = 8
    TOUCHES_PER_PAGE = 2

    def __init__(self, seed: int = 47, scale: float = 1.0):
        super().__init__(name="IMG-RES", seed=seed, scale=scale)


class WordCountWorkload(FaaSWorkload):
    """Word count of a document: stream the input, update a small hash table."""

    BUFFERS = ((6 * MB, True), (1 * MB, False))
    COMPUTE_PER_LINE = 5
    TOUCHES_PER_PAGE = 2

    def __init__(self, seed: int = 53, scale: float = 1.0):
        super().__init__(name="WCNT", seed=seed, scale=scale)


class DBFilterWorkload(FaaSWorkload):
    """Database filter query: scan a file-backed table, materialise matching rows."""

    BUFFERS = ((10 * MB, True), (2 * MB, False))
    COMPUTE_PER_LINE = 4
    TOUCHES_PER_PAGE = 1

    def __init__(self, seed: int = 59, scale: float = 1.0):
        super().__init__(name="DB", seed=seed, scale=scale)
