"""Differential oracle for the array-native workload generators.

The graph kernels, XSBench, the FaaS functions and the image kernels once
yielded one ``Instruction`` object per dynamic instruction, and a
default ``Workload.instruction_batches`` packed them into batches of
exactly ``batch_size`` instructions, cutting in the middle of an
operation when the count said so.  Those object generators and that
packer are kept here, unchanged, as the reference, with a private copy of
the ``Instruction`` type they yield.  Every workload's
array-native ``instruction_batches`` must yield the same batches: the
same ``kinds``, ``pcs`` and ``addresses``, batch by batch, at several
batch sizes and seeds (BC with its ~147 auxiliary VMAs included).

Two sensitivity breaks show the comparison can fail: a batch cut one
instruction late, and two RNG draws swapped.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, List, Optional, Tuple

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig
from repro.common.rng import DeterministicRNG
from repro.core.instructions import (
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    InstructionBatch,
)
from repro.mimicos.kernel import MimicOS
from repro.workloads import base as workloads_base
from repro.workloads import graph as graph_module
from repro.workloads.faas import (
    AESWorkload,
    DBFilterWorkload,
    FaaSWorkload,
    ImageResizeWorkload,
    JSONWorkload,
    WordCountWorkload,
)
from repro.workloads.graph import GRAPH_KERNELS, GraphWorkload
from repro.workloads.hpc import XSBenchWorkload
from repro.workloads.image import (
    HadamardWorkload,
    MatrixSum2DWorkload,
    MatrixTranspose3DWorkload,
)
from tests.conftest import tiny_mimicos_config

BATCH_SIZES = (1, 7, 16, 4096)
SEEDS = (0, 5, 31)


# --------------------------------------------------------------------- #
# The reference: the object generators and the packer
# --------------------------------------------------------------------- #
class InstructionKind(str, Enum):
    """The deleted object API's instruction classes (application ones)."""

    ALU = "alu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"


KIND_TO_OP = {
    InstructionKind.ALU: OP_ALU,
    InstructionKind.BRANCH: OP_BRANCH,
    InstructionKind.LOAD: OP_LOAD,
    InstructionKind.STORE: OP_STORE,
}


@dataclass(slots=True)
class Instruction:
    """One dynamic instruction, as the deleted object generators yielded it."""

    kind: InstructionKind
    pc: int = 0
    memory_address: Optional[int] = None


def graph_instructions(workload: GraphWorkload) -> Iterator[Instruction]:
    rng = DeterministicRNG(workload.seed + 1)
    rng.fork(2)
    profile = workload.profile
    vertex_vma, edge_vma, property_vma = (workload._vertex_vma, workload._edge_vma,
                                          workload._property_vma)
    small_vmas = workload._small_vmas
    aux_fraction = 0.25 if workload.name == "BC" else 0.02
    edge_offset = 0
    vertex_slots = max(1, (vertex_vma.size - 64) // 64)
    for index in range(workload.memory_operations):
        draw = rng.random()
        for compute in range(profile.compute_per_memory):
            kind = (InstructionKind.BRANCH if compute == 0 else InstructionKind.ALU)
            yield Instruction(kind=kind, pc=0x401000 + (index % 64) * 4)
        if draw < profile.gather_fraction:
            slot = rng.zipf_index(vertex_slots, skew=profile.zipf_skew)
            address = vertex_vma.start + slot * 64
            yield Instruction(kind=InstructionKind.LOAD,
                              pc=0x402000 + (index % 16) * 4,
                              memory_address=address)
        elif draw < profile.gather_fraction + profile.write_fraction:
            slot = rng.zipf_index(max(1, (property_vma.size - 64) // 64),
                                  skew=profile.zipf_skew)
            yield Instruction(kind=InstructionKind.STORE,
                              pc=0x403000 + (index % 16) * 4,
                              memory_address=property_vma.start + slot * 64)
        elif small_vmas and draw > 1.0 - aux_fraction:
            vma = small_vmas[rng.randint(0, len(small_vmas) - 1)]
            offset = rng.randint(0, max(0, vma.size - 64))
            yield Instruction(kind=InstructionKind.LOAD,
                              pc=0x405000, memory_address=vma.start + offset)
        else:
            address = edge_vma.start + edge_offset
            edge_offset = (edge_offset + 64) % (edge_vma.size - 64)
            yield Instruction(kind=InstructionKind.LOAD,
                              pc=0x404000 + (index % 8) * 4,
                              memory_address=address)


def xsbench_instructions(workload: XSBenchWorkload) -> Iterator[Instruction]:
    rng = DeterministicRNG(workload.seed)
    grid, index = workload._grid_vma, workload._index_vma
    index_slots = max(1, (index.size - 64) // 64)
    grid_slots = max(1, (grid.size - 64) // 64)
    for _ in range(workload.lookups):
        probes = max(4, index_slots.bit_length())
        position = index_slots // 2
        step = max(1, index_slots // 4)
        for probe in range(probes):
            yield Instruction(kind=InstructionKind.ALU, pc=0x410000 + probe * 4)
            yield Instruction(kind=InstructionKind.LOAD, pc=0x410100 + probe * 4,
                              memory_address=index.start + position * 64)
            position = (position + step) % index_slots if rng.random() < 0.5 \
                else abs(position - step) % index_slots
            step = max(1, step // 2)
        for gather in range(workload.gridpoints_per_lookup):
            slot = rng.randint(0, grid_slots - 1)
            yield Instruction(kind=InstructionKind.ALU, pc=0x411000 + gather * 4)
            yield Instruction(kind=InstructionKind.LOAD, pc=0x411100 + gather * 4,
                              memory_address=grid.start + slot * 64)
        yield Instruction(kind=InstructionKind.BRANCH, pc=0x412000)


def faas_instructions(workload: FaaSWorkload) -> Iterator[Instruction]:
    rng = DeterministicRNG(workload.seed)
    for vma in workload._vmas:
        pages = max(1, int((vma.size // PAGE_SIZE_4K) * workload.TOUCH_FRACTION))
        for page in range(pages):
            base = vma.start + page * PAGE_SIZE_4K
            for touch in range(workload.TOUCHES_PER_PAGE):
                for compute in range(workload.COMPUTE_PER_LINE):
                    kind = (InstructionKind.BRANCH if compute == 0
                            else InstructionKind.ALU)
                    yield Instruction(kind=kind, pc=0x420000 + compute * 4)
                is_write = rng.random() < 0.5
                kind = InstructionKind.STORE if is_write else InstructionKind.LOAD
                yield Instruction(kind=kind, pc=0x421000 + touch * 4,
                                  memory_address=base + touch * 64)


def transpose_instructions(workload: MatrixTranspose3DWorkload) -> Iterator[Instruction]:
    input_vma, output_vma = workload._input_vma, workload._output_vma
    plane_stride = PAGE_SIZE_4K * 4
    read_offset = 0
    write_offset = 0
    for _ in range(workload.memory_operations // 2):
        yield Instruction(kind=InstructionKind.ALU, pc=0x430000)
        yield Instruction(kind=InstructionKind.LOAD, pc=0x430010,
                          memory_address=input_vma.start + read_offset)
        read_offset = (read_offset + plane_stride) % (input_vma.size - 64)
        yield Instruction(kind=InstructionKind.ALU, pc=0x430020)
        yield Instruction(kind=InstructionKind.STORE, pc=0x430030,
                          memory_address=output_vma.start + write_offset)
        write_offset = (write_offset + 64) % (output_vma.size - 64)


def hadamard_instructions(workload: HadamardWorkload) -> Iterator[Instruction]:
    a, b, out = workload._vmas
    offset = 0
    for _ in range(workload.memory_operations // 3):
        yield Instruction(kind=InstructionKind.LOAD, pc=0x440000,
                          memory_address=a.start + offset)
        yield Instruction(kind=InstructionKind.LOAD, pc=0x440010,
                          memory_address=b.start + offset)
        yield Instruction(kind=InstructionKind.ALU, pc=0x440020)
        yield Instruction(kind=InstructionKind.STORE, pc=0x440030,
                          memory_address=out.start + offset)
        offset = (offset + 64) % (min(a.size, b.size, out.size) - 64)


def sum2d_instructions(workload: MatrixSum2DWorkload) -> Iterator[Instruction]:
    vma = workload._vma
    offset = 0
    for _ in range(workload.memory_operations):
        yield Instruction(kind=InstructionKind.LOAD, pc=0x450000,
                          memory_address=vma.start + offset)
        yield Instruction(kind=InstructionKind.ALU, pc=0x450010)
        offset = (offset + 64) % (vma.size - 64)


def packed(instructions: Iterator[Instruction], batch_size: int) -> Iterator[InstructionBatch]:
    """The deleted default packer: exactly ``batch_size`` per batch."""
    batch = InstructionBatch()
    count = 0
    for instruction in instructions:
        batch.kinds.append(KIND_TO_OP[instruction.kind])
        batch.pcs.append(instruction.pc)
        batch.addresses.append(instruction.memory_address)
        count += 1
        if count >= batch_size:
            yield batch
            batch = InstructionBatch()
            count = 0
    if count:
        yield batch


# --------------------------------------------------------------------- #
# The workloads under test
# --------------------------------------------------------------------- #
Case = Tuple[str, Callable[[int], object], Callable[[object], Iterator[Instruction]]]


def _graph_case(name: str) -> Case:
    return (name, lambda seed: GraphWorkload(name, footprint_bytes=8 * MB,
                                             memory_operations=1_500, seed=seed),
            graph_instructions)


CASES: List[Case] = [_graph_case(name) for name in GRAPH_KERNELS] + [
    ("XS", lambda seed: XSBenchWorkload(footprint_bytes=8 * MB, lookups=150, seed=seed),
     xsbench_instructions),
] + [
    (cls.__name__, lambda seed, cls=cls: cls(seed=seed, scale=0.35), faas_instructions)
    for cls in (JSONWorkload, AESWorkload, ImageResizeWorkload, WordCountWorkload,
                DBFilterWorkload)
] + [
    ("3D-Transp", lambda seed: MatrixTranspose3DWorkload(footprint_bytes=2 * MB,
                                                         memory_operations=2_501, seed=seed),
     transpose_instructions),
    ("Hadamard", lambda seed: HadamardWorkload(footprint_bytes=3 * MB,
                                               memory_operations=3_101, seed=seed),
     hadamard_instructions),
    ("2D-Sum", lambda seed: MatrixSum2DWorkload(footprint_bytes=2 * MB,
                                                memory_operations=2_499, seed=seed),
     sum2d_instructions),
]
CASE_IDS = [case[0] for case in CASES]


def set_up(factory: Callable[[int], object], seed: int):
    kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="radix"))
    process = kernel.create_process("oracle")
    workload = factory(seed)
    workload.setup(kernel, process)
    return workload, process


def batches(stream: Iterator[InstructionBatch]) -> List[Tuple[list, list, list]]:
    return [(batch.kinds, batch.pcs, batch.addresses) for batch in stream]


def divergence(factory, reference, seed: int, batch_size: int):
    """The first batch on which the workload and the reference differ, or None."""
    workload, process = set_up(factory, seed)
    got = batches(workload.instruction_batches(process, batch_size))
    want = batches(packed(reference(workload), batch_size))
    for index, (got_batch, want_batch) in enumerate(zip(got, want)):
        if got_batch != want_batch:
            return index, [len(part) for part in got_batch], [len(part) for part in want_batch]
    if len(got) != len(want):
        return "batch count", len(got), len(want)
    return None


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,factory,reference", CASES, ids=CASE_IDS)
def test_batches_match_the_object_generator(name, factory, reference, seed, batch_size):
    assert divergence(factory, reference, seed, batch_size) is None


def test_cases_cover_every_outcome():
    """BC reaches its auxiliary VMAs, every kernel mixes gathers, stores and
    edge scans, FaaS streams mix loads and stores, and the streams are long
    enough to cut mid-operation at batch size 4096."""
    kinds_seen, aux_loads, lengths = set(), 0, {}
    for name, factory, _reference in CASES:
        workload, process = set_up(factory, SEEDS[0])
        stream = list(workload.instruction_batches(process, 7))
        lengths[name] = sum(len(batch) for batch in stream)
        for batch in stream:
            kinds_seen.update(batch.kinds)
            if name == "BC":
                aux_loads += batch.pcs.count(0x405000)
    assert len(set_up(CASES[0][1], 0)[0]._small_vmas) == 147
    assert aux_loads > 100
    assert kinds_seen == set(KIND_TO_OP.values())
    assert all(length > 4096 and length % 4096 for length in lengths.values()), lengths


# --------------------------------------------------------------------- #
# Sensitivity: each deliberate break must make the oracle fail
# --------------------------------------------------------------------- #
def _cut_one_late(monkeypatch):
    original = workloads_base.cut_batches

    def cut_batches(kinds, pcs, addresses, batch_size, final=False):
        return original(kinds, pcs, addresses, batch_size + 1, final)

    monkeypatch.setattr(graph_module, "cut_batches", cut_batches)


class _SwappedRNG(DeterministicRNG):
    """Hands out its first two ``random()`` draws in swapped order."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._held: List[float] = []
        self._started = False

    def random(self) -> float:
        if not self._started:
            self._started = True
            self._held.append(super().random())
            return super().random()
        if self._held:
            return self._held.pop()
        return super().random()


def _swap_two_draws(monkeypatch):
    monkeypatch.setattr(graph_module, "DeterministicRNG", _SwappedRNG)


@pytest.mark.parametrize("break_path", [_cut_one_late, _swap_two_draws],
                         ids=["cut-one-late", "swap-two-draws"])
def test_oracle_catches_a_broken_generator(monkeypatch, break_path):
    _name, factory, reference = _graph_case("BFS")
    break_path(monkeypatch)
    assert any(divergence(factory, reference, seed, batch_size) is not None
               for seed in SEEDS for batch_size in BATCH_SIZES)
