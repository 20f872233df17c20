"""Tests for the workload generators and the registry."""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig
from repro.core.instructions import OP_ALU, OP_LOAD, OP_STORE
from repro.mimicos.kernel import MimicOS
from repro.workloads import (
    GRAPH_KERNELS,
    LLM_PROFILES,
    LONG_RUNNING_WORKLOADS,
    SHORT_RUNNING_WORKLOADS,
    GraphWorkload,
    IntensitySweepWorkload,
    JSONWorkload,
    KernelFractionMicrobenchmark,
    LLMInferenceWorkload,
    RandomAccessWorkload,
    SequentialWorkload,
    XSBenchWorkload,
    build_workload,
    workload_names,
)
from tests.conftest import tiny_mimicos_config


@pytest.fixture
def kernel_and_process():
    kernel = MimicOS(tiny_mimicos_config(), PageTableConfig())
    return kernel, kernel.create_process("wl")


def materialise(workload, kernel, process, limit=50_000):
    """The first ``limit`` instructions as ``(opcode, pc, address)`` tuples."""
    workload.setup(kernel, process)
    instructions = []
    for batch in workload.instruction_batches(process):
        instructions.extend(zip(batch.kinds, batch.pcs, batch.addresses))
        if len(instructions) >= limit:
            break
    return instructions[:limit]


def memory_addresses(instructions, ops=(OP_LOAD, OP_STORE)):
    """Operand addresses of the instructions whose opcode is in ``ops``."""
    return [address for op, _, address in instructions if op in ops]


class TestRegistry:
    def test_all_paper_workloads_registered(self):
        names = workload_names()
        for name in LONG_RUNNING_WORKLOADS + SHORT_RUNNING_WORKLOADS:
            assert name in names, name

    def test_build_workload_unknown_name(self):
        with pytest.raises(KeyError):
            build_workload("NOPE")

    def test_every_figure_name_builds_the_workload_it_names(self):
        for name in LONG_RUNNING_WORKLOADS + SHORT_RUNNING_WORKLOADS:
            assert build_workload(name).name == name

    def test_aliases(self):
        assert build_workload("SP").name == "SSSP"
        assert build_workload("KCORE").name == "KC"

    def test_graph_kernels_and_llm_profiles_complete(self):
        assert set(GRAPH_KERNELS) == {"BC", "BFS", "CC", "GC", "KC", "PR", "SSSP", "TC"}
        assert set(LLM_PROFILES) == {"Llama", "Bagel", "Mistral"}


class TestWorkloadStreams:
    def test_addresses_stay_inside_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = RandomAccessWorkload(footprint_bytes=4 * MB, memory_operations=500)
        instructions = materialise(workload, kernel, process)
        for address in memory_addresses(instructions):
            assert process.vmas.find(address) is not None

    def test_graph_workload_mixes_memory_and_compute(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = GraphWorkload("PR", footprint_bytes=8 * MB, memory_operations=500)
        instructions = materialise(workload, kernel, process)
        kinds = {op for op, _, _ in instructions}
        assert OP_LOAD in kinds
        assert OP_ALU in kinds
        memory_count = len(memory_addresses(instructions))
        assert 0 < memory_count < len(instructions)

    def test_graph_workload_deterministic(self, kernel_and_process):
        kernel, process = kernel_and_process
        first = materialise(GraphWorkload("BFS", footprint_bytes=4 * MB,
                                          memory_operations=200, seed=3), kernel, process)
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        process2 = kernel2.create_process("wl2")
        second = materialise(GraphWorkload("BFS", footprint_bytes=4 * MB,
                                           memory_operations=200, seed=3), kernel2, process2)
        assert [address for _, _, address in first] == [address for _, _, address in second]

    def test_bc_creates_many_small_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        GraphWorkload("BC", footprint_bytes=8 * MB, memory_operations=10).setup(kernel, process)
        assert len(process.vmas) >= 148  # 3 data VMAs + 147 auxiliary ones

    def test_unknown_graph_kernel_rejected(self):
        with pytest.raises(ValueError):
            GraphWorkload("DIJKSTRA")

    def test_faas_workload_touches_every_page(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = JSONWorkload(scale=0.1)
        instructions = materialise(workload, kernel, process)
        touched_pages = {address // PAGE_SIZE_4K for address in memory_addresses(instructions)}
        mapped_pages = sum(vma.size // PAGE_SIZE_4K for vma in process.vmas)
        assert len(touched_pages) == mapped_pages

    def test_llm_workload_grows_kv_cache_monotonically(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = LLMInferenceWorkload("Llama", scale=0.2)
        instructions = materialise(workload, kernel, process)
        kv_vma = next(vma for vma in process.vmas if "kv-cache" in vma.name)
        kv_writes = [address for address in memory_addresses(instructions, (OP_STORE,))
                     if kv_vma.contains(address)]
        assert kv_writes == sorted(kv_writes)
        assert kv_writes, "the KV cache must be written"

    def test_llm_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            LLMInferenceWorkload("GPT-5")

    def test_xsbench_has_dependent_index_lookups(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = XSBenchWorkload(footprint_bytes=8 * MB, lookups=20)
        instructions = materialise(workload, kernel, process)
        assert len(memory_addresses(instructions)) > 20

    def test_intensity_sweep_scales_randomness(self, kernel_and_process):
        kernel, process = kernel_and_process
        low = IntensitySweepWorkload(0.0, memory_operations=300, seed=1)
        high = IntensitySweepWorkload(1.0, memory_operations=300, seed=1)
        low_instructions = materialise(low, kernel, process)
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        process2 = kernel2.create_process("x")
        high_instructions = materialise(high, kernel2, process2)

        def distinct_pages(instructions):
            return len({address // PAGE_SIZE_4K for address in memory_addresses(instructions)})

        assert distinct_pages(high_instructions) > distinct_pages(low_instructions)
        assert high.footprint_bytes > low.footprint_bytes

    def test_intensity_bounds_validated(self):
        with pytest.raises(ValueError):
            IntensitySweepWorkload(1.5)

    def test_kernel_fraction_microbenchmark_constant_app_instructions(self, kernel_and_process):
        kernel, process = kernel_and_process
        low = KernelFractionMicrobenchmark(0.0, memory_operations=300)
        high = KernelFractionMicrobenchmark(1.0, memory_operations=300)
        low_count = len(materialise(low, kernel, process))
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        high_count = len(materialise(high, kernel2, kernel2.create_process("y")))
        assert low_count == high_count

    def test_kernel_fraction_touches_more_fresh_pages_at_high_fraction(self, kernel_and_process):
        kernel, process = kernel_and_process
        high = KernelFractionMicrobenchmark(1.0, memory_operations=300)
        instructions = materialise(high, kernel, process)
        pages = {address // PAGE_SIZE_4K for address in memory_addresses(instructions)}
        assert len(pages) > 200

    def test_prefault_addresses_cover_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = SequentialWorkload(footprint_bytes=1 * MB, memory_operations=10)
        workload.setup(kernel, process)
        addresses = list(workload.prefault_addresses(process))
        assert len(addresses) == 256
