"""End-to-end integration tests of the Virtuoso orchestrator."""

from dataclasses import replace

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig, SimulationConfig
from repro.core.virtuoso import Virtuoso
from repro.workloads import (
    GraphWorkload,
    JSONWorkload,
    LLMInferenceWorkload,
    RandomAccessWorkload,
    SequentialWorkload,
)
from tests.conftest import tiny_system_config


def small_graph(**kwargs):
    defaults = dict(footprint_bytes=8 * MB, memory_operations=1500, prefault=True)
    defaults.update(kwargs)
    return GraphWorkload("BFS", **defaults)


class TestVirtuosoRuns:
    def test_run_produces_consistent_report(self, virtuoso):
        report = virtuoso.run(small_graph())
        assert report.instructions > 0
        assert report.cycles > 0
        assert 0.0 < report.ipc < 4.0
        assert report.workload == "BFS"
        assert report.os_mode == "imitation"

    def test_prefault_installs_translations_without_faulting_in_run(self, virtuoso):
        report = virtuoso.run(small_graph())
        assert report.page_faults == 0
        assert virtuoso.counters.get("prefaulted_pages") > 0

    def test_fault_heavy_workload_injects_kernel_instructions(self, virtuoso):
        report = virtuoso.run(JSONWorkload(scale=0.2))
        assert report.page_faults > 0
        assert report.kernel_instructions > 0
        assert report.fault_latency.count == report.page_faults
        assert report.allocation_fraction_of_cycles > 0.0

    def test_max_instructions_limit(self, virtuoso):
        report = virtuoso.run(RandomAccessWorkload(footprint_bytes=4 * MB,
                                                   memory_operations=5000, prefault=True),
                              max_instructions=500)
        assert report.instructions == 500

    def test_emulation_mode_produces_no_kernel_instructions(self):
        config = tiny_system_config()
        config = config.with_simulation(SimulationConfig(os_mode="emulation"))
        system = Virtuoso(config, seed=3)
        report = system.run(JSONWorkload(scale=0.2))
        assert report.page_faults > 0
        assert report.kernel_instructions == 0

    def test_reference_mode_runs(self):
        config = tiny_system_config().with_simulation(SimulationConfig(os_mode="reference"))
        system = Virtuoso(config, seed=3)
        report = system.run(JSONWorkload(scale=0.2))
        assert report.page_faults > 0
        assert report.fault_latency.count > 0

    def test_determinism_same_seed_same_result(self):
        def run_once():
            system = Virtuoso(tiny_system_config(), seed=11)
            return system.run(RandomAccessWorkload(footprint_bytes=4 * MB,
                                                   memory_operations=1000, seed=5))
        first, second = run_once(), run_once()
        assert first.cycles == second.cycles
        assert first.instructions == second.instructions
        assert first.l2_tlb_misses == second.l2_tlb_misses

    def test_report_details_present(self, virtuoso):
        report = virtuoso.run(small_graph())
        assert set(report.details) >= {"mmu", "core", "kernel", "coupling", "memory"}
        summary = report.summary()
        assert summary["workload"] == "BFS"


class TestPageTableVariants:
    @pytest.mark.parametrize("kind", ["radix", "ech", "hdc", "ht", "utopia", "rmm"])
    def test_every_translation_scheme_runs_end_to_end(self, kind):
        config = tiny_system_config()
        config = config.with_page_table(PageTableConfig(kind=kind))
        system = Virtuoso(config, seed=2)
        report = system.run(RandomAccessWorkload(footprint_bytes=4 * MB,
                                                 memory_operations=800))
        assert report.instructions > 0
        assert report.cycles > 0

    @pytest.mark.parametrize("kind", ["midgard", "vbi"])
    def test_intermediate_address_schemes_run(self, kind):
        config = tiny_system_config().with_page_table(PageTableConfig(kind=kind))
        system = Virtuoso(config, seed=2)
        report = system.run(RandomAccessWorkload(footprint_bytes=4 * MB,
                                                 memory_operations=800))
        assert report.instructions > 0
        if kind == "midgard":
            assert report.frontend_translation_cycles > 0

    def test_hash_pt_needs_fewer_walk_accesses_than_radix(self):
        def run(page_table_config):
            config = tiny_system_config()
            config = replace(config, mimicos=replace(config.mimicos, thp_policy="bd"))
            config = config.with_page_table(page_table_config)
            system = Virtuoso(config, seed=4)
            workload = RandomAccessWorkload(footprint_bytes=32 * MB,
                                            memory_operations=3000, prefault=True, seed=9)
            return system.run(workload)

        # Scale the page-walk caches down with the scaled footprint so radix
        # behaves as it does at full scale (upper levels frequently missing).
        radix = run(PageTableConfig(kind="radix", pwc_entries=4, pwc_associativity=4))
        hdc = run(PageTableConfig(kind="hdc"))
        assert radix.page_walks > 0 and hdc.page_walks > 0
        radix_accesses = radix.details["mmu"]["counters"]["ptw_memory_accesses"] / radix.page_walks
        hdc_accesses = hdc.details["mmu"]["counters"]["ptw_memory_accesses"] / hdc.page_walks
        assert hdc_accesses < radix_accesses


class TestWorkloadBehaviours:
    def test_llm_workload_allocation_dominated(self, virtuoso):
        report = virtuoso.run(LLMInferenceWorkload("Bagel", scale=0.3))
        assert report.page_faults > 0
        assert report.allocation_fraction_of_cycles > report.translation_fraction_of_cycles

    def test_random_access_has_higher_tlb_mpki_than_sequential(self):
        def run(workload):
            system = Virtuoso(tiny_system_config(), seed=6)
            return system.run(workload)

        random_report = run(RandomAccessWorkload(footprint_bytes=16 * MB,
                                                 memory_operations=4000, prefault=True))
        sequential_report = run(SequentialWorkload(footprint_bytes=16 * MB,
                                                   memory_operations=4000, prefault=True))
        assert random_report.l2_tlb_mpki > sequential_report.l2_tlb_mpki

    def test_graph_bc_creates_many_small_vmas(self, virtuoso):
        process = virtuoso.map_workload(GraphWorkload("BC", footprint_bytes=8 * MB,
                                                      memory_operations=100))
        histogram = process.vmas.size_histogram()
        assert sum(histogram.values()) >= 100
