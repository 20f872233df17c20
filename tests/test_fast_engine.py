"""Fast-path invariance tests: the batch hot loop and the in-place L1
data-TLB hit must change *host* throughput only — never a simulated
statistic.

Four families:

* recorded streams — each generator's batch stream must hash to its
  recorded digest, so no generator's output drifts unseen;
* recorded reports — runs must reproduce the report digests recorded when
  a per-object reference engine still ran beside the batch engine (the two
  engines agreed on every one), fault-heavy kernel paths
  (``kernel_cycles``, ``kernel_instructions``, coupling/channel counters)
  included;
* kernel batches — ``InstrumentationTool.expand_batch`` counts what it
  emits;
* multi-core — a one-task ``Virtuoso.run_tasks`` must be bit-identical
  to ``Virtuoso.run`` bar the scheduler's context switch; interleaved
  single- and two-core runs must reproduce their recorded digests,
  fault-heavy full-system runs included; N-core runs must be deterministic
  across repeats and genuinely share the L2/LLC/DRAM while keeping L1/TLB
  state private, and context switches and migrations must flush the TLBs.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.common.addresses import MB
from repro.common.kernelops import KernelRoutineTrace
from repro.core.cpu import CoreModel
from repro.core.instructions import OP_LOAD, OP_REP, InstructionBatch
from repro.core.instrumentation import InstrumentationTool
from repro.core.virtuoso import Virtuoso
from repro.mimicos.kernel import MimicOS
from repro.validation.invariants import check_translations
from repro.validation.parity import flatten_stats
from repro.common.config import PageTableConfig
from repro.workloads import (
    GUPSWorkload,
    GuestMixWorkload,
    IntensitySweepWorkload,
    KernelFractionMicrobenchmark,
    LLMInferenceWorkload,
    SequentialWorkload,
)
from tests.conftest import assert_report_digest, tiny_mimicos_config, tiny_system_config


def _guest_mix():
    """The virtualized-guest generator: arena layout + interleaved cold
    regions + mixed re-touches."""
    return GuestMixWorkload(footprint_bytes=2 * MB, vma_bytes=256 << 10,
                            interleave_regions=2, mix_per_cold=2,
                            hot_operations=400, seed=7)

REPORT_FIELDS = [
    "instructions", "kernel_instructions", "cycles", "ipc",
    "page_walks", "l2_tlb_misses", "page_faults", "major_faults",
    "total_translation_latency", "total_ptw_latency", "average_ptw_latency",
    "total_fault_latency", "dram_accesses", "dram_row_conflicts",
    "llc_misses", "translation_stall_cycles", "fault_stall_cycles",
    "data_stall_cycles", "swapped_pages",
]


def run_system(workload_factory, seed=7, os_mode="imitation"):
    config = tiny_system_config()
    config = config.with_simulation(replace(config.simulation, os_mode=os_mode))
    system = Virtuoso(config, seed=seed)
    report = system.run(workload_factory())
    return system, report


def assert_reports_identical(first, second):
    for field in REPORT_FIELDS:
        assert getattr(first, field) == getattr(second, field), field
    assert first.details["mmu"]["counters"] == second.details["mmu"]["counters"]
    assert first.details["mmu"]["tlbs"] == second.details["mmu"]["tlbs"]
    assert first.details["memory"] == second.details["memory"]
    assert first.details["core"] == second.details["core"]
    assert first.details["coupling"] == second.details["coupling"]


class TestRecordedGeneratorStreams:
    """Each generator must keep emitting the stream it was recorded with.

    The digests were recorded when a numpy-vectorised twin of every
    generator still existed and emitted the same streams, so they pin the
    pure-python generators to the sequences the recorded benchmark outputs
    and experiment results were produced from.
    """

    WORKLOADS = [
        lambda: GUPSWorkload(footprint_bytes=4 * MB, memory_operations=600, seed=3),
        lambda: SequentialWorkload(footprint_bytes=4 * MB, memory_operations=600, seed=4),
        lambda: IntensitySweepWorkload(0.6, memory_operations=400, prefault=False, seed=6),
        lambda: KernelFractionMicrobenchmark(0.5, memory_operations=400, seed=8),
        lambda: LLMInferenceWorkload("Bagel", scale=0.1, seed=9),
        _guest_mix,
    ]

    #: (instruction count, sha256 prefix) per entry of ``WORKLOADS``, in order.
    DIGESTS = [
        (1800, "0048f1bbc616f66a"),
        (1800, "1b6d3434d11d18e4"),
        (1600, "307210280489609f"),
        (1200, "671b940a91a0d6ee"),
        (9744, "566051d253f277bb"),
        (5808, "c0fa209a6cfa382e"),
    ]

    @staticmethod
    def stream(factory, batch_size):
        """The (kind, pc, address) sequence a fresh workload emits."""
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="radix"))
        process = kernel.create_process("digest")
        workload = factory()
        workload.setup(kernel, process)
        return [entry
                for batch in workload.instruction_batches(process, batch_size=batch_size)
                for entry in zip(batch.kinds, batch.pcs, batch.addresses)]

    @pytest.mark.parametrize("factory,recorded", zip(WORKLOADS, DIGESTS))
    def test_stream_matches_recorded_digest(self, factory, recorded):
        digest = hashlib.sha256()
        entries = self.stream(factory, batch_size=257)
        for entry in entries:
            digest.update(repr(entry).encode())
        assert (len(entries), digest.hexdigest()[:16]) == recorded

    @pytest.mark.parametrize("factory", WORKLOADS)
    def test_stream_is_independent_of_batch_size(self, factory):
        """Packing only chunks the stream: a one-operation-per-batch run
        and a single-large-batch run emit the same sequence."""
        reference = self.stream(factory, batch_size=257)
        assert self.stream(factory, batch_size=1) == reference
        assert self.stream(factory, batch_size=4096) == reference


class TestKernelBatchExpansion:
    """expand_batch counts what it emits."""

    def make_trace(self):
        trace = KernelRoutineTrace("do_page_fault")
        entry = trace.new_op("fault_entry", work_units=6)
        entry.touch(0xFFFF_8000_0000_1000, is_write=False)
        alloc = trace.new_op("buddy_alloc", work_units=24)
        alloc.touch(0xFFFF_8000_0000_2000, is_write=True)
        alloc.touch(0xFFFF_8000_0000_2040, is_write=False)
        zero = trace.new_op("zero_page", work_units=4096)
        zero.touch(0xFFFF_8000_0000_3000, is_write=True)
        trace.new_op("fault_return", work_units=2)
        return trace

    def test_expansion_counters_exact(self):
        tool = InstrumentationTool()
        batch = tool.expand_batch(self.make_trace())
        assert tool.counters.get("instructions_generated") == len(batch)
        assert tool.counters.get("routines_instrumented") == 1
        assert any(repeat >= 4096 for kind, repeat in zip(batch.kinds, batch.values)
                   if kind == OP_REP)


#: Report digests (see ``tests.conftest.report_digest``) recorded when a
#: per-object reference engine still ran beside the batch engine; both
#: engines produced every one of them.
FAULT_HEAVY_DIGESTS = {
    ("imitation", "llm"): "428495a819fa1447bdc10aa4993c598ecf06d8ad2996e631a457ad0c5c694566",
    ("imitation", "kfrac"): "980fdba0e4e92b5fee7f399485f50f193cc95366866bc799d49e361ec733f774",
    ("full_system", "llm"): "ff84ea156a1d448bdde752ea6eda70fd05fc4eb516a377aa715a7b87a01d33e9",
    ("full_system", "kfrac"): "178386029d7f9aa8557c4d72412763747ac16c2c12609d5afb29b0e5048df973",
}
INTERLEAVED_DIGESTS = {
    ("imitation", "two_process"):
        "05fcec94f35b67c6c88bad9d7b62bd6cacc2bbe1a0d9f54425d8817ef05d5903",
    ("imitation", "fault_heavy"):
        "4d070943725afedcb8320069df356e1bcdfad8ee6a20a99d46c0292d81b3b76c",
    ("full_system", "two_process"):
        "d806a5d0a28a77d70a2ec34438a67d7c0c9f377fc7c4c08734b1205ab44e8e35",
    ("full_system", "fault_heavy"):
        "3293dcd620c5182a78fb0b9b839fbfffdbd47c663c39a01313a63393d3ff45e0",
}
GUPS_DIGEST = "12c2a8c4911704d4c43d0b475234a1d4ebd55e87fb9a828942feec4cce63a8aa"
TWO_CORE_DIGEST = "7678c995464b1a17743796a24425083c7bcf237a49837c02a8e0365806d030f4"

class TestEngineInvariance:
    def test_gups_matches_recorded_digest(self):
        system, report = run_system(lambda: GUPSWorkload(footprint_bytes=4 * MB,
                                                         memory_operations=1200, seed=5))
        assert_report_digest(report, GUPS_DIGEST)
        # The in-place L1 data-TLB hit served accesses.
        assert system.mmu.fast_hits > 0

    @pytest.mark.parametrize("os_mode", ["imitation", "full_system"])
    def test_fault_heavy_matches_recorded_digest(self, os_mode):
        """The kernel path where it matters most: fault-dominated runs."""
        factories = {
            "llm": lambda: LLMInferenceWorkload("Bagel", scale=0.1, seed=9),
            "kfrac": lambda: KernelFractionMicrobenchmark(0.8, memory_operations=1500,
                                                          seed=8),
        }
        for name, factory in factories.items():
            _, report = run_system(factory, os_mode=os_mode)
            assert report.kernel_instructions > 0
            assert_report_digest(report, FAULT_HEAVY_DIGESTS[os_mode, name])

    def test_max_instructions_exact_with_batches(self):
        factory = lambda: SequentialWorkload(footprint_bytes=4 * MB,
                                             memory_operations=5000, prefault=True)
        config = tiny_system_config()
        system = Virtuoso(config, seed=7)
        report = system.run(factory(), max_instructions=777)
        assert report.instructions == 777


def load_batch(address):
    return InstructionBatch([OP_LOAD], [0], [address])


class TestTranslationPenaltyAccounting:
    def test_negative_translation_penalty_raises(self):
        """Accounting bugs (latency < fault latency + 1) must surface loudly."""
        config = tiny_system_config()
        system = Virtuoso(config, seed=7)
        core = system.core

        # Translation latency 3, fault latency 10, faulted, an L1 data hit.
        core.mmu.access_data_fast = lambda *args, **kwargs: (3, 10, True, 0, "L1")

        with pytest.raises(AssertionError, match="negative translation component"):
            core.execute_batch(load_batch(0x1000))

    def test_zero_latency_translation_is_not_an_error(self):
        """A zero-latency frontend (nothing to overlap) must not trip the assert."""
        config = tiny_system_config()
        system = Virtuoso(config, seed=7)
        core = system.core
        core.mmu.access_data_fast = lambda *args, **kwargs: (0, 0, False, 0, "L1")

        before = core.cycles
        core.execute_batch(load_batch(0x1000))
        assert core.cycles == before + config.core.base_cpi
        assert core.breakdown.translation_cycles == 0.0


def multicore_config(batch_size=1024, os_mode="imitation"):
    config = tiny_system_config()
    return config.with_simulation(replace(config.simulation, batch_size=batch_size,
                                          os_mode=os_mode))


def two_process_workloads():
    return [
        GUPSWorkload(footprint_bytes=4 * MB, memory_operations=2500, seed=5),
        SequentialWorkload(footprint_bytes=4 * MB, memory_operations=2500, seed=6),
    ]


def fault_heavy_workloads():
    return [
        LLMInferenceWorkload("Bagel", scale=0.1, seed=9),
        KernelFractionMicrobenchmark(0.8, memory_operations=1200, seed=8),
    ]


def assert_merged_reports_identical(first, second):
    for field in REPORT_FIELDS:
        assert getattr(first, field) == getattr(second, field), field
    assert first.details["cores"] == second.details["cores"]
    assert first.details["shared_memory"] == second.details["shared_memory"]
    assert first.details["coupling"] == second.details["coupling"]
    assert first.details["kernel"] == second.details["kernel"]


class TestMultiCoreInvariance:
    """Multi-core batching must never move a simulated statistic."""

    def test_single_core_single_task_matches_virtuoso(self):
        """A one-task run_tasks is exactly a run, apart from the one context
        switch the scheduler books, which run never does."""
        factory = lambda: GUPSWorkload(footprint_bytes=4 * MB,
                                       memory_operations=1200, seed=5)
        single = Virtuoso(multicore_config(), seed=7).run(factory())
        scheduled = Virtuoso(multicore_config(), seed=7).run_tasks(
            [factory()]).core_reports[0]
        switches = "details.kernel.kernel.context_switches"
        single_stats = flatten_stats(single)
        scheduled_stats = flatten_stats(scheduled)
        assert switches not in single_stats
        assert scheduled_stats.pop(switches) == 1
        assert single_stats == scheduled_stats
        assert_reports_identical(single, scheduled)

    @pytest.mark.parametrize("os_mode", ["imitation", "full_system"])
    def test_interleaved_matches_recorded_digest(self, os_mode):
        """A single-core multi-process run interleaved in chunks must
        reproduce its recorded statistics, fault-heavy full-system runs
        included."""
        factories = {"two_process": two_process_workloads,
                     "fault_heavy": fault_heavy_workloads}
        for name, factory in factories.items():
            result = Virtuoso(multicore_config(os_mode=os_mode),
                              num_cores=1, seed=7).run_tasks(factory())
            assert result.merged.instructions > 0
            assert_report_digest(result.merged, INTERLEAVED_DIGESTS[os_mode, name])

    def test_two_core_matches_recorded_digest(self):
        """The recorded statistics hold with cores genuinely sharing
        L2/LLC/DRAM."""
        result = Virtuoso(multicore_config(), num_cores=2, seed=7).run_tasks(
            two_process_workloads())
        assert_report_digest(result.merged, TWO_CORE_DIGEST)

    def test_multicore_runs_deterministic(self):
        """Repeated N-core runs must be bit-identical."""
        def run_once():
            system = Virtuoso(multicore_config(batch_size=512),
                              num_cores=2, seed=7)
            return system.run_tasks(two_process_workloads())
        first, second = run_once(), run_once()
        assert_merged_reports_identical(first.merged, second.merged)
        for a, b in zip(first.core_reports, second.core_reports):
            for field in REPORT_FIELDS:
                assert getattr(a, field) == getattr(b, field), field

    def test_shared_levels_are_shared_and_l1_private(self):
        system = Virtuoso(multicore_config(), num_cores=2, seed=7)
        first, second = system.cores
        assert first.memory.l2 is second.memory.l2
        assert first.memory.l3 is second.memory.l3
        assert first.memory.dram is second.memory.dram
        assert first.memory.l1 is not second.memory.l1
        assert first.tlbs is not second.tlbs
        assert first.mmu is not second.mmu
        result = system.run_tasks(two_process_workloads())
        # Both cores executed and issued traffic through their own L1s.
        for report in result.core_reports:
            assert report.instructions > 0
        assert first.memory.l1.stats()["accesses_data"] > 0
        assert second.memory.l1.stats()["accesses_data"] > 0

    def test_contention_inflates_shared_misses(self):
        """Co-running two cache-hostile processes on shared LLC/DRAM must
        cost more than running one alone (the contention the multi-core
        model exists to expose)."""
        solo = Virtuoso(multicore_config(), num_cores=1, seed=7)
        solo_result = solo.run_tasks([GUPSWorkload(footprint_bytes=4 * MB,
                                                   memory_operations=2500,
                                                   prefault=True, seed=5)])
        duo = Virtuoso(multicore_config(), num_cores=2, seed=7)
        duo_result = duo.run_tasks([
            GUPSWorkload(footprint_bytes=4 * MB, memory_operations=2500,
                         prefault=True, seed=5),
            GUPSWorkload(footprint_bytes=4 * MB, memory_operations=2500,
                         prefault=True, seed=106),
        ])
        assert duo_result.merged.llc_misses > solo_result.merged.llc_misses
        assert duo_result.merged.dram_accesses > solo_result.merged.dram_accesses

    def test_sweep_deterministic_across_worker_counts(self):
        """Host parallelism must never change a simulated statistic: the
        same tiny grid run inline (workers=1) and on a 2-worker pool must
        produce identical simulated digests."""
        from repro.experiments.sweep import SweepPoint, run_sweep, simulated_digest
        points = [
            SweepPoint(name=f"det-{index}", workload="RND",
                       workload_kwargs={"footprint_bytes": 1 * MB,
                                        "memory_operations": 300,
                                        "prefault": True, "seed": index})
            for index in range(3)
        ]
        inline = run_sweep(points, workers=1)
        pooled = run_sweep(points, workers=2)
        assert simulated_digest(inline["points"]) == \
            simulated_digest(pooled["points"])
        assert inline["merged"]["simulated_instructions"] > 0

    def test_kernel_streams_routed_to_faulting_core(self):
        """Fault-driven kernel work must execute on the faulting core: with
        one fault-taking process per core, both cores accumulate kernel
        instructions."""
        system = Virtuoso(multicore_config(), num_cores=2, seed=7)
        result = system.run_tasks(fault_heavy_workloads())
        for report in result.core_reports:
            assert report.kernel_instructions > 0
        total = sum(r.kernel_instructions for r in result.core_reports)
        assert total == result.merged.kernel_instructions
        assert system.coupling.counters.get("page_faults") > 0


class TestMultiCoreContextSwitches:
    """Context-switch and migration correctness: TLB contents must never
    leak across processes or cores."""

    def test_interleaving_context_switches_flush_tlbs(self):
        system = Virtuoso(multicore_config(batch_size=512),
                          num_cores=1, seed=7)
        result = system.run_tasks(two_process_workloads())
        kernel_counters = result.merged.details["kernel"]["kernel"]
        switches = kernel_counters.get("context_switches", 0)
        assert switches > 2, "chunk interleaving should context-switch repeatedly"
        unit = system.cores[0]
        # Every switch flushed all four TLBs of the core.
        assert unit.tlbs.l1d_4k.counters.get("flushes") == switches
        assert unit.tlbs.l2.counters.get("flushes") == switches

    def test_context_switch_leaves_no_translation_of_the_old_process(self):
        """After a run leaves TLB entries behind, switching another process
        in must drop them: the check against the new process's (empty)
        page table stays clean."""
        system = Virtuoso(multicore_config(), num_cores=1, seed=7)
        system.run_tasks([SequentialWorkload(footprint_bytes=1 * MB,
                                             memory_operations=800, prefault=True,
                                             seed=2)])
        unit = system.cores[0]
        assert unit.mmu.fast_hits > 0
        other = system.create_process("other")
        system.kernel.context_switch(unit.index, other)
        unit.mmu.set_context(other.pid, other.page_table, flush_tlbs=True)
        assert check_translations(system) == 0

    def test_migrate_in_flushes_tlbs(self):
        """MMU.migrate_in must behave exactly like a flushing set_context:
        no TLB entry survives the migration."""
        system = Virtuoso(multicore_config(), num_cores=2, seed=7)
        workload = SequentialWorkload(footprint_bytes=1 * MB,
                                      memory_operations=800, prefault=True,
                                      seed=2)
        result = system.run_tasks([workload])
        source = system.cores[0]
        target = system.cores[1]
        process = source.tasks[0].process
        assert result.merged.instructions > 0
        assert source.mmu.fast_hits > 0
        # Warm the target core with the same process, then migrate in.
        target.mmu.migrate_in(process.pid, process.page_table)
        assert not any(entries for tlb in (target.tlbs.l1i, target.tlbs.l1d_4k,
                                           target.tlbs.l1d_2m, target.tlbs.l2)
                       for entries in tlb._sets)
        check_translations(system)
        assert target.tlbs.l1d_4k.counters.get("flushes") >= 1
        assert target.mmu.pid == process.pid

    def test_consecutive_runs_name_only_their_own_workloads(self):
        """Each run starts with empty per-core task lists: a report never
        names a workload an earlier run on the same system ran."""
        def rnd():
            return GUPSWorkload(footprint_bytes=1 * MB, memory_operations=300, seed=1)

        def stream():
            return SequentialWorkload(footprint_bytes=1 * MB, memory_operations=300,
                                      seed=2)

        system = Virtuoso(multicore_config(), seed=7)
        assert system.run(rnd()).workload == "RND"
        assert system.run(stream()).workload == "STREAM"
        assert [task.name for task in system.cores[0].tasks] == ["STREAM"]

        system = Virtuoso(multicore_config(), num_cores=2, seed=7)
        first = system.run_tasks([rnd()])
        second = system.run_tasks([stream(), rnd()])
        assert first.merged.workload == "RND"
        assert [report.workload for report in first.core_reports] == ["RND", "idle"]
        assert second.merged.workload == "STREAM+RND"
        assert [report.workload for report in second.core_reports] == ["STREAM", "RND"]
        # Counters stay cumulative across runs.
        assert second.merged.instructions > first.merged.instructions

    def test_create_process_between_runs_forces_a_full_switch(self):
        """create_process points core 0's MMU at the new process, so a task
        of the process core 0 ran before must be switched back in."""
        system = Virtuoso(multicore_config(), seed=7)
        first = system.create_process("first")
        system.run_tasks([GUPSWorkload(footprint_bytes=1 * MB, memory_operations=300,
                                       seed=1)], processes=[first])
        system.create_process("second")
        system.run_tasks([SequentialWorkload(footprint_bytes=1 * MB,
                                             memory_operations=300, seed=2)],
                         processes=[first])
        assert system.mmu.pid == first.pid
        assert system.kernel.counters.get("context_switches") == 2

    def test_run_queue_drives_assignment(self):
        """Tasks are admitted through the MimicOS run queue and land on
        cores round-robin in FIFO order."""
        system = Virtuoso(multicore_config(), num_cores=2, seed=7)
        workloads = two_process_workloads()
        result = system.run_tasks(workloads)
        assert len(system.cores[0].tasks) == 1
        assert len(system.cores[1].tasks) == 1
        assert system.cores[0].tasks[0].name == workloads[0].name
        assert system.cores[1].tasks[0].name == workloads[1].name
        assert not system.kernel.run_queue  # fully drained into the cores
        assert [unit.tasks[0].process.last_core for unit in system.cores] == [0, 1]
        assert result.merged.instructions > 0
