"""Tests for simulator integrations, the cost model, validation and reporting."""

import pytest

from repro.analysis.reporting import FigureSeries, format_figure, format_table, normalise_series
from repro.arch.cost import SimulationCostModel
from repro.arch.integrations import GEM5_FS, INTEGRATIONS, get_integration, integration_names
from repro.common.addresses import MB
from repro.core.report import SimulationReport
from repro.validation.reference import ValidationResult, run_validation
from repro.workloads import JSONWorkload, RandomAccessWorkload
from tests.conftest import tiny_system_config


class TestIntegrations:
    def test_table3_loc_values(self):
        sniper = get_integration("sniper")
        assert (sniper.loc.frontend, sniper.loc.core_model, sniper.loc.mmu_model,
                sniper.loc.files) == (46, 35, 180, 9)
        champsim = get_integration("champsim")
        assert champsim.loc.total == 56 + 45 + 22

    def test_all_five_integrations_present(self):
        assert set(integration_names()) == {"champsim", "sniper", "ramulator", "gem5-se",
                                            "mqsim"}

    def test_gem5_fs_lookup(self):
        assert get_integration("gem5-fs") is GEM5_FS

    def test_unknown_integration(self):
        with pytest.raises(KeyError):
            get_integration("simics")


def report_with(app_instructions, kernel_instructions):
    return SimulationReport(workload="w", config_name="c", os_mode="imitation",
                            instructions=app_instructions,
                            kernel_instructions=kernel_instructions)


class TestCostModel:
    def test_mimicos_adds_time_proportional_to_kernel_instructions(self):
        model = SimulationCostModel(get_integration("sniper"))
        baseline = model.estimate(report_with(100_000, 20_000), with_mimicos=False)
        with_mimicos = model.estimate(report_with(100_000, 20_000), with_mimicos=True)
        assert with_mimicos.host_time_units > baseline.host_time_units
        slowdown = with_mimicos.slowdown_over(baseline)
        assert 0.0 < slowdown < 1.0

    def test_online_instrumentation_doubles_memory(self):
        model = SimulationCostModel(get_integration("sniper"))
        baseline = model.estimate(report_with(1000, 100), with_mimicos=False)
        with_mimicos = model.estimate(report_with(1000, 100), with_mimicos=True)
        assert with_mimicos.memory_overhead_over(baseline) == pytest.approx(2.1, rel=0.05)

    def test_offline_instrumentation_is_cheap(self):
        model = SimulationCostModel(get_integration("ramulator"))
        baseline = model.estimate(report_with(1000, 100), with_mimicos=False)
        with_mimicos = model.estimate(report_with(1000, 100), with_mimicos=True)
        assert with_mimicos.memory_overhead_over(baseline) < 1.1

    def test_full_system_slower_than_mimicos(self):
        model = SimulationCostModel(get_integration("gem5-se"))
        report = report_with(100_000, 15_000)
        mimicos = model.estimate(report)
        full_system = model.estimate_full_system(report)
        assert full_system.host_time_units > mimicos.host_time_units
        assert full_system.host_memory_gb > get_integration("gem5-se").baseline_memory_gb


class TestSimulationReport:
    def test_derived_metrics(self):
        report = report_with(10_000, 2_000)
        report.l2_tlb_misses = 50
        report.translation_stall_cycles = 300.0
        report.fault_stall_cycles = 100.0
        report.cycles = 1000.0
        assert report.l2_tlb_mpki == pytest.approx(5.0)
        assert report.kernel_instruction_fraction == pytest.approx(2000 / 12000)
        assert report.translation_fraction_of_cycles == pytest.approx(0.3)
        assert report.allocation_fraction_of_cycles == pytest.approx(0.1)


class TestValidationHarness:
    def test_validation_metrics_in_range(self):
        config = tiny_system_config()
        run = run_validation(config,
                             lambda: JSONWorkload(scale=0.15),
                             workload_name="JSON", seed=5)
        result = ValidationResult.from_run(run)
        for value in (result.ipc_accuracy_virtuoso, result.ipc_accuracy_baseline,
                      result.tlb_mpki_accuracy, result.ptw_latency_accuracy):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= result.fault_latency_cosine <= 1.0
        assert run.reference.os_mode == "reference"
        assert run.virtuoso.os_mode == "imitation"
        assert run.baseline.os_mode == "emulation"

    def test_virtuoso_tracks_reference_fault_latency_better_than_baseline(self):
        config = tiny_system_config()
        run = run_validation(config, lambda: JSONWorkload(scale=0.15), "JSON", seed=5)
        virtuoso_error = abs(run.virtuoso.fault_latency.mean
                             - run.reference.fault_latency.mean)
        baseline_error = abs(run.baseline.fault_latency.mean
                             - run.reference.fault_latency.mean)
        # The imitation-based model must approximate the reference's mean
        # fault latency at least as well as the fixed-latency baseline does.
        assert virtuoso_error <= baseline_error


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", 1.0], ["b", 22.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text and "22.5" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_figure_series_and_formatting(self):
        series = FigureSeries("ech")
        series.add("BC", 0.25)
        series.add("BFS", 0.5)
        assert series.values() == [0.25, 0.5]
        text = format_figure("Fig X", [series])
        assert "BC" in text and "ech" in text

    def test_normalise_series(self):
        series = FigureSeries("raw")
        series.add("a", 2.0)
        normalised = normalise_series(series, 2.0)
        assert normalised.values() == [1.0]
        with pytest.raises(ValueError):
            normalise_series(series, 0.0)
