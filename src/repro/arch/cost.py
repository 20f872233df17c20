"""Host simulation-cost model for the overhead studies (Figs. 11 and 12).

Wall-clock measurements of a pure-Python simulator are dominated by Python
interpreter noise and say nothing about the C++ simulators the paper
integrates with, so the overhead experiments use an explicit cost model on
top of the simulation's *measured* instruction counts:

* host time ∝ (application instructions) x per-instruction cost of the host
  simulator + (MimicOS instructions) x per-kernel-instruction cost (higher
  when online binary instrumentation is used);
* host memory = the host simulator's baseline footprint x the
  instrumentation mode's memory factor (online Pin-style instrumentation
  roughly doubles it).  The model has no trace-size term: a trace
  frontend's resident trace is left out.

The *inputs* (how many kernel instructions MimicOS injected, how many
application instructions ran) come from real simulation runs, so Fig. 12's
correlation is measured, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.integrations import SimulatorIntegration
from repro.core.instrumentation import InstrumentationTool
from repro.core.report import SimulationReport


@dataclass
class HostCostEstimate:
    """Modelled host cost of one simulation run."""

    simulator: str
    host_time_units: float
    host_memory_gb: float
    kernel_instruction_fraction: float

    def slowdown_over(self, baseline: "HostCostEstimate") -> float:
        """Relative slowdown of this run versus a baseline run."""
        if baseline.host_time_units == 0:
            return 0.0
        return self.host_time_units / baseline.host_time_units - 1.0

    def memory_overhead_over(self, baseline: "HostCostEstimate") -> float:
        """Relative memory overhead versus a baseline run."""
        if baseline.host_memory_gb == 0:
            return 0.0
        return self.host_memory_gb / baseline.host_memory_gb


class SimulationCostModel:
    """Computes host time/memory estimates for a report on a given simulator."""

    #: Extra per-kernel-instruction cost when a full kernel is simulated
    #: (full-system mode pays for devices, interrupts, privilege switches).
    FULL_SYSTEM_INSTRUCTION_FACTOR = 1.25
    #: Additional fixed kernel activity a full-blown OS executes per
    #: application instruction (timer ticks, daemons) even without VM events.
    FULL_SYSTEM_BACKGROUND_FRACTION = 0.18

    def __init__(self, integration: SimulatorIntegration):
        self.integration = integration

    def estimate(self, report: SimulationReport, with_mimicos: bool = True) -> HostCostEstimate:
        """Estimate the host cost of running ``report``'s simulation."""
        app = report.instructions
        kernel = report.kernel_instructions if with_mimicos else 0

        time_units = (app * self.integration.host_cost_per_app_instruction
                      + kernel * self.integration.host_cost_per_kernel_instruction)

        instrumentation = InstrumentationTool(mode=self.integration.instrumentation)
        memory_factor = instrumentation.host_memory_overhead_factor() if with_mimicos else 1.0
        memory_gb = self.integration.baseline_memory_gb * memory_factor

        fraction = kernel / (app + kernel) if (app + kernel) else 0.0
        return HostCostEstimate(simulator=self.integration.name,
                                host_time_units=time_units,
                                host_memory_gb=memory_gb,
                                kernel_instruction_fraction=fraction)

    def estimate_full_system(self, report: SimulationReport) -> HostCostEstimate:
        """Estimate the cost of full-system simulation of the same workload.

        A full-system run simulates every kernel instruction (not just the
        relevant modules) plus background OS activity, and cannot drop the
        kernel even when the workload barely interacts with the OS.
        """
        app = report.instructions
        kernel = report.kernel_instructions * self.FULL_SYSTEM_INSTRUCTION_FACTOR
        background = app * self.FULL_SYSTEM_BACKGROUND_FRACTION
        time_units = (app * self.integration.host_cost_per_app_instruction
                      + (kernel + background)
                      * self.integration.host_cost_per_kernel_instruction)
        memory_gb = self.integration.baseline_memory_gb * 1.69  # paper: 1 GB -> 1.69 GB
        fraction = (kernel + background) / (app + kernel + background) if app else 0.0
        return HostCostEstimate(simulator=f"{self.integration.name}-FS",
                                host_time_units=time_units,
                                host_memory_gb=memory_gb,
                                kernel_instruction_fraction=fraction)
