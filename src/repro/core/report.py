"""Simulation report: everything one Virtuoso run produces.

A :class:`SimulationReport` is the single artefact the benchmarks consume;
it bundles the performance metrics (IPC, MPKI, PTW latency), the OS metrics
(fault counts and latency distribution, swap activity), the memory-system
metrics (row-buffer conflicts by requester) and the simulation-cost metrics
(host time, simulated kernel instructions) used by the overhead studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.stats import LatencyDistribution, mpki, safe_ratio


@dataclass
class SimulationReport:
    """Results of simulating one workload on one system configuration."""

    workload: str
    config_name: str
    os_mode: str

    # Core metrics.
    instructions: int = 0
    kernel_instructions: int = 0
    cycles: float = 0.0
    ipc: float = 0.0

    # MMU metrics.
    l2_tlb_misses: int = 0
    page_walks: int = 0
    average_ptw_latency: float = 0.0
    total_ptw_latency: float = 0.0
    total_translation_latency: float = 0.0
    frontend_translation_cycles: int = 0
    backend_translation_cycles: int = 0

    # OS metrics.
    page_faults: int = 0
    major_faults: int = 0
    fault_latency: LatencyDistribution = field(default_factory=LatencyDistribution)
    total_fault_latency: float = 0.0
    swapped_pages: int = 0
    swap_cycles: int = 0

    # Memory-system metrics.
    dram_accesses: int = 0
    dram_row_conflicts: int = 0
    dram_row_conflicts_translation: int = 0
    llc_misses: int = 0

    # Cycle breakdown.
    translation_stall_cycles: float = 0.0
    fault_stall_cycles: float = 0.0
    data_stall_cycles: float = 0.0

    # Simulation-cost metrics (the Fig. 11/12 axes).
    host_seconds: float = 0.0
    modeled_host_cost: float = 0.0
    modeled_memory_bytes: float = 0.0

    # Raw statistic dumps for deeper analysis.
    details: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def l2_tlb_mpki(self) -> float:
        """L2 TLB misses per kilo-instruction (Fig. 10)."""
        return mpki(self.l2_tlb_misses, self.instructions)

    @property
    def page_faults_per_kilo_instructions(self) -> float:
        """PFKI, the metric the overhead study's worst case is chosen by."""
        return mpki(self.page_faults, self.instructions)

    @property
    def kernel_instruction_fraction(self) -> float:
        """Fraction of simulated instructions executed by MimicOS (Fig. 12 x-axis)."""
        total = self.instructions + self.kernel_instructions
        return safe_ratio(self.kernel_instructions, total)

    @property
    def translation_fraction_of_cycles(self) -> float:
        """Fraction of execution time spent translating addresses (Fig. 1)."""
        return safe_ratio(self.translation_stall_cycles, self.cycles)

    @property
    def allocation_fraction_of_cycles(self) -> float:
        """Fraction of execution time spent in physical memory allocation (Fig. 1)."""
        return safe_ratio(self.fault_stall_cycles, self.cycles)

    def summary(self) -> Dict[str, float]:
        """A flat digest convenient for table rendering."""
        return {
            "workload": self.workload,
            "config": self.config_name,
            "os_mode": self.os_mode,
            "instructions": self.instructions,
            "kernel_instructions": self.kernel_instructions,
            "ipc": round(self.ipc, 4),
            "l2_tlb_mpki": round(self.l2_tlb_mpki, 3),
            "avg_ptw_latency": round(self.average_ptw_latency, 2),
            "page_faults": self.page_faults,
            "avg_fault_latency": round(self.fault_latency.mean, 1) if self.fault_latency.count else 0.0,
            "dram_row_conflicts": self.dram_row_conflicts,
            "translation_fraction": round(self.translation_fraction_of_cycles, 4),
            "allocation_fraction": round(self.allocation_fraction_of_cycles, 4),
        }
