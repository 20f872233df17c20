"""Virtuoso reproduction: an imitation-based OS simulation framework for VM research.

This package reimplements, in Python, the system described in
"Virtuoso: Enabling Fast and Accurate Virtual Memory Research via an
Imitation-based Operating System Simulation Methodology" (ASPLOS 2025):

* :mod:`repro.mimicos` — MimicOS, the lightweight userspace kernel imitating
  Linux memory management;
* :mod:`repro.core` — the imitation methodology (functional and
  instruction-stream channels, instrumentation, OS-coupling modes, the
  Virtuoso orchestrator);
* :mod:`repro.mmu`, :mod:`repro.pagetables`, :mod:`repro.memhier`,
  :mod:`repro.storage` — the hardware substrate (TLBs, translation schemes,
  caches, DRAM, SSD);
* :mod:`repro.workloads`, :mod:`repro.validation`, :mod:`repro.analysis`,
  :mod:`repro.arch` — the workloads, validation harness, reporting helpers
  and simulator-integration metadata used by the benchmark suite.

Quickstart::

    from repro import Virtuoso, scaled_system_config
    from repro.workloads import GraphWorkload

    system = Virtuoso(scaled_system_config())
    report = system.run(GraphWorkload("BFS", memory_operations=5_000))
    print(report.summary())
"""

from repro.common.config import (
    CASE_STUDY_PAGE_TABLES,
    MimicOSConfig,
    PageTableConfig,
    SimulationConfig,
    SystemConfig,
    VirtualizationConfig,
    baseline_system_config,
    scaled_system_config,
)
from repro.core.report import SimulationReport
from repro.core.virtuoso import MultiCoreRunResult, Virtuoso
from repro.mimicos.kernel import MimicOS

__version__ = "1.0.0"

__all__ = [
    "CASE_STUDY_PAGE_TABLES",
    "MimicOS",
    "MimicOSConfig",
    "MultiCoreRunResult",
    "PageTableConfig",
    "SimulationConfig",
    "SimulationReport",
    "SystemConfig",
    "VirtualizationConfig",
    "Virtuoso",
    "baseline_system_config",
    "scaled_system_config",
    "__version__",
]
