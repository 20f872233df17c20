"""Virtuoso's imitation-based simulation methodology.

This package couples the architectural simulator (core + memory models) with
MimicOS the way §4 of the paper describes.  Both sides live in one process,
so the paper's two channels are direct calls in the OS coupling
(:mod:`repro.core.modes`), which counts their traffic:

* the **functional channel**: the MMU's page fault goes to MimicOS and the
  functional outcome comes back (``requests`` and ``responses``);
* the **instruction-stream channel**: the dynamically generated instruction
  stream of the kernel routine that handled the fault, produced by the
  :mod:`instrumentation <repro.core.instrumentation>` layer and ended by a
  magic instruction, runs on the faulting core, which thereby charges
  realistic, workload-dependent latency and memory interference for OS
  work (``streams`` and ``instructions``).

The package also provides the two comparison couplings used throughout the
evaluation: the fixed-latency *emulation* baseline (how Sniper/ChampSim model
VM out of the box) and a *full-system* stand-in that simulates the whole
kernel rather than only the relevant modules (the gem5-FS comparison point),
plus the *reference* mode that stands in for the real validation machine.
"""

from repro.core.cpu import CoreModel
from repro.core.instructions import (
    InstructionBatch,
    KernelInstructionBatch,
)
from repro.core.instrumentation import InstrumentationTool
from repro.core.modes import EmulationCoupling, FullSystemCoupling, ImitationCoupling, OSCoupling
from repro.core.report import SimulationReport
from repro.core.virtuoso import MultiCoreRunResult, SimulatedCore, Virtuoso

__all__ = [
    "CoreModel",
    "MultiCoreRunResult",
    "SimulatedCore",
    "EmulationCoupling",
    "FullSystemCoupling",
    "ImitationCoupling",
    "InstructionBatch",
    "InstrumentationTool",
    "KernelInstructionBatch",
    "OSCoupling",
    "SimulationReport",
    "Virtuoso",
]
