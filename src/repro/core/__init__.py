"""Virtuoso's imitation-based simulation methodology.

This package couples the architectural simulator (core + memory models) with
MimicOS the way §4 of the paper describes:

* the **functional channel** carries VM events (page faults, mmap) from the
  simulator's MMU model to MimicOS and the functional outcome back;
* the **instruction-stream channel** carries the dynamically generated
  instruction stream of the kernel routine that handled the event, produced
  by the :mod:`instrumentation <repro.core.instrumentation>` layer, into the
  simulator's core model, which executes it and thereby charges realistic,
  workload-dependent latency and memory interference for OS work.

The package also provides the two comparison couplings used throughout the
evaluation: the fixed-latency *emulation* baseline (how Sniper/ChampSim model
VM out of the box) and a *full-system* stand-in that simulates the whole
kernel rather than only the relevant modules (the gem5-FS comparison point),
plus the *reference* mode that stands in for the real validation machine.
"""

from repro.core.channels import (
    FunctionalChannel,
    InstructionStreamChannel,
    PageFaultRequest,
    PageFaultResponse,
)
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
    "FunctionalChannel",
    "ImitationCoupling",
    "InstructionBatch",
    "InstructionStreamChannel",
    "InstrumentationTool",
    "KernelInstructionBatch",
    "OSCoupling",
    "PageFaultRequest",
    "PageFaultResponse",
    "SimulationReport",
    "Virtuoso",
]
