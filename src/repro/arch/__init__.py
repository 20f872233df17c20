"""Architectural-simulator integration layer.

Virtuoso is integrated with five simulators in the paper (Sniper, ChampSim,
Ramulator2, gem5-SE and MQSim).  In this reproduction a single Python
simulator plays all of those roles; what differs between "integrations" is
exactly what differed in the paper's Fig. 11/12 and Table 3.  Each
integration record names its frontend style (trace-based,
execution-driven, emulation-based, memory-only) and the instrumentation
mode used for MimicOS, and carries the integration effort (lines of code)
and the coefficients of the host simulation-time / memory cost model.  The
frontend style is a label for the tables; every integration runs the same
instruction batches.
"""

from repro.arch.cost import SimulationCostModel
from repro.arch.integrations import (
    INTEGRATIONS,
    SimulatorIntegration,
    get_integration,
    integration_names,
)

__all__ = [
    "SimulationCostModel",
    "INTEGRATIONS",
    "SimulatorIntegration",
    "get_integration",
    "integration_names",
]
