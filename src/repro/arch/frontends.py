"""Simulator frontends: how a workload's instructions reach the core model.

The paper distinguishes trace-based (ChampSim, Ramulator), execution-driven
(Sniper, Scarab, ZSim) and emulation-based (gem5) frontends because the
integration of Virtuoso's instruction-stream channel differs across them
(§6.2).  Functionally all three deliver the same instruction sequence; the
difference this reproduction preserves is the host cost and memory profile
(a trace frontend materialises the trace up front; an execution frontend
generates it on the fly; a memory-only frontend drops non-memory
instructions).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.core.instructions import Instruction


class Frontend:
    """Interface: adapt a workload instruction iterator for the core model."""

    name = "base"
    #: Relative host-memory cost of holding the workload (traces are stored).
    trace_resident = False

    def deliver(self, instructions: Iterable[Instruction]) -> Iterator[Instruction]:
        """Yield the instructions the core model should execute."""
        raise NotImplementedError


class TraceFrontend(Frontend):
    """Trace-based frontend (ChampSim-style): the whole trace is materialised."""

    name = "trace"
    trace_resident = True

    def deliver(self, instructions: Iterable[Instruction]) -> Iterator[Instruction]:
        trace: List[Instruction] = list(instructions)
        return iter(trace)


class ExecutionFrontend(Frontend):
    """Execution-driven frontend (Sniper-style): instructions stream on the fly."""

    name = "execution"

    def deliver(self, instructions: Iterable[Instruction]) -> Iterator[Instruction]:
        return iter(instructions)


class EmulationFrontend(Frontend):
    """Emulation-based frontend (gem5-style): streamed, with functional emulation."""

    name = "emulation"

    def deliver(self, instructions: Iterable[Instruction]) -> Iterator[Instruction]:
        return iter(instructions)


class MemoryOnlyFrontend(Frontend):
    """Memory-trace frontend (Ramulator/MQSim-style): only memory operations."""

    name = "memory_only"

    def deliver(self, instructions: Iterable[Instruction]) -> Iterator[Instruction]:
        return (instruction for instruction in instructions if instruction.is_memory)


_FRONTENDS = {
    "trace": TraceFrontend,
    "execution": ExecutionFrontend,
    "emulation": EmulationFrontend,
    "memory_only": MemoryOnlyFrontend,
}


def build_frontend(kind: str) -> Frontend:
    """Factory for frontend objects."""
    frontend_class = _FRONTENDS.get(kind)
    if frontend_class is None:
        raise ValueError(f"unknown frontend kind {kind!r}; known: {sorted(_FRONTENDS)}")
    return frontend_class()
