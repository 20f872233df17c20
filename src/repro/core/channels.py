"""The two communication channels between the simulator and MimicOS.

In the original artifact the simulator and MimicOS are separate processes
talking over POSIX shared memory (the *functional channel*) and a
dynamically instrumented instruction feed (the *instruction-stream channel*),
synchronised with magic instructions.  In this reproduction both sides live
in one Python process, but the channels are kept as explicit objects: every
page fault really is turned into a request message, handled by MimicOS, and
answered with a response plus an injected instruction stream.  This keeps
the methodology observable (the channel statistics are what Fig. 11/12's
overhead analysis is based on) and lets tests exercise the protocol.
Injected streams travel as run-length
:class:`~repro.core.instructions.KernelInstructionBatch` records: one per
kernel op's memory touches, one per run of plain compute, one per bulk
(rep-prefixed) instruction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict

from repro.common.stats import Counter
from repro.core.instructions import OP_MAGIC, KernelInstructionBatch


@dataclass
class PageFaultRequest:
    """Functional-channel message: the MMU asks the kernel to handle a fault."""

    pid: int
    virtual_address: int
    is_write: bool = False
    sequence: int = 0


@dataclass
class PageFaultResponse:
    """Functional-channel message: the kernel's reply."""

    sequence: int
    handled: bool
    physical_base: int = 0
    page_size: int = 4096
    is_major: bool = False
    disk_latency_cycles: int = 0
    #: Signal to the simulator to restart the page-table walk.
    restart_walk: bool = True


class FunctionalChannel:
    """The shared-memory mailbox carrying functional requests and responses."""

    def __init__(self):
        self._requests: Deque[object] = deque()
        self._responses: Dict[int, object] = {}
        self._sequence = 0
        self.counters = Counter()

    def send_request(self, request) -> int:
        """Post a request; returns its sequence number."""
        self._sequence += 1
        request.sequence = self._sequence
        self._requests.append(request)
        self.counters.add("requests")
        return self._sequence

    def receive_request(self):
        """Kernel side: pop the next pending request (None if empty)."""
        if not self._requests:
            return None
        return self._requests.popleft()

    def send_response(self, response) -> None:
        """Kernel side: post the response for a previously received request."""
        self._responses[response.sequence] = response
        self.counters.add("responses")

    def receive_response(self, sequence: int):
        """Simulator side: collect the response for ``sequence`` (None if pending)."""
        return self._responses.pop(sequence, None)

    def stats(self) -> Dict[str, int]:
        """Message counts."""
        return self.counters.as_dict()


class InstructionStreamChannel:
    """The channel carrying MimicOS's instrumented instruction stream.

    The producer (the instrumentation tool) pushes kernel instruction
    streams; the consumer (the simulator's core model) drains them.  A magic
    instruction is appended to every stream so the consumer knows when to
    switch back to the application stream, mirroring §4.2's execution flow.

    Streams travel as run-length :class:`KernelInstructionBatch` records;
    the ``instructions`` counter counts instructions (``len(batch)``: each
    touch and every instruction of a compute run), not records.

    Every stream carries a *destination core index* (0 in single-core
    systems).  A multi-core coupling tags each handler stream with the core
    whose access faulted and drains it with :meth:`pop_for`, which verifies
    the routing — an injected kernel stream must execute on the faulting
    core, where it contends for that core's private L1/TLB state.
    """

    def __init__(self):
        self._streams: Deque[object] = deque()
        self._destinations: Deque[int] = deque()
        self.counters = Counter()

    def push_batch(self, batch: KernelInstructionBatch, destination: int = 0) -> None:
        """Producer side: enqueue a run-length kernel batch for one core.

        The magic terminator is appended to the batch in place (ownership
        transfers to the channel — producers hand over freshly expanded
        batches and never reuse them).
        """
        self.counters.add("streams")
        self.counters.add("instructions", len(batch))
        batch.append(OP_MAGIC, 0)
        self._streams.append(batch)
        self._destinations.append(destination)

    def pop(self):
        """Consumer side: dequeue the next batch (None if empty)."""
        if not self._streams:
            return None
        self._destinations.popleft()
        return self._streams.popleft()

    def pop_for(self, core_index: int):
        """Dequeue the next stream, asserting it is routed to ``core_index``.

        Multi-core consumers use this instead of :meth:`pop` so a
        mis-routed kernel stream (executed on a core other than the one
        whose access faulted) fails loudly instead of silently corrupting
        per-core statistics.
        """
        if not self._streams:
            return None
        destination = self._destinations.popleft()
        if destination != core_index:
            raise RuntimeError(
                f"kernel stream routed to core {destination} but popped by "
                f"core {core_index}")
        return self._streams.popleft()

    @property
    def total_instructions(self) -> int:
        """Total kernel instructions ever pushed (excluding magic terminators)."""
        return self.counters.get("instructions")

    def stats(self) -> Dict[str, int]:
        """Message counts."""
        return self.counters.as_dict()
