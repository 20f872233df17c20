"""Kernel-op schedule injection: run OS work at exact instruction offsets.

The scenario fuzzer (:mod:`repro.validation.fuzz`) stresses the simulator
with random kernel-op interleavings — mmap/munmap, THP collapse, forced
reclaim, page migration, host remaps under virtualization — injected
*mid-workload*.  For a reproducer to replay, an op scheduled at offset
``k`` must run after exactly ``k`` executed instructions, every time.

:class:`ScheduledWorkload` achieves that with generator laziness: it
re-packs the base workload's batches into ``batch_size`` chunks and cuts an
extra chunk boundary at every op offset.  Because the generator only
resumes after the core has executed the previous chunk, the op fires with
exactly the scheduled number of instructions retired.  Ops scheduled past
the end of the stream fire after the final instruction has executed (the
run loop resumes the generator once more before ``StopIteration``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.core.instructions import InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.workloads.base import Workload


@dataclass(frozen=True)
class KernelOpSpec:
    """One scheduled kernel operation: what to do, when, with which knobs.

    ``offset`` counts executed workload instructions: the op runs after
    ``offset`` instructions have retired and before instruction ``offset``
    issues.  All parameters are fixed at generation time — applying a spec
    draws no randomness, so a schedule replays bit-identically.
    """

    op: str
    offset: int
    params: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "offset": self.offset, "params": dict(self.params)}

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "KernelOpSpec":
        return cls(op=str(raw["op"]), offset=int(raw["offset"]),
                   params={str(k): int(v) for k, v in
                           dict(raw.get("params", {})).items()})


@dataclass(frozen=True)
class OpSchedule:
    """An ordered list of :class:`KernelOpSpec` (ordering by offset, stable)."""

    ops: tuple

    def __len__(self) -> int:
        return len(self.ops)

    def sorted_ops(self) -> List[KernelOpSpec]:
        """Ops in firing order: by offset, generation order breaking ties."""
        return sorted(self.ops, key=lambda spec: spec.offset)

    def to_json(self) -> List[Dict[str, object]]:
        return [spec.to_json() for spec in self.ops]

    @classmethod
    def from_json(cls, raw: List[Dict[str, object]]) -> "OpSchedule":
        return cls(ops=tuple(KernelOpSpec.from_json(item) for item in raw))


class ScheduledWorkload(Workload):
    """A workload wrapper that fires scheduled kernel ops between instructions.

    The executor (anything with an ``apply(spec, process)`` method — in practice the
    fuzzer's :class:`~repro.validation.fuzz.KernelOpExecutor`) is bound after
    the system is built, because ops need live kernel/MMU handles.  Wrapping
    never changes the instruction sequence — only *when* the kernel mutates
    state relative to it.
    """

    def __init__(self, base: Workload, schedule: OpSchedule):
        self.base = base
        self.schedule = schedule
        self.executor: Optional[object] = None
        self.name = f"{getattr(base, 'name', 'workload')}+ops{len(schedule)}"
        self.category = getattr(base, "category", Workload.category)
        self.prefault = getattr(base, "prefault", False)

    def bind(self, executor: object) -> None:
        """Attach the executor that will apply this run's kernel ops."""
        self.executor = executor

    # -- delegated address-space setup --------------------------------- #
    def setup(self, kernel: MimicOS, process: Process) -> None:
        self.base.setup(kernel, process)

    def prefault_addresses(self, process: Process) -> Iterator[int]:
        return self.base.prefault_addresses(process)

    # -- scheduled iteration ------------------------------------------- #
    def _pending(self) -> Deque[KernelOpSpec]:
        return deque(self.schedule.sorted_ops())

    def _apply(self, spec: KernelOpSpec, process: Process) -> None:
        if self.executor is None:
            raise RuntimeError(
                "ScheduledWorkload has no executor bound; call bind() before running")
        self.executor.apply(spec, process)

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        pending = self._pending()
        batch = InstructionBatch()
        executed = 0
        for source in self.base.instruction_batches(process, batch_size):
            start, end = 0, len(source)
            while start < end:
                if pending and pending[0].offset <= executed:
                    if len(batch):
                        # Cut the chunk so everything before the op executes
                        # first; the generator resumes (and fires the op)
                        # only after the core ran this chunk.
                        yield batch
                        batch = InstructionBatch()
                    while pending and pending[0].offset <= executed:
                        self._apply(pending.popleft(), process)
                # Copy up to the next cut: a full chunk, the end of the
                # source batch or the next op's offset.
                stop = min(end, start + batch_size - len(batch))
                if pending:
                    stop = min(stop, start + pending[0].offset - executed)
                batch.kinds += source.kinds[start:stop]
                batch.pcs += source.pcs[start:stop]
                batch.addresses += source.addresses[start:stop]
                executed += stop - start
                start = stop
                if len(batch) >= batch_size:
                    yield batch
                    batch = InstructionBatch()
        if len(batch):
            yield batch
        # Trailing ops: the run loop resumes the generator once more after
        # the last instruction retires, so these run post-stream, pre-report.
        while pending:
            self._apply(pending.popleft(), process)
