"""Kernel-stream cost: host nanoseconds per injected MimicOS instruction.

Every page fault in imitation mode expands the MimicOS handler's
``KernelRoutineTrace`` into an instruction stream
(``InstrumentationTool.expand_batch``, the ``instrumentation.expand``
layer of ``perfbench --trace 1``) and executes it on the faulting core
(``CoreModel.execute_kernel_batch``, the ``core.kernel`` layer).  This
tool times the two separately on fixed sets of handler traces, captured
from seeded ``faas_faults``-style runs (4 KB pages, empty address spaces,
imitation mode):

* ``faas`` -- JSON, AES, IMG-RES and WCNT on a 256 MB system: allocation
  faults (VMA lookup, buddy allocation, page zeroing, page-table updates);
* ``db_swap`` -- DB on a 70 MB system, whose user memory is below its
  footprint, so reclaim and swap-out run inside the faults.

``expand`` times ``expand_batch`` over a set's traces with a fresh tool;
``execute`` times ``execute_kernel_batch`` over the expanded batches on a
fresh core (the paper's ``SystemConfig()`` caches and DRAM).  The same
loops are timed with a do-nothing function of the same signature, and
that time is subtracted.  Both are recorded as host ns per kernel
instruction (``len(batch)`` summed over the set), median and quartiles
over the repeats.

What charging plain compute still costs is given as counts, which do not
drift with the host: ``<side>_slow_charges`` is the number of charges
(runs of ``base_cpi`` adds, to either of the two accumulators) that left
the accumulator's binade and went through ``repro.core.cpu._charge_run``,
and ``<side>_slow_charges_computed`` how many of those its cache did not
serve, so ``add_repeated`` added them one binade at a time.  Every other
charge costs one multiply, one add and a compare.

One pass from fresh state always leaves the same counters (the cycles each
batch consumed, the core's and the hierarchy's statistics and the
instrumentation's counters); their sha256 (``stats_sha256``) is recorded
per trace set, and ``test_perf_smoke.py`` checks it without timing
anything.  The record goes to ``benchmarks/perf/BENCH_perf.json`` under
``"kernel_stream"``.  ``--side`` names which side of a change the imported
``repro`` is; a side whose counters differ from the other side's record is
refused.  Every run of a side is kept, and a side whose ``repro`` sources
changed starts afresh (see ``sides.py``).  Alternate the sides from the
repo root::

    PYTHONPATH=src python benchmarks/perf/kernel_bench.py --side after
    PYTHONPATH=<parent checkout>/src python benchmarks/perf/kernel_bench.py --side before
    PYTHONPATH=src python benchmarks/perf/kernel_bench.py --side after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.common.addresses import MB
from repro.common.config import CoreConfig, SystemConfig, scaled_system_config
from repro.common.kernelops import KernelRoutineTrace
from repro.core import cpu
from repro.core.cpu import CoreModel
from repro.core.instrumentation import InstrumentationTool
from repro.core.virtuoso import Virtuoso
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.workloads.registry import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from sides import check_counters, keep_run, start_side  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

#: Timed repeats per side.
REPEATS = 9

#: Per trace set: physical memory in MB and the (workload, scale, workload
#: seed, system seed) runs whose handler traces it holds.
TRACE_SETS: Dict[str, Tuple[int, List[Tuple[str, float, int, int]]]] = {
    "faas": (256, [("JSON", 0.12, 11, 12), ("AES", 0.12, 13, 14),
                   ("IMG-RES", 0.12, 15, 16), ("WCNT", 0.12, 17, 18)]),
    "db_swap": (70, [("DB", 0.5, 19, 20)]),
}

def capture(name: str) -> List[KernelRoutineTrace]:
    """The handler traces the runs of trace set ``name`` expand, in order
    (MimicOS builds a fresh trace per handled event)."""
    physical_mb, runs = TRACE_SETS[name]
    captured: List[KernelRoutineTrace] = []
    for workload_name, scale, workload_seed, seed in runs:
        config = scaled_system_config(name=f"kernel-bench-{name}",
                                      physical_memory_bytes=physical_mb * MB,
                                      fragmentation_target=1.0, thp_policy="never")
        system = Virtuoso(config, seed=seed)
        tool = system.coupling.instrumentation
        expand = tool.expand_batch

        def recording_expand(trace, expand=expand):
            captured.append(trace)
            return expand(trace)

        tool.expand_batch = recording_expand
        system.run(build_workload(workload_name, scale=scale, seed=workload_seed))
    return captured


def fresh_core() -> CoreModel:
    system = SystemConfig()
    memory = MemoryHierarchy.from_system_config(system)
    tlbs = TLBHierarchy(system.l1i_tlb, system.l1d_tlb_4k, system.l1d_tlb_2m, system.l2_tlb)
    return CoreModel(CoreConfig(), MMU(tlbs, memory), memory)


def _noop(argument) -> None:
    return None


def _timed(function: Callable, arguments: list) -> Tuple[float, list]:
    start = time.perf_counter()
    results = [function(argument) for argument in arguments]
    return time.perf_counter() - start, results


def one_pass(traces: List[KernelRoutineTrace]):
    """Expand and execute ``traces`` from fresh state: the tool, the core,
    the consumed cycles per batch and the two phases' host seconds."""
    tool, core = InstrumentationTool(), fresh_core()
    expand_s, batches = _timed(tool.expand_batch, traces)
    execute_s, consumed = _timed(core.execute_kernel_batch, batches)
    return tool, core, batches, consumed, expand_s, execute_s


def stats_digest(tool: InstrumentationTool, core: CoreModel, consumed: List[float]) -> str:
    state = {"consumed": consumed, "core": core.stats(), "memory": core.memory.stats(),
             "instrumentation": tool.counters.as_dict()}
    encoded = json.dumps(state, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()


def trace_set_digest(name: str) -> str:
    """The counters one pass over trace set ``name`` leaves, as a sha256."""
    tool, core, _, consumed, _, _ = one_pass(capture(name))
    return stats_digest(tool, core, consumed)


def measure_set(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    traces = capture(name)
    expand_ns: List[float] = []
    execute_ns: List[float] = []
    digests = set()
    instructions = 0
    for _ in range(repeats):
        overhead, _ = _timed(_noop, traces)
        cpu._charge_run.cache_clear()
        tool, core, batches, consumed, expand_s, execute_s = one_pass(traces)
        charges = cpu._charge_run.cache_info()
        digests.add(stats_digest(tool, core, consumed))
        instructions = sum(len(batch) for batch in batches)
        expand_ns.append((expand_s - overhead) * 1e9 / instructions)
        execute_ns.append((execute_s - overhead) * 1e9 / instructions)
    if len(digests) != 1:
        raise AssertionError(f"{name}: repeats left different counters")
    memory_ops = sum(len(op.memory_touches) for trace in traces for op in trace.ops)
    return {"traces": len(traces), "kernel_instructions": instructions,
            "memory_share": round(memory_ops / instructions, 3),
            "stats_sha256": digests.pop(),
            "slow_charges": charges.hits + charges.misses,
            "slow_charges_computed": charges.misses,
            "expand_ns_per_instruction": expand_ns,
            "execute_ns_per_instruction": execute_ns}


def record(side: str, repeats: int = REPEATS) -> Dict[str, object]:
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    section = data.get("kernel_stream") or {"sets": {}}
    start_side(section, side, section["sets"].values())
    section.update({
        "schema": "kernel_stream/v2",
        "layers": "instrumentation.expand: InstrumentationTool.expand_batch; "
                  "core.kernel: CoreModel.execute_kernel_batch",
        "config": "handler traces from seeded runs (THP never, imitation mode); "
                  "executed on a fresh SystemConfig() core and hierarchy per repeat",
        "repeats": repeats,
        "unit": "host ns per kernel instruction, loop overhead subtracted",
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    })
    for name in TRACE_SETS:
        measured = measure_set(name, repeats)
        row = section["sets"].setdefault(name, {})
        check_counters(row, measured["stats_sha256"], name)
        row.update({key: measured[key] for key in
                    ("traces", "kernel_instructions", "memory_share", "stats_sha256")})
        for count in ("slow_charges", "slow_charges_computed"):
            row[f"{side}_{count}"] = measured[count]
        for phase in ("expand", "execute"):
            keep_run(row, side, f"{phase}_ns_per_instruction",
                     measured[f"{phase}_ns_per_instruction"], prefix=f"{phase}_")
    data["kernel_stream"] = section
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return section


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), default="after",
                        help="which side of a change the imported repro is")
    args = parser.parse_args()
    section = record(args.side)
    print(f"wrote the kernel_stream {args.side} side to {BENCH_PATH}")
    for name, row in section["sets"].items():
        print(f"  {name}: {row['traces']} traces, {row['kernel_instructions']} "
              f"instructions, {row['memory_share']:.1%} memory ops, "
              f"{row['stats_sha256'][:12]}")
        for phase in ("expand", "execute"):
            cells = [f"{side} {row[f'{side}_{phase}_ns_per_instruction']['median']:.1f} ns "
                     f"(IQR {row[f'{side}_{phase}_ns_per_instruction']['iqr']:.1f}, "
                     f"{len(row.get(f'{side}_{phase}_runs', []))} runs)"
                     for side in ("before", "after")
                     if f"{side}_{phase}_ns_per_instruction" in row]
            speedup = f"  {row[phase + '_speedup']}x" if phase + "_speedup" in row else ""
            print(f"    {phase:8s} {' -> '.join(cells)}{speedup}")
        for side in ("before", "after"):
            if f"{side}_slow_charges" in row:
                print(f"    {side}: {row[f'{side}_slow_charges']} charges left a binade, "
                      f"{row[f'{side}_slow_charges_computed']} not from the charge cache")


if __name__ == "__main__":
    main()
