"""Workload generation cost: host nanoseconds per generated instruction.

Every simulated application instruction comes out of a workload's
``instruction_batches`` generator (the ``workloads.batches`` layer of
``perfbench --trace 1``).  This tool times those generators alone, with
no core, MMU or cache behind them, for the workloads whose generators
cut batches at exactly ``batch_size`` instructions:

* ``BFS`` and ``PR`` -- graph kernels over 16 MB, 6,000 memory operations;
* ``XS`` -- XSBench over 16 MB, 600 lookups;
* ``JSON`` -- the FaaS JSON function at full scale (8 MB of buffers);
* ``3D-Transp``, ``Hadamard`` and ``2D-Sum`` -- the image kernels at
  their default sizes.

Each repeat sets a fresh workload up in a fresh MimicOS and times one
full pass of its generator at the simulator's default batch size
(``ns_per_instruction``: median and quartiles over the repeats).  The
stream is always the same, so its sha256 over every batch's ``kinds``,
``pcs`` and ``addresses``, batch by batch (``stats_sha256``), is
recorded per workload, and ``test_perf_smoke.py`` checks it without
timing anything.  The record goes to ``benchmarks/perf/BENCH_perf.json``
under ``"workloads"``; ``--side`` names which side of a change the
imported ``repro`` is, and a side whose streams differ from the other
side's record is refused.  Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/workload_bench.py --side after
    PYTHONPATH=<parent checkout>/src python benchmarks/perf/workload_bench.py --side before
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.common.addresses import MB
from repro.common.config import MimicOSConfig, PageTableConfig, SimulationConfig
from repro.mimicos.kernel import MimicOS
from repro.workloads.registry import build_workload

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

#: Timed repeats per side, and the batch size the simulator runs with.
REPEATS = 9
BATCH_SIZE = SimulationConfig().batch_size

#: Workload name -> constructor arguments.
WORKLOADS: Dict[str, Dict[str, int]] = {
    "BFS": {"footprint_bytes": 16 * MB, "memory_operations": 6000},
    "PR": {"footprint_bytes": 16 * MB, "memory_operations": 6000},
    "XS": {"footprint_bytes": 16 * MB, "lookups": 600},
    "JSON": {},
    "3D-Transp": {},
    "Hadamard": {},
    "2D-Sum": {},
}


def set_up(name: str):
    """A fresh workload of ``name`` set up in a fresh MimicOS, and its process."""
    config = MimicOSConfig(physical_memory_bytes=256 * MB, thp_policy="never",
                           swap_size_bytes=16 * MB, page_cache_size_bytes=32 * MB,
                           fragmentation_target=1.0)
    kernel = MimicOS(config, PageTableConfig(kind="radix"))
    process = kernel.create_process(f"workload-bench-{name}")
    workload = build_workload(name, **WORKLOADS[name])
    workload.setup(kernel, process)
    return workload, process


def timed_pass(name: str) -> Tuple[int, float]:
    """(instructions, seconds) of one full pass of a fresh generator."""
    workload, process = set_up(name)
    instructions = 0
    start = time.perf_counter()
    for batch in workload.instruction_batches(process, BATCH_SIZE):
        instructions += len(batch)
    return instructions, time.perf_counter() - start


def stream_digest(name: str) -> Tuple[str, int]:
    """sha256 of a fresh generator's batches, boundaries included, and
    the number of batches."""
    workload, process = set_up(name)
    digest = hashlib.sha256()
    batches = 0
    for batch in workload.instruction_batches(process, BATCH_SIZE):
        digest.update(repr((batch.kinds, batch.pcs, batch.addresses)).encode())
        batches += 1
    return digest.hexdigest(), batches


def summary(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1),
            "iqr": round(q3 - q1, 1)}


def measure(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    digest, batches = stream_digest(name)
    per_instruction: List[float] = []
    instructions = 0
    for _ in range(repeats):
        instructions, seconds = timed_pass(name)
        per_instruction.append(seconds * 1e9 / instructions)
    return {"instructions": instructions, "batches": batches, "stats_sha256": digest,
            "ns_per_instruction": summary(per_instruction)}


def _merge(row: Dict[str, object], measured: Dict[str, object], side: str,
           label: str) -> None:
    metric = "ns_per_instruction"
    recorded = row.get("stats_sha256")
    if recorded is not None and recorded != measured["stats_sha256"]:
        raise AssertionError(f"{label}: stream differs from the recorded side "
                             f"({measured['stats_sha256'][:12]} vs {recorded[:12]})")
    row.update({key: value for key, value in measured.items() if key != metric})
    row[f"{side}_{metric}"] = measured[metric]
    if f"before_{metric}" in row and f"after_{metric}" in row:
        before, after = row[f"before_{metric}"], row[f"after_{metric}"]
        row["speedup"] = round(before["median"] / after["median"], 2)
        # A difference counts only when the medians are further apart
        # than the spread of the before runs.
        row["resolved"] = abs(before["median"] - after["median"]) > before["iqr"]


def record(side: str, repeats: int = REPEATS) -> Dict[str, object]:
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    section = data.get("workloads") or {"streams": {}}
    section.update({
        "schema": "workloads/v1",
        "layer": "workloads.batches: Workload.instruction_batches",
        "config": f"fresh MimicOS per pass, radix, batch size {BATCH_SIZE}",
        "repeats": repeats,
        "unit": "host ns per generated instruction",
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    })
    for name in WORKLOADS:
        _merge(section["streams"].setdefault(name, {}), measure(name, repeats), side, name)
    data["workloads"] = section
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return section


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), default="after",
                        help="which side of a change the imported repro is")
    args = parser.parse_args()
    section = record(args.side)
    print(f"wrote the workloads {args.side} side to {BENCH_PATH}")
    for name, row in section["streams"].items():
        cells = [f"{side} {row[f'{side}_ns_per_instruction']['median']:.0f} ns "
                 f"(IQR {row[f'{side}_ns_per_instruction']['iqr']:.0f})"
                 for side in ("before", "after") if f"{side}_ns_per_instruction" in row]
        speedup = f"  {row['speedup']}x" if "speedup" in row else ""
        print(f"  {name:10s} {row['instructions']:7d} instr  {' -> '.join(cells)}{speedup}  "
              f"{row['stats_sha256'][:12]}")


if __name__ == "__main__":
    main()
