"""Memory-hierarchy access cost: host nanoseconds per ``access_value`` call.

Every application load, page-walk step and MimicOS kernel load/store ends
in ``MemoryHierarchy.access_value`` (the ``memhier.access`` layer of
``perfbench --trace 1``).  This tool runs five fixed access mixes through
it.  Three are synthetic, on the paper's ``SystemConfig()`` hierarchy
(32 KB L1 with an IP-stride prefetcher, 2 MB L2 with a stream prefetcher,
2 MB L3, DDR4 DRAM):

* ``l1_kernel`` -- a MimicOS-like kernel stream: loads and stores to a
  6 KB set of kernel structures, page zeroing and a few page-table reads;
  mostly L1 hits;
* ``gups_random`` -- GUPS read-modify-write updates over 256 MB; mostly
  DRAM accesses;
* ``sequential`` -- an 8-byte-stride sweep: every access hits the L1 (the
  IP-stride prefetcher fills each next line ahead of it) and trains both
  prefetchers.

Two replay what ``perfbench`` runs: the access stream of one round of its
``faas_faults`` (``faas_trace``) or ``long_radix`` (``radix_trace``)
segments, seed 1, recorded by wrapping ``access_value`` while each
segment's measured region runs (``perfbench/simload.py``'s plan, read
only), and replayed in order on those segments' scaled hierarchy (256 KB
L2 and L3).  They carry the kernel stores, loads, walks and data accesses
of those workloads in their real proportions and order.

Each repeat builds a fresh hierarchy and times one pass of the mix.  The
same loop is timed with a do-nothing function of the same signature, and
its time is subtracted, so the record is the cost of ``access_value``
itself (``ns_per_access``, median and quartiles over the repeats).  One
pass from a fresh hierarchy always leaves the same counters; their
sha256 (``stats_sha256``) is recorded per mix, and
``test_perf_smoke.py`` checks it without timing anything.

The record goes to ``benchmarks/perf/BENCH_perf.json`` under
``"memhier"``.  ``--side`` names which side of a change the imported
``repro`` is; a side whose counters differ from the other side's record
is refused.  Every run of a side is kept, and a side whose ``repro``
sources changed starts afresh (see ``sides.py``).  Alternate the sides
from the repo root::

    PYTHONPATH=src python benchmarks/perf/memhier_bench.py --side after
    PYTHONPATH=<parent checkout>/src python benchmarks/perf/memhier_bench.py --side before
    PYTHONPATH=src python benchmarks/perf/memhier_bench.py --side after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.core.virtuoso import Virtuoso
from repro.memhier.memory_system import MemoryHierarchy
from repro.workloads.registry import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from sides import check_counters, keep_run, start_side  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Accesses per synthetic mix and timed repeats per side.
ACCESSES = 60_000
REPEATS = 9

#: Replay mix -> the perfbench workload whose seed-1 segments it replays.
TRACE_WORKLOADS = {"faas_trace": "faas_faults", "radix_trace": "long_radix"}
TRACE_SEED = 1

Op = Tuple[int, bool, str, int]


def l1_kernel_mix(rng: random.Random) -> List[Op]:
    kernel_base, zero_base, table_base = 0x4000_0000, 0x5000_0000, 0x6000_0000
    zeroed = 0
    ops: List[Op] = []
    while len(ops) < ACCESSES:
        draw = rng.random()
        if draw < 0.85:
            address = kernel_base + rng.randrange(96) * 64 + rng.randrange(8) * 8
            ops.append((address, rng.random() < 0.3, "kernel", 0x1000 + rng.randrange(4) * 4))
        elif draw < 0.95:
            ops.append((zero_base + zeroed * 64, True, "kernel_zero", 0x2000))
            zeroed += 1
        else:
            ops.append((table_base + rng.randrange(4096) * 8, False, "ptw", 0))
    return ops


def gups_random_mix(rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    for _ in range(ACCESSES // 2):
        address = rng.randrange((256 << 20) // 8) * 8
        ops.append((address, False, "data", 0x400))
        ops.append((address, True, "data", 0x404))
    return ops


def sequential_mix(rng: random.Random) -> List[Op]:
    base = 0x1000_0000
    return [(base + index * 8, False, "data", 0x500) for index in range(ACCESSES)]


def _simload():
    """``perfbench/simload.py``, imported as ``perfbench/run.py`` does."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import simload
    return simload


def trace_ops(workload: str) -> List[Op]:
    """Every ``access_value`` call of the measured regions of one round of
    ``workload``'s perfbench segments (seed 1), in order."""
    simload = _simload()
    ops: List[Op] = []
    access_value = MemoryHierarchy.access_value
    recording = False

    def recorded(self, address, is_write=False, access_type="data", pc=0):
        if recording:
            ops.append((address, is_write, access_type, pc))
        return access_value(self, address, is_write, access_type, pc)

    MemoryHierarchy.access_value = recorded
    try:
        for segment in simload.plan(workload, TRACE_SEED, 1.0):
            system = Virtuoso(simload.system_config(segment), seed=segment.seed)
            program = build_workload(segment.workload, **segment.kwargs)
            process = system.map_workload(program)
            if segment.prefault:
                system.prefault(process, program.prefault_addresses(process))
            recording = True
            system.run(program, process, setup=False)
            recording = False
    finally:
        MemoryHierarchy.access_value = access_value
    return ops


MIXES: Dict[str, Callable[[random.Random], List[Op]]] = {
    "l1_kernel": l1_kernel_mix,
    "gups_random": gups_random_mix,
    "sequential": sequential_mix,
    **{name: (lambda rng, workload=workload: trace_ops(workload))
       for name, workload in TRACE_WORKLOADS.items()},
}


def mix_ops(name: str) -> List[Op]:
    return MIXES[name](random.Random(f"memhier-bench-{name}"))


def mix_config(name: str) -> SystemConfig:
    """The hierarchy mix ``name`` runs on: the paper's, or for a replay
    its first perfbench segment's (the segments' hierarchies differ at
    most in DRAM capacity, which the access path does not read)."""
    workload = TRACE_WORKLOADS.get(name)
    if workload is None:
        return SystemConfig()
    simload = _simload()
    return simload.system_config(simload.plan(workload, TRACE_SEED, 1.0)[0])


def _noop(address: int, is_write: bool, access_type: str, pc: int) -> int:
    return 0


def _timed_pass(access: Callable[[int, bool, str, int], int], ops: List[Op]) -> float:
    start = time.perf_counter()
    for address, is_write, access_type, pc in ops:
        access(address, is_write, access_type, pc)
    return time.perf_counter() - start


def one_pass(config: SystemConfig, ops: List[Op]) -> Tuple[MemoryHierarchy, float]:
    """A fresh hierarchy after one timed pass of ``ops``, and the pass time."""
    hierarchy = MemoryHierarchy.from_system_config(config)
    return hierarchy, _timed_pass(hierarchy.access_value, ops)


def stats_digest(hierarchy: MemoryHierarchy) -> str:
    encoded = json.dumps(hierarchy.stats(), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def mix_digest(name: str) -> str:
    """The counters one pass of mix ``name`` leaves, as a sha256."""
    return stats_digest(one_pass(mix_config(name), mix_ops(name))[0])


def measure_mix(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    ops, config = mix_ops(name), mix_config(name)
    per_access: List[float] = []
    digests = set()
    hierarchy = None
    for _ in range(repeats):
        overhead = _timed_pass(_noop, ops)
        hierarchy, seconds = one_pass(config, ops)
        digests.add(stats_digest(hierarchy))
        per_access.append((seconds - overhead) * 1e9 / len(ops))
    if len(digests) != 1:
        raise AssertionError(f"{name}: repeats left different counters")
    hits = hierarchy.stats()["l1"]
    l1_hits = sum(value for key, value in hits.items() if key.startswith("hits_"))
    return {"accesses": len(ops), "stats_sha256": digests.pop(),
            "l1_hit_share": round(l1_hits / len(ops), 3),
            "ns_per_access": per_access}


def record(side: str, repeats: int = REPEATS) -> Dict[str, object]:
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    section = data.get("memhier") or {"mixes": {}}
    start_side(section, side, section["mixes"].values())
    section.update({
        "schema": "memhier_access/v2",
        "layer": "memhier.access: MemoryHierarchy.access_value (caches, prefetchers, DRAM)",
        "config": "SystemConfig() L1/L2/L3, prefetchers and DRAM (synthetic mixes), "
                  "the perfbench segments' scaled hierarchy (replays); fresh per repeat",
        "accesses_per_synthetic_mix": ACCESSES,
        "repeats": repeats,
        "unit": "host ns per access, loop overhead subtracted",
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    })
    for name in MIXES:
        measured = measure_mix(name, repeats)
        row = section["mixes"].setdefault(name, {})
        check_counters(row, measured["stats_sha256"], name)
        row.update({key: measured[key]
                    for key in ("accesses", "stats_sha256", "l1_hit_share")})
        keep_run(row, side, "ns_per_access", measured["ns_per_access"])
    data["memhier"] = section
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return section


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), default="after",
                        help="which side of a change the imported repro is")
    args = parser.parse_args()
    section = record(args.side)
    print(f"wrote the memhier {args.side} side to {BENCH_PATH}")
    for name, row in section["mixes"].items():
        cells = [f"{side} {row[side + '_ns_per_access']['median']:.0f} ns "
                 f"(IQR {row[side + '_ns_per_access']['iqr']:.0f}, "
                 f"{len(row.get(side + '_runs', []))} runs)"
                 for side in ("before", "after") if side + "_ns_per_access" in row]
        speedup = f"  {row['speedup']}x" if "speedup" in row else ""
        print(f"  {name:12s} L1 hits {row['l1_hit_share']:.0%}  "
              f"{' -> '.join(cells)}{speedup}  {row['stats_sha256'][:12]}")


if __name__ == "__main__":
    main()
