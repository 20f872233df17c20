"""Prefault set-up cost: host seconds per 1,000 faults, recording vs discarded.

``Virtuoso.prefault`` warms an address space before the measured region.
Its faults used to record a full ``KernelRoutineTrace`` each (every
``KernelOp.touch`` and ``new_op`` of the fault path) and then drop it
unread; they now run with a ``DiscardedTrace``.  This tool times both on
the radix table and on each range backend the repo benchmark's
``range_backends`` workload runs:

* ``before`` -- the recording fault path: ``handle_page_fault`` with its
  default trace, once per unmapped page, as ``prefault`` did before;
* ``after`` -- ``Virtuoso.prefault`` itself.

Each repeat builds two fresh systems and times only the fault loop; the
side that runs first alternates between repeats.  Both sides must leave
the same kernel state (page-table mappings, kernel counters, residency
order and kernel-address regions), or the tool raises.  RMM's eager paging
maps the whole VMA in its first fault, so its row times one fault plus the
lookups that find the rest mapped; the ``total`` row (median prefault
seconds summed over backends) is what ``test_perf_smoke.py`` gates.  The
layer that moves is ``mimicos.fault`` -- trace recording inside the fault
handler.  The record goes to ``benchmarks/perf/BENCH_perf.json`` under
``"prefault"``.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/prefault_bench.py
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from typing import Callable, Dict, List

from repro.common.addresses import MB
from repro.common.config import PageTableConfig, SystemConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.workloads import GUPSWorkload

try:
    from benchmarks.perf.kips_harness import BENCH_PATH
except ImportError:  # executed as a script: the module is a sibling file
    from kips_harness import BENCH_PATH

#: Radix plus the range backends of the repo benchmark's range_backends.
BACKENDS = ("radix", "utopia", "rmm", "midgard", "direct_segment", "vbi")

#: Timed repeats per (backend, side).
REPEATS = 7

#: 16 MB of 4 KB pages (THP ``never``): 4,096 faults per prefault.
FOOTPRINT_BYTES = 16 * MB


def backend_config(kind: str) -> SystemConfig:
    """The repo benchmark's simulation config: 4 KB pages, unfragmented."""
    config = scaled_system_config(name=f"prefault-bench-{kind}",
                                  physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0, thp_policy="never")
    if kind != "radix":
        config = config.with_page_table(PageTableConfig(kind=kind))
    return config


def recording_prefault(system: Virtuoso, process, addresses) -> int:
    """``prefault`` as it was: each fault records (and drops) its trace."""
    faults = 0
    for address in addresses:
        if process.page_table.lookup(address) is None:
            if system.kernel.handle_page_fault(process.pid, address).segfault:
                raise RuntimeError(f"prefault segfaulted at {address:#x}")
            faults += 1
    return faults


def discarded_prefault(system: Virtuoso, process, addresses) -> int:
    return system.prefault(process, addresses)


def timed_prefault(kind: str, prefault: Callable) -> Dict[str, object]:
    """Build, map and prefault one system; time the fault loop only."""
    system = Virtuoso(backend_config(kind), seed=7)
    workload = GUPSWorkload(footprint_bytes=FOOTPRINT_BYTES, memory_operations=1,
                            prefault=True, seed=1)
    process = system.map_workload(workload)
    addresses = list(workload.prefault_addresses(process))
    start = time.perf_counter()
    faults = prefault(system, process, addresses)
    seconds = time.perf_counter() - start
    kernel = system.kernel
    state = (sorted((base, m.physical_base, m.page_size)
                    for base, m in process.page_table._mappings.items()),
             kernel.stats(), list(kernel._resident.items()),
             list(kernel.kernel_space._regions.items()))
    return {"faults": faults, "seconds": seconds, "state": state}


def summary(per_1000: List[float]) -> Dict[str, float]:
    """Median and quartiles of host seconds per 1,000 faults."""
    q1, median, q3 = statistics.quantiles(per_1000, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "iqr": round(q3 - q1, 5)}


def measure_backend(kind: str, repeats: int = REPEATS) -> Dict[str, object]:
    sides = {"before": recording_prefault, "after": discarded_prefault}
    samples: Dict[str, List[float]] = {"before": [], "after": []}
    faults = 0
    for repeat in range(repeats):
        order = ("before", "after") if repeat % 2 == 0 else ("after", "before")
        runs = {side: timed_prefault(kind, sides[side]) for side in order}
        if runs["before"]["state"] != runs["after"]["state"]:
            raise AssertionError(f"{kind}: discarded prefault changed kernel state")
        faults = runs["after"]["faults"]
        for side, run in runs.items():
            samples[side].append(run["seconds"] * 1000.0 / run["faults"])
    before, after = summary(samples["before"]), summary(samples["after"])
    return {
        "faults": faults,
        "state_identical": True,
        "before_s_per_1000_faults": before,
        "after_s_per_1000_faults": after,
        "speedup": round(before["median"] / after["median"], 2),
        # A difference either way counts only when the medians are further
        # apart than the spread of the before runs.
        "resolved": abs(before["median"] - after["median"]) > before["iqr"],
    }


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    backends = {kind: measure_backend(kind, repeats) for kind in BACKENDS}
    total = {side: round(sum(row[f"{side}_s_per_1000_faults"]["median"] * row["faults"]
                             / 1000.0 for row in backends.values()), 4)
             for side in ("before", "after")}
    return {
        "schema": "prefault_cost/v1",
        "sides": {"before": "recording fault path (handle_page_fault default trace)",
                  "after": "Virtuoso.prefault (DiscardedTrace)"},
        "layer": "mimicos.fault: trace recording (KernelOp.touch, new_op)",
        "workload": f"GUPS {FOOTPRINT_BYTES // MB} MB, THP never, prefault_addresses",
        "repeats": repeats,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "backends": backends,
        "total": {"before_s": total["before"], "after_s": total["after"],
                  "speedup": round(total["before"] / total["after"], 2)},
    }


def main() -> None:
    digest = measure_all()
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    data["prefault"] = digest
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote prefault digest to {BENCH_PATH}")
    for kind, row in digest["backends"].items():
        before = row["before_s_per_1000_faults"]
        after = row["after_s_per_1000_faults"]
        print(f"  {kind:15s} {row['faults']:5d} faults  "
              f"{before['median'] * 1000:6.1f} -> {after['median'] * 1000:6.1f} "
              f"ms/1000 faults  ({row['speedup']}x, before IQR "
              f"{before['iqr'] * 1000:.1f} ms)")
    total = digest["total"]
    print(f"  total prefault {total['before_s']:.3f} s -> {total['after_s']:.3f} s "
          f"({total['speedup']}x)")


if __name__ == "__main__":
    main()
