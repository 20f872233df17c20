"""Per-backend VPN-cache off-vs-on throughput: the whole zoo, not just radix.

For every registered page-table design this tool (i) verifies the runs
with the MMU's VPN translation cache off and on are bit-identical on a
translation-bound scenario via the differential parity harness, then
(ii) measures KIPS both ways and records the per-backend speedup into
``BENCH_perf.json`` under the ``"backend_parity"`` key — so the perf
trajectory covers every translation scheme and a backend whose fast path
silently stops helping (or silently diverges) shows up in the record.
Backends that bypass the VPN cache (``fast_hits`` 0) record only host
noise around 1.0x.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/parity_bench.py
"""

from __future__ import annotations

import json
import platform
from typing import Dict

from repro.common.addresses import MB
from repro.common.config import PageTableConfig, SystemConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.mmu.extensions import MMUExtensions
from repro.pagetables.factory import registered_kinds
from repro.validation.parity import diff_stats, flatten_stats
from repro.workloads import GUPSWorkload

try:
    from benchmarks.perf.kips_harness import BENCH_PATH, ENGINES
except ImportError:  # executed as a script: the module is a sibling file
    from kips_harness import BENCH_PATH, ENGINES

#: Runs per (backend, cache setting); the best run is recorded to damp host
#: noise.
REPEATS = 3

#: The translation-bound scenario every backend runs: random access over a
#: prefaulted footprint, so the measured loop is dominated by the TLB/walk
#: path each design implements differently.
def scenario_workload() -> GUPSWorkload:
    return GUPSWorkload(footprint_bytes=8 * MB, memory_operations=5000,
                        prefault=True, seed=1)


def backend_config(kind: str) -> SystemConfig:
    config = scaled_system_config(name=f"parity-bench-{kind}",
                                  physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0)
    return config.with_page_table(PageTableConfig(kind=kind))


def backend_system(kind: str, vpn_cache: bool) -> Virtuoso:
    return Virtuoso(backend_config(kind), seed=7,
                    mmu_extensions=MMUExtensions(vpn_translation_cache=vpn_cache))


def run_backend(kind: str, vpn_cache: bool, repeats: int = REPEATS) -> Dict[str, object]:
    """Best-of-``repeats`` KIPS digest for one backend, VPN cache off or on."""
    best = None
    for _ in range(repeats):
        system = backend_system(kind, vpn_cache)
        report = system.run(scenario_workload())
        simulated = report.instructions + report.kernel_instructions
        kips = simulated / 1000.0 / report.host_seconds if report.host_seconds else 0.0
        if best is None or kips > best["kips"]:
            best = {
                "kips": round(kips, 1),
                "instructions": report.instructions,
                "kernel_instructions": report.kernel_instructions,
                "host_seconds": round(report.host_seconds, 4),
                "fast_hits": system.mmu.fast_hits,
            }
    return best


def verify_parity(kind: str) -> bool:
    """One differential check of the bench scenario for ``kind``."""
    uncached, cached = (flatten_stats(backend_system(kind, vpn_cache).run(
        scenario_workload())) for vpn_cache in (False, True))
    return not diff_stats(uncached, cached)


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    """Verify parity and measure cache off and on for every registered design."""
    backends: Dict[str, object] = {}
    for kind in registered_kinds():
        identical = verify_parity(kind)
        before = run_backend(kind, vpn_cache=False, repeats=repeats)
        after = run_backend(kind, vpn_cache=True, repeats=repeats)
        backends[kind] = {
            "parity_identical": identical,
            "before_kips": before["kips"],
            "after_kips": after["kips"],
            "speedup": round(after["kips"] / before["kips"], 2)
            if before["kips"] else 0.0,
            "fast_hits": after["fast_hits"],
            "before": before,
            "after": after,
        }
    return {
        "schema": "backend_parity/v1",
        "engines": ENGINES,
        "repeats": repeats,
        "scenario": "gups_prefaulted_8mb_5000ops",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "backends": backends,
    }


def main() -> None:
    digest = measure_all()
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    data["backend_parity"] = digest
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote backend parity digest to {BENCH_PATH}")
    for kind, row in digest["backends"].items():
        marker = "ok " if row["parity_identical"] else "DIVERGED"
        print(f"  {marker} {kind:15s} {row['before_kips']:8.1f} -> "
              f"{row['after_kips']:8.1f} KIPS ({row['speedup']}x)")


if __name__ == "__main__":
    main()
