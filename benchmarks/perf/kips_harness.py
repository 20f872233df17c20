"""KIPS throughput harness: the repo's simulator-performance trajectory.

Measures simulated kilo-instructions per host-second (KIPS) for a fixed set
of scenarios and writes them to ``benchmarks/perf/BENCH_perf.json``, with
the host-speed calibration the ``perf_smoke`` gate scales the record by
and each scenario's ``stats_sha256``, so the gate can also tell that a
scenario still simulates what it simulated when it was recorded.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/kips_harness.py
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict

from repro.common.addresses import MB
from repro.common.config import SystemConfig, VirtualizationConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.validation.parity import flatten_stats, stats_sha256
from repro.workloads import GUPSWorkload, LLMInferenceWorkload, SequentialWorkload
from repro.workloads.multiproc import GuestMixWorkload, contention_pair

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

#: Runs per scenario; the best run is recorded to damp host noise.
REPEATS = 5

#: Maximum tolerated regression of measured KIPS below the recorded value
#: before the perf_smoke gate fails (30 % per the perf-trajectory policy).
REGRESSION_TOLERANCE = 0.30

#: Steps of the fixed pure-Python calibration loop (about 0.1 s).
CALIBRATION_STEPS = 1_000_000

#: KIPS of the *pre-fast-path* engine (seed tree, before the batch engine,
#: hot counters and allocation-free memory path existed) measured
#: on the same host and scenarios when this harness was introduced — kept
#: as history of the fast-path work.  Scenarios that postdate the seed
#: engine have no entry, and their recorded ``pre_pr_seed_kips`` /
#: ``speedup_vs_seed`` are ``null`` — never 0.0, which would read as a
#: throughput regression.
SEED_ENGINE_KIPS: Dict[str, float] = {
    "gups_smoke": 69.5,
    "sequential_stream": 97.1,
    "llm_allocation": 221.5,
}


def perf_config(os_mode: str = "imitation", virtualized: bool = False) -> SystemConfig:
    """The small, fixed system configuration every scenario runs on."""
    config = scaled_system_config(name="perf", physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0)
    if virtualized:
        config = config.with_virtualization(VirtualizationConfig(
            enabled=True, guest_memory_bytes=128 * MB, nested_tlb_entries=512))
    return config.with_simulation(replace(config.simulation, os_mode=os_mode))


def calibration_s() -> float:
    """Best-of-three host seconds of a fixed pure-Python loop that runs none
    of the simulator: the host-speed probe the record is scaled by."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        value = 0
        for index in range(CALIBRATION_STEPS):
            value = (value * 31 + index) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 4)


def simulate(name: str):
    """Run one scenario once; returns its merged report."""
    scenario = SCENARIOS[name]
    config = perf_config(scenario.os_mode, scenario.virtualized)
    system = Virtuoso(config, seed=7, num_cores=scenario.cores)
    if scenario.cores > 1:
        return system.run_tasks(scenario.factory()).merged
    return system.run(scenario.factory())


@dataclass(frozen=True)
class Scenario:
    """One KIPS scenario: a workload factory plus the system it runs on.

    ``factory`` returns a *fresh* workload (workloads keep per-run VMA
    state) — or, when ``cores > 1``, a fresh *list* of workloads co-run
    through :meth:`~repro.core.virtuoso.Virtuoso.run_tasks` on that many
    simulated cores sharing the L2/LLC/DRAM and one MimicOS.
    """

    factory: Callable[[], object]
    os_mode: str = "imitation"
    cores: int = 1
    #: Run the workload inside a guest VM (guest MimicOS over a hypervisor
    #: MimicOS, 2-D translation through the nested unit).
    virtualized: bool = False


SCENARIOS: Dict[str, Scenario] = {
    # GUPS-style random access over a prefaulted footprint: the TLB- and
    # cache-hostile smoke scenario the perf gate watches.
    "gups_smoke": Scenario(lambda: GUPSWorkload(footprint_bytes=8 * MB,
                                                memory_operations=5000,
                                                prefault=True, seed=1)),
    # Streaming sequential access: prefetcher- and L1-TLB-hit-friendly.
    "sequential_stream": Scenario(lambda: SequentialWorkload(footprint_bytes=8 * MB,
                                                             memory_operations=8000,
                                                             prefault=True, seed=2)),
    # Token-by-token LLM inference: allocation/fault dominated, exercises the
    # MimicOS kernel-stream injection path.
    "llm_allocation": Scenario(lambda: LLMInferenceWorkload("Bagel", scale=0.25)),
    # Fault-heavy, kernel-dominated inference under the full-system coupling:
    # ~99 % of simulated instructions come from MimicOS handler streams, so
    # this scenario isolates the array-backed kernel path (PR 2's tentpole).
    "llm_faults": Scenario(lambda: LLMInferenceWorkload("Llama", scale=0.5,
                                                        weight_read_scale=0.05),
                           os_mode="full_system"),
    # Two GUPS processes on two simulated cores contending on the shared
    # LLC/DRAM and on one MimicOS (PR 3's multi-core batching tentpole).
    "multicore_contention": Scenario(lambda: contention_pair(footprint_bytes=8 * MB,
                                                             memory_operations=5000,
                                                             seed=1),
                                     cores=2),
    # A guest process over the hypervisor: cold faults run *both* kernels'
    # handler streams (guest fault + hypervisor backing fault), the hot
    # phase random-accesses the warm footprint through 2-D translation —
    # nested walks, the nested TLB and L1 TLB hits on combined mappings.
    "virtualized_guest": Scenario(lambda: GuestMixWorkload(footprint_bytes=8 * MB,
                                                           hot_operations=5000,
                                                           seed=1),
                                  virtualized=True),
}


def run_scenario(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    """Run one scenario ``repeats`` times; returns the best run's digest."""
    best = None
    for _ in range(repeats):
        report = simulate(name)
        simulated = report.instructions + report.kernel_instructions
        kips = simulated / 1000.0 / report.host_seconds if report.host_seconds > 0 else 0.0
        if best is None or kips > best["kips"]:
            best = {
                "kips": round(kips, 1),
                "instructions": report.instructions,
                "kernel_instructions": report.kernel_instructions,
                "host_seconds": round(report.host_seconds, 4),
                "stats_sha256": stats_sha256(flatten_stats(report)),
            }
    return best


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    """Measure every scenario; assemble the report."""
    scenarios: Dict[str, object] = {}
    for name, scenario in SCENARIOS.items():
        row = run_scenario(name, repeats=repeats)
        seed_kips = SEED_ENGINE_KIPS.get(name)
        row.update({
            "pre_pr_seed_kips": seed_kips,
            "speedup_vs_seed": round(row["kips"] / seed_kips, 2) if seed_kips else None,
            "simulated_instructions": row["instructions"] + row["kernel_instructions"],
            "cores": scenario.cores,
            "virtualized": scenario.virtualized,
        })
        scenarios[name] = row
    return {
        "schema": "bench_perf/v4",
        "repeats": repeats,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "calibration_s": calibration_s(),
        "scenarios": scenarios,
    }


def main() -> None:
    results = measure_all()
    # Preserve the sections other tools own (sweep, service, fuzz, server,
    # lint, prefault, memhier, translation, kernel_stream) across rewrites.
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())
        for owned_elsewhere, section in previous.items():
            results.setdefault(owned_elsewhere, section)
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    print(f"  calibration loop: {results['calibration_s']:.4f} s")
    for name, row in results["scenarios"].items():
        print(f"  {name}: {row['kips']:.1f} KIPS")


if __name__ == "__main__":
    main()
