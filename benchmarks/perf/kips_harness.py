"""KIPS throughput harness: the repo's simulator-performance trajectory.

Measures simulated kilo-instructions per host-second (KIPS) for a fixed set
of scenarios, once with the MMU's VPN translation cache off ("before") and
once with it on ("after").  Results are written to
``benchmarks/perf/BENCH_perf.json`` so the ``perf_smoke`` gate can detect
host-throughput regressions.

Both runs simulate the exact same system: the invariance tests in
``tests/test_fast_engine.py`` assert that every simulated statistic
(cycles, IPC, TLB/walk/fault counters) is bit-identical with the cache off
and on, so KIPS is the only number that moves.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/kips_harness.py
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict

from repro.common.addresses import MB
from repro.common.config import SystemConfig, VirtualizationConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.mmu.extensions import MMUExtensions
from repro.workloads import GUPSWorkload, LLMInferenceWorkload, SequentialWorkload
from repro.workloads.multiproc import GuestMixWorkload, contention_pair

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

#: Runs per (scenario, cache setting); the best run is recorded to damp host
#: noise.
REPEATS = 5

#: Maximum tolerated regression of measured KIPS below the recorded value
#: before the perf_smoke gate fails (30 % per the perf-trajectory policy).
REGRESSION_TOLERANCE = 0.30

#: What the "before" and "after" columns of every record measure.
ENGINES = {"before": "vpn_cache_off", "after": "vpn_cache_on"}

#: KIPS of the *pre-fast-path* engine (seed tree, before the batch engine,
#: VPN cache, hot counters and allocation-free memory path existed) measured
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


def simulate(name: str, vpn_cache: bool):
    """Run one scenario once; returns ``(merged report, VPN-cache fast hits)``."""
    scenario = SCENARIOS[name]
    config = perf_config(scenario.os_mode, scenario.virtualized)
    system = Virtuoso(config, seed=7, num_cores=scenario.cores,
                      mmu_extensions=MMUExtensions(vpn_translation_cache=vpn_cache))
    if scenario.cores > 1:
        report = system.run_tasks(scenario.factory()).merged
    else:
        report = system.run(scenario.factory())
    return report, sum(unit.mmu.fast_hits for unit in system.cores)


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
    # Streaming sequential access: prefetcher- and fast-path-friendly.
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
    # nested walks, nested TLB and the VPN cache over combined mappings.
    "virtualized_guest": Scenario(lambda: GuestMixWorkload(footprint_bytes=8 * MB,
                                                           hot_operations=5000,
                                                           seed=1),
                                  virtualized=True),
}


def run_scenario(name: str, vpn_cache: bool = True,
                 repeats: int = REPEATS) -> Dict[str, float]:
    """Run one scenario with the VPN cache off or on; returns the
    best-of-``repeats`` digest."""
    best = None
    for _ in range(repeats):
        report, fast_hits = simulate(name, vpn_cache)
        simulated = report.instructions + report.kernel_instructions
        kips = simulated / 1000.0 / report.host_seconds if report.host_seconds > 0 else 0.0
        if best is None or kips > best["kips"]:
            best = {
                "kips": round(kips, 1),
                "instructions": report.instructions,
                "kernel_instructions": report.kernel_instructions,
                "host_seconds": round(report.host_seconds, 4),
                "fast_hits": fast_hits,
            }
    return best


def verify_scenario_parity(name: str) -> bool:
    """One differential cache-off vs cache-on check of a scenario's report."""
    from repro.validation.parity import diff_stats, flatten_stats

    uncached, cached = (flatten_stats(simulate(name, vpn_cache)[0])
                        for vpn_cache in (False, True))
    return not diff_stats(uncached, cached)


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    """Measure every scenario with the cache off and on; assemble the report."""
    scenarios: Dict[str, object] = {}
    for name, scenario in SCENARIOS.items():
        before = run_scenario(name, vpn_cache=False, repeats=repeats)
        after = run_scenario(name, vpn_cache=True, repeats=repeats)
        seed_kips = SEED_ENGINE_KIPS.get(name)
        scenarios[name] = {
            "before_kips": before["kips"],
            "after_kips": after["kips"],
            "speedup": round(after["kips"] / before["kips"], 2) if before["kips"] else 0.0,
            "pre_pr_seed_kips": seed_kips,
            "speedup_vs_seed": round(after["kips"] / seed_kips, 2) if seed_kips else None,
            "simulated_instructions": after["instructions"] + after["kernel_instructions"],
            "fast_hits": after["fast_hits"],
            "cores": scenario.cores,
            "virtualized": scenario.virtualized,
            "before": before,
            "after": after,
        }
        if scenario.virtualized:
            # The acceptance record for the virtualised mode carries its own
            # bit-identity attestation next to the speedup.
            scenarios[name]["parity_identical"] = verify_scenario_parity(name)
    return {
        "schema": "bench_perf/v3",
        "engines": ENGINES,
        "repeats": repeats,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "scenarios": scenarios,
    }


def main() -> None:
    results = measure_all()
    # Preserve the sections other tools own (sweep, backend parity, service,
    # fuzz, server, lint, prefault) across rewrites.
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())
        for owned_elsewhere, section in previous.items():
            results.setdefault(owned_elsewhere, section)
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    for name, row in results["scenarios"].items():
        print(f"  {name}: {row['before_kips']:.1f} -> {row['after_kips']:.1f} KIPS "
              f"({row['speedup']}x)")


if __name__ == "__main__":
    main()
