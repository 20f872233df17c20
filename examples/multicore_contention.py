#!/usr/bin/env python3
"""Multi-core example: two processes contending on the shared LLC and DRAM.

Runs a cache-hostile random-access (GUPS) workload twice: first alone on a
single-core system, then co-running with a second GUPS process on a
two-core ``Virtuoso(num_cores=2)`` — private L1s and TLBs per core, shared
L2/LLC/DRAM, one MimicOS arbitrating every core's page faults.  The
solo-vs-corun comparison shows the interference the multi-programmed model
exposes: the co-runners evict each other's LLC lines and disturb each
other's DRAM row buffers, so each core's IPC drops below the solo run's.

Run with::

    python examples/multicore_contention.py
"""

from repro import Virtuoso, scaled_system_config
from repro.analysis.reporting import format_table
from repro.workloads import contention_pair
from repro.workloads.hpc import GUPSWorkload


def build_system(num_cores: int):
    config = scaled_system_config(name=f"contention-{num_cores}core",
                                  physical_memory_bytes=1 << 30,
                                  fragmentation_target=1.0)
    return Virtuoso(config, num_cores=num_cores, seed=7)


def main() -> None:
    # Sized so one footprint fits the (scaled) LLC but two do not — the
    # regime where co-running genuinely evicts the neighbour's lines.
    operations = 6000
    footprint = 256 << 10

    solo_report = build_system(1).run(GUPSWorkload(footprint_bytes=footprint,
                                                   memory_operations=operations,
                                                   prefault=True, seed=1))

    duo_system = build_system(2)
    duo = duo_system.run_tasks(contention_pair(footprint_bytes=footprint,
                                               memory_operations=operations, seed=1))

    rows = [["solo (1 core)", 0, round(solo_report.ipc, 3),
             solo_report.llc_misses, solo_report.dram_accesses,
             solo_report.dram_row_conflicts]]
    for index, report in enumerate(duo.core_reports):
        rows.append([f"co-run (2 cores)", index, round(report.ipc, 3),
                     duo.merged.llc_misses, duo.merged.dram_accesses,
                     duo.merged.dram_row_conflicts])
    print(format_table(
        ["scenario", "core", "IPC", "LLC misses*", "DRAM accesses*",
         "row conflicts*"],
        rows,
        title="Shared-LLC/DRAM contention, random-access co-runners "
              "(* = system-wide)"))
    print()
    slowdown = solo_report.ipc / min(r.ipc for r in duo.core_reports)
    print(f"worst co-runner slowdown vs solo: {slowdown:.2f}x "
          "(shared-cache eviction + DRAM row-buffer interference)")

    simulated = duo.merged.instructions + duo.merged.kernel_instructions
    print(f"  {'simulated cores':>22}: {duo_system.num_cores}")
    print(f"  {'host throughput':>22}: {duo.kips:,.0f} KIPS "
          f"({simulated:,} simulated instructions in {duo.host_seconds:.3f} s)")


if __name__ == "__main__":
    main()
