#!/usr/bin/env python3
"""Case-study example: compare page-table designs (Use Case 1 of the paper).

Runs the same random-access workload over four translation structures —
the x86-64 radix tree, elastic cuckoo hashing (ECH), the open-addressing
hashed page table (HDC) and the chained hash table (HT) — and prints, for
each design, the average PTW latency, the memory accesses per walk, the
DRAM row-buffer conflicts caused by translation metadata, and the total
minor-page-fault latency.

Run with::

    python examples/compare_page_tables.py
"""

from dataclasses import replace

from repro import Virtuoso, scaled_system_config
from repro.analysis.reporting import format_table
from repro.common.config import PageTableConfig
from repro.workloads import GUPSWorkload

DESIGNS = {
    "radix": PageTableConfig(kind="radix", pwc_entries=4, pwc_associativity=4),
    "ech": PageTableConfig(kind="ech"),
    "hdc": PageTableConfig(kind="hdc"),
    "ht": PageTableConfig(kind="ht"),
}


def run_design(name: str, page_table: PageTableConfig):
    config = scaled_system_config(name=f"pt-{name}", physical_memory_bytes=1 << 30,
                                  thp_policy="linux", fragmentation_target=0.10)
    config = config.with_page_table(page_table)
    config = replace(config, mimicos=replace(config.mimicos, swap_threshold=1.0))
    system = Virtuoso(config, seed=7)
    workload = GUPSWorkload(footprint_bytes=24 << 20, memory_operations=4000,
                            prefault=False)
    return system.run(workload)


def main() -> None:
    rows = []
    total_simulated = 0
    total_host_seconds = 0.0
    for name, page_table in DESIGNS.items():
        report = run_design(name, page_table)
        total_simulated += report.instructions + report.kernel_instructions
        total_host_seconds += report.host_seconds
        walks = max(1, report.page_walks)
        accesses_per_walk = (report.details["mmu"]["counters"]
                             .get("ptw_memory_accesses", 0) / walks)
        rows.append([
            name,
            round(report.average_ptw_latency, 1),
            round(accesses_per_walk, 2),
            report.dram_row_conflicts_translation,
            round(report.total_fault_latency / 1000.0, 1),
            round(report.ipc, 3),
        ])
    print(format_table(
        ["design", "avg PTW latency (cyc)", "accesses/walk",
         "translation row conflicts", "total MPF latency (kcyc)", "IPC"],
        rows,
        title="Page-table designs on a fragmented system (randacc workload)"))
    print()
    kips = total_simulated / 1000.0 / total_host_seconds if total_host_seconds else 0.0
    print(f"[{total_simulated:,} simulated "
          f"instructions across {len(DESIGNS)} designs at {kips:,.0f} KIPS]")


if __name__ == "__main__":
    main()
