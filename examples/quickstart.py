#!/usr/bin/env python3
"""Quickstart: simulate one workload on Virtuoso and print the report.

This example builds a laptop-scale Virtuoso system (MimicOS + TLBs + radix
page table + caches + DRAM), runs a graph-analytics workload through it and
prints the headline metrics: IPC, L2 TLB MPKI, average page-table-walk
latency and the page-fault statistics.

Run with::

    python examples/quickstart.py
"""

from repro import Virtuoso, scaled_system_config
from repro.workloads import GraphWorkload, JSONWorkload


def print_host_throughput(report) -> None:
    """Show how fast the host simulated the run."""
    simulated = report.instructions + report.kernel_instructions
    kips = simulated / 1000.0 / report.host_seconds if report.host_seconds else 0.0
    print(f"  {'host throughput':>22}: {kips:,.0f} KIPS "
          f"({simulated:,} simulated instructions in {report.host_seconds:.3f} s)")


def main() -> None:
    config = scaled_system_config(name="quickstart", physical_memory_bytes=1 << 30)

    print("== Long-running, translation-bound workload (BFS) ==")
    system = Virtuoso(config, seed=1)
    bfs = GraphWorkload("BFS", footprint_bytes=32 << 20, memory_operations=8000,
                        prefault=True)
    report = system.run(bfs)
    for key, value in report.summary().items():
        print(f"  {key:>22}: {value}")
    print_host_throughput(report)

    print()
    print("== Short-running, allocation-bound workload (JSON deserialisation) ==")
    system = Virtuoso(config, seed=2)
    report = system.run(JSONWorkload(scale=0.5))
    for key, value in report.summary().items():
        print(f"  {key:>22}: {value}")
    print(f"  {'fault latency p50':>22}: {report.fault_latency.median:.0f} cycles")
    print(f"  {'fault latency p99':>22}: {report.fault_latency.percentile(0.99):.0f} cycles")
    print(f"  {'MimicOS instructions':>22}: {report.kernel_instructions}")
    print_host_throughput(report)


if __name__ == "__main__":
    main()
