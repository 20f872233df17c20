#!/usr/bin/env python3
"""Virtualised execution example: a guest MimicOS on a hypervisor MimicOS.

Virtuoso models virtual machines (§6.1 of the paper) as a first-class
mode: ``SystemConfig.virtualization`` spawns two MimicOS instances — the
guest OS handles the application's page faults against guest-physical
memory, the hypervisor backs guest RAM lazily with its own page faults —
and the MMU translates two-dimensionally (guest page table x nested page
table) with a nested TLB in front.  Both kernels' handler streams are
injected into the faulting core, so a nested fault costs two kernel streams
plus both levels' disk latency.

Run with::

    python examples/virtualized_guest.py
"""

from repro.common.addresses import MB
from repro.common.config import VirtualizationConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.workloads.multiproc import GuestMixWorkload


def main() -> None:
    config = scaled_system_config(name="virtualized-demo",
                                  physical_memory_bytes=1 << 30,
                                  fragmentation_target=1.0)
    config = config.with_virtualization(VirtualizationConfig(
        enabled=True, guest_memory_bytes=256 * MB, nested_tlb_entries=512))

    system = Virtuoso(config, seed=7)
    workload = GuestMixWorkload(footprint_bytes=16 * MB, hot_operations=8000,
                                seed=1)
    report = system.run(workload)

    vm = system.vm.stats()
    nested = system.mmu.nested_unit.stats()
    coupling = system.coupling.counters.as_dict()
    print(f"guest page faults handled:        {vm.get('guest_page_faults', 0)}")
    print(f"hypervisor backing faults taken:  {vm.get('hypervisor_backing_faults', 0)}")
    print(f"EPT violations (backing only):    {vm.get('ept_violations', 0)}")
    print(f"kernel streams on faulting core:  {coupling.get('page_faults', 0)} guest + "
          f"{coupling.get('hypervisor_faults', 0)} hypervisor")
    print(f"2-D walks performed:              {nested.get('nested_walks', 0)} "
          f"({nested.get('nested_tlb_hits', 0)} nested-TLB hits)")

    # Two-dimensional walk cost through the real memory hierarchy: a cold
    # walk pays the O(n*m) 2-D blow-up in actual cache/DRAM accesses, a
    # nested-TLB hit pays none.
    unit = system.mmu.nested_unit
    probe = workload._vmas[0].start
    unit.nested_tlb.invalidate(probe)
    cold = unit.walk(probe, system.memory)
    warm = unit.walk(probe, system.memory)
    print(f"2-D (nested) walk, cold:          {cold.memory_accesses} memory accesses "
          f"({cold.guest_latency} guest + {cold.host_latency} host cycles)")
    print(f"2-D (nested) walk, nested-TLB hit: {warm.memory_accesses} memory accesses")

    simulated = report.instructions + report.kernel_instructions
    kips = simulated / 1000.0 / report.host_seconds if report.host_seconds else 0.0
    print(f"  {'host throughput':>22}: {kips:,.0f} KIPS "
          f"({simulated:,} simulated instructions in {report.host_seconds:.3f} s)")


if __name__ == "__main__":
    main()
