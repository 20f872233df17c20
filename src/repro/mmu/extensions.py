"""Optional MMU extensions from the VirTool toolset (Table 2).

Each flag enables one add-on the MMU consults on the TLB-miss path.  They
are all off in the baseline configuration; the ablation benchmarks and the
feature-matrix table exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MMUExtensions:
    """Switches for the optional translation hardware."""

    #: Sequential TLB prefetching (Vavouliotis et al. style distance-1 prefetch).
    tlb_prefetch: bool = False
    #: Large software-managed in-DRAM TLB probed before the page-table walk
    #: (Ryoo et al., "part-of-memory TLB").
    pom_tlb: bool = False
    #: Store L2-TLB victims in the L2 data cache and probe them before walking
    #: (Victima).
    victima: bool = False
    #: Two-dimensional (guest + host) translation for virtualised execution.
    nested_translation: bool = False
