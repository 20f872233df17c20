"""Configuration dataclasses mirroring Table 4 of the paper.

Every simulated component is constructed from one of these configuration
objects; the factory functions at the bottom build the baseline
Virtuoso+Sniper configuration and the scaled-down one the experiments run.
The validation target (the paper's Intel Xeon Gold 6226R) is the same
configuration run with ``SimulationConfig(os_mode="reference")``, see
DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.common.addresses import GB, KB, MB, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K


@dataclass(frozen=True)
class TLBConfig:
    """One TLB level for one (set of) page size(s)."""

    name: str
    entries: int
    associativity: int
    latency: int
    page_sizes: Tuple[int, ...] = (PAGE_SIZE_4K,)

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ValueError("TLB entries and associativity must be positive")
        if self.entries % self.associativity != 0:
            raise ValueError(
                f"{self.name}: entries ({self.entries}) must be a multiple of "
                f"associativity ({self.associativity})"
            )

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.entries // self.associativity


@dataclass(frozen=True)
class CacheConfig:
    """One level of the data/instruction cache hierarchy."""

    name: str
    size_bytes: int
    associativity: int
    latency: int
    line_size: int = 64
    replacement: str = "lru"  # "lru" or "srrip"

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError(f"{self.name}: size must divide evenly into sets")

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass(frozen=True)
class PrefetcherConfig:
    """Prefetcher attached to a cache level."""

    kind: str = "none"  # "none", "ip_stride", "stream"
    degree: int = 2
    table_entries: int = 64


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory organisation and timing (DDR4-2400-like)."""

    capacity_bytes: int = 256 * GB
    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 16
    row_size_bytes: int = 8 * KB
    # Timings in core cycles at 2.9 GHz (paper: tRCD = tCL = 12.5 ns, tRP = 2.5 ns).
    t_rcd: int = 36
    t_cl: int = 36
    t_rp: int = 7
    page_policy: str = "open"  # "open" or "closed"

    @property
    def row_hit_latency(self) -> int:
        """Cycles for an access that hits the open row buffer."""
        return self.t_cl

    @property
    def row_miss_latency(self) -> int:
        """Cycles for an access to a closed (precharged) bank."""
        return self.t_rcd + self.t_cl

    @property
    def row_conflict_latency(self) -> int:
        """Cycles for an access that must close another open row first."""
        return self.t_rp + self.t_rcd + self.t_cl


@dataclass(frozen=True)
class CoreConfig:
    """Core performance model parameters (Sniper-like interval model)."""

    frequency_ghz: float = 2.9
    issue_width: int = 4
    base_cpi: float = 0.35
    # Fraction of a long-latency miss that the out-of-order window can hide.
    mlp_factor: float = 0.45


@dataclass(frozen=True)
class PageTableConfig:
    """Which translation structure the simulated system uses and its knobs."""

    kind: str = "radix"  # radix | ech | hdc | ht | utopia | rmm | midgard | direct_segment | vbi
    # Radix parameters.
    levels: int = 4
    pwc_entries: int = 32
    pwc_associativity: int = 4
    pwc_latency: int = 2
    # Hash-table parameters (ECH / HDC / HT).
    hash_table_size_bytes: int = 4 * GB
    ptes_per_entry: int = 8
    cuckoo_ways: int = 4
    cwc_latency: int = 2
    # Utopia parameters.
    restseg_size_bytes: int = 8 * GB
    restseg_associativity: int = 16
    tar_cache_latency: int = 2
    sf_cache_latency: int = 2
    # RMM parameters.
    rlb_entries: int = 64
    rlb_latency: int = 9
    eager_paging_max_order: int = 21
    # Midgard parameters.
    l1_vlb_entries: int = 64
    l1_vlb_latency: int = 1
    l2_vlb_entries: int = 16
    l2_vlb_latency: int = 4
    backend_levels: int = 6
    # Direct segment parameters.
    direct_segment_size_bytes: int = 32 * GB


@dataclass(frozen=True)
class SSDConfig:
    """MQSim-like SSD latency model used for swap traffic."""

    read_latency_us: float = 60.0
    write_latency_us: float = 15.0
    channels: int = 8
    per_request_overhead_us: float = 5.0


@dataclass(frozen=True)
class MimicOSConfig:
    """MimicOS kernel configuration (the OS half of Table 4)."""

    physical_memory_bytes: int = 256 * GB
    thp_policy: str = "linux"  # never | linux | cr_thp | ar_thp | bd
    hugetlbfs_reserved_bytes: int = 0
    swap_size_bytes: int = 4 * GB
    swap_threshold: float = 0.90  # start swapping above 90 % memory usage
    fragmentation_target: float = 0.80  # fraction of 2 MB blocks still free
    page_cache_size_bytes: int = 8 * GB
    zeroing_bytes_per_cycle: int = 64
    kernel_modules: Tuple[str, ...] = (
        "page_fault",
        "buddy_allocator",
        "slab_allocator",
        "thp",
        "page_cache",
        "swap",
    )


@dataclass(frozen=True)
class VirtualizationConfig:
    """Virtualised execution (§6.1): a guest MimicOS over a hypervisor MimicOS.

    When ``enabled``, the engine spawns *two* MimicOS instances — the
    system's :class:`MimicOSConfig` describes the hypervisor (host), and the
    guest kernel is derived from the fields below — couples them through a
    :class:`~repro.mimicos.hypervisor.VirtualMachine`, and switches the MMU
    to two-dimensional translation (guest page table x nested/extended page
    table) with a nested TLB in front.
    """

    enabled: bool = False
    #: Guest "physical" memory: a region of the hypervisor's virtual address
    #: space, backed lazily by host page faults.
    guest_memory_bytes: int = 128 * MB
    #: Translation structure the guest kernel gives its processes (the host
    #: side uses the system-wide :class:`PageTableConfig`).
    guest_page_table: PageTableConfig = field(default_factory=PageTableConfig)
    #: THP policy inside the guest kernel.
    guest_thp_policy: str = "linux"
    #: Guest-side swap (0: the guest never swaps; host-side reclaim still
    #: applies to the frames backing guest RAM).
    guest_swap_size_bytes: int = 0
    #: Entries in the per-core nested (guest-virtual -> host-physical) TLB.
    nested_tlb_entries: int = 64


@dataclass(frozen=True)
class SimulationConfig:
    """How the architectural simulator couples to MimicOS."""

    # "imitation" = Virtuoso; "emulation" = fixed-latency baseline;
    # "full_system" = full-kernel stand-in used for Fig. 11/12 comparisons.
    os_mode: str = "imitation"
    fixed_ptw_latency: int = 50
    fixed_page_fault_latency: int = 3000
    instrumentation: str = "online"  # online | offline | reuse_emulation
    max_instructions: Optional[int] = None
    # Instructions per chunk handed to CoreModel.execute_batch.
    batch_size: int = 4096


@dataclass(frozen=True)
class SystemConfig:
    """The complete simulated system: one object describes one experiment."""

    name: str = "virtuoso-baseline"
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L1-ITLB", entries=128, associativity=8, latency=1))
    l1d_tlb_4k: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L1-DTLB-4K", entries=64, associativity=4, latency=1))
    l1d_tlb_2m: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L1-DTLB-2M", entries=32, associativity=4, latency=1,
        page_sizes=(PAGE_SIZE_2M,)))
    l2_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L2-TLB", entries=2048, associativity=16, latency=12,
        page_sizes=(PAGE_SIZE_4K, PAGE_SIZE_2M)))
    l1d_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1-D", size_bytes=32 * KB, associativity=8, latency=4))
    l2_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", size_bytes=2 * MB, associativity=16, latency=16, replacement="srrip"))
    l3_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L3", size_bytes=2 * MB, associativity=16, latency=35, replacement="srrip"))
    l1_prefetcher: PrefetcherConfig = field(default_factory=lambda: PrefetcherConfig("ip_stride"))
    l2_prefetcher: PrefetcherConfig = field(default_factory=lambda: PrefetcherConfig("stream"))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    page_table: PageTableConfig = field(default_factory=PageTableConfig)
    mimicos: MimicOSConfig = field(default_factory=MimicOSConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    virtualization: VirtualizationConfig = field(default_factory=VirtualizationConfig)

    def with_page_table(self, page_table: PageTableConfig, name: Optional[str] = None) -> "SystemConfig":
        """Copy of this configuration with a different translation scheme."""
        return replace(self, page_table=page_table, name=name or f"{self.name}+{page_table.kind}")

    def with_mimicos(self, mimicos: MimicOSConfig, name: Optional[str] = None) -> "SystemConfig":
        """Copy of this configuration with different OS parameters."""
        return replace(self, mimicos=mimicos, name=name or self.name)

    def with_simulation(self, simulation: SimulationConfig, name: Optional[str] = None) -> "SystemConfig":
        """Copy of this configuration with a different simulation coupling mode."""
        return replace(self, simulation=simulation, name=name or self.name)

    def with_virtualization(self, virtualization: VirtualizationConfig,
                            name: Optional[str] = None) -> "SystemConfig":
        """Copy of this configuration running the workload inside a guest VM."""
        return replace(self, virtualization=virtualization, name=name or self.name)


def baseline_system_config(physical_memory_bytes: int = 16 * GB,
                           fragmentation_target: float = 0.80) -> SystemConfig:
    """The baseline Virtuoso+Sniper configuration of Table 4.

    ``physical_memory_bytes`` defaults to a laptop-scale 16 GB (instead of the
    paper's 256 GB) so tests and benchmarks run quickly; experiments that need
    larger memories override it explicitly.
    """
    return SystemConfig(
        name="virtuoso-sniper",
        mimicos=MimicOSConfig(
            physical_memory_bytes=physical_memory_bytes,
            fragmentation_target=fragmentation_target,
        ),
        dram=DRAMConfig(capacity_bytes=physical_memory_bytes),
    )


def scaled_system_config(name: str = "virtuoso-scaled",
                         physical_memory_bytes: int = 2 * GB,
                         tlb_scale: int = 8,
                         cache_scale: int = 8,
                         fragmentation_target: float = 0.80,
                         thp_policy: str = "linux") -> SystemConfig:
    """A proportionally scaled-down system for laptop-scale experiments.

    The paper's workloads have 10-100 GB footprints; reproducing the same
    *pressure ratios* (working set vs. TLB reach, footprint vs. cache and
    memory capacity) with megabyte-scale synthetic workloads requires
    shrinking the hardware structures by the same factor.  The benchmarks use
    this configuration; the Table 4 configuration itself is produced by
    :func:`baseline_system_config` and rendered by the configuration bench.
    """
    def scale_tlb(config: TLBConfig) -> TLBConfig:
        entries = max(config.associativity, config.entries // tlb_scale)
        entries -= entries % config.associativity
        return replace(config, entries=max(config.associativity, entries))

    base = baseline_system_config(physical_memory_bytes, fragmentation_target)
    return replace(
        base,
        name=name,
        l1i_tlb=scale_tlb(base.l1i_tlb),
        l1d_tlb_4k=scale_tlb(base.l1d_tlb_4k),
        l1d_tlb_2m=scale_tlb(base.l1d_tlb_2m),
        l2_tlb=scale_tlb(base.l2_tlb),
        l2_cache=replace(base.l2_cache, size_bytes=max(64 * KB, base.l2_cache.size_bytes // cache_scale)),
        l3_cache=replace(base.l3_cache, size_bytes=max(128 * KB, base.l3_cache.size_bytes // cache_scale)),
        dram=replace(base.dram, capacity_bytes=physical_memory_bytes),
        mimicos=replace(base.mimicos,
                        physical_memory_bytes=physical_memory_bytes,
                        fragmentation_target=fragmentation_target,
                        thp_policy=thp_policy,
                        swap_size_bytes=min(base.mimicos.swap_size_bytes,
                                            physical_memory_bytes // 4),
                        page_cache_size_bytes=min(base.mimicos.page_cache_size_bytes,
                                                  physical_memory_bytes // 4)),
    )


#: Page-table configurations of Table 4 used by the case studies (§7.4-§7.6).
CASE_STUDY_PAGE_TABLES: Dict[str, PageTableConfig] = {
    "radix": PageTableConfig(kind="radix"),
    "ech": PageTableConfig(kind="ech", cuckoo_ways=4),
    "hdc": PageTableConfig(kind="hdc", hash_table_size_bytes=4 * GB, ptes_per_entry=8),
    "ht": PageTableConfig(kind="ht", hash_table_size_bytes=4 * GB, ptes_per_entry=8),
    "utopia": PageTableConfig(kind="utopia", restseg_size_bytes=8 * GB),
    "rmm": PageTableConfig(kind="rmm", rlb_entries=64, rlb_latency=9),
    "midgard": PageTableConfig(kind="midgard"),
    "direct_segment": PageTableConfig(kind="direct_segment"),
    "vbi": PageTableConfig(kind="vbi"),
}
