"""Common building blocks shared by every Virtuoso subsystem.

This package holds the vocabulary of the simulator: address and page-size
arithmetic, configuration dataclasses mirroring Table 4 of the paper,
deterministic random-number helpers and small statistics utilities
(cosine similarity, accuracy, percentiles) used by the validation and
analysis code.
"""

from repro.common.addresses import (
    GB,
    KB,
    MB,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PAGE_SIZES,
    Address,
    PageSize,
    align_down,
    align_up,
    page_number,
)
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    MimicOSConfig,
    PageTableConfig,
    PrefetcherConfig,
    SSDConfig,
    SystemConfig,
    TLBConfig,
    baseline_system_config,
    scaled_system_config,
)
from repro.common.rng import DeterministicRNG
from repro.common.stats import (
    Counter,
    LatencyDistribution,
    RunningStats,
    accuracy,
    cosine_similarity,
    geometric_mean,
    percentile,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "PAGE_SIZE_4K",
    "PAGE_SIZE_2M",
    "PAGE_SIZE_1G",
    "PAGE_SIZES",
    "Address",
    "PageSize",
    "align_down",
    "align_up",
    "page_number",
    "CacheConfig",
    "CoreConfig",
    "DRAMConfig",
    "MimicOSConfig",
    "PageTableConfig",
    "PrefetcherConfig",
    "SSDConfig",
    "SystemConfig",
    "TLBConfig",
    "baseline_system_config",
    "scaled_system_config",
    "DeterministicRNG",
    "Counter",
    "LatencyDistribution",
    "RunningStats",
    "accuracy",
    "cosine_similarity",
    "geometric_mean",
    "percentile",
]
