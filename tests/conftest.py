"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import pytest

from repro.common.addresses import MB
from repro.common.config import (
    MimicOSConfig,
    PageTableConfig,
    SimulationConfig,
    SystemConfig,
    scaled_system_config,
)
from repro.core.virtuoso import Virtuoso
from repro.memhier.memory_system import MemoryHierarchy
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.kernel import MimicOS
from repro.validation.parity import flatten_stats, stats_sha256


TINY_MEMORY_BYTES = 256 * MB


def tiny_mimicos_config(**overrides) -> MimicOSConfig:
    """A MimicOS configuration small enough for sub-second tests."""
    defaults = dict(
        physical_memory_bytes=TINY_MEMORY_BYTES,
        thp_policy="linux",
        swap_size_bytes=16 * MB,
        page_cache_size_bytes=16 * MB,
        fragmentation_target=1.0,
    )
    defaults.update(overrides)
    return MimicOSConfig(**defaults)


def tiny_system_config(**overrides) -> SystemConfig:
    """A complete system configuration sized for unit/integration tests."""
    config = scaled_system_config(name="test-system",
                                  physical_memory_bytes=TINY_MEMORY_BYTES,
                                  fragmentation_target=1.0)
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


@pytest.fixture
def mimicos_config() -> MimicOSConfig:
    """Small MimicOS configuration."""
    return tiny_mimicos_config()


@pytest.fixture
def kernel(mimicos_config) -> MimicOS:
    """A booted MimicOS with a radix page table."""
    return MimicOS(mimicos_config, PageTableConfig(kind="radix"))


@pytest.fixture
def buddy() -> BuddyAllocator:
    """A 256 MB buddy allocator."""
    return BuddyAllocator(TINY_MEMORY_BYTES)


@pytest.fixture
def system_config() -> SystemConfig:
    """Small full-system configuration."""
    return tiny_system_config()


@pytest.fixture
def virtuoso(system_config) -> Virtuoso:
    """A fully assembled small Virtuoso instance."""
    return Virtuoso(system_config, seed=7)


@pytest.fixture
def memory(system_config) -> MemoryHierarchy:
    """A memory hierarchy built from the small system configuration."""
    return MemoryHierarchy.from_system_config(system_config)


class FlatMemory:
    """Constant-latency memory stub satisfying the walker's MemoryInterface."""

    def __init__(self, latency: int = 10):
        self.latency = latency
        self.accesses = []

    def access_address(self, address, is_write=False, access_type=None, pc=0):
        self.accesses.append((address, is_write))
        return self.latency


@pytest.fixture
def flat_memory() -> FlatMemory:
    """Constant-latency memory stub."""
    return FlatMemory()


def report_digest(report) -> str:
    """sha256 of every simulated statistic of a report, host-only values
    dropped (the digest ``perfbench`` records)."""
    return stats_sha256(flatten_stats(report))


def assert_report_digest(report, recorded: str) -> None:
    """``report`` must hash to ``recorded``, and one perturbed counter must
    move the digest (so the pin is not vacuous)."""
    assert report_digest(report) == recorded
    report.page_walks += 1
    assert report_digest(report) != recorded
    report.page_walks -= 1
