"""Shared fixtures: small, fast system configurations for unit tests, and
the probe the translation-check sensitivity tests share."""

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
from repro.mmu.mmu import MMU
from repro.validation import invariants
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

    def access_value(self, address, is_write=False, access_type="data", pc=0):
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


def trip_after_first_stale_mutation(monkeypatch, run):
    """Run ``run()`` with every kernel shootdown followed by a silent
    coherence probe; returns (violation, number of harness checks up to the
    first incoherent state, number of harness checks in all).

    The probe runs right after each shootdown (of the guest or the host
    kernel) and only records the first moment a cached translation went
    stale; the harness's own checks are counted through ``check_mmu``.
    """
    mmus, checks, stale_at = [], [], []
    real_init = MMU.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        mmus.append(self)

    real_check = invariants.check_mmu

    def counted_check(mmu):
        checks.append(mmu.core_index)
        return real_check(mmu)

    real_shootdown = MimicOS.tlb_shootdown

    def shootdown(self, *args):
        real_shootdown(self, *args)
        if not stale_at:
            try:
                for mmu in mmus:
                    real_check(mmu)
            except invariants.TranslationIncoherence:
                stale_at.append(len(checks))

    monkeypatch.setattr(MMU, "__init__", init)
    monkeypatch.setattr(invariants, "check_mmu", counted_check)
    monkeypatch.setattr(MimicOS, "tlb_shootdown", shootdown)
    violation = run()
    assert stale_at, "no mutation ever left a stale translation"
    return violation, stale_at[0], len(checks)
