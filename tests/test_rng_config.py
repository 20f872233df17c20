"""Tests for the deterministic RNG and the configuration dataclasses."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addresses import GB, MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import (
    CASE_STUDY_PAGE_TABLES,
    CacheConfig,
    DRAMConfig,
    MimicOSConfig,
    PageTableConfig,
    SystemConfig,
    TLBConfig,
    baseline_system_config,
    scaled_system_config,
)
from repro.common.rng import DeterministicRNG


def reference_zipf_index(rng: DeterministicRNG, n: int, skew: float) -> int:
    """``DeterministicRNG.zipf_index`` as it was before samplers: every call
    re-checks ``n`` and recomputes ``n ** exponent`` and ``1 / exponent``."""
    if n == 1:
        return 0
    u = rng.random()
    if skew == 1.0:
        value = int(n ** u)
    else:
        exponent = 1.0 - skew
        value = int(((n ** exponent - 1.0) * u + 1.0) ** (1.0 / exponent))
    return min(max(value - 1, 0), n - 1)


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRNG(42), DeterministicRNG(42)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_different_seed_different_stream(self):
        a, b = DeterministicRNG(1), DeterministicRNG(2)
        assert [a.randint(0, 10 ** 9) for _ in range(5)] != [b.randint(0, 10 ** 9) for _ in range(5)]

    def test_random_list_is_stream_exact(self):
        bulk, scalar = DeterministicRNG(5), DeterministicRNG(5)
        assert bulk.random_list(50) == [scalar.random() for _ in range(50)]
        assert bulk.random() == scalar.random()

    def test_randint_list_is_stream_exact(self):
        bulk, scalar = DeterministicRNG(6), DeterministicRNG(6)
        assert bulk.randint_list(3, 900, 50) == [scalar.randint(3, 900)
                                                 for _ in range(50)]
        assert bulk.randint(0, 10 ** 9) == scalar.randint(0, 10 ** 9)

    def test_fork_is_independent(self):
        parent = DeterministicRNG(7)
        fork_a = parent.fork(1)
        fork_b = parent.fork(2)
        assert fork_a.randint(0, 10 ** 9) != fork_b.randint(0, 10 ** 9)

    def test_fork_deterministic(self):
        assert DeterministicRNG(7).fork(3).randint(0, 1000) == \
            DeterministicRNG(7).fork(3).randint(0, 1000)

    @given(st.integers(min_value=1, max_value=10_000), st.floats(min_value=0.5, max_value=2.0))
    def test_zipf_index_in_range_property(self, n, skew):
        rng = DeterministicRNG(3)
        for _ in range(20):
            assert 0 <= rng.zipf_index(n, skew) < n

    def test_zipf_skews_towards_low_indices(self):
        rng = DeterministicRNG(5)
        draws = [rng.zipf_index(1000, 1.0) for _ in range(2000)]
        low = sum(1 for d in draws if d < 100)
        assert low > len(draws) * 0.4

    @pytest.mark.parametrize("seed", [0, 5, 17, 2024])
    def test_zipf_sampler_draws_what_zipf_index_drew(self, seed):
        """A sampler bound once per ``(n, skew)`` consumes the same draws and
        returns the same indices as the per-call function it replaced, also
        interleaved with other draws on the same stream."""
        shapes = [(1, 1.0), (2, 1.0), (10, 1.2), (1000, 1.0), (1000, 0.6),
                  (4099, 0.9), (10 ** 6, 0.5), (300, 2.0)]
        fast, slow = DeterministicRNG(seed), DeterministicRNG(seed)
        samplers = [fast.zipf_sampler(n, skew) for n, skew in shapes]
        for step in range(3000):
            index = step % len(shapes)
            n, skew = shapes[index]
            assert samplers[index]() == reference_zipf_index(slow, n, skew)
            if step % 7 == 0:
                assert fast.random() == slow.random()
        assert DeterministicRNG(seed).zipf_index(1000, 0.7) == \
            reference_zipf_index(DeterministicRNG(seed), 1000, 0.7)

    def test_zipf_sampler_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).zipf_sampler(0)

    def test_choice_and_sample(self):
        rng = DeterministicRNG(9)
        items = list(range(10))
        assert rng.choice(items) in items
        sample = rng.sample(items, 3)
        assert len(set(sample)) == 3


class TestTLBConfig:
    def test_sets(self):
        config = TLBConfig("T", entries=64, associativity=4, latency=1)
        assert config.sets == 16

    def test_invalid_associativity(self):
        with pytest.raises(ValueError):
            TLBConfig("T", entries=10, associativity=3, latency=1)

    def test_non_positive_entries(self):
        with pytest.raises(ValueError):
            TLBConfig("T", entries=0, associativity=1, latency=1)


class TestCacheConfig:
    def test_sets(self):
        config = CacheConfig("L1", size_bytes=32 * 1024, associativity=8, latency=4)
        assert config.sets == 64

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig("L1", size_bytes=1000, associativity=8, latency=4)


class TestDRAMConfig:
    def test_latency_ordering(self):
        config = DRAMConfig()
        assert config.row_hit_latency < config.row_miss_latency < config.row_conflict_latency


class TestSystemConfigs:
    def test_baseline_config_matches_table4_shape(self):
        config = baseline_system_config()
        assert config.l2_tlb.entries == 2048
        assert config.l2_tlb.associativity == 16
        assert config.l1d_cache.size_bytes == 32 * 1024
        assert config.mimicos.thp_policy == "linux"

    def test_scaled_config_shrinks_structures(self):
        base = baseline_system_config()
        scaled = scaled_system_config(physical_memory_bytes=1 * GB)
        assert scaled.l2_tlb.entries < base.l2_tlb.entries
        assert scaled.l2_cache.size_bytes < base.l2_cache.size_bytes
        assert scaled.mimicos.physical_memory_bytes == 1 * GB
        assert scaled.l2_tlb.entries % scaled.l2_tlb.associativity == 0

    def test_with_page_table_returns_new_config(self):
        base = baseline_system_config()
        ech = base.with_page_table(PageTableConfig(kind="ech"))
        assert ech.page_table.kind == "ech"
        assert base.page_table.kind == "radix"

    def test_case_study_page_tables_cover_paper_designs(self):
        for kind in ("radix", "ech", "hdc", "ht", "utopia", "rmm", "midgard"):
            assert kind in CASE_STUDY_PAGE_TABLES
            assert CASE_STUDY_PAGE_TABLES[kind].kind == kind
