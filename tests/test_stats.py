"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    Counter,
    LatencyDistribution,
    RunningStats,
    accuracy,
    cosine_similarity,
    geometric_mean,
    mpki,
    percentile,
    safe_ratio,
)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_scaled_vectors_are_similar(self):
        assert cosine_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity([1], [1, 2])

    def test_zero_vectors(self):
        assert cosine_similarity([0, 0], [0, 0]) == 1.0
        assert cosine_similarity([0, 0], [1, 1]) == 0.0

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=50))
    def test_self_similarity_property(self, values):
        assert cosine_similarity(values, values) == pytest.approx(1.0)


class TestAccuracy:
    def test_exact_estimate(self):
        assert accuracy(10.0, 10.0) == 1.0

    def test_half_error(self):
        assert accuracy(5.0, 10.0) == pytest.approx(0.5)

    def test_clamped_at_zero(self):
        assert accuracy(100.0, 10.0) == 0.0

    def test_zero_measured(self):
        assert accuracy(0.0, 0.0) == 1.0
        assert accuracy(1.0, 0.0) == 0.0

    @given(st.floats(min_value=0.01, max_value=1e6),
           st.floats(min_value=0.01, max_value=1e6))
    def test_bounds_property(self, estimate, measured):
        assert 0.0 <= accuracy(estimate, measured) <= 1.0


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_single(self):
        assert geometric_mean([7.5]) == pytest.approx(7.5)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_bounds(self):
        assert percentile([5, 1, 9], 0.0) == 1
        assert percentile([5, 1, 9], 1.0) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestCounter:
    def test_add_and_get(self):
        counter = Counter()
        counter.add("hits")
        counter.add("hits", 4)
        assert counter.get("hits") == 5
        assert counter.get("missing") == 0

    def test_keys_keep_the_order_they_were_first_counted(self):
        """Reports list a counter's keys in first-count order (the coupling's
        ``requests`` before ``responses``)."""
        counter = Counter()
        counter.add("requests")
        counter.add("responses")
        counter.add("requests", 2)
        assert list(counter.as_dict().items()) == [("requests", 3), ("responses", 1)]


class TestCounterHotCells:
    def test_repeated_hot_returns_the_same_cell(self):
        counter = Counter()
        cell = counter.hot("faults")
        assert counter.hot("faults") is cell
        assert counter.hot("other") is not cell

    def test_get_folds_pending_cells(self):
        counter = Counter()
        cell = counter.hot("faults")
        cell[0] += 3
        assert counter.get("faults") == 3
        assert cell[0] == 0
        cell[0] += 2
        assert counter.get("faults") == 5

    def test_as_dict_folds_pending_cells(self):
        counter = Counter()
        counter.add("plain", 4)
        counter.hot("faults")[0] += 2
        assert counter.as_dict() == {"plain": 4, "faults": 2}

    def test_key_stays_absent_while_its_cell_holds_zero(self):
        counter = Counter()
        cell = counter.hot("faults")
        assert counter.as_dict() == {}
        cell[0] += 0
        assert "faults" not in counter.as_dict()
        assert counter.get("faults") == 0
        assert "faults" not in counter.as_dict()

    def test_zero_with_key_appears_with_its_witness(self):
        counter = Counter()
        splits = counter.hot("splits", zero_with="allocations")
        allocations = counter.hot("allocations")
        assert counter.as_dict() == {}
        allocations[0] += 1
        splits[0] += 0
        assert counter.as_dict() == {"allocations": 1, "splits": 0}

    #: One event of the fault path: ("count", name) bumps a plain per-fault
    #: counter by 1, ("alloc", order, splits) is one buddy allocation,
    #: ("read",) folds.
    _EVENTS = st.lists(st.one_of(
        st.tuples(st.just("count"), st.sampled_from(
            ["page_faults", "minor_faults", "faults_4kb", "faults_2048kb", "insertions"])),
        st.tuples(st.just("alloc"), st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.just("read")),
    ), max_size=40)

    @given(_EVENTS)
    def test_hot_cells_match_add_for_fault_path_sequences(self, events):
        added, hot = Counter(), Counter()
        cells = {}
        splits = hot.hot("splits", zero_with="allocations")
        allocations = hot.hot("allocations")
        by_order = [hot.hot(f"allocations_order_{order}") for order in range(4)]
        for event in events:
            if event[0] == "count":
                added.add(event[1])
                if event[1] not in cells:
                    cells[event[1]] = hot.hot(event[1])
                cells[event[1]][0] += 1
            elif event[0] == "alloc":
                _, order, split_count = event
                added.add("allocations")
                added.add(f"allocations_order_{order}")
                added.add("splits", split_count)
                allocations[0] += 1
                by_order[order][0] += 1
                splits[0] += split_count
            else:
                assert hot.as_dict() == added.as_dict()
        assert hot.as_dict() == added.as_dict()
        assert all(hot.get(name) == added.get(name) for name in added.as_dict())


class TestRunningStats:
    def test_mean_and_maximum(self):
        stats = RunningStats()
        for value in [1.0, 2.0, 3.0]:
            stats.add(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.maximum == 3.0
        assert stats.total == 6.0

    def test_variance(self):
        stats = RunningStats()
        for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            stats.add(value)
        assert stats.variance == pytest.approx(4.0)
        assert stats.stddev == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_mean_matches_naive_property(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(sum(values) / len(values), rel=1e-6, abs=1e-6)


    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_variance_matches_naive_property(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        mean = sum(values) / len(values)
        naive = sum((value - mean) ** 2 for value in values) / len(values)
        assert stats.variance == pytest.approx(naive, rel=1e-6, abs=1e-3)
        assert stats.stddev == pytest.approx(math.sqrt(stats.variance))

class TestLatencyDistribution:
    def test_summary_of_empty(self):
        dist = LatencyDistribution()
        assert dist.summary()["count"] == 0

    def test_basic_statistics(self):
        dist = LatencyDistribution()
        for value in [10, 20, 30, 40, 1000]:
            dist.add(value)
        assert dist.count == 5
        assert dist.median == 30
        assert dist.total == 1100
        assert dist.stats.maximum == 1000

    def test_tail_contribution(self):
        dist = LatencyDistribution()
        for value in [1, 1, 1, 1, 96]:
            dist.add(value)
        assert dist.tail_contribution(10) == pytest.approx(0.96)
        assert dist.tail_contribution(1000) == 0.0

    def test_max_samples_respected(self):
        dist = LatencyDistribution(max_samples=10)
        for value in range(100):
            dist.add(float(value))
        assert len(dist.samples) == 10
        assert dist.count == 100


class TestSmallHelpers:
    def test_mpki(self):
        assert mpki(10, 1000) == 10.0
        assert mpki(10, 0) == 0.0

    def test_safe_ratio(self):
        assert safe_ratio(1, 2) == 0.5
        assert safe_ratio(1, 0, default=-1.0) == -1.0

    def test_a_total_reads_as_the_sum_of_its_parts(self):
        counter = Counter()
        hits = counter.hot("hits_data", part_of=("accesses_data", "accesses"))
        misses = counter.hot("misses_data", part_of=("accesses_data", "accesses"))
        ptw = counter.hot("misses_ptw", part_of=("accesses",))
        assert counter.as_dict() == {}
        misses[0] += 2
        assert counter.as_dict() == {"misses_data": 2, "accesses_data": 2, "accesses": 2}
        hits[0] += 3
        ptw[0] += 1
        assert counter.get("accesses_data") == 5
        assert counter.get("accesses") == 6
        assert "hits_ptw" not in counter.as_dict()
