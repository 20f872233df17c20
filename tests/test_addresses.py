"""Unit and property tests for address/page-size arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addresses import (
    GB,
    MB,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PAGE_SIZES,
    align_down,
    align_up,
    is_power_of_two,
    page_number,
    size_to_human,
)


class TestConstants:
    def test_page_sizes(self):
        assert PAGE_SIZE_4K == 4096
        assert PAGE_SIZE_2M == 2 * 1024 * 1024
        assert PAGE_SIZE_1G == 1024 * 1024 * 1024


class TestAlignment:
    def test_align_down(self):
        assert align_down(0x1234, 0x1000) == 0x1000
        assert align_down(0x1000, 0x1000) == 0x1000

    def test_align_up(self):
        assert align_up(0x1234, 0x1000) == 0x2000
        assert align_up(0x1000, 0x1000) == 0x1000

    def test_align_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            align_down(100, 3)
        with pytest.raises(ValueError):
            align_up(100, 12)

    @pytest.mark.parametrize("alignment", [0, -1, -0x1000, 3, 12, 0x1001])
    def test_align_down_rejects_bad_alignments(self, alignment):
        with pytest.raises(ValueError):
            align_down(0x12345, alignment)

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(24)

    @given(st.integers(min_value=0, max_value=2 ** 48),
           st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G]))
    def test_align_roundtrip_property(self, address, page_size):
        down = align_down(address, page_size)
        up = align_up(address, page_size)
        assert down <= address <= up
        assert down % page_size == 0
        assert up % page_size == 0
        assert up - down in (0, page_size)


class TestPageArithmetic:
    def test_page_number(self):
        assert page_number(0x5042) == 5
        assert page_number(0x5042, PAGE_SIZE_2M) == 0

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1), st.sampled_from(PAGE_SIZES))
    def test_page_number_scales_back_to_the_page_base_property(self, address, page_size):
        number = page_number(address, page_size)
        assert number * page_size == align_down(address, page_size)
        assert page_number(address + page_size, page_size) == number + 1


class TestHumanSizes:
    def test_size_to_human(self):
        assert size_to_human(4096) == "4KB"
        assert size_to_human(2 * MB) == "2MB"
        assert size_to_human(3 * GB) == "3GB"
        assert size_to_human(100) == "100B"
