"""Unit and property tests for address/page-size arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addresses import (
    GB,
    MB,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PageSize,
    align_down,
    align_up,
    canonical,
    is_aligned,
    is_power_of_two,
    join_vpn_radix,
    page_base,
    page_number,
    page_offset,
    pages_spanned,
    size_to_human,
    split_vpn_radix,
)


class TestConstants:
    def test_page_sizes(self):
        assert PAGE_SIZE_4K == 4096
        assert PAGE_SIZE_2M == 2 * 1024 * 1024
        assert PAGE_SIZE_1G == 1024 * 1024 * 1024

    def test_page_size_enum_shift(self):
        assert PageSize.SIZE_4K.shift == 12
        assert PageSize.SIZE_2M.shift == 21
        assert PageSize.SIZE_1G.shift == 30

    def test_page_size_from_bytes(self):
        assert PageSize.from_bytes(4096) is PageSize.SIZE_4K
        with pytest.raises(ValueError):
            PageSize.from_bytes(8192)


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

    def test_is_aligned(self):
        assert is_aligned(0x2000, 0x1000)
        assert not is_aligned(0x2001, 0x1000)

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
        assert is_aligned(down, page_size)
        assert is_aligned(up, page_size)
        assert up - down in (0, page_size)


class TestPageArithmetic:
    def test_page_number_and_offset(self):
        assert page_number(0x5042) == 5
        assert page_offset(0x5042) == 0x42
        assert page_base(0x5042) == 0x5000

    def test_pages_spanned(self):
        assert pages_spanned(0, 4096) == 1
        assert pages_spanned(0, 4097) == 2
        assert pages_spanned(100, 4096) == 2
        assert pages_spanned(0, 0) == 0

    @given(st.integers(min_value=0, max_value=2 ** 40), st.integers(min_value=1, max_value=1 << 24))
    def test_pages_spanned_property(self, start, length):
        spanned = pages_spanned(start, length)
        minimum = length // PAGE_SIZE_4K
        assert spanned >= max(1, minimum)
        # An unaligned range can straddle one extra page at each end.
        assert spanned <= minimum + 2


class TestRadixSplit:
    def test_split_has_four_levels(self):
        indices = split_vpn_radix(0)
        assert indices == [0, 0, 0, 0]

    def test_split_known_value(self):
        # Address with PGD index 1 only: 1 << (12 + 27) == 1 << 39.
        indices = split_vpn_radix(1 << 39)
        assert indices == [1, 0, 0, 0]

    def test_join_inverse_of_split(self):
        address = 0x7F12_3456_7000
        assert join_vpn_radix(split_vpn_radix(address)) == align_down(canonical(address),
                                                                      PAGE_SIZE_4K)

    def test_join_requires_four_indices(self):
        with pytest.raises(ValueError):
            join_vpn_radix([1, 2, 3])

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_split_join_roundtrip_property(self, address):
        page_aligned = align_down(address, PAGE_SIZE_4K)
        assert join_vpn_radix(split_vpn_radix(address)) == page_aligned

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_split_indices_in_range_property(self, address):
        for index in split_vpn_radix(address):
            assert 0 <= index < 512


class TestHumanSizes:
    def test_size_to_human(self):
        assert size_to_human(4096) == "4KB"
        assert size_to_human(2 * MB) == "2MB"
        assert size_to_human(3 * GB) == "3GB"
        assert size_to_human(100) == "100B"
