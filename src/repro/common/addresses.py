"""Address and page-size arithmetic used throughout the simulator.

Virtuoso models an x86-64 virtual-memory subsystem.  Addresses are plain
integers (there is no benefit to wrapping them in a class for a simulator
that manipulates millions of them), but all the arithmetic that gives those
integers meaning lives here: page alignment, virtual-page-number extraction,
and the radix-tree index split used by the x86-64 4-level page table.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Tuple

Address = int

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_SIZE_4K = 4 * KB
PAGE_SIZE_2M = 2 * MB
PAGE_SIZE_1G = 1 * GB

#: All page sizes supported by the x86-64 MMU model, smallest first.
PAGE_SIZES: Tuple[int, ...] = (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)

#: Base of the fallback page-table-frame region used when no kernel frame
#: allocator is wired up (standalone page tables in unit tests).  Placed at
#: 64 TB — above any physical memory size a simulated system configures
#: (the paper's largest is 256 GB) — so fallback frames can never alias real
#: physical memory ranges; ``_BumpFrameAllocator`` asserts this at
#: construction against the configured memory size.
FALLBACK_FRAME_BASE = 1 << 46

#: Number of bits of a 4-level x86-64 virtual address that are translated.
VIRTUAL_ADDRESS_BITS = 48

#: Bits per radix level (9 bits -> 512 entries per page-table node).
RADIX_BITS_PER_LEVEL = 9

#: Number of levels of the x86-64 radix page table (PGD, PUD, PMD, PTE).
RADIX_LEVELS = 4


class PageSize(IntEnum):
    """Symbolic page sizes; the integer value is the size in bytes."""

    SIZE_4K = PAGE_SIZE_4K
    SIZE_2M = PAGE_SIZE_2M
    SIZE_1G = PAGE_SIZE_1G

    @property
    def shift(self) -> int:
        """Number of offset bits for this page size (12, 21 or 30)."""
        return int(self).bit_length() - 1

    @classmethod
    def from_bytes(cls, size: int) -> "PageSize":
        """Return the enum member for ``size`` bytes, raising on unknown sizes."""
        for member in cls:
            if int(member) == size:
                return member
        raise ValueError(f"unsupported page size: {size}")


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def align_down(address: Address, alignment: int) -> Address:
    """Round ``address`` down to a multiple of ``alignment``."""
    # is_power_of_two, inlined: this sits on the fault and lookup paths.
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return address & ~(alignment - 1)


def align_up(address: Address, alignment: int) -> Address:
    """Round ``address`` up to a multiple of ``alignment``."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (address + alignment - 1) & ~(alignment - 1)


def is_aligned(address: Address, alignment: int) -> bool:
    """Return True if ``address`` is a multiple of ``alignment``."""
    return align_down(address, alignment) == address


def page_number(address: Address, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the page number that contains ``address``."""
    return address // page_size


def page_offset(address: Address, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the offset of ``address`` within its page."""
    return address % page_size


def page_base(address: Address, page_size: int = PAGE_SIZE_4K) -> Address:
    """Return the base address of the page that contains ``address``."""
    return align_down(address, page_size)


def pages_spanned(start: Address, length: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Number of pages of ``page_size`` touched by ``[start, start+length)``."""
    if length <= 0:
        return 0
    first = page_number(start, page_size)
    last = page_number(start + length - 1, page_size)
    return last - first + 1


def canonical(address: Address) -> Address:
    """Mask an address down to the translated 48-bit virtual address space."""
    return address & ((1 << VIRTUAL_ADDRESS_BITS) - 1)


def split_vpn_radix(virtual_address: Address) -> List[int]:
    """Split a virtual address into its four radix page-table indices.

    Returns indices ordered from the root level (PGD, level 4) down to the
    leaf level (PTE, level 1), each in ``[0, 512)``.
    """
    address = canonical(virtual_address)
    indices = []
    for level in range(RADIX_LEVELS, 0, -1):
        shift = 12 + RADIX_BITS_PER_LEVEL * (level - 1)
        indices.append((address >> shift) & ((1 << RADIX_BITS_PER_LEVEL) - 1))
    return indices


def join_vpn_radix(indices: List[int]) -> Address:
    """Inverse of :func:`split_vpn_radix`; returns the page-aligned address."""
    if len(indices) != RADIX_LEVELS:
        raise ValueError(f"expected {RADIX_LEVELS} indices, got {len(indices)}")
    address = 0
    for level, index in zip(range(RADIX_LEVELS, 0, -1), indices):
        shift = 12 + RADIX_BITS_PER_LEVEL * (level - 1)
        address |= (index & ((1 << RADIX_BITS_PER_LEVEL) - 1)) << shift
    return address


def size_to_human(size: int) -> str:
    """Render a byte count as a short human string ('4KB', '2MB', '1GB')."""
    if size >= GB and size % GB == 0:
        return f"{size // GB}GB"
    if size >= MB and size % MB == 0:
        return f"{size // MB}MB"
    if size >= KB and size % KB == 0:
        return f"{size // KB}KB"
    return f"{size}B"
