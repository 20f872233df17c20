"""Address and page-size arithmetic used throughout the simulator.

Virtuoso models an x86-64 virtual-memory subsystem.  Addresses are plain
integers (there is no benefit to wrapping them in a class for a simulator
that manipulates millions of them), but all the arithmetic that gives those
integers meaning lives here: page sizes, alignment and page numbers.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Tuple

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


class PageSize(IntEnum):
    """Symbolic page sizes; the integer value is the size in bytes."""

    SIZE_4K = PAGE_SIZE_4K
    SIZE_2M = PAGE_SIZE_2M
    SIZE_1G = PAGE_SIZE_1G


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


def page_number(address: Address, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the page number that contains ``address``."""
    return address // page_size


def size_to_human(size: int) -> str:
    """Render a byte count as a short human string ('4KB', '2MB', '1GB')."""
    if size >= GB and size % GB == 0:
        return f"{size // GB}GB"
    if size >= MB and size % MB == 0:
        return f"{size // MB}MB"
    if size >= KB and size % KB == 0:
        return f"{size // KB}KB"
    return f"{size}B"
