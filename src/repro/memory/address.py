"""Address arithmetic used across the memory system.

The system model uses x86-like constants: 4 KiB pages, 64-byte cache lines
and 8-byte machine words.  Every helper works on plain integers so the rest
of the code never needs a wrapper class for addresses.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import AlignmentError

#: Size of a virtual-memory page in bytes (x86 small pages).
PAGE_SIZE = 4096

#: ``log2(PAGE_SIZE)``: ``address >> PAGE_SHIFT`` is the page number.
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1

#: Size of a cache line in bytes (Table 2 systems use 64-byte lines).
CACHE_LINE_SIZE = 64

#: Size of a machine word in bytes.  Workload kernels operate on 64-bit words.
WORD_SIZE = 8


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def align_down(address: int, alignment: int) -> int:
    """Round ``address`` down to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise AlignmentError(f"alignment must be a power of two, got {alignment}")
    return address & ~(alignment - 1)


def align_up(address: int, alignment: int) -> int:
    """Round ``address`` up to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise AlignmentError(f"alignment must be a power of two, got {alignment}")
    return (address + alignment - 1) & ~(alignment - 1)


def is_aligned(address: int, alignment: int) -> bool:
    """Return True when ``address`` is a multiple of ``alignment``."""
    if not is_power_of_two(alignment):
        raise AlignmentError(f"alignment must be a power of two, got {alignment}")
    return (address & (alignment - 1)) == 0


# --------------------------------------------------------------------------- #
# Page helpers
# --------------------------------------------------------------------------- #
def page_number(address: int, page_size: int = PAGE_SIZE) -> int:
    """Return the virtual/physical page number containing ``address``."""
    return address // page_size


def page_offset(address: int, page_size: int = PAGE_SIZE) -> int:
    """Return the offset of ``address`` within its page."""
    return address % page_size


def page_address(address: int, page_size: int = PAGE_SIZE) -> int:
    """Return the base address of the page containing ``address``."""
    return align_down(address, page_size)


# --------------------------------------------------------------------------- #
# Cache-line helpers
# --------------------------------------------------------------------------- #
def line_address(address: int, line_size: int = CACHE_LINE_SIZE) -> int:
    """Return the base address of the cache line containing ``address``."""
    return align_down(address, line_size)


def line_offset(address: int, line_size: int = CACHE_LINE_SIZE) -> int:
    """Return the offset of ``address`` within its cache line."""
    return address & (line_size - 1)


def lines_in_range(start: int, length: int, line_size: int = CACHE_LINE_SIZE) -> Iterator[int]:
    """Yield the base address of every cache line touched by ``[start, start+length)``."""
    if length <= 0:
        return
    first = line_address(start, line_size)
    last = line_address(start + length - 1, line_size)
    yield from range(first, last + 1, line_size)


def words_in_range(start: int, length: int, word_size: int = WORD_SIZE) -> Iterator[int]:
    """Yield the base address of every word touched by ``[start, start+length)``."""
    if length <= 0:
        return
    first = align_down(start, word_size)
    last = align_down(start + length - 1, word_size)
    yield from range(first, last + 1, word_size)
