"""Data memory model: a single-cycle big-endian SRAM macro.

The case-study core uses separate single-cycle instruction and data
SRAMs (a Harvard organization).  This module models the *data* memory;
instruction memory is the pre-decoded program image held by the CPU.

The memory is byte-addressable and big-endian, like the real OR1K.
All accesses are bounds-checked: fault-corrupted pointers that escape
the SRAM raise :class:`~repro.sim.exceptions.MemoryFault`, which the
simulator reports as a failed (non-finishing) run.

Every store marks its 4 KiB page as written, so restoring a snapshot
between Monte-Carlo trials copies only the pages the trial wrote.
"""

from __future__ import annotations

from repro.sim.exceptions import MemoryFault, MisalignedAccess

MASK32 = 0xFFFFFFFF

#: log2 of the page size of the written-page marks.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT


class DataMemory:
    """Byte-addressable big-endian data SRAM.

    Args:
        base: lowest valid byte address (the data segment base).
        size: size in bytes; must be a multiple of 4.
    """

    def __init__(self, base: int, size: int):
        if size <= 0 or size % 4:
            raise ValueError(f"memory size must be a positive multiple "
                             f"of 4, got {size}")
        if base % 4:
            raise ValueError(f"memory base must be word aligned, got {base:#x}")
        self.base = base
        self.size = size
        self._bytes = bytearray(size)
        #: One flag per page: written since the last snapshot or
        #: restore.  The ISS's generated stores set it too.
        self._written = bytearray(-(-size >> PAGE_SHIFT))
        #: The image the unwritten pages hold (None: not known).
        self._image: bytes | None = None

    @property
    def limit(self) -> int:
        """One past the highest valid byte address."""
        return self.base + self.size

    def _offset(self, address: int, width: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + width > self.size:
            raise MemoryFault(
                f"{width}-byte access at {address:#x} outside data memory "
                f"[{self.base:#x}, {self.limit:#x})")
        return offset

    # -- word access (the common case; kept branch-light for speed) ----

    def load_word(self, address: int) -> int:
        if address & 3:
            raise MisalignedAccess(f"word load at {address:#x}")
        off = self._offset(address, 4)
        b = self._bytes
        return (b[off] << 24) | (b[off + 1] << 16) | (b[off + 2] << 8) | b[off + 3]

    def store_word(self, address: int, value: int) -> None:
        if address & 3:
            raise MisalignedAccess(f"word store at {address:#x}")
        off = self._offset(address, 4)
        value &= MASK32
        self._bytes[off:off + 4] = value.to_bytes(4, "big")
        self._written[off >> PAGE_SHIFT] = 1

    # -- sub-word access -------------------------------------------------

    def load_half(self, address: int) -> int:
        if address & 1:
            raise MisalignedAccess(f"half-word load at {address:#x}")
        off = self._offset(address, 2)
        return (self._bytes[off] << 8) | self._bytes[off + 1]

    def store_half(self, address: int, value: int) -> None:
        if address & 1:
            raise MisalignedAccess(f"half-word store at {address:#x}")
        off = self._offset(address, 2)
        self._bytes[off] = (value >> 8) & 0xFF
        self._bytes[off + 1] = value & 0xFF
        self._written[off >> PAGE_SHIFT] = 1

    def load_byte(self, address: int) -> int:
        return self._bytes[self._offset(address, 1)]

    def store_byte(self, address: int, value: int) -> None:
        off = self._offset(address, 1)
        self._bytes[off] = value & 0xFF
        self._written[off >> PAGE_SHIFT] = 1

    # -- bulk helpers for loading inputs and reading results -------------

    def write_words(self, address: int, values: list[int]) -> None:
        """Store a list of 32-bit words starting at ``address``."""
        for index, value in enumerate(values):
            self.store_word(address + 4 * index, value)

    def read_words(self, address: int, count: int) -> list[int]:
        """Load ``count`` consecutive 32-bit words from ``address``."""
        return [self.load_word(address + 4 * i) for i in range(count)]

    def clear(self) -> None:
        """Zero the entire memory in place (fresh SRAM state between runs).

        Like :meth:`restore` it keeps the bytearray: the ISS's generated
        code holds it.
        """
        self._bytes[:] = bytes(self.size)
        self._image = None

    # -- snapshot/restore (the CPU-reuse fast path between MC trials) ----

    def snapshot(self) -> bytes:
        """Immutable copy of the current memory image.

        Restoring it copies only the pages written after this call.
        """
        self._image = bytes(self._bytes)
        self._written[:] = bytes(len(self._written))
        return self._image

    def restore(self, image: bytes) -> None:
        """Restore a :meth:`snapshot` image in place.

        Restoring the image last taken or restored copies only the
        pages written since (a Monte-Carlo trial writes a few of the
        256 pages of a 1 MiB memory); any other image is copied whole.
        """
        if len(image) != self.size:
            raise ValueError(
                f"snapshot is {len(image)} bytes for a {self.size}-byte "
                f"memory")
        written = self._written
        if image is self._image:
            source = memoryview(image)
            page = written.find(1)
            while page >= 0:
                written[page] = 0
                start = page << PAGE_SHIFT
                self._bytes[start:start + PAGE_SIZE] = \
                    source[start:start + PAGE_SIZE]
                page = written.find(1, page + 1)
        else:
            self._bytes[:] = image
            self._image = image
            written[:] = bytes(len(written))
