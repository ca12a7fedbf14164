"""Data memory model: a single-cycle big-endian SRAM macro.

The case-study core uses separate single-cycle instruction and data
SRAMs (a Harvard organization).  This module models the *data* memory;
instruction memory is the pre-decoded program image held by the CPU.

The memory is byte-addressable and big-endian, like the real OR1K.
All accesses are bounds-checked: fault-corrupted pointers that escape
the SRAM raise :class:`~repro.sim.exceptions.MemoryFault`, which the
simulator reports as a failed (non-finishing) run.
"""

from __future__ import annotations

from repro.sim.exceptions import MemoryFault, MisalignedAccess

MASK32 = 0xFFFFFFFF


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

    def load_byte(self, address: int) -> int:
        return self._bytes[self._offset(address, 1)]

    def store_byte(self, address: int, value: int) -> None:
        self._bytes[self._offset(address, 1)] = value & 0xFF

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

    # -- snapshot/restore (the CPU-reuse fast path between MC trials) ----

    def snapshot(self) -> bytes:
        """Immutable copy of the current memory image."""
        return bytes(self._bytes)

    def restore(self, image: bytes) -> None:
        """Restore a :meth:`snapshot` image in place."""
        if len(image) != self.size:
            raise ValueError(
                f"snapshot is {len(image)} bytes for a {self.size}-byte "
                f"memory")
        self._bytes[:] = image
