"""Unit tests for the data-memory model."""

import pytest

from repro.sim.exceptions import MemoryFault, MisalignedAccess
from repro.sim.memory import PAGE_SIZE, DataMemory


@pytest.fixture()
def mem() -> DataMemory:
    return DataMemory(base=0x1000, size=0x100)


class TestConstruction:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            DataMemory(0, 0)
        with pytest.raises(ValueError):
            DataMemory(0, 6)

    def test_bad_base(self):
        with pytest.raises(ValueError):
            DataMemory(2, 8)

    def test_limit(self, mem):
        assert mem.limit == 0x1100


class TestWordAccess:
    def test_big_endian_layout(self, mem):
        mem.store_word(0x1000, 0x11223344)
        assert mem.load_byte(0x1000) == 0x11
        assert mem.load_byte(0x1003) == 0x44
        assert mem.load_half(0x1000) == 0x1122
        assert mem.load_half(0x1002) == 0x3344

    def test_word_roundtrip_masks_to_32_bits(self, mem):
        mem.store_word(0x1004, 0x1FFFFFFFF)
        assert mem.load_word(0x1004) == 0xFFFFFFFF

    def test_uninitialized_reads_zero(self, mem):
        assert mem.load_word(0x10F8) == 0

    def test_misaligned_word(self, mem):
        with pytest.raises(MisalignedAccess):
            mem.load_word(0x1002)
        with pytest.raises(MisalignedAccess):
            mem.store_word(0x1001, 1)

    def test_misaligned_half(self, mem):
        with pytest.raises(MisalignedAccess):
            mem.load_half(0x1001)

    def test_out_of_bounds(self, mem):
        with pytest.raises(MemoryFault):
            mem.load_word(0x0FFC)
        with pytest.raises(MemoryFault):
            mem.load_word(0x1100)
        with pytest.raises(MemoryFault):
            mem.store_byte(0x1100, 1)

    def test_last_word_is_accessible(self, mem):
        mem.store_word(0x10FC, 7)
        assert mem.load_word(0x10FC) == 7

    def test_half_straddling_end(self, mem):
        with pytest.raises(MemoryFault):
            mem.store_half(0x1100, 1)


class TestSubWord:
    def test_byte_store_load(self, mem):
        mem.store_byte(0x1010, 0x1AB)
        assert mem.load_byte(0x1010) == 0xAB

    def test_half_store_load(self, mem):
        mem.store_half(0x1012, 0x12345)
        assert mem.load_half(0x1012) == 0x2345


class TestBulk:
    def test_write_read_words(self, mem):
        values = [1, 2, 3, 0xFFFFFFFF]
        mem.write_words(0x1020, values)
        assert mem.read_words(0x1020, 4) == values

    def test_clear(self, mem):
        mem.store_word(0x1000, 99)
        cells = mem._bytes
        mem.clear()
        assert mem.load_word(0x1000) == 0
        # In place: code bound to the bytearray stays connected.
        assert mem._bytes is cells


class TestRestore:
    """A restore copies back written pages only, and all of them."""

    @pytest.fixture()
    def big(self) -> DataMemory:
        # Five pages and a partial sixth.
        memory = DataMemory(base=0x1000, size=5 * PAGE_SIZE + 8)
        memory.write_words(0x1000 + 2 * PAGE_SIZE, [7, 8])
        return memory

    def test_restore_brings_back_every_written_page(self, big):
        image = big.snapshot()
        big.store_word(0x1000, 1)
        big.store_half(0x1000 + 3 * PAGE_SIZE + 2, 2)
        big.store_byte(0x1000 + 5 * PAGE_SIZE + 7, 3)
        # Two words either side of a page boundary.
        big.write_words(0x1000 + 2 * PAGE_SIZE - 4, [4, 5])
        assert big.snapshot() != image
        big.restore(image)
        assert big.snapshot() == image

    def test_restore_copies_only_the_written_pages(self, big):
        image = big.snapshot()
        big.store_word(0x1000 + PAGE_SIZE, 1)
        # Not a store: a page the marks cannot know about.
        big._bytes[4 * PAGE_SIZE] = 9
        big.restore(image)
        assert big.load_word(0x1000 + PAGE_SIZE) == 0
        assert big._bytes[4 * PAGE_SIZE] == 9

    def test_another_image_is_copied_whole(self, big):
        first = big.snapshot()
        big.store_word(0x1000, 1)
        second = big.snapshot()
        big._bytes[4 * PAGE_SIZE] = 9
        big.restore(first)
        assert big.snapshot() == first
        big.restore(second)
        assert big.snapshot() == second

    def test_clear_then_restore(self, big):
        image = big.snapshot()
        big.clear()
        big.restore(image)
        assert big.snapshot() == image
