"""Unit tests for the cycle-accurate CPU: semantics, control, faults."""

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.fi.base import FAULT_SEMANTICS, FaultInjector, NullInjector
from repro.fi.model_a import FixedProbabilityInjector
from repro.isa.assembler import assemble
from repro.isa.encoding import Decoded, encode
from repro.isa.instructions import INSTRUCTIONS, Format
from repro.isa.program import Program
from repro.mc import runner
from repro.sim.cpu import Cpu
from repro.sim.exceptions import SimulationFault
from repro.sim.machine import DATA_BASE, MachineConfig
from repro.sim.memory import PAGE_SIZE, DataMemory

MASK32 = 0xFFFFFFFF
#: Cpu arguments of the block path and of the per-instruction step path
#: (which any trace hook forces).
NO_TRACE = {}
STEP = {"trace_hook": lambda address, decoded: None}


def _word(mnemonic, rd=0, ra=0, rb=0, imm=0):
    return encode(Decoded(INSTRUCTIONS[mnemonic], rd, ra, rb, imm))


def run_program(source: str, entry: str = "start", **cpu_kwargs):
    cpu = Cpu(assemble(source), **cpu_kwargs)
    result = cpu.run(entry)
    return cpu, result


def run_and_report(body: str, **cpu_kwargs):
    """Run a snippet ending with the value to report in r3."""
    source = f"""
    start:
    {body}
        l.nop 0x2
        l.nop 0x1
    """
    cpu, result = run_program(source, **cpu_kwargs)
    assert result.finished, result.abort_reason
    return result.reports[-1]


class TestArithmetic:
    def test_add_and_addi(self):
        assert run_and_report("""
        l.addi r1, r0, 1000
        l.addi r2, r0, -7
        l.add  r3, r1, r2
        """) == 993

    def test_add_wraps_32_bits(self):
        assert run_and_report("""
        l.movhi r1, 0xffff
        l.ori   r1, r1, 0xffff
        l.addi  r3, r1, 1
        """) == 0

    def test_sub(self):
        assert run_and_report("""
        l.addi r1, r0, 5
        l.addi r2, r0, 9
        l.sub  r3, r1, r2
        """) == 0xFFFFFFFC  # -4

    def test_mul_signed_low_word(self):
        assert run_and_report("""
        l.addi r1, r0, -3
        l.addi r2, r0, 7
        l.mul  r3, r1, r2
        """) == (-21) & 0xFFFFFFFF

    def test_muli(self):
        assert run_and_report("""
        l.addi r1, r0, 1000
        l.muli r3, r1, -2
        """) == (-2000) & 0xFFFFFFFF

    def test_logic_ops(self):
        assert run_and_report("""
        l.addi r1, r0, 0x0ff0
        l.addi r2, r0, 0x00ff
        l.and  r3, r1, r2
        """) == 0x00F0
        assert run_and_report("""
        l.addi r1, r0, 0x0f00
        l.ori  r3, r1, 0x00ff
        """) == 0x0FFF
        assert run_and_report("""
        l.addi r1, r0, 0x0ff0
        l.addi r2, r0, 0x00ff
        l.xor  r3, r1, r2
        """) == 0x0F0F

    def test_xori_sign_extends(self):
        assert run_and_report("""
        l.addi r1, r0, 0
        l.xori r3, r1, -1
        """) == 0xFFFFFFFF

    def test_andi_zero_extends(self):
        assert run_and_report("""
        l.movhi r1, 0xffff
        l.ori   r1, r1, 0xffff
        l.andi  r3, r1, 0xffff
        """) == 0x0000FFFF

    def test_shifts(self):
        assert run_and_report("""
        l.addi r1, r0, 1
        l.slli r3, r1, 31
        """) == 0x80000000
        assert run_and_report("""
        l.movhi r1, 0x8000
        l.srli  r3, r1, 31
        """) == 1
        assert run_and_report("""
        l.movhi r1, 0x8000
        l.srai  r3, r1, 31
        """) == 0xFFFFFFFF
        assert run_and_report("""
        l.addi r1, r0, 4
        l.addi r2, r0, 2
        l.sll  r3, r1, r2
        """) == 16

    def test_shift_amount_masked_to_five_bits(self):
        assert run_and_report("""
        l.addi r1, r0, 1
        l.addi r2, r0, 33
        l.sll  r3, r1, r2
        """) == 2

    def test_movhi(self):
        assert run_and_report("l.movhi r3, 0x1234\n") == 0x12340000

    def test_r0_writes_ignored(self):
        assert run_and_report("""
        l.addi r0, r0, 55
        l.addi r3, r0, 0
        """) == 0


class TestCompares:
    @pytest.mark.parametrize("op,a,b,taken", [
        ("l.sfeq", 5, 5, True),
        ("l.sfne", 5, 5, False),
        ("l.sfgtu", 1, -1, False),           # -1 is 0xFFFFFFFF unsigned
        ("l.sfgts", 1, -1, True),            # signed
        ("l.sflts", -1, 1, True),
        ("l.sfltu", -1, 1, False),           # 0xFFFFFFFF unsigned
        ("l.sfges", -2, -2, True),
        ("l.sfleu", 3, 7, True),
    ])
    def test_flag_semantics(self, op, a, b, taken):
        value = run_and_report(f"""
        l.addi r1, r0, {a}
        l.addi r2, r0, {b}
        {op}   r1, r2
        l.addi r3, r0, 0
        l.bf   set_one
        l.nop
        l.j    done
        l.nop
    set_one:
        l.addi r3, r0, 1
    done:
        """)
        assert value == (1 if taken else 0)

    def test_immediate_compare(self):
        assert run_and_report("""
        l.addi  r1, r0, -5
        l.sfltsi r1, 0
        l.addi  r3, r0, 0
        l.bf    neg
        l.nop
        l.j     fin
        l.nop
    neg:
        l.addi  r3, r0, 1
    fin:
        """) == 1


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


#: Reference semantics of every ALU op: f(a, b) with b the second
#: register or the immediate as decoded.
REFERENCE_ALU = {
    "l.add": lambda a, b: (a + b) & MASK32,
    "l.addi": lambda a, b: (a + b) & MASK32,
    "l.sub": lambda a, b: (a - b) & MASK32,
    "l.mul": lambda a, b: (_signed(a) * _signed(b)) & MASK32,
    "l.muli": lambda a, b: (_signed(a) * b) & MASK32,
    "l.and": lambda a, b: a & b,
    "l.andi": lambda a, b: a & b,
    "l.or": lambda a, b: a | b,
    "l.ori": lambda a, b: a | b,
    "l.xor": lambda a, b: a ^ b,
    "l.xori": lambda a, b: (a ^ b) & MASK32,
    "l.sll": lambda a, b: (a << (b & 31)) & MASK32,
    "l.slli": lambda a, b: (a << (b & 31)) & MASK32,
    "l.srl": lambda a, b: a >> (b & 31),
    "l.srli": lambda a, b: a >> (b & 31),
    "l.sra": lambda a, b: (_signed(a) >> (b & 31)) & MASK32,
    "l.srai": lambda a, b: (_signed(a) >> (b & 31)) & MASK32,
}
REFERENCE_COMPARE = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "gtu": lambda a, b: a > b, "geu": lambda a, b: a >= b,
    "ltu": lambda a, b: a < b, "leu": lambda a, b: a <= b,
    "gts": lambda a, b: _signed(a) > _signed(b),
    "ges": lambda a, b: _signed(a) >= _signed(b),
    "lts": lambda a, b: _signed(a) < _signed(b),
    "les": lambda a, b: _signed(a) <= _signed(b),
}
_WORDS = st.one_of(st.integers(0, MASK32),
                   st.sampled_from([0, 1, 31, 32, 0x7FFFFFFF, 0x80000000,
                                    MASK32]))


def _load_registers(a, b):
    """Words setting r1 = a and r2 = b."""
    return [_word("l.movhi", rd=1, imm=a >> 16),
            _word("l.ori", rd=1, ra=1, imm=a & 0xFFFF),
            _word("l.movhi", rd=2, imm=b >> 16),
            _word("l.ori", rd=2, ra=2, imm=b & 0xFFFF)]


def _immediate(spec, value):
    """An immediate operand of ``spec`` drawn from ``value``."""
    if spec.fmt is Format.RRL:
        return value & 63
    if spec.signed_imm:
        return (value & 0xFFFF) - 0x10000 if value & 0x8000 \
            else value & 0x7FFF
    return value & 0xFFFF


class TestReferenceSemantics:
    """Each ALU op and compare against an independent reference."""

    @settings(max_examples=200, deadline=None)
    @given(mnemonic=st.sampled_from(sorted(REFERENCE_ALU)), a=_WORDS,
           b=_WORDS, step=st.booleans())
    def test_alu(self, mnemonic, a, b, step):
        spec = INSTRUCTIONS[mnemonic]
        if spec.fmt is Format.RRR:
            op = _word(mnemonic, rd=3, ra=1, rb=2)
        else:
            b = _immediate(spec, b)
            op = _word(mnemonic, rd=3, ra=1, imm=b)
        words = _load_registers(a, 0 if spec.fmt is not Format.RRR
                                else b) + [op, _word("l.nop", imm=1)]
        result = Cpu(Program(words=words), **(STEP if step else {})).run(0)
        assert result.exit_code == REFERENCE_ALU[mnemonic](a, b)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(REFERENCE_COMPARE)), a=_WORDS,
           b=_WORDS, immediate=st.booleans(), step=st.booleans())
    def test_compare(self, kind, a, b, immediate, step):
        if immediate:
            b = _immediate(INSTRUCTIONS[f"l.sf{kind}i"], b)
            op = _word(f"l.sf{kind}i", ra=1, imm=b)
            b &= MASK32
        else:
            op = _word(f"l.sf{kind}", ra=1, rb=2)
        words = _load_registers(a, b) + [op, _word("l.nop", imm=1)]
        cpu = Cpu(Program(words=words), **(STEP if step else {}))
        assert cpu.run(0).finished
        assert cpu.flag == REFERENCE_COMPARE[kind](a, b)


class TestControlFlow:
    def test_delay_slot_executes(self):
        assert run_and_report("""
        l.addi r3, r0, 0
        l.j    over
        l.addi r3, r3, 1      # delay slot runs
        l.addi r3, r3, 100    # skipped
    over:
        """) == 1

    def test_jal_links_past_delay_slot(self):
        assert run_and_report("""
        l.jal  sub
        l.nop
        l.j    done
        l.nop
    sub:
        l.addi r3, r9, 0
        l.jr   r9
        l.nop
    done:
        """) == 8  # l.jal at byte 0, link = 0 + 8

    def test_jr_returns(self):
        assert run_and_report("""
        l.addi r3, r0, 0
        l.jal  helper
        l.nop
        l.j    end
        l.addi r3, r3, 10
    helper:
        l.jr   r9
        l.addi r3, r3, 1
    end:
        """) == 11

    @pytest.mark.parametrize("path", [NO_TRACE, STEP],
                             ids=["block", "step"])
    def test_misaligned_jump_register_target_aborts(self, path):
        cpu, result = run_program("""
        start:
            l.addi r1, r0, 6
            l.jr   r1
            l.nop
        """, **path)
        assert result.abort_reason == "pc-out-of-range"
        assert result.cycles == 1  # the jump retires nothing

    def test_bnf(self):
        assert run_and_report("""
        l.sfeqi r0, 1         # false
        l.addi  r3, r0, 0
        l.bnf   skip
        l.nop
        l.addi  r3, r0, 99
    skip:
        """) == 0

    def test_branch_in_delay_slot_is_fatal(self):
        cpu, result = run_program("""
        start:
            l.j target
            l.j target        # branch in delay slot: undefined
        target:
            l.nop 0x1
        """)
        assert not result.finished
        assert result.abort_reason == "illegal-instruction"


class TestMemoryInstructions:
    def test_store_load_word(self):
        assert run_and_report(f"""
        l.movhi r4, hi({DATA_BASE})
        l.ori   r4, r4, lo({DATA_BASE})
        l.addi  r1, r0, 1234
        l.sw    0(r4), r1
        l.lwz   r3, 0(r4)
        """) == 1234

    def test_byte_and_half_access(self):
        assert run_and_report(f"""
        l.movhi r4, hi({DATA_BASE})
        l.ori   r4, r4, lo({DATA_BASE})
        l.movhi r1, 0x1122
        l.ori   r1, r1, 0x3344
        l.sw    0(r4), r1
        l.lbz   r2, 0(r4)
        l.lhz   r3, 2(r4)
        l.add   r3, r3, r2
        """) == 0x3344 + 0x11

    ACCESS = {"l.lwz": "load_word", "l.lhz": "load_half",
              "l.lbz": "load_byte", "l.sw": "store_word",
              "l.sh": "store_half", "l.sb": "store_byte"}
    DATA = [0x11223344, 0x55667788, 0x99AABBCC, 0xDDEEFF00]

    @pytest.mark.parametrize("path", [NO_TRACE, STEP],
                             ids=["block", "step"])
    @pytest.mark.parametrize("mnemonic", sorted(ACCESS))
    def test_access_matches_data_memory(self, path, mnemonic):
        # Every offset around both edges of a 16-byte memory, against
        # the DataMemory method as the reference.
        config = MachineConfig(dmem_size=16)
        store = mnemonic in ("l.sw", "l.sh", "l.sb")
        access = (f"{mnemonic} 0(r4), r5" if store
                  else f"{mnemonic} r3, 0(r4)")
        for offset in range(-3, 20):
            address = DATA_BASE + offset
            reference = DataMemory(DATA_BASE, 16)
            reference.write_words(DATA_BASE, self.DATA)
            method = getattr(reference, self.ACCESS[mnemonic])
            try:
                loaded = method(address, 0xCAFEF00D) if store \
                    else method(address)
                reason = None
            except SimulationFault as fault:
                reason = fault.reason
            cpu = Cpu(assemble(f"""
            start:
                l.movhi r4, hi({address})
                l.ori   r4, r4, lo({address})
                l.movhi r5, 0xcafe
                l.ori   r5, r5, 0xf00d
                {access}
                l.nop 0x1
            """), config=config, **path)
            cpu.dmem.write_words(DATA_BASE, self.DATA)
            result = cpu.run("start")
            assert result.abort_reason == reason, offset
            assert result.cycles == 4 + (reason is None)
            assert cpu.dmem.snapshot() == reference.snapshot()
            if reason is None and not store:
                assert result.exit_code == loaded

    def test_store_outside_memory_aborts(self):
        cpu, result = run_program("""
        start:
            l.addi r1, r0, 0
            l.sw   0(r1), r0      # address 0 is not data memory
            l.nop 0x1
        """)
        assert not result.finished
        assert result.abort_reason == "memory-fault"


class TestFatalConditions:
    def test_infinite_loop_budget(self):
        cpu, result = run_program("""
        start:
            l.sfeq r0, r0
            l.bf start
            l.nop
        """, config=MachineConfig(max_cycles=500))
        assert not result.finished
        assert result.abort_reason == "infinite-loop"
        assert result.cycles == 500

    def test_self_jump_detected(self):
        cpu, result = run_program("""
        start:
            loop: l.j loop
            l.nop
        """)
        assert not result.finished
        assert result.abort_reason == "infinite-loop"

    @pytest.mark.parametrize("path", [NO_TRACE, STEP],
                             ids=["block", "step"])
    def test_jump_below_instruction_memory(self, path):
        program = Program(words=[_word("l.j", imm=-3), _word("l.nop"),
                                 _word("l.nop", imm=1)])
        result = Cpu(program, **path).run(0)
        assert result.abort_reason == "pc-out-of-range"
        assert result.cycles == 2

    def test_pc_out_of_range(self):
        # Fall off the end of the program (no exit hook).
        cpu, result = run_program("start:\n    l.nop\n")
        assert not result.finished
        assert result.abort_reason == "pc-out-of-range"

    def test_illegal_instruction_in_data(self):
        cpu, result = run_program("""
        start:
            l.j data
            l.nop
        data:
            .word 0xfc000000
        """)
        assert not result.finished
        assert result.abort_reason == "illegal-instruction"
        assert result.cycles == 2  # the undecodable fetch retires nothing


class TestHooksAndWindows:
    def test_exit_code_is_r3(self):
        cpu, result = run_program("""
        start:
            l.addi r3, r0, 77
            l.nop 0x1
        """)
        assert result.finished and result.exit_code == 77

    def test_reports_accumulate(self):
        cpu, result = run_program("""
        start:
            l.addi r3, r0, 1
            l.nop 0x2
            l.addi r3, r0, 2
            l.nop 0x2
            l.nop 0x1
        """)
        assert result.reports == [1, 2]

    def test_kernel_cycles_counts_fi_window(self):
        cpu, result = run_program("""
        start:
            l.addi r1, r0, 0
            l.nop 0x10
            l.addi r1, r1, 1
            l.addi r1, r1, 1
            l.addi r1, r1, 1
            l.nop 0x11
            l.nop 0x1
        """)
        # The FI_ON marker itself counts (the window opens during its
        # cycle), plus three adds; the FI_OFF cycle closes the window
        # before being counted, and the exit hook consumes no cycle.
        assert result.kernel_cycles == 4
        assert result.cycles == 6


class _EveryCycleFlipper(FaultInjector):
    """Test double: flips bit 0 of every ALU result in the window."""

    def fault_mask(self, mnemonic):
        return 0x1


class TestInjectorIntegration:
    def test_alu_results_pass_through_injector(self):
        source = """
        start:
            l.nop 0x10
            l.addi r3, r0, 4      # 4 ^ 1 = 5
            l.nop 0x11
            l.nop 0x2
            l.nop 0x1
        """
        cpu = Cpu(assemble(source), injector=_EveryCycleFlipper())
        result = cpu.run("start")
        assert result.reports == [5]
        assert result.fault_count == 1
        assert result.alu_cycles == 1

    def test_no_injection_outside_window(self):
        source = """
        start:
            l.addi r3, r0, 4      # outside FI window: unaffected
            l.nop 0x2
            l.nop 0x1
        """
        cpu = Cpu(assemble(source), injector=_EveryCycleFlipper())
        result = cpu.run("start")
        assert result.reports == [4]
        assert result.fault_count == 0

    def test_fi_hook_without_an_injector_raises(self):
        cpu = Cpu(assemble("""
        start:
            l.nop 0x10
            l.addi r3, r0, 1
            l.nop 0x1
        """))
        calls = []
        with pytest.raises(ValueError, match="injector"):
            cpu.run("start", fi_hook=lambda m, r: calls.append(m) or r)
        assert calls == []

    def test_non_alu_not_hooked(self):
        source = f"""
        start:
            l.movhi r4, hi({DATA_BASE})
            l.ori   r4, r4, lo({DATA_BASE})
            l.addi  r1, r0, 8
            l.sw    0(r4), r1
            l.nop 0x10
            l.lwz   r3, 0(r4)     # load is not FI-eligible
            l.nop 0x11
            l.nop 0x2
            l.nop 0x1
        """
        cpu = Cpu(assemble(source), injector=_EveryCycleFlipper())
        result = cpu.run("start")
        assert result.reports == [8]


class TestProfiling:
    def test_class_counts(self):
        source = """
        start:
            l.addi r1, r0, 3
            l.mul  r2, r1, r1
            l.sfeq r1, r1
            l.bf   next
            l.nop
        next:
            l.nop 0x1
        """
        cpu = Cpu(assemble(source), profile=True)
        result = cpu.run("start")
        counts = result.class_counts
        assert counts["adder"] == 1
        assert counts["multiplier"] == 1
        assert counts["compare"] == 1
        assert counts["control"] == 1

    def test_reset_restores_state(self):
        source = """
        start:
            l.addi r3, r0, 9
            l.nop 0x1
        """
        cpu = Cpu(assemble(source))
        first = cpu.run("start")
        cpu.reset()
        second = cpu.run("start")
        assert first.exit_code == second.exit_code == 9
        assert second.cycles == first.cycles


class TestResetPages:
    """``reset`` copies back only written pages, and every one of them."""

    # One block stores into pages 0, 3, 5 and 9 (each holding initial
    # data), then aborts on a misaligned store next to the last one.
    SOURCE = f"""
    start:
        l.movhi r4, hi({DATA_BASE})
        l.ori   r4, r4, lo({DATA_BASE})
        l.movhi r7, hi({DATA_BASE + 9 * PAGE_SIZE})
        l.ori   r7, r7, lo({DATA_BASE + 9 * PAGE_SIZE})
        l.movhi r5, 0x1234
        l.ori   r5, r5, 0x5678
        l.sw    0(r4), r5
        l.sh    {3 * PAGE_SIZE + 2}(r4), r5
        l.sb    {5 * PAGE_SIZE + 1}(r4), r5
        l.sw    4(r7), r5
        l.sw    2(r7), r5
        l.nop 0x1

    .org {DATA_BASE:#x}
        .word 1, 2
    .org {DATA_BASE + 3 * PAGE_SIZE:#x}
        .word 3
    .org {DATA_BASE + 5 * PAGE_SIZE:#x}
        .word 5
    .org {DATA_BASE + 9 * PAGE_SIZE:#x}
        .word 9, 10, 11
    """

    @pytest.mark.parametrize("path", [NO_TRACE, STEP], ids=["block", "step"])
    def test_every_written_page_comes_back(self, path):
        program = assemble(self.SOURCE)
        image = Cpu(program).dmem.snapshot()
        cpu = Cpu(program, **path)
        first = cpu.run("start")
        assert first.abort_reason == "misaligned-access"
        assert first.cycles == 10
        assert bytes(cpu.dmem._bytes) != image
        # Host-side writes mark their pages too.
        cpu.dmem.store_word(DATA_BASE + 7 * PAGE_SIZE, 0xFFFFFFFF)
        cpu.dmem.store_half(DATA_BASE + 11 * PAGE_SIZE + 2, 0xFFFF)
        cpu.dmem.store_byte(DATA_BASE + 12 * PAGE_SIZE + 3, 0xFF)
        cpu.dmem.write_words(DATA_BASE + 14 * PAGE_SIZE - 4, [6, 7])
        cpu.reset()
        assert bytes(cpu.dmem._bytes) == image
        assert cpu.run("start") == first
        cpu.reset()
        assert bytes(cpu.dmem._bytes) == image


class TestLoader:
    def test_program_placed_at_its_base_address(self):
        program = assemble("""
        start:
            l.addi r3, r0, 5
            l.nop 0x1
        """, base_address=0x100)
        result = Cpu(program).run("start")
        assert result.finished and result.exit_code == 5

    def test_slots_below_the_program_hold_word_zero(self):
        # Word 0 is ``l.j 0``: a jump below the program's base lands on
        # a self-jump, not outside instruction memory.
        program = assemble("""
        start:
            l.jr r0
            l.nop
        """, base_address=0x100)
        result = Cpu(program).run("start")
        assert result.abort_reason == "infinite-loop"
        assert result.cycles == 2

    def test_words_below_imem_base_are_not_instruction_memory(self):
        program = assemble("""
        start:
            l.nop
            l.nop 0x1
        """)
        result = Cpu(program, config=MachineConfig(imem_base=0x4)).run(0)
        assert result.abort_reason == "pc-out-of-range"
        assert result.cycles == 0


class TestLazyCompile:
    PADDING = """
    start:
        l.ori r1, r0, 0x800
        l.jr  r1
        l.nop
        .org 0x1000
        .word 0
    """

    def test_jump_into_padding_is_a_self_jump(self):
        cpu, result = run_program(self.PADDING)
        assert result.abort_reason == "infinite-loop"
        assert result.cycles == 3

    def test_padding_without_self_jump_detection(self):
        # Padding is a run of ``l.j 0``: the second one sits in the
        # first one's delay slot.
        cpu, result = run_program(self.PADDING, config=MachineConfig(
            detect_self_jump=False, max_cycles=1000))
        assert result.abort_reason == "illegal-instruction"
        assert result.cycles == 5
        # A lone zero word with a nop in its delay slot spins until the
        # cycle budget runs out.
        cpu, result = run_program("""
        start:
            l.j spin
            l.nop
        spin:
            .word 0
            l.nop
        """, config=MachineConfig(detect_self_jump=False, max_cycles=1000))
        assert result.abort_reason == "infinite-loop"
        assert result.cycles == 1000

    def test_undecodable_word_never_fetched_is_harmless(self):
        cpu, result = run_program("""
        start:
            l.addi r3, r0, 1
            l.nop 0x1
            .word 0xfc000000
        """)
        assert result.finished

    LOOP = """
    start:
        l.addi r1, r0, 5
        l.nop 0x10
    loop:
        l.mul  r2, r1, r1
        l.addi r1, r1, -1
        l.sfne r1, r0
        l.bf   loop
        l.nop
        l.nop 0x11
        l.nop 0x1
        .org 0x400
        .word 0
    """

    def test_compiles_only_fetched_slots_and_once(self):
        fetched = []
        cpu = Cpu(assemble(self.LOOP),
                  trace_hook=lambda address, decoded: fetched.append(address))
        assert all(op is None for op in cpu._code)
        first = cpu.run("start")
        compiled = list(cpu._code)
        n_compiled = sum(op is not None for op in compiled)
        assert 0 < n_compiled <= len(set(fetched)) < len(compiled)
        cpu.reset()
        second = cpu.run("start")
        assert second == first
        assert all(a is b for a, b in zip(cpu._code, compiled))

    def test_profile_and_trace_hook_survive_reset(self):
        fetched = []
        cpu = Cpu(assemble(self.LOOP), profile=True,
                  trace_hook=lambda address, decoded: fetched.append(address))
        first = cpu.run("start")
        first_fetched = list(fetched)
        fetched.clear()
        cpu.reset()
        second = cpu.run("start")
        assert second.class_counts == first.class_counts
        assert first.class_counts
        assert fetched == first_fetched


class TestObservability:
    WINDOW = """
    start:
        l.addi r1, r0, 0
        l.nop 0x10
        l.addi r1, r1, 1
        l.addi r1, r1, 1
        l.addi r1, r1, 1
        l.nop 0x11
        l.nop 0x1
    """

    @pytest.fixture(autouse=True)
    def clean_plane(self):
        obs.reset()
        yield
        obs.reset()

    def test_cycle_counters_and_block_share(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        run_program(self.WINDOW)  # the two FI markers step
        run_program(self.WINDOW, **STEP)  # all six cycles step
        obs.shutdown()
        records = obs.read_trace(trace)
        totals = obs.counter_totals(records)
        assert totals["sim.cycles"] == 12
        assert totals["sim.cycles.stepped"] == 8
        stats = obs.render_stats(records)
        assert "iss block share" in stats
        assert f"{1 - 8 / 12:>11.1%}" in stats


class TestLifetime:
    def test_dead_cpu_is_freed_without_the_cyclic_gc(self):
        # The run ends with the FI window open.
        source = """
        start:
            l.nop 0x10
            l.addi r3, r0, 4
            l.nop 0x1
        """
        gc.disable()
        try:
            injector = _EveryCycleFlipper()
            cpu = Cpu(assemble(source), injector=injector)
            result = cpu.run("start")
            assert result.fault_count == 1
            refs = [weakref.ref(cpu), weakref.ref(cpu.dmem),
                    weakref.ref(injector)]
            del cpu, injector
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_cpu_run_on_a_schedule_is_freed_without_the_cyclic_gc(self):
        # The schedule hook holds the run state it publishes on.
        source = """
        start:
            l.nop 0x10
            l.addi r3, r0, 4
            l.nop 0x1
        """
        gc.disable()
        try:
            injector = NullInjector()
            golden = runner.GoldenRun(
                cycles=0, result=None,
                mnemonic_ids=np.array([runner._MNEMONIC_IDS["l.addi"]],
                                      dtype=np.uint8))
            cpu = Cpu(assemble(source), injector=injector)
            hook, settle = runner._schedule(injector, golden, None, (1, 0),
                                            cpu.core)
            assert cpu.run("start", fi_hook=hook).alu_cycles == 1
            # The run state holds the injector: it goes with it.
            refs = [weakref.ref(cpu), weakref.ref(cpu.dmem),
                    weakref.ref(injector)]
            del cpu, injector, hook, settle
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_cpu_aborted_mid_block_is_freed_without_the_cyclic_gc(self):
        # The load (from 8 ^ 1) faults inside the block that starts at
        # the addi.
        source = """
        start:
            l.nop 0x10
            l.addi r4, r0, 8
            l.lwz  r3, 0(r4)
            l.addi r3, r3, 1
            l.nop 0x1
        """
        gc.disable()
        try:
            injector = _EveryCycleFlipper()
            cpu = Cpu(assemble(source), injector=injector)
            result = cpu.run("start")
            assert result.abort_reason == "misaligned-access"
            assert (result.cycles, result.kernel_cycles) == (2, 2)
            assert cpu.regs[4] == 9 and result.fault_count == 1
            refs = [weakref.ref(cpu), weakref.ref(cpu.dmem),
                    weakref.ref(injector)]
            del cpu, injector
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestBlocks:
    """Block execution against the step path (a trace hook forces it)."""

    LOOP = """
    start:
        l.addi r1, r0, 5
    loop:
        l.addi r2, r2, 3
        l.addi r1, r1, -1
        l.sfne r1, r0
        l.bf   loop
        l.nop
        l.nop 0x1
    """

    @pytest.mark.parametrize("budget", range(1, 29))
    def test_budget_cut_mid_block(self, budget):
        results = [run_program(self.LOOP, config=MachineConfig(
            max_cycles=budget), **path) for path in (NO_TRACE, STEP)]
        (fast, fast_result), (step, step_result) = results
        assert fast_result == step_result
        assert fast.regs == step.regs
        # 26 cycles to the exit hook, which takes none.
        assert fast_result.cycles == min(budget, 26)
        assert fast_result.finished == (budget > 26)


# -- differential test: random programs, block path vs step path -------

_DIFF_CONFIG = MachineConfig(dmem_size=64)
_REGS = st.integers(0, 7)


def _mnemonics(*formats):
    return sorted(m for m, spec in INSTRUCTIONS.items()
                  if spec.fmt in formats)


_ALU_OPS = st.builds(_word, st.sampled_from(_mnemonics(Format.RRR)),
                     _REGS, _REGS, _REGS)
_ALU_IMM_OPS = st.builds(
    lambda m, rd, ra, imm: _word(m, rd, ra, imm=imm & 0x7FFF if
                                 INSTRUCTIONS[m].signed_imm is False
                                 else imm),
    st.sampled_from(_mnemonics(Format.RRI)), _REGS, _REGS,
    st.integers(-40, 40))
_SHIFT_IMM_OPS = st.builds(
    lambda m, rd, ra, imm: _word(m, rd, ra, imm=imm),
    st.sampled_from(_mnemonics(Format.RRL)), _REGS, _REGS,
    st.integers(0, 63))
_COMPARES = st.one_of(
    st.builds(lambda m, ra, rb: _word(m, ra=ra, rb=rb),
              st.sampled_from(_mnemonics(Format.SF_RR)), _REGS, _REGS),
    st.builds(lambda m, ra, imm: _word(m, ra=ra, imm=imm),
              st.sampled_from(_mnemonics(Format.SF_RI)), _REGS,
              st.integers(-3, 3)))
# Offsets around the 64-byte memory: in range, misaligned and outside.
_MEMORY = st.one_of(
    st.builds(lambda m, rd, ra, imm: _word(m, rd, ra, imm=imm),
              st.sampled_from(_mnemonics(Format.LOAD)), _REGS, _REGS,
              st.integers(-6, 70)),
    st.builds(lambda m, ra, rb, imm: _word(m, ra=ra, rb=rb, imm=imm),
              st.sampled_from(_mnemonics(Format.STORE)), _REGS, _REGS,
              st.integers(-6, 70)))
_BRANCHES = st.builds(lambda m, imm: _word(m, imm=imm),
                      st.sampled_from(_mnemonics(Format.JUMP)),
                      st.integers(-6, 6))
# Register jumps go wherever r1-r7 point: mostly misaligned or outside
# the program; r9 holds a link after an l.jal.
_REGISTER_JUMPS = st.builds(lambda m, rb: _word(m, rb=rb),
                            st.sampled_from(_mnemonics(Format.JUMP_REG)),
                            st.sampled_from([0, 1, 2, 9]))
_NOPS = st.builds(lambda code: _word("l.nop", imm=code),
                  st.sampled_from([0x0, 0x0, 0x2, 0x10, 0x11, 0x1]))
_ILLEGAL = st.sampled_from([0xFC000000, 0xE4000000])
_INSTRUCTION = st.one_of(
    _ALU_OPS, _ALU_IMM_OPS, _SHIFT_IMM_OPS, _COMPARES, _MEMORY, _MEMORY,
    _BRANCHES, _REGISTER_JUMPS, _NOPS, _ILLEGAL,
    st.integers(0, 0xFFFFFFFF))


class _RandomFlipper(FaultInjector):
    """Flips a random mask on about a third of the ALU results."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def fault_mask(self, mnemonic):
        if self.rng.random() < 0.3:
            return self.rng.getrandbits(32) & self.rng.getrandbits(32)
        return 0


def _run_both(words, pointers, data, seed, budget):
    outcomes = []
    for trace_hook in (None, lambda address, decoded: None):
        # r1-r3 point into (or just around) the data memory.
        prologue = [_word("l.nop", imm=0x10)]
        for reg, offset in zip((1, 2, 3), pointers):
            prologue += [_word("l.movhi", rd=reg, imm=DATA_BASE >> 16),
                         _word("l.ori", rd=reg, ra=reg, imm=offset)]
        injector = _RandomFlipper(seed)
        cpu = Cpu(Program(words=prologue + words), config=_DIFF_CONFIG,
                  injector=injector, trace_hook=trace_hook)
        cpu.dmem.write_words(DATA_BASE, data)
        result = cpu.run(0, max_cycles=budget)
        outcomes.append((result, list(cpu.regs), cpu.flag,
                         cpu.dmem.snapshot(), injector.fault_count,
                         injector.faulty_cycles, injector.alu_cycles,
                         injector.rng.getstate()))
    return outcomes


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(_INSTRUCTION, min_size=1, max_size=40),
       pointers=st.lists(st.integers(0, 72), min_size=3, max_size=3),
       data=st.lists(st.integers(0, 0xFFFFFFFF), min_size=16,
                     max_size=16),
       seed=st.integers(0, 2**32 - 1),
       budget=st.integers(1, 400))
def test_block_execution_matches_per_instruction(words, pointers, data,
                                                 seed, budget):
    block, step = _run_both(words, pointers, data, seed, budget)
    assert block == step


# -- differential test under a fault schedule: hook-free blocks --------

def _schedule_both(words, pointers, golden_pointers, data, seed, budget,
                   p_bit, semantics):
    """Block path vs step path of one program under a schedule hook.

    The schedule's golden sequence is the program's own fault-free run
    from ``golden_pointers``, so a trial can abort mid-block where its
    golden run went on; model A draws faults over it, so runs keep,
    leave and outlive it.
    """
    def program(pointers):
        prologue = [_word("l.nop", imm=0x10)]
        for reg, offset in zip((1, 2, 3), pointers):
            prologue += [_word("l.movhi", rd=reg, imm=DATA_BASE >> 16),
                         _word("l.ori", rd=reg, ra=reg, imm=offset)]
        return Program(words=prologue + words)

    recorder = runner._TraceRecorder()
    cpu = Cpu(program(golden_pointers), config=_DIFF_CONFIG,
              injector=recorder)
    cpu.dmem.write_words(DATA_BASE, data)
    cpu.run(0, max_cycles=budget)
    golden = runner.GoldenRun(
        cycles=0, result=None, mnemonic_ids=np.array(
            [runner._MNEMONIC_IDS[m] for m in recorder.mnemonics],
            dtype=np.uint8))
    outcomes = []
    for trace_hook in (None, lambda address, decoded: None):
        injector = FixedProbabilityInjector(
            p_bit, rng=np.random.default_rng(seed), semantics=semantics)
        saved = injector.snapshot()
        fault = injector.next_fault(golden.mnemonic_ids, 0)
        cpu = Cpu(program(pointers), config=_DIFF_CONFIG,
                  injector=injector, trace_hook=trace_hook)
        cpu.dmem.write_words(DATA_BASE, data)
        hook, settle = runner._schedule(injector, golden, saved, fault,
                                        cpu.core)
        result = cpu.run(0, max_cycles=budget, fi_hook=hook)
        outcomes.append((result, list(cpu.regs), cpu.flag,
                         cpu.dmem.snapshot(), settle(),
                         injector.fault_count, injector.faulty_cycles,
                         injector.alu_cycles, injector._last_latched,
                         injector._rng.bit_generator.state,
                         (cpu.core.golden, cpu.core.stop)))
    return outcomes


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(_INSTRUCTION, min_size=1, max_size=40),
       pointers=st.lists(st.integers(0, 72), min_size=3, max_size=3),
       golden_pointers=st.lists(st.integers(0, 72), min_size=3,
                                max_size=3),
       data=st.lists(st.integers(0, 0xFFFFFFFF), min_size=16,
                     max_size=16),
       seed=st.integers(0, 2**32 - 1),
       budget=st.integers(1, 400),
       p_bit=st.sampled_from([0.0, 1e-3, 1e-2]),
       semantics=st.sampled_from(FAULT_SEMANTICS))
def test_scheduled_block_execution_matches_per_instruction(
        words, pointers, golden_pointers, data, seed, budget, p_bit,
        semantics):
    block, step = _schedule_both(words, pointers, golden_pointers, data,
                                 seed, budget, p_bit, semantics)
    assert block == step
    assert block[-1] == (b"", -1)  # the run clears the schedule


class TestHookFree:
    """Blocks a fault schedule lets run without its hook."""

    # Each pass through the loop block has four ALU ops, three before
    # its load; the fourth pass loads below the data memory and aborts.
    # The schedule's golden run is the program's own, plus a fifth pass:
    # as if faults had made the fourth pass's load fail.
    SOURCE = f"""
    start:
        l.nop 0x10
        l.movhi r7, hi({DATA_BASE})
        l.ori   r7, r7, lo({DATA_BASE})
        l.addi  r1, r0, 3
    loop:
        l.addi  r1, r1, -1
        l.slli  r4, r1, 2
        l.add   r4, r4, r7
        l.lwz   r5, 0(r4)
        l.addi  r2, r2, 1
        l.sfne  r1, r7
        l.bf    loop
        l.nop
        l.nop 0x1
    """

    @pytest.fixture(autouse=True)
    def clean_plane(self):
        obs.reset()
        yield
        obs.reset()

    def _run(self, injector, at, **path):
        """Result, registers, latch and hooked ops of a scheduled run."""
        program = assemble(self.SOURCE)
        recorder = runner._TraceRecorder()
        Cpu(program, injector=recorder).run("start")
        golden = runner.GoldenRun(
            cycles=0, result=None, mnemonic_ids=np.array(
                [runner._MNEMONIC_IDS[m] for m in recorder.mnemonics
                 + recorder.mnemonics[-3:] + ["l.addi"]], dtype=np.uint8))
        cpu = Cpu(program, injector=injector, **path)
        hook, settle = runner._schedule(injector, golden, None, (at, 0),
                                        cpu.core)
        hooked = []
        result = cpu.run("start", fi_hook=lambda mnemonic, value: (
            hooked.append(injector.alu_cycles) or hook(mnemonic, value)))
        settle()
        return result, list(cpu.regs), injector._last_latched, hooked

    @pytest.mark.parametrize("semantics", FAULT_SEMANTICS)
    def test_abort_mid_block_counts_the_retired_alu_ops(self, tmp_path,
                                                        semantics):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        block, step = [self._run(NullInjector(semantics=semantics), 21,
                                 **path) for path in (NO_TRACE, STEP)]
        obs.shutdown()
        assert block[:3] == step[:3]
        result, _, latched, hooked = block
        assert result.abort_reason == "memory-fault"
        # The prologue's two, three passes' four, and the three before
        # the aborting load: every block golden and before stop, the
        # last one cut by its abort.
        assert result.alu_cycles == 2 + 3 * 4 + 3 == 17
        assert latched == (DATA_BASE - 4) & MASK32  # the last address
        assert hooked == [] and step[3] == list(range(17))
        totals = obs.counter_totals(obs.read_trace(trace))
        assert totals["sim.alu.free"] == 17

    def test_a_diverged_run_calls_the_hook_on_every_op(self):
        # The golden ids say op 1 is an l.xori, but the program runs
        # only l.addi: the run diverges there and draws per-op from then
        # on, also where its ops match the golden ids again (ops 2-19,
        # before the schedule's first fault at op 20).
        source = """
        start:
            l.nop 0x10
            l.addi r1, r0, 30
        loop:
            l.addi r1, r1, -1
            l.sfne r1, r0
            l.bf   loop
            l.nop
            l.nop 0x1
        """
        golden = runner.GoldenRun(cycles=0, result=None, mnemonic_ids=np.array(
            [runner._MNEMONIC_IDS[m]
             for m in ["l.addi", "l.xori"] + ["l.addi"] * 40],
            dtype=np.uint8))
        outcomes = []
        for path in (NO_TRACE, STEP):
            injector = FixedProbabilityInjector(
                1e-3, rng=np.random.default_rng(3))
            saved = injector.snapshot()
            fault = injector.next_fault(golden.mnemonic_ids, 0)
            assert fault[0] == 20
            cpu = Cpu(assemble(source), injector=injector, **path)
            hook, settle = runner._schedule(injector, golden, saved, fault,
                                            cpu.core)
            # A fault on the counter may loop it on: cut it at 400 cycles.
            result = cpu.run("start", max_cycles=400, fi_hook=hook)
            outcomes.append((result, settle(),
                             injector._rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]  # diverged

    def test_a_block_holding_the_next_op_to_see_runs_hooked(self):
        block = self._run(NullInjector(), 10)
        step = self._run(NullInjector(), 10, **STEP)
        assert block[:3] == step[:3]
        # Op 10 opens the third pass: the hook sees that whole block,
        # and the fourth pass runs hook-free.
        assert block[3] == [10, 11, 12, 13]
        assert step[3] == list(range(17))
