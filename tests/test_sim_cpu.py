"""Unit tests for the cycle-accurate CPU: semantics, control, faults."""

import gc
import weakref

import pytest

from repro.fi.base import FaultInjector
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.machine import DATA_BASE, MachineConfig


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


class TestLifetime:
    def test_dead_cpu_is_freed_without_the_cyclic_gc(self):
        # The run ends with the FI window open, the injector's hook
        # still armed.
        source = """
        start:
            l.nop 0x10
            l.addi r3, r0, 4
            l.nop 0x1
        """
        gc.disable()
        try:
            cpu = Cpu(assemble(source), injector=_EveryCycleFlipper())
            result = cpu.run("start")
            assert result.fault_count == 1
            ref = weakref.ref(cpu)
            del cpu
            assert ref() is None
        finally:
            gc.enable()
