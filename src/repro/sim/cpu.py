"""Cycle-accurate instruction set simulator for the OR1K-subset core.

The simulated micro-architecture mirrors the paper's case study: a
6-stage in-order pipeline that sustains one instruction per cycle,
including single-cycle 32-bit multiplies, fed by single-cycle
instruction/data SRAMs.  With IPC = 1 and no stall sources, the cycle
in which an instruction occupies the execute (EX) stage is simply its
retire index, so the simulator advances one instruction per cycle and
exposes the EX stage to the fault-injection framework at that point.

For speed, each instruction slot is *compiled* the first time it is
fetched: its word becomes a Python closure specialized on its decoded
operands (jump targets resolved to absolute indices, r0 writes elided,
...) and stays in the slot for every later run of the CPU.  The hot loop
then only dispatches closures and manages the branch delay slot, and a
CPU costs what its executed code costs, not what its instruction memory
costs.

Fault injection contract: while the FI window is open (between the
``l.nop NOP_FI_ON`` / ``NOP_FI_OFF`` kernel markers) every FI-eligible
(ALU-class) instruction passes its 32-bit result through the injector's
``on_alu(mnemonic, result) -> result`` hook before write-back, modeling
timing faults captured in the EX-stage ALU endpoint flip-flops.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.encoding import Decoded, EncodingError, decode
from repro.isa.instructions import NOP_EXIT, NOP_REPORT
from repro.isa.program import Program
from repro.sim.exceptions import (
    IllegalInstruction,
    InfiniteLoop,
    MemoryFault,
    MisalignedAccess,
    PcOutOfRange,
)
from repro.sim.machine import MachineConfig, NOP_FI_OFF, NOP_FI_ON
from repro.sim.memory import DataMemory
from repro.sim.result import ExecutionResult

MASK32 = 0xFFFFFFFF
_SIGN_BIT = 0x80000000


class _Exit(Exception):
    """Internal: program reached the exit hook."""


def _signed(value: int) -> int:
    """Interpret a 32-bit value as signed."""
    return value - 0x100000000 if value & _SIGN_BIT else value


class _Core:
    """Run state shared by a CPU and its compiled instructions.

    The closures capture this object, never the :class:`Cpu`, so a CPU
    is not part of a reference cycle: it is freed, with its data memory
    and snapshot, as soon as its last user drops it.
    """

    __slots__ = ("injector", "alu_hook", "hook", "flag", "fi_window")

    def __init__(self, injector) -> None:
        self.injector = injector
        #: The hook the FI window arms (chosen per run).
        self.alu_hook: Callable[[str, int], int] | None = None
        self.hook: Callable[[str, int], int] | None = None
        self.flag = False
        self.fi_window = False

    def fi_on(self) -> None:
        self.fi_window = True
        self.hook = self.alu_hook

    def fi_off(self) -> None:
        self.fi_window = False
        self.hook = None


class Cpu:
    """The instruction set simulator.

    Args:
        program: assembled program image (instructions below the data
            base, initial data at/above it).
        config: machine configuration.
        injector: optional fault injector with an
            ``on_alu(mnemonic, result) -> result`` hook plus
            ``begin_run()`` and fault counters (see
            :class:`repro.fi.base.FaultInjector`).
        profile: when True, count retired instructions per timing class
            (slower; used for benchmark characterization, Table 1).
    """

    def __init__(self, program: Program, config: MachineConfig | None = None,
                 injector=None, profile: bool = False, trace_hook=None):
        self.config = config or MachineConfig()
        self.program = program
        self.profile = profile
        self.trace_hook = trace_hook
        self.regs: list[int] = [0] * 32
        self.dmem = DataMemory(self.config.dmem_base, self.config.dmem_size)
        self.reports: list[int] = []
        self.cycles = 0
        self.kernel_cycles = 0
        self._core = _Core(injector)
        self._class_counts: dict[str, int] = {}
        self._imem_words = self._load_program()
        # Slots are compiled on first fetch (see _run_loop).
        self._code: list[Callable[[], int | None] | None] = \
            [None] * len(self._imem_words)
        # Snapshot the loaded data image once: reset() restores it
        # instead of re-splitting the program (the Monte-Carlo
        # trial-reuse fast path).
        self._dmem_image = self.dmem.snapshot()

    @property
    def injector(self):
        """The fault injector armed for the next run (or None)."""
        return self._core.injector

    @injector.setter
    def injector(self, injector) -> None:
        self._core.injector = injector

    @property
    def flag(self) -> bool:
        """The compare flag (``SR[F]``)."""
        return self._core.flag

    # ------------------------------------------------------------------
    # Program loading and lazy compilation
    # ------------------------------------------------------------------

    def _load_program(self) -> list[int]:
        """Store the data words and return the instruction memory.

        Each program word below ``dmem_base`` goes to instruction slot
        ``(address - imem_base) // 4``; slots up to the last such word
        that no program word covers hold word 0.  Words below
        ``imem_base`` are in no memory, so fetching them is
        :class:`PcOutOfRange`.  Words at or above ``dmem_base`` are
        stored in the data memory.
        """
        cfg = self.config
        base = self.program.base_address
        words = self.program.words
        # Index of the first word at or above each base (ceil division).
        first = min(len(words), max(0, -((base - cfg.imem_base) // 4)))
        split = min(len(words), max(0, -((base - cfg.dmem_base) // 4)))
        self.dmem.write_words(base + 4 * split, words[split:])
        code = words[first:split]
        if not code:
            return []
        return [0] * max(0, (base - cfg.imem_base) // 4) + code

    def _compile_slot(self, index: int) -> Callable[[], int | None]:
        """Compile instruction slot ``index`` and keep it for later runs."""
        address = self.config.imem_base + 4 * index
        try:
            decoded = decode(self._imem_words[index])
        except EncodingError:
            raise IllegalInstruction(f"at {address:#x}") from None
        op = self._code[index] = self._compile(decoded, address)
        return op

    def reset(self) -> None:
        """Restore architectural state for a fresh run.

        Restores from the construction-time snapshot; the slots compiled
        so far stay compiled, so a rerun compiles only code it had not
        reached before.  All state containers are mutated in place --
        the compiled instruction closures hold references to ``regs``,
        ``reports``, ``dmem``, ``_class_counts`` and the run state
        ``_core``, so rebinding any of them would silently disconnect
        the compiled code from the architectural state.
        """
        self.regs[:] = [0] * 32
        self.reports.clear()
        self.cycles = 0
        self.kernel_cycles = 0
        core = self._core
        core.flag = False
        core.fi_window = False
        core.hook = None
        self._class_counts.clear()
        self.dmem.restore(self._dmem_image)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: int | str = 0, max_cycles: int | None = None,
            fi_hook: Callable[[str, int], int] | None = None
            ) -> ExecutionResult:
        """Execute from ``entry`` until exit or a fatal condition.

        Args:
            entry: byte address or symbol name to start at.
            max_cycles: overrides the configured cycle budget.
            fi_hook: FI hook for this run in place of the injector's
                ``on_alu`` (it keeps the injector's counters; the
                Monte-Carlo runner's fault-schedule hook).

        Returns:
            An :class:`ExecutionResult`; fatal conditions are reported
            through ``finished=False`` / ``abort_reason`` rather than
            raised, since fault-injected runs fail routinely.
        """
        if isinstance(entry, str):
            entry = self.program.symbol(entry)
        budget = max_cycles if max_cycles is not None else \
            self.config.max_cycles
        core = self._core
        injector = core.injector
        if injector is not None:
            injector.begin_run()
            core.alu_hook = fi_hook or injector.on_alu
        else:
            core.alu_hook = None
        finished = False
        abort_reason: str | None = None
        exit_code: int | None = None
        try:
            self._run_loop(entry, budget)
        except _Exit:
            finished = True
            exit_code = self.regs[3]
        except (IllegalInstruction, PcOutOfRange, MemoryFault,
                MisalignedAccess, InfiniteLoop) as fault:
            abort_reason = fault.reason
        return ExecutionResult(
            finished=finished,
            abort_reason=abort_reason,
            cycles=self.cycles,
            kernel_cycles=self.kernel_cycles,
            fault_count=injector.fault_count if injector else 0,
            faulty_cycles=injector.faulty_cycles if injector else 0,
            alu_cycles=injector.alu_cycles if injector else 0,
            reports=list(self.reports),
            exit_code=exit_code,
            class_counts=dict(self._class_counts),
        )

    def _run_loop(self, entry: int, budget: int) -> None:
        if entry % 4:
            raise PcOutOfRange(f"entry {entry:#x} not word aligned")
        code = self._code
        core = self._core
        size = len(code)
        pc_index = (entry - self.config.imem_base) // 4
        pending = -1
        cycles = self.cycles
        kernel_cycles = self.kernel_cycles
        try:
            while True:
                if cycles >= budget:
                    raise InfiniteLoop(
                        f"cycle budget of {budget} exhausted")
                if not 0 <= pc_index < size:
                    raise PcOutOfRange(
                        f"pc {self.config.imem_base + 4 * pc_index:#x}")
                op = code[pc_index]
                if op is None:
                    op = self._compile_slot(pc_index)
                target = op()
                cycles += 1
                if core.fi_window:
                    kernel_cycles += 1
                if pending >= 0:
                    if target is not None:
                        raise IllegalInstruction("branch in delay slot")
                    pc_index = pending
                    pending = -1
                elif target is not None:
                    pending = target
                    pc_index += 1
                else:
                    pc_index += 1
        finally:
            self.cycles = cycles
            self.kernel_cycles = kernel_cycles

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------

    def _compile(self, decoded: Decoded,
                 address: int) -> Callable[[], int | None]:
        op = self._compile_body(decoded, address)
        if self.profile:
            counts = self._class_counts
            name = decoded.spec.timing_class.value
            inner = op

            def profiled():
                counts[name] = counts.get(name, 0) + 1
                return inner()
            op = profiled
        if self.trace_hook is not None:
            hook = self.trace_hook
            body = op

            def traced():
                hook(address, decoded)
                return body()
            op = traced
        return op

    def _compile_body(self, decoded: Decoded,
                      address: int) -> Callable[[], int | None]:
        spec = decoded.spec
        mnemonic = spec.mnemonic
        regs = self.regs
        dmem = self.dmem
        core = self._core
        rd, ra, rb, imm = decoded.rd, decoded.ra, decoded.rb, decoded.imm

        def write(value: int) -> None:
            if rd:
                regs[rd] = value & MASK32

        # --- ALU class: result passes through the FI hook ------------
        if spec.is_alu:
            compute = self._alu_compute(mnemonic, ra, rb, imm)
            if rd == 0:
                # Result discarded architecturally, but the instruction
                # still occupies EX and is still counted by the hook.
                def op_alu_r0():
                    hook = core.hook
                    result = compute()
                    if hook is not None:
                        hook(mnemonic, result)
                    return None
                return op_alu_r0

            def op_alu():
                hook = core.hook
                result = compute()
                if hook is not None:
                    result = hook(mnemonic, result)
                regs[rd] = result & MASK32
                return None
            return op_alu

        # --- control flow --------------------------------------------
        if mnemonic in ("l.j", "l.jal"):
            target = address + 4 * imm
            target_index = (target - self.config.imem_base) // 4
            if mnemonic == "l.j":
                if target == address and self.config.detect_self_jump:
                    def op_self_jump():
                        raise InfiniteLoop(
                            f"unconditional self-jump at {address:#x}")
                    return op_self_jump

                def op_j():
                    return target_index
                return op_j
            link = (address + 8) & MASK32

            def op_jal():
                regs[9] = link
                return target_index
            return op_jal
        if mnemonic in ("l.jr", "l.jalr"):
            imem_base = self.config.imem_base
            is_link = mnemonic == "l.jalr"
            link = (address + 8) & MASK32

            def op_jr():
                target = regs[rb]
                if target & 3:
                    raise PcOutOfRange(
                        f"jump register target {target:#x} misaligned")
                if is_link:
                    regs[9] = link
                return (target - imem_base) >> 2
            return op_jr
        if mnemonic in ("l.bf", "l.bnf"):
            target_index = (address + 4 * imm - self.config.imem_base) // 4
            wanted = mnemonic == "l.bf"

            def op_branch():
                if core.flag == wanted:
                    return target_index
                return None
            return op_branch
        if mnemonic == "l.nop":
            if imm == NOP_EXIT:
                def op_exit():
                    raise _Exit()
                return op_exit
            if imm == NOP_REPORT:
                reports = self.reports

                def op_report():
                    reports.append(regs[3])
                    return None
                return op_report
            if imm == NOP_FI_ON:
                def op_fi_on():
                    core.fi_on()
                    return None
                return op_fi_on
            if imm == NOP_FI_OFF:
                def op_fi_off():
                    core.fi_off()
                    return None
                return op_fi_off

            def op_nop():
                return None
            return op_nop
        if mnemonic == "l.movhi":
            value = (imm << 16) & MASK32

            def op_movhi():
                write(value)
                return None
            return op_movhi

        # --- memory ----------------------------------------------------
        if mnemonic == "l.lwz":
            def op_lwz():
                write(dmem.load_word((regs[ra] + imm) & MASK32))
                return None
            return op_lwz
        if mnemonic == "l.lhz":
            def op_lhz():
                write(dmem.load_half((regs[ra] + imm) & MASK32))
                return None
            return op_lhz
        if mnemonic == "l.lbz":
            def op_lbz():
                write(dmem.load_byte((regs[ra] + imm) & MASK32))
                return None
            return op_lbz
        if mnemonic == "l.sw":
            def op_sw():
                dmem.store_word((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sw
        if mnemonic == "l.sh":
            def op_sh():
                dmem.store_half((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sh
        if mnemonic == "l.sb":
            def op_sb():
                dmem.store_byte((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sb

        # --- set-flag compares ------------------------------------------
        if spec.is_compare:
            return self._compile_compare(mnemonic, ra, rb, imm)

        raise AssertionError(
            f"no compilation rule for {mnemonic}")  # pragma: no cover

    def _alu_compute(self, mnemonic: str, ra: int, rb: int,
                     imm: int) -> Callable[[], int]:
        """Build the pure computation closure for an ALU instruction."""
        regs = self.regs
        if mnemonic == "l.add":
            return lambda: (regs[ra] + regs[rb]) & MASK32
        if mnemonic == "l.addi":
            return lambda: (regs[ra] + imm) & MASK32
        if mnemonic == "l.sub":
            return lambda: (regs[ra] - regs[rb]) & MASK32
        if mnemonic == "l.mul":
            return lambda: (_signed(regs[ra]) * _signed(regs[rb])) & MASK32
        if mnemonic == "l.muli":
            return lambda: (_signed(regs[ra]) * imm) & MASK32
        if mnemonic == "l.and":
            return lambda: regs[ra] & regs[rb]
        if mnemonic == "l.andi":
            return lambda: regs[ra] & (imm & 0xFFFF)
        if mnemonic == "l.or":
            return lambda: regs[ra] | regs[rb]
        if mnemonic == "l.ori":
            return lambda: regs[ra] | (imm & 0xFFFF)
        if mnemonic == "l.xor":
            return lambda: regs[ra] ^ regs[rb]
        if mnemonic == "l.xori":
            return lambda: (regs[ra] ^ imm) & MASK32
        if mnemonic == "l.sll":
            return lambda: (regs[ra] << (regs[rb] & 31)) & MASK32
        if mnemonic == "l.slli":
            shift = imm & 31
            return lambda: (regs[ra] << shift) & MASK32
        if mnemonic == "l.srl":
            return lambda: regs[ra] >> (regs[rb] & 31)
        if mnemonic == "l.srli":
            shift = imm & 31
            return lambda: regs[ra] >> shift
        if mnemonic == "l.sra":
            return lambda: (_signed(regs[ra]) >> (regs[rb] & 31)) & MASK32
        if mnemonic == "l.srai":
            shift = imm & 31
            return lambda: (_signed(regs[ra]) >> shift) & MASK32
        raise AssertionError(
            f"no ALU rule for {mnemonic}")  # pragma: no cover

    def _compile_compare(self, mnemonic: str, ra: int, rb: int,
                         imm: int) -> Callable[[], None]:
        regs = self.regs
        core = self._core
        immediate = mnemonic.endswith("i")
        kind = mnemonic[4:-1] if immediate else mnemonic[4:]

        def operands_unsigned() -> tuple[int, int]:
            if immediate:
                return regs[ra], imm & MASK32
            return regs[ra], regs[rb]

        def operands_signed() -> tuple[int, int]:
            if immediate:
                return _signed(regs[ra]), imm
            return _signed(regs[ra]), _signed(regs[rb])

        comparators = {
            "eq": (operands_unsigned, lambda a, b: a == b),
            "ne": (operands_unsigned, lambda a, b: a != b),
            "gtu": (operands_unsigned, lambda a, b: a > b),
            "geu": (operands_unsigned, lambda a, b: a >= b),
            "ltu": (operands_unsigned, lambda a, b: a < b),
            "leu": (operands_unsigned, lambda a, b: a <= b),
            "gts": (operands_signed, lambda a, b: a > b),
            "ges": (operands_signed, lambda a, b: a >= b),
            "lts": (operands_signed, lambda a, b: a < b),
            "les": (operands_signed, lambda a, b: a <= b),
        }
        get_operands, test = comparators[kind]

        def op_compare():
            a, b = get_operands()
            core.flag = test(a, b)
            return None
        return op_compare
