"""Cycle-accurate instruction set simulator for the OR1K-subset core.

The simulated micro-architecture mirrors the paper's case study: a
6-stage in-order pipeline that sustains one instruction per cycle,
including single-cycle 32-bit multiplies, fed by single-cycle
instruction/data SRAMs.  With IPC = 1 and no stall sources, the cycle
in which an instruction occupies the execute (EX) stage is simply its
retire index, so the simulator advances one instruction per cycle and
exposes the EX stage to the fault-injection framework at that point.

For speed the ISS executes *basic blocks*.  The first time control
enters an instruction slot, the straight run of instructions from there
up to and including the next branch and its delay slot is translated
into one generated Python function.  The function inlines register
reads and writes, the ALU arithmetic, the compare flag and the bounds-
and alignment-checked data-memory accesses, and returns the slot
control goes to next; the run loop adds the block's length to the
cycle count.  The same per-mnemonic emitters generate one-instruction
*slot* functions for the step path, which executes one instruction at
a time (a branch together with its delay slot).  The step path runs
what blocks leave out -- the FI-window markers, the exit hook,
self-jumps, undecodable words and branches in delay slots -- every
instruction while a block would cross the cycle budget, and every
instruction of a CPU built with ``profile=True`` or a ``trace_hook``.

Generated code is kept per instruction memory and machine config, so
CPUs built on the same program share it; each CPU binds its own state
(registers, data memory, run state) into the code through a closure
factory.  The closures never reference the :class:`Cpu`, so a dead CPU
is freed, with its data memory, by reference counting alone.

Precise state: cycles, kernel cycles, registers, the flag, reports and
the data memory are exact at every abort, as if each instruction ran
alone.  An instruction that aborts (a memory fault, a misaligned access
or jump target, an illegal word) retires nothing; a block that aborts
records how many of its instructions retired before raising, and a
block never starts unless all of it fits in the cycle budget.

Fault injection contract: while the FI window is open (between the
``l.nop NOP_FI_ON`` / ``NOP_FI_OFF`` kernel markers) every FI-eligible
(ALU-class) instruction passes its 32-bit result through the injector's
``on_alu(mnemonic, result) -> result`` hook before write-back, modeling
timing faults captured in the EX-stage ALU endpoint flip-flops.  A
block reads the hook once and calls it for its ALU results one at a
time, in order.
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import Callable

from repro import obs
from repro.isa.encoding import Decoded, EncodingError, decode
from repro.isa.instructions import NOP_EXIT, NOP_REPORT
from repro.isa.program import Program
from repro.sim.exceptions import (
    IllegalInstruction,
    InfiniteLoop,
    MemoryFault,
    MisalignedAccess,
    PcOutOfRange,
    SimulationFault,
)
from repro.sim.machine import MachineConfig, NOP_FI_OFF, NOP_FI_ON
from repro.sim.memory import DataMemory
from repro.sim.result import ExecutionResult

MASK32 = 0xFFFFFFFF

#: Instruction memories whose generated code is kept (least recently
#: used first out).
_IMAGE_CACHE_SIZE = 64


class _Exit(Exception):
    """Internal: program reached the exit hook."""


class _Core:
    """Run state shared by a CPU and its generated code.

    The generated functions capture this object, never the :class:`Cpu`,
    so a CPU is not part of a reference cycle.
    """

    __slots__ = ("injector", "alu_hook", "hook", "flag", "fi_window",
                 "retired")

    def __init__(self, injector) -> None:
        self.injector = injector
        #: The hook the FI window arms (chosen per run).
        self.alu_hook: Callable[[str, int], int] | None = None
        self.hook: Callable[[str, int], int] | None = None
        self.flag = False
        self.fi_window = False
        #: Instructions of the aborting block that retired before it.
        self.retired = 0

    def fi_on(self) -> None:
        self.fi_window = True
        self.hook = self.alu_hook

    def fi_off(self) -> None:
        self.fi_window = False
        self.hook = None


# ----------------------------------------------------------------------
# Code generation: per-mnemonic emitters
# ----------------------------------------------------------------------
#
# Generated code runs with the bound state ``r`` (registers), ``m``
# (the data-memory bytearray), ``dmem``, ``core`` and ``reports``, the
# block-wide hook ``h``, and the temporaries ``v`` (a value), ``o`` (a
# data-memory offset) and ``t`` (a branch's next slot).

def _r(n: int) -> str:
    """Source reading register ``n`` (r0 reads as the constant 0)."""
    return f"r[{n}]" if n else "0"


_ALU = {
    "l.add": "({a} + {b}) & 0xFFFFFFFF",
    "l.addi": "({a} + {imm}) & 0xFFFFFFFF",
    "l.sub": "({a} - {b}) & 0xFFFFFFFF",
    # The low word of a product is the same for signed operands.
    "l.mul": "({a} * {b}) & 0xFFFFFFFF",
    "l.muli": "({a} * {imm}) & 0xFFFFFFFF",
    "l.and": "{a} & {b}",
    "l.andi": "{a} & {imm16}",
    "l.or": "{a} | {b}",
    "l.ori": "{a} | {imm16}",
    "l.xor": "{a} ^ {b}",
    "l.xori": "{a} ^ {imm32}",
    "l.sll": "({a} << ({b} & 31)) & 0xFFFFFFFF",
    "l.slli": "({a} << {shift}) & 0xFFFFFFFF",
    "l.srl": "{a} >> ({b} & 31)",
    "l.srli": "{a} >> {shift}",
    "l.sra": "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31))"
             " & 0xFFFFFFFF",
    "l.srai": "((({a} ^ 0x80000000) - 0x80000000) >> {shift})"
              " & 0xFFFFFFFF",
}

_COMPARE = {"eq": "==", "ne": "!=", "gtu": ">", "geu": ">=", "ltu": "<",
            "leu": "<=", "gts": ">", "ges": ">=", "lts": "<", "les": "<="}

#: mnemonic -> (width, DataMemory method, access source).  A load's
#: source is the value read at ``m[o]``; a store's writes ``v`` there.
_LOADS = {
    "l.lwz": (4, "load_word",
              "(m[o] << 24) | (m[o + 1] << 16) | (m[o + 2] << 8)"
              " | m[o + 3]"),
    "l.lhz": (2, "load_half", "(m[o] << 8) | m[o + 1]"),
    "l.lbz": (1, "load_byte", "m[o]"),
}
_STORES = {
    "l.sw": (4, "store_word",
             "m[o] = v >> 24; m[o + 1] = (v >> 16) & 255; "
             "m[o + 2] = (v >> 8) & 255; m[o + 3] = v & 255"),
    "l.sh": (2, "store_half", "m[o] = (v >> 8) & 255; m[o + 1] = v & 255"),
    "l.sb": (1, "store_byte", "m[o] = v & 255"),
}


def _emit_alu(d: Decoded) -> list[str]:
    expr = _ALU[d.mnemonic].format(
        a=_r(d.ra), b=_r(d.rb), imm=d.imm, imm16=d.imm & 0xFFFF,
        imm32=d.imm & MASK32, shift=d.imm & 31)
    if not d.rd:
        # The result is discarded, but it still occupies EX and is
        # still seen by the hook.
        return [f"if h is not None: h({d.mnemonic!r}, {expr})"]
    return [f"v = {expr}",
            f"if h is not None: v = h({d.mnemonic!r}, v) & 0xFFFFFFFF",
            f"r[{d.rd}] = v"]


def _emit_compare(d: Decoded) -> list[str]:
    immediate = d.mnemonic.endswith("i")
    kind = d.mnemonic[4:-1] if immediate else d.mnemonic[4:]
    a = _r(d.ra)
    b = str(d.imm & MASK32) if immediate else _r(d.rb)
    if kind[-1] == "s":
        # Flipping the sign bit maps signed order onto unsigned order.
        a, b = f"({a} ^ 0x80000000)", f"({b} ^ 0x80000000)"
    return [f"core.flag = {a} {_COMPARE[kind]} {b}"]


def _emit_memory(d: Decoded, k: int, config: MachineConfig) -> list[str]:
    load = d.mnemonic in _LOADS
    width, method, access = (_LOADS if load else _STORES)[d.mnemonic]
    # The base is word aligned, so the offset's alignment is the
    # address's.  The abort path calls the DataMemory method, which
    # raises the same fault with the same message.
    check = f"not 0 <= o <= {config.dmem_size - width}"
    if width > 1:
        check = f"o & {width - 1} or {check}"
    address = f"o + {config.dmem_base}"
    # Registers hold 32-bit values: a zero offset needs no wrap.
    pointer = f"(({_r(d.ra)} + {d.imm}) & 0xFFFFFFFF)" if d.imm \
        else _r(d.ra)
    lines = [f"o = {pointer} - {config.dmem_base}"]
    if load:
        lines.append(f"if {check}: core.retired = {k}; "
                     f"dmem.{method}({address})")
        if d.rd:
            lines.append(f"r[{d.rd}] = {access}")
    else:
        lines.append(f"v = {_r(d.rb)}")
        lines.append(f"if {check}: core.retired = {k}; "
                     f"dmem.{method}({address}, v)")
        lines.append(access)
    return lines


def _emit_branch(d: Decoded, index: int, k: int, config: MachineConfig,
                 after: str) -> list[str]:
    """Lines leaving the next slot in ``t`` (``after`` when not taken)."""
    mnemonic = d.mnemonic
    address = config.imem_base + 4 * index
    link = (address + 8) & MASK32
    if mnemonic in ("l.jr", "l.jalr"):
        lines = [f"t = {_r(d.rb)}",
                 f"if t & 3: core.retired = {k}; raise PcOutOfRange("
                 f"'jump register target %#x misaligned' % t)"]
        if mnemonic == "l.jalr":
            lines.append(f"r[9] = {link}")
        return lines + [f"t = (t - {config.imem_base}) >> 2"]
    target = index + d.imm
    if mnemonic == "l.bf":
        return [f"t = {target} if core.flag else {after}"]
    if mnemonic == "l.bnf":
        return [f"t = {after} if core.flag else {target}"]
    if mnemonic == "l.jal":
        return [f"r[9] = {link}", f"t = {target}"]
    if _is_self_jump(d, config):
        return [f"raise InfiniteLoop("
                f"'unconditional self-jump at {address:#x}')"]
    return [f"t = {target}"]


def _emit(d: Decoded, index: int, k: int, config: MachineConfig,
          after: str) -> list[str]:
    """Source lines executing ``d`` at slot ``index``, ``k``-th of a block.

    ``after`` is the source of the slot an untaken branch goes to.
    """
    spec = d.spec
    if spec.is_alu:
        return _emit_alu(d)
    if spec.is_compare:
        return _emit_compare(d)
    if spec.is_load or spec.is_store:
        return _emit_memory(d, k, config)
    if spec.is_branch:
        return _emit_branch(d, index, k, config, after)
    if d.mnemonic == "l.movhi":
        return [f"r[{d.rd}] = {(d.imm << 16) & MASK32}"] if d.rd else []
    return {NOP_EXIT: ["raise _Exit()"],
            NOP_REPORT: ["reports.append(r[3])"],
            NOP_FI_ON: ["core.fi_on()"],
            NOP_FI_OFF: ["core.fi_off()"]}.get(d.imm, [])


def _is_self_jump(d: Decoded, config: MachineConfig) -> bool:
    return d.mnemonic == "l.j" and d.imm == 0 and config.detect_self_jump


def _runs_alone(d: Decoded | None, config: MachineConfig) -> bool:
    """Whether slot content must take the step path (never in a block).

    The FI markers switch the hook a block reads once, and the exit
    hook and self-jumps end the run.
    """
    if d is None:
        return True
    if d.mnemonic == "l.nop":
        return d.imm in (NOP_EXIT, NOP_FI_ON, NOP_FI_OFF)
    return _is_self_jump(d, config)


#: Globals of every generated function: only what generated code raises.
_GLOBALS = {"__builtins__": builtins, "InfiniteLoop": InfiniteLoop,
            "PcOutOfRange": PcOutOfRange, "_Exit": _Exit}


def _generate(name: str, decoded: list[Decoded], lines: list[str],
              result: str) -> CodeType:
    """Code of ``bind(r, m, dmem, core, reports)``, returning ``name``.

    ``name`` runs ``lines``, the code of the instructions ``decoded``,
    and returns ``result``; it reads the hook once if any is ALU-class.
    """
    body = ["h = core.hook"] if any(d.spec.is_alu for d in decoded) else []
    body += lines + [f"return {result}"]
    source = "\n".join(
        ["def bind(r, m, dmem, core, reports):", f"    def {name}():"]
        + [f"        {line}" for line in body] + [f"    return {name}"])
    module = compile(source, f"<iss {name}>", "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


class _Image:
    """Generated code of one instruction memory under one machine config.

    It holds code objects only, no CPU state, so every CPU built on the
    same program and config shares it (see :func:`_image`).
    """

    def __init__(self, words: tuple[int, ...], config: MachineConfig):
        self.words = words
        self.config = config
        self._decoded: dict[int, Decoded | None] = {}
        self._blocks: dict[int, tuple[CodeType | None, int]] = {}
        self._slots: dict[int, CodeType] = {}

    def decoded(self, index: int) -> Decoded | None:
        """Slot ``index`` decoded, or None if its word is illegal."""
        if index not in self._decoded:
            try:
                self._decoded[index] = decode(self.words[index])
            except EncodingError:
                self._decoded[index] = None
        return self._decoded[index]

    def slot(self, index: int) -> CodeType:
        """Code of the one-instruction function of slot ``index``."""
        code = self._slots.get(index)
        if code is None:
            address = self.config.imem_base + 4 * index
            d = self.decoded(index)
            if d is None:
                raise IllegalInstruction(f"at {address:#x}")
            lines = _emit(d, index, 0, self.config, "None")
            code = self._slots[index] = _generate(
                f"slot_{address:x}", [d], lines,
                "t" if d.spec.is_branch else "None")
        return code

    def block(self, start: int) -> tuple[CodeType | None, int]:
        """Code and length of the block entered at slot ``start``.

        The first pass finds the block's extent, the second emits it.
        The code is None where the slot itself takes the step path.
        """
        found = self._blocks.get(start)
        if found is not None:
            return found
        config = self.config
        size = len(self.words)
        end, branch = start, False
        while end < size:
            d = self.decoded(end)
            if _runs_alone(d, config):
                break
            if d.spec.is_branch:
                slot = self.decoded(end + 1) if end + 1 < size else None
                branch = not (_runs_alone(slot, config)
                              or slot.spec.is_branch)
                end += 2 * branch
                break
            end += 1
        n = end - start
        code = None
        if n:
            decoded = [self.decoded(index) for index in range(start, end)]
            lines: list[str] = []
            for k, d in enumerate(decoded):
                lines += _emit(d, start + k, k, config, str(end))
            address = config.imem_base + 4 * start
            code = _generate(f"block_{address:x}", decoded, lines,
                             "t" if branch else str(end))
        found = self._blocks[start] = (code, n)
        return found


#: Process-wide, so the CPUs a campaign builds per unit share generated
#: code; an image is a pure function of its key, so sharing it changes
#: no result.
_IMAGES: dict[tuple, _Image] = {}

#: Block entry of a slot that takes the step path.
_STEP: tuple[None, int] = (None, 0)


def _image(words: tuple[int, ...], config: MachineConfig) -> _Image:
    """The shared :class:`_Image` of an instruction memory and config."""
    key = (words, config.with_max_cycles(0))
    image = _IMAGES.pop(key, None)
    if image is None:
        image = _Image(words, config)
        if len(_IMAGES) >= _IMAGE_CACHE_SIZE:
            del _IMAGES[next(iter(_IMAGES))]
    _IMAGES[key] = image
    return image


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
            (slower: every instruction takes the step path; used for
            benchmark characterization, Table 1).
        trace_hook: ``hook(address, decoded)`` called before every
            instruction executes (every instruction takes the step
            path).
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
        self._image = _image(tuple(self._load_program()), self.config)
        size = len(self._image.words)
        # Slot functions and blocks are bound on first entry (see
        # _run_loop); a block entry is (function, length), length 0
        # where the slot takes the step path.
        self._code: list[Callable[[], int | None] | None] = [None] * size
        self._blocks: list[tuple[Callable[[], int] | None, int] | None] = \
            [None] * size
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
    # Program loading and binding generated code
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

    def _bind(self, code: CodeType) -> Callable[[], int | None]:
        """Bind generated code to this CPU's state."""
        return FunctionType(code, _GLOBALS)(
            self.regs, self.dmem._bytes, self.dmem, self._core, self.reports)

    def _bind_slot(self, index: int) -> Callable[[], int | None]:
        op = self._code[index] = self._bind(self._image.slot(index))
        return op

    def _bind_block(self, index: int) -> tuple[Callable[[], int] | None, int]:
        code, n = self._image.block(index)
        block = self._blocks[index] = (self._bind(code), n) if n else _STEP
        return block

    def reset(self) -> None:
        """Restore architectural state for a fresh run.

        Restores from the construction-time snapshot; the code bound so
        far stays bound, so a rerun binds only code it had not reached
        before.  All state containers are mutated in place -- the bound
        functions hold references to ``regs``, ``reports``, the data
        memory's bytearray and the run state ``_core``, so rebinding any
        of them would silently disconnect the code from the
        architectural state.
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
        imem_base = self.config.imem_base
        code = self._code
        core = self._core
        trace = self.trace_hook
        profile = self.profile
        size = len(code)
        # Under a profile or a trace hook every slot steps.
        blocks = [_STEP] * size if profile or trace is not None \
            else self._blocks
        pc_index = (entry - imem_base) // 4
        cycles = start = self.cycles
        # The FI window only opens and closes on the step path, so the
        # kernel cycles are counted per window rather than per block.
        kernel_cycles = self.kernel_cycles
        opened = cycles
        stepped = 0
        try:
            while True:
                if 0 <= pc_index < size:
                    block, n = blocks[pc_index] or \
                        self._bind_block(pc_index)
                    if n and cycles + n <= budget:
                        try:
                            pc_index = block()
                        except SimulationFault:
                            cycles += core.retired
                            raise
                        cycles += n
                        continue
                # The step path: one instruction, with its delay slot
                # if it branches.
                pending = None
                while True:
                    if cycles >= budget:
                        raise InfiniteLoop(
                            f"cycle budget of {budget} exhausted")
                    if not 0 <= pc_index < size:
                        raise PcOutOfRange(
                            f"pc {imem_base + 4 * pc_index:#x}")
                    op = code[pc_index] or self._bind_slot(pc_index)
                    if trace is not None or profile:
                        decoded = self._image.decoded(pc_index)
                        if trace is not None:
                            trace(imem_base + 4 * pc_index, decoded)
                        if profile:
                            name = decoded.spec.timing_class.value
                            counts = self._class_counts
                            counts[name] = counts.get(name, 0) + 1
                    window = core.fi_window
                    target = op()
                    if core.fi_window != window:
                        # FI_ON's own cycle is in the window, FI_OFF's
                        # is not.
                        if window:
                            kernel_cycles += cycles - opened
                        else:
                            opened = cycles
                    cycles += 1
                    stepped += 1
                    if pending is not None:
                        if target is not None:
                            raise IllegalInstruction("branch in delay slot")
                        pc_index = pending
                        break
                    pc_index += 1
                    if target is None:
                        break
                    pending = target
        finally:
            if core.fi_window:
                kernel_cycles += cycles - opened
            self.cycles = cycles
            self.kernel_cycles = kernel_cycles
            obs.counter("sim.cycles", cycles - start)
            obs.counter("sim.cycles.stepped", stepped)
