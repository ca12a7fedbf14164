"""Benchmark kernel abstraction.

A *kernel* is a self-contained assembly program plus everything the
Monte-Carlo harness needs to judge a faulty run: the location of its
outputs in data memory, the fault-free golden outputs (computed by an
exact Python reference of the same integer algorithm), and the
benchmark-specific output-quality metric from the paper's Table 1.

Kernels bracket their hot loop with the ``l.nop`` FI-window markers so
fault injection covers only the kernel part of the program, as in the
paper (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.sim.machine import DATA_BASE, NOP_FI_OFF, NOP_FI_ON


def source_header() -> str:
    """Common assembly prologue constants shared by all kernels."""
    return (
        f".equ DATA, {DATA_BASE:#x}\n"
        f".equ FI_ON, {NOP_FI_ON:#x}\n"
        f".equ FI_OFF, {NOP_FI_OFF:#x}\n"
    )


def words_directive(values: list[int], per_line: int = 8) -> str:
    """Render a list of ints as ``.word`` directives."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append("    .word " + ", ".join(
            str(v & 0xFFFFFFFF) for v in chunk))
    return "\n".join(lines)


@dataclass
class KernelInstance:
    """One concrete, assembled benchmark instance.

    Attributes:
        name: benchmark name (e.g. ``"median"``).
        program: assembled program image.
        entry: entry symbol.
        output_symbol: data-memory symbol where outputs live.
        output_count: number of 32-bit output words.
        golden: fault-free output words.
        metric_name: name of the benchmark's quality metric
            (paper Table 1 row "output error").
        error_value: metric in its native unit (e.g. MSE) from outputs.
        relative_error: metric normalized to [0, 1] from outputs.
        params: the generation parameters (size, seed, ...).
    """

    name: str
    program: Program
    entry: str
    output_symbol: str
    output_count: int
    golden: list[int]
    metric_name: str
    error_value: Callable[[list[int], list[int]], float]
    relative_error: Callable[[list[int], list[int]], float]
    params: dict = field(default_factory=dict)
    #: Fault-free runs keyed by machine config (see
    #: :func:`repro.mc.runner.golden_run`).
    _golden: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def output_address(self) -> int:
        return self.program.symbol(self.output_symbol)

    def is_correct(self, outputs: list[int]) -> bool:
        """Exact output match against the golden run."""
        return outputs == self.golden


def assemble_kernel(name: str, source: str, entry: str,
                    output_symbol: str, output_count: int,
                    golden: list[int], metric_name: str,
                    error_value, relative_error,
                    params: dict) -> KernelInstance:
    """Assemble kernel source and wrap it into a :class:`KernelInstance`."""
    program = assemble(source)
    instance = KernelInstance(
        name=name,
        program=program,
        entry=entry,
        output_symbol=output_symbol,
        output_count=output_count,
        golden=golden,
        metric_name=metric_name,
        error_value=error_value,
        relative_error=relative_error,
        params=params,
    )
    # Fail fast if the program forgot its markers or entry point.
    program.symbol(entry)
    program.symbol(output_symbol)
    return instance
