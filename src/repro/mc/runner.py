"""Monte-Carlo execution of fault-injected benchmark runs.

The runner owns the reproducibility story: a master seed derives the
injector RNG stream, and a cycle budget tied to the fault-free
execution length of the kernel (the infinite-loop detector of the
paper's ISS) bounds every trial.

Golden-run speculation: one fault-free run per (kernel, machine
config) -- :func:`golden_run`, cached on the kernel -- records the
judged :class:`TrialResult` and the FI-window ALU mnemonic sequence.
Before a trial enters the ISS, the injector is asked to *prove* from
that sequence that every fault mask the live run would draw is 0
(:meth:`FaultInjector.speculate`).  The proof consumes the injector's
random streams exactly as the live run would, so a proven trial *is*
the golden result and the streams continue bit-identically; an
unproven one rolls the injector back and runs live.  The CPU is built
lazily, on the first trial that runs live, so a fully fault-free point
builds none.

One execution scheme: one injector serves all trials of a point and
its random stream continues across trials.  The CPU is constructed at
most once per point and restored between trials via :meth:`Cpu.reset`
(each instruction slot is compiled on its first fetch in the point and
kept for every later trial) -- results are bit-identical to a fresh CPU
per trial because ``reset`` restores the exact construction-time
architectural state.  Process parallelism lives one level up: campaigns
shard whole points over forked workers (:mod:`repro.campaign`), so a
point is the same number set however many processes compute its
figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.bench.kernel import KernelInstance
from repro.fi.base import FaultInjector, NullInjector
from repro.isa.instructions import ALU_MNEMONICS
from repro.mc.results import McPoint, TrialResult
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig

#: Multiplier on the fault-free cycle count used as the cycle budget;
#: a run exceeding it is aborted as an infinite loop.
BUDGET_FACTOR = 4

InjectorFactory = Callable[[np.random.Generator], FaultInjector]

_MNEMONIC_IDS = {mnemonic: index
                 for index, mnemonic in enumerate(ALU_MNEMONICS)}


@dataclass(frozen=True, eq=False)
class GoldenRun:
    """The fault-free run of a kernel under one machine config.

    Attributes:
        cycles: total executed cycles.
        mnemonic_ids: FI-window ALU ops in execution order, as indices into
            :data:`~repro.isa.instructions.ALU_MNEMONICS`.
        result: the judged run -- what every trial with no fault is.
    """

    cycles: int
    mnemonic_ids: np.ndarray
    result: TrialResult


class _TraceRecorder(NullInjector):
    """Fault-free injector that records the FI-window ALU mnemonics."""

    def __init__(self) -> None:
        super().__init__()
        self.mnemonics: list[str] = []

    def fault_mask(self, mnemonic: str) -> int:
        self.mnemonics.append(mnemonic)
        return 0


def golden_run(kernel: KernelInstance,
               config: MachineConfig | None = None) -> GoldenRun:
    """Fault-free run of a kernel, cached on it per machine config."""
    key = (config or MachineConfig()).with_max_cycles(0)
    golden = kernel._golden.get(key)
    if golden is None:
        recorder = _TraceRecorder()
        cpu = Cpu(kernel.program, config=config, injector=recorder)
        result = cpu.run(kernel.entry)
        if not result.finished:
            raise RuntimeError(
                f"kernel {kernel.name} does not finish fault-free "
                f"({result.abort_reason})")
        trial = _judge(cpu, kernel, result)
        if not trial.correct:
            raise RuntimeError(
                f"kernel {kernel.name} fault-free outputs do not match "
                f"the golden reference")
        ids = np.array([_MNEMONIC_IDS[m] for m in recorder.mnemonics],
                       dtype=np.uint8)
        golden = GoldenRun(cycles=result.cycles, mnemonic_ids=ids,
                           result=trial)
        kernel._golden[key] = golden
    return golden


def golden_cycles(kernel: KernelInstance,
                  config: MachineConfig | None = None) -> int:
    """Fault-free cycle count of a kernel (cached per machine config)."""
    return golden_run(kernel, config).cycles


def trial_budget(kernel: KernelInstance,
                 config: MachineConfig | None = None,
                 budget_factor: int = BUDGET_FACTOR) -> int:
    """Cycle budget applied to every fault-injected trial."""
    return budget_factor * golden_cycles(kernel, config) + 1000


def _judge(cpu: Cpu, kernel: KernelInstance, result) -> TrialResult:
    """Fold one execution result into a :class:`TrialResult`."""
    finished = result.finished
    correct = False
    error_value = 0.0
    relative_error = 0.0
    if finished:
        outputs = cpu.dmem.read_words(kernel.output_address,
                                      kernel.output_count)
        correct = kernel.is_correct(outputs)
        error_value = kernel.error_value(outputs, kernel.golden)
        relative_error = kernel.relative_error(outputs, kernel.golden)
    return TrialResult(
        finished=finished,
        correct=correct,
        error_value=error_value,
        relative_error=relative_error,
        fault_count=result.fault_count,
        kernel_cycles=result.kernel_cycles,
        alu_cycles=result.alu_cycles,
        cycles=result.cycles,
        abort_reason=result.abort_reason,
    )


def _speculate(kernel: KernelInstance, injector: FaultInjector,
               config: MachineConfig) -> TrialResult | None:
    """The golden result if the injector proves the trial fault-free."""
    golden = golden_run(kernel, config)
    if injector.speculate(golden.mnemonic_ids):
        obs.counter("mc.trials.speculated")
        return golden.result
    obs.counter("mc.trials.live")
    return None


def _run_live(kernel: KernelInstance, injector: FaultInjector,
              config: MachineConfig, budget: int,
              cpu: Cpu | None) -> TrialResult:
    """Execute one trial in the ISS, on a fresh or a reset CPU."""
    if cpu is None:
        cpu = Cpu(kernel.program, config=config.with_max_cycles(budget),
                  injector=injector)
    else:
        if cpu.config.with_max_cycles(budget) != \
                config.with_max_cycles(budget):
            raise ValueError(
                "reused cpu was built with a different MachineConfig "
                f"({cpu.config}) than requested ({config})")
        cpu.reset()
        cpu.injector = injector
    result = cpu.run(kernel.entry, max_cycles=budget)
    return _judge(cpu, kernel, result)


def run_trial(kernel: KernelInstance, injector: FaultInjector,
              config: MachineConfig | None = None,
              budget_factor: int = BUDGET_FACTOR,
              cpu: Cpu | None = None) -> TrialResult:
    """Execute one fault-injected run and judge its outputs.

    The trial is first offered to the injector's golden-run
    speculation; only an unproven trial reaches the ISS.

    Args:
        kernel: the benchmark instance.
        injector: fault injector for this trial.
        config: machine configuration override.
        budget_factor: cycle-budget multiplier on the golden run.
        cpu: optional CPU to reuse: it is reset (registers, data
            memory, counters restored from the construction-time
            snapshot) and re-armed with ``injector`` instead of
            constructing a fresh CPU and compiling its code again.
            Results are bit-identical either way; the reused CPU must
            have been built with the same machine ``config`` (a
            mismatch raises ``ValueError`` rather than silently running
            with the old memory map).
    """
    base_config = config or MachineConfig()
    trial = _speculate(kernel, injector, base_config)
    if trial is None:
        budget = trial_budget(kernel, base_config, budget_factor)
        trial = _run_live(kernel, injector, base_config, budget, cpu)
    return trial


def _run_trials(kernel: KernelInstance, injector: FaultInjector,
                n_trials: int,
                config: MachineConfig | None) -> Iterator[TrialResult]:
    """Run ``n_trials`` trials on one injector and a lazily built CPU.

    The CPU calls ``begin_run()`` before every run, which resets the
    injector's per-run counters while its random stream continues
    across trials.  The CPU is built once and reset between the trials
    that run live, and it keeps the slots it compiled; a point whose
    every trial is speculated builds none.
    """
    base_config = config or MachineConfig()
    budget = trial_budget(kernel, base_config)
    cpu: Cpu | None = None
    for _ in range(n_trials):
        trial = _speculate(kernel, injector, base_config)
        if trial is None:
            if cpu is None:
                cpu = Cpu(kernel.program,
                          config=base_config.with_max_cycles(budget),
                          injector=injector)
            trial = _run_live(kernel, injector, base_config, budget, cpu)
        yield trial


def run_point(kernel: KernelInstance, injector_factory: InjectorFactory,
              n_trials: int, seed: int = 0, label: str = "",
              config: MachineConfig | None = None,
              injector_args: tuple = ()) -> McPoint:
    """Run ``n_trials`` Monte-Carlo trials of one configuration.

    Args:
        kernel: the benchmark instance.
        injector_factory: builds the point's injector from the master
            RNG (called as ``injector_factory(*injector_args, rng)``).
        n_trials: number of trials (paper: at least 100 per point).
        seed: master seed of the point's one continuing random stream.
        label: point label for reports.
        config: machine configuration override.
        injector_args: leading arguments for ``injector_factory``.
            Sweeps pass the per-point condition (e.g. the frequency)
            here instead of closing over it, so the *same* factory
            object serves every point of a sweep.

    Returns:
        The aggregated :class:`McPoint`.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if os.environ.get("REPRO_FORBID_MC"):
        # Verification hook: a warm-cache rerun must be served entirely
        # from the result store, so reaching the simulator is a bug.
        raise RuntimeError(
            "Monte-Carlo simulation attempted while REPRO_FORBID_MC is "
            "set -- expected a result-store hit")
    point = McPoint(label=label or kernel.name)
    # One injector serves all trials of the point: construction (CDF
    # grids, noise blocks) is much more expensive than a trial.
    injector = injector_factory(*injector_args, np.random.default_rng(seed))
    for trial in _run_trials(kernel, injector, n_trials, config):
        point.add(trial)
    return point
