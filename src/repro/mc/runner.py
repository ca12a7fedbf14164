"""Monte-Carlo execution of fault-injected benchmark runs.

The runner owns the reproducibility story: a master seed derives the
injector RNG stream, and a cycle budget tied to the fault-free
execution length of the kernel (the infinite-loop detector of the
paper's ISS) bounds every trial.

Fault schedules: one fault-free run per (kernel, machine config) --
:func:`golden_run`, cached on the kernel -- records the judged
:class:`TrialResult` and the FI-window ALU mnemonic sequence.  Before a
trial enters the ISS the injector is asked for its first fault over
that sequence (:meth:`FaultInjector.next_fault`), which consumes its
random streams exactly as the live run would up to that fault:

* none before the end -- the trial *is* the golden result and runs no
  ISS (``mc.trials.speculated``);
* a fault -- the trial runs in the ISS under a counting hook that
  applies each scheduled mask at its ALU op, draws the next
  :data:`PER_OP_AFTER_FAULT` ops' masks per-op, and only then asks the
  model for the next fault (``mc.trials.scheduled``).  The hook
  publishes the golden sequence and the next op it must see on the
  CPU's run state (:attr:`Cpu.core`), so the ISS runs every block whose
  ALU ops are golden and come before that op without calling the hook
  at all, and only counts them (``sim.alu.free``).  Where the live run
  leaves the golden sequence (another mnemonic, or more ALU ops than
  golden) the hook restores the injector to the start of its current
  search, replays the hit-free golden ops up to that point, and goes on
  per-op (``mc.trials.diverged``); a run that stops early gets the same
  repair, so the streams always continue as a per-op run leaves them;
* None (the model cannot schedule) -- the trial runs per-op from the
  start (``mc.trials.live``).

The CPU is built lazily, on the first trial that runs in the ISS, so a
fully fault-free point builds none.

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
from functools import cached_property
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

#: ALU ops after each fault whose masks a fault-schedule hook draws
#: per-op before it asks the model to scan for the next fault.  A model-C
#: scan costs about as much as this many per-op draws, so wherever the
#: next fault falls the hook pays at most about twice the cheaper of
#: the two; faults can come every few ops (model C under ``stale``
#: semantics at 730 MHz faults every ~13), where a scan per fault would
#: cost more than the per-op draws it replaces.
PER_OP_AFTER_FAULT = 32

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

    @cached_property
    def mnemonics(self) -> list[str]:
        """:attr:`mnemonic_ids` as mnemonics (built for the first schedule)."""
        return [ALU_MNEMONICS[index] for index in self.mnemonic_ids.tolist()]

    @cached_property
    def id_bytes(self) -> bytes:
        """:attr:`mnemonic_ids` as the bytes a schedule publishes."""
        return self.mnemonic_ids.tobytes()


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


def _schedule(injector: FaultInjector, golden: GoldenRun, saved: object,
              fault: tuple[int, int], core
              ) -> tuple[Callable[[str, int], int], Callable[[], bool]]:
    """The FI hook that runs a trial on its fault schedule, and its settle.

    After each fault the hook draws the next :data:`PER_OP_AFTER_FAULT`
    golden ops' masks per-op, where the streams stay exact at every op;
    past that window it asks the model for the next fault.  ``pos`` is
    where that search began and ``saved`` the injector's random state
    there: the last point at which the streams are known exactly.
    Where the run leaves the golden sequence outside a window,
    ``rewind`` restores them and replays the golden ops since (none
    faults: the search found its fault no earlier), and the hook goes
    on per-op.  ``settle()``, called after the run, repairs a run that
    stopped before the scanned frontier the same way and returns
    whether the run diverged.

    ``at`` is the next op the hook must see: the scheduled fault, or
    the next per-op draw.  The hook keeps it published as ``core.stop``
    (-1 once diverged: every op), next to the golden ids
    ``core.golden``; ``core`` is the CPU's run state
    (:attr:`repro.sim.cpu.Cpu.core`), which counts the golden ops
    before ``at`` itself, as the hook's first branch would.
    """
    ids = golden.mnemonic_ids
    names = golden.mnemonics
    n = len(ids)
    on_alu, fault_mask = injector.on_alu, injector.fault_mask
    pos = 0
    at, mask = fault
    until = 0  # ops before this one are drawn per-op
    diverged = False
    core.golden, core.stop = golden.id_bytes, at

    def rewind(k: int) -> None:
        """Put the streams where ``k`` per-op golden calls leave them."""
        if k >= until and k != (at + 1 if at < n else n):
            injector.restore(saved)
            for mnemonic in names[pos:k]:
                fault_mask(mnemonic)

    def hook(mnemonic: str, result: int) -> int:
        nonlocal pos, saved, at, mask, until, diverged
        i = injector.alu_cycles
        if i != at and mnemonic == names[i]:
            injector.alu_cycles = i + 1
            injector._last_latched = result
            return result
        if not diverged:
            if i < n and mnemonic == names[i]:
                if i < until:
                    mask = fault_mask(mnemonic)
                if mask:
                    result = injector.corrupt(mask, result)
                    until = i + 1 + PER_OP_AFTER_FAULT
                injector.alu_cycles = i + 1
                injector._last_latched = result
                if i + 1 < until:
                    at = i + 1
                else:
                    pos, saved = i + 1, injector.snapshot()
                    at, mask = injector.next_fault(ids, pos)
                core.stop = at
                return result
            rewind(i)
            diverged = True
            core.stop = -1
        at = i + 1  # keeps the fast path shut: per-op from here on
        return on_alu(mnemonic, result)

    def settle() -> bool:
        if not diverged:
            rewind(injector.alu_cycles)
        return diverged

    return hook, settle


def _run_iss(kernel: KernelInstance, injector: FaultInjector,
             budget: int, cpu: Cpu, golden: GoldenRun, saved: object,
             fault: tuple[int, int] | None) -> TrialResult:
    """Execute one trial in the ISS on a reset CPU.

    ``fault`` is the trial's first scheduled fault, found from the
    random state ``saved``; None runs the trial per-op.
    """
    cpu.reset()
    cpu.injector = injector
    if fault is None:
        result = cpu.run(kernel.entry, max_cycles=budget)
        obs.counter("mc.trials.live")
    else:
        hook, settle = _schedule(injector, golden, saved, fault, cpu.core)
        result = cpu.run(kernel.entry, max_cycles=budget, fi_hook=hook)
        obs.counter("mc.trials.diverged" if settle()
                    else "mc.trials.scheduled")
        obs.counter("mc.alu.scheduled", result.alu_cycles)
    return _judge(cpu, kernel, result)


def _run_trials(kernel: KernelInstance, injector: FaultInjector,
                n_trials: int, config: MachineConfig | None,
                budget: int, cpu: Cpu | None = None
                ) -> Iterator[TrialResult]:
    """Run ``n_trials`` trials on one injector and a lazily built CPU.

    Each trial first asks the injector for its first fault over the
    golden sequence; a trial with none is the golden result.  The CPU
    calls ``begin_run()`` before every run, which resets the injector's
    per-run counters while its random stream continues across trials.
    The CPU is built once (unless passed in) and reset between the
    trials that run in the ISS, and it keeps the slots it compiled; a
    point whose every trial is the golden result builds none.
    """
    base_config = config or MachineConfig()
    golden = golden_run(kernel, base_config)
    ids = golden.mnemonic_ids
    for _ in range(n_trials):
        saved = injector.snapshot()
        fault = injector.next_fault(ids, 0)
        if fault is not None and fault[0] == len(ids):
            obs.counter("mc.trials.speculated")
            yield golden.result
            continue
        if cpu is None:
            cpu = Cpu(kernel.program,
                      config=base_config.with_max_cycles(budget),
                      injector=injector)
        yield _run_iss(kernel, injector, budget, cpu, golden, saved, fault)


def run_trial(kernel: KernelInstance, injector: FaultInjector,
              config: MachineConfig | None = None,
              budget_factor: int = BUDGET_FACTOR,
              cpu: Cpu | None = None) -> TrialResult:
    """Execute one fault-injected run and judge its outputs.

    The trial is first offered to the injector's fault schedule; only
    a trial with a fault before the golden end reaches the ISS.

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
    budget = trial_budget(kernel, config, budget_factor)
    if cpu is not None:
        requested = (config or MachineConfig()).with_max_cycles(budget)
        if cpu.config.with_max_cycles(budget) != requested:
            raise ValueError(
                "reused cpu was built with a different MachineConfig "
                f"({cpu.config}) than requested ({requested})")
    return next(_run_trials(kernel, injector, 1, config, budget, cpu))


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
    budget = trial_budget(kernel, config)
    for trial in _run_trials(kernel, injector, n_trials, config, budget):
        point.add(trial)
    return point
