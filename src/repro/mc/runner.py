"""Monte-Carlo execution of fault-injected benchmark runs.

The runner owns the reproducibility story: a master seed derives the
injector RNG stream(s), and a cycle budget tied to the fault-free
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

Two execution schemes:

* **Serial** (``n_jobs=None``, the historical default): one injector
  serves all trials of a point and its random stream continues across
  trials.  The CPU is constructed at most once per point and restored
  between trials via :meth:`Cpu.reset` (the instruction closures are
  compiled exactly once per point) -- results are bit-identical to the
  per-trial-CPU scheme because ``reset`` restores the exact
  construction-time architectural state.
* **Per-trial streams** (``n_jobs`` set): every trial gets an
  independent child seed spawned from the master
  :class:`numpy.random.SeedSequence` and builds its own injector, so
  trial outcomes do not depend on execution order.  This is what makes
  process-parallel execution (``n_jobs >= 2``) bit-identical to the
  same scheme run serially (``n_jobs=1``).

Parallel execution (``n_jobs >= 2``) forks a throwaway worker pool per
call: the kernel, injector factory and machine config ride fork
inheritance (they hold compiled closures and cannot be pickled), trials
are dealt round-robin into ``n_jobs`` chunks, and the results are put
back into trial order.  Where fork is unavailable the same per-trial
scheme runs in-process.  Every path is bit-identical at any worker
count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs, parallel
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
            constructing -- and re-compiling -- a fresh CPU.  Results
            are bit-identical either way; the reused CPU must have been
            built with the same machine ``config`` (a mismatch raises
            ``ValueError`` rather than silently running with the old
            memory map).
    """
    base_config = config or MachineConfig()
    trial = _speculate(kernel, injector, base_config)
    if trial is None:
        budget = trial_budget(kernel, base_config, budget_factor)
        trial = _run_live(kernel, injector, base_config, budget, cpu)
    return trial


def trial_seeds(seed: int, n_trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial child seeds of one master seed."""
    return np.random.SeedSequence(seed).spawn(n_trials)


def _run_trials(kernel: KernelInstance,
                injectors: Iterable[FaultInjector],
                config: MachineConfig | None) -> Iterator[TrialResult]:
    """One trial per injector, sharing a CPU built on the first miss.

    The CPU is compiled once and reset between the trials that run
    live; a point whose every trial is speculated builds none.
    """
    base_config = config or MachineConfig()
    budget = trial_budget(kernel, base_config)
    cpu: Cpu | None = None
    for injector in injectors:
        trial = _speculate(kernel, injector, base_config)
        if trial is None:
            if cpu is None:
                cpu = Cpu(kernel.program,
                          config=base_config.with_max_cycles(budget),
                          injector=injector)
            trial = _run_live(kernel, injector, base_config, budget, cpu)
        yield trial


def _run_seeded_trials(kernel: KernelInstance,
                       injector_factory: InjectorFactory,
                       seeds: list[np.random.SeedSequence],
                       config: MachineConfig | None,
                       injector_args: tuple = ()) -> list[TrialResult]:
    """Run trials with independent per-trial injectors."""
    injectors = (injector_factory(*injector_args,
                                  np.random.default_rng(child))
                 for child in seeds)
    return list(_run_trials(kernel, injectors, config))


# Fork-worker state, set inside each worker process by the pool
# initializer.  Passing the state through ``initargs`` (inherited via
# fork, never pickled) keeps concurrent ``run_point`` calls from
# different threads isolated: each pool's workers see exactly the
# state that pool was created with.
_WORKER_STATE: dict | None = None


def _init_worker(state: dict) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_trial_chunk(chunk: list[int]) -> list[TrialResult]:
    """Pool worker: run the trials at the given indices."""
    state = _WORKER_STATE
    assert state is not None, "worker state missing (pool without fork?)"
    seeds = [state["seeds"][index] for index in chunk]
    results = _run_seeded_trials(state["kernel"], state["factory"], seeds,
                                 state["config"],
                                 state.get("injector_args", ()))
    # Pool workers never run the atexit flush: ship the trial counters.
    obs.flush()
    return results


def run_point(kernel: KernelInstance, injector_factory: InjectorFactory,
              n_trials: int, seed: int = 0, label: str = "",
              config: MachineConfig | None = None,
              n_jobs: int | None = None,
              injector_args: tuple = ()) -> McPoint:
    """Run ``n_trials`` Monte-Carlo trials of one configuration.

    Args:
        kernel: the benchmark instance.
        injector_factory: builds a fresh injector from a per-trial RNG
            (called as ``injector_factory(*injector_args, rng)``).
        n_trials: number of trials (paper: at least 100 per point).
        seed: master seed; trials use independent child streams.
        label: point label for reports.
        config: machine configuration override.
        n_jobs: ``None`` (default) keeps the historical serial scheme:
            one injector whose stream spans all trials.  An integer
            switches to per-trial child seeds -- ``n_jobs=1`` runs them
            in-process, ``n_jobs>=2`` fans trials out over worker
            processes; all orderings produce bit-identical points.
        injector_args: leading arguments for ``injector_factory``.
            Sweeps pass the per-point condition (e.g. the frequency)
            here instead of closing over it, so the *same* factory
            object serves every point of a sweep.

    Returns:
        The aggregated :class:`McPoint`.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if n_jobs is not None and n_jobs <= 0:
        raise ValueError("n_jobs must be positive (or None for serial)")
    if os.environ.get("REPRO_FORBID_MC"):
        # Verification hook: a warm-cache rerun must be served entirely
        # from the result store, so reaching the simulator is a bug.
        raise RuntimeError(
            "Monte-Carlo simulation attempted while REPRO_FORBID_MC is "
            "set -- expected a result-store hit")
    point = McPoint(label=label or kernel.name)
    # Resolve the golden run up front: workers then inherit the cached
    # run and its trace instead of each re-deriving them.
    golden_cycles(kernel, config or MachineConfig())

    if n_jobs is None:
        master = np.random.default_rng(seed)
        # One injector serves all trials of the point: construction
        # (CDF grids, noise blocks) is much more expensive than a
        # trial, and the CPU calls begin_run() before every run, which
        # resets the per-run counters while the random stream continues
        # across trials.  The CPU itself is also constructed once --
        # the compiled instruction closures are reused and reset()
        # restores the architectural state between trials -- and only
        # if some trial cannot be speculated.
        injector = injector_factory(*injector_args, master)
        for trial in _run_trials(kernel,
                                 itertools.repeat(injector, n_trials),
                                 config):
            point.add(trial)
        return point

    seeds = trial_seeds(seed, n_trials)
    if n_jobs == 1 or n_trials == 1 or not parallel.fork_available():
        for trial in _run_seeded_trials(kernel, injector_factory, seeds,
                                        config, injector_args):
            point.add(trial)
        return point

    ordered = _run_forked_trials(kernel, injector_factory, seeds, config,
                                 injector_args, n_jobs)
    for trial in ordered:
        assert trial is not None
        point.add(trial)
    return point


def _reassemble(chunks: list[list[int]], per_chunk: list,
                n_trials: int) -> list[TrialResult | None]:
    """Put chunked trial results back into trial order.

    This is what makes the parallel path bit-identical to serial:
    the point only ever sees trials in index order, no matter which
    worker ran them or when it finished.
    """
    ordered: list[TrialResult | None] = [None] * n_trials
    for chunk, results in zip(chunks, per_chunk):
        for index, trial in zip(chunk, results):
            ordered[index] = trial
    return ordered


def _run_forked_trials(kernel, injector_factory, seeds, config,
                       injector_args, n_jobs) -> list[TrialResult | None]:
    """Fan trial chunks out over a throwaway fork pool of ``n_jobs``."""
    n_trials = len(seeds)
    chunks = [list(range(start, n_trials, n_jobs))
              for start in range(n_jobs)]
    state = {"kernel": kernel, "factory": injector_factory,
             "seeds": seeds, "config": config,
             "injector_args": injector_args}
    context = multiprocessing.get_context("fork")
    with context.Pool(processes=n_jobs, initializer=_init_worker,
                      initargs=(state,)) as pool:
        per_chunk = pool.map(_run_trial_chunk, chunks)
    return _reassemble(chunks, per_chunk, n_trials)

