"""Monte-Carlo execution of fault-injected benchmark runs.

The runner owns the reproducibility story: a master seed derives the
injector RNG stream(s), and a cycle budget tied to the fault-free
execution length of the kernel (the infinite-loop detector of the
paper's ISS) bounds every trial.

Two execution schemes:

* **Serial** (``n_jobs=None``, the historical default): one injector
  serves all trials of a point and its random stream continues across
  trials.  Since the compiled-code rework, the CPU is constructed once
  per point and restored between trials via :meth:`Cpu.reset` (the
  instruction closures are compiled exactly once per point) -- results
  are bit-identical to the per-trial-CPU scheme because ``reset``
  restores the exact construction-time architectural state.
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

import multiprocessing
import os
from typing import Callable

import numpy as np

from repro import parallel
from repro.bench.kernel import KernelInstance
from repro.fi.base import FaultInjector, NullInjector
from repro.mc.results import McPoint, TrialResult
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig

#: Multiplier on the fault-free cycle count used as the cycle budget;
#: a run exceeding it is aborted as an infinite loop.
BUDGET_FACTOR = 4

InjectorFactory = Callable[[np.random.Generator], FaultInjector]


def golden_cycles(kernel: KernelInstance,
                  config: MachineConfig | None = None) -> int:
    """Fault-free cycle count of a kernel (cached on the instance)."""
    if kernel._golden_cycles is None:
        cpu = Cpu(kernel.program, config=config, injector=NullInjector())
        result = cpu.run(kernel.entry)
        if not result.finished:
            raise RuntimeError(
                f"kernel {kernel.name} does not finish fault-free "
                f"({result.abort_reason})")
        outputs = cpu.dmem.read_words(kernel.output_address,
                                      kernel.output_count)
        if not kernel.is_correct(outputs):
            raise RuntimeError(
                f"kernel {kernel.name} fault-free outputs do not match "
                f"the golden reference")
        kernel._golden_cycles = result.cycles
    return kernel._golden_cycles


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


def run_trial(kernel: KernelInstance, injector: FaultInjector,
              config: MachineConfig | None = None,
              budget_factor: int = BUDGET_FACTOR,
              cpu: Cpu | None = None) -> TrialResult:
    """Execute one fault-injected run and judge its outputs.

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
    budget = trial_budget(kernel, base_config, budget_factor)
    if cpu is None:
        cpu = Cpu(kernel.program,
                  config=base_config.with_max_cycles(budget),
                  injector=injector)
    else:
        if cpu.config.with_max_cycles(budget) != \
                base_config.with_max_cycles(budget):
            raise ValueError(
                "reused cpu was built with a different MachineConfig "
                f"({cpu.config}) than requested ({base_config})")
        cpu.reset()
        cpu.injector = injector
    result = cpu.run(kernel.entry, max_cycles=budget)
    return _judge(cpu, kernel, result)


def trial_seeds(seed: int, n_trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial child seeds of one master seed."""
    return np.random.SeedSequence(seed).spawn(n_trials)


def _point_cpu(kernel: KernelInstance,
               config: MachineConfig | None,
               injector: FaultInjector) -> Cpu:
    """Budget-configured CPU, compiled once and reset between trials."""
    base_config = config or MachineConfig()
    budget = trial_budget(kernel, base_config)
    return Cpu(kernel.program, config=base_config.with_max_cycles(budget),
               injector=injector)


def _run_seeded_trials(kernel: KernelInstance,
                       injector_factory: InjectorFactory,
                       seeds: list[np.random.SeedSequence],
                       config: MachineConfig | None,
                       injector_args: tuple = ()) -> list[TrialResult]:
    """Run trials with independent per-trial injectors, reusing one CPU."""
    cpu: Cpu | None = None
    results = []
    for child in seeds:
        injector = injector_factory(*injector_args,
                                    np.random.default_rng(child))
        if cpu is None:
            cpu = _point_cpu(kernel, config, injector)
        results.append(run_trial(kernel, injector, config, cpu=cpu))
    return results


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
    return _run_seeded_trials(state["kernel"], state["factory"], seeds,
                              state["config"],
                              state.get("injector_args", ()))


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
    # cycle count instead of each re-deriving it.
    golden_cycles(kernel, config or MachineConfig())

    if n_jobs is None:
        master = np.random.default_rng(seed)
        # One injector serves all trials of the point: construction
        # (CDF grids, noise blocks) is much more expensive than a
        # trial, and the CPU calls begin_run() before every run, which
        # resets the per-run counters while the random stream continues
        # across trials.  The CPU itself is also constructed once --
        # the compiled instruction closures are reused and reset()
        # restores the architectural state between trials.
        injector = injector_factory(*injector_args, master)
        cpu = _point_cpu(kernel, config, injector)
        for _ in range(n_trials):
            point.add(run_trial(kernel, injector, config, cpu=cpu))
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

