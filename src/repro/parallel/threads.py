"""Zero-IPC block-axis sharding for native engines: threads, not forks.

The native C kernel is a ``ctypes`` call, which **releases the GIL**
for its whole run, so a plain thread pool can shard the block axis of
a propagate into column ranges of the *same* workspace: zero pipes,
zero pickling, zero shared-memory plumbing, and worker "spawn" is
just a thread create.  (The numpy engines hold the GIL and always run
serially; sharding them across processes measured slower than serial,
so no such path exists.)

Design target is free-threaded CPython (PEP 703): there, the Python
slivers around the kernel call stop serializing too and numpy engines
become shardable the same way.  On a GIL build, everything outside the
kernel call serializes -- which is fine, because the kernel *is* the
propagate (the fused stimulus/extract kernels removed the numpy walls
around it).  ``repro engines`` reports which build is running via
``Py_GIL_DISABLED``.

Fault site: every shard dispatch passes through ``threads.shard``.  A
fired fault (or a real exception escaping a worker) does not abort the
call -- the lost shard **heals serially in the dispatching thread**,
which is byte-identical because column writes are idempotent and
disjoint.  A failure that persists through the serial retry
propagates.
"""

from __future__ import annotations

import logging
import os
import sysconfig
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro import faults, obs

_LOG = logging.getLogger("repro.parallel")


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous near-equal (lo, hi) ranges."""
    base, extra = divmod(n, shards)
    ranges = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def free_threaded() -> bool:
    """True on a free-threaded (PEP 703, ``Py_GIL_DISABLED``) build."""
    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


class ThreadShardPool:
    """Persistent thread pool sharding native propagates by column range.

    ``shard_columns`` answers None when sharding cannot help, and
    callers then run serially.  There is no registry, nothing to push
    and nothing to inherit: workers see the caller's objects directly.

    A one-worker pool is legal and degenerate: ``shard_columns``
    always answers None, so every propagate runs serially on the
    dispatching thread -- "thread mode, one lane" without a special
    case, which is also what keeps the 1-core bench row at parity
    with serial.
    """

    def __init__(self, workers: int, min_shard_vectors: int = 64):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.min_shard_vectors = int(min_shard_vectors)
        #: Threads do not survive :func:`os.fork`; the module-level
        #: accessor uses this to rebuild a fresh pool in forked
        #: campaign/DTA workers instead of submitting into a dead
        #: executor.
        self.owner_pid = os.getpid()
        #: Executor creations (1 after first use unless shut down and
        #: revived) -- benchmarks assert warm calls never respawn.
        self.spawn_count = 0
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    # -- sharding ---------------------------------------------------------

    def shard_columns(self, n_vectors: int) \
            -> list[tuple[int, int]] | None:
        """Column ranges for one call, or None to run serially.

        Sharding needs at least two workers and enough columns that
        every worker gets a meaningful slice.  Deterministic in
        (n_vectors, workers): a given width always produces the same
        ranges.
        """
        if self.workers < 2 \
                or n_vectors < self.workers * self.min_shard_vectors:
            return None
        return shard_ranges(n_vectors, self.workers)

    # -- execution --------------------------------------------------------

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard")
                self.spawn_count += 1
            return self._executor

    @staticmethod
    def _run_shard(fn, lo: int, hi: int,
                   parent: str | None) -> BaseException | None:
        """One worker-thread shard; returns (not raises) its failure.

        The span parent is adopted from the dispatching thread so
        ``threads.shard`` spans hang off the propagate call tree
        instead of floating free (worker threads start with an empty
        span stack).
        """
        with obs.adopted_parent(parent):
            try:
                with obs.span("threads.shard", lo=lo, hi=hi):
                    fn(lo, hi)
            except BaseException as error:  # healed by the dispatcher
                return error
        return None

    def run(self, fn, shards: list[tuple[int, int]]) -> None:
        """Run ``fn(lo, hi)`` for every shard across the pool.

        Shards that fail -- an injected ``threads.shard`` fault at
        dispatch or a real exception escaping the worker -- are healed
        by re-running ``fn`` serially in the calling thread.  Column
        writes are idempotent and disjoint per shard, so a healed call
        is byte-identical to an unfaulted one.  The fault is counted
        per shard in the dispatching thread (deterministic hit order;
        worker interleaving never changes which shard trips).
        """
        executor = self._ensure()
        parent = obs.current_span_id()
        pending: list[tuple[int, int, Future]] = []
        healing: list[tuple[int, int, str]] = []
        for lo, hi in shards:
            mode = faults.fire("threads.shard")
            if mode is not None:
                healing.append((lo, hi, f"injected {mode} fault"))
                continue
            pending.append((lo, hi, executor.submit(
                self._run_shard, fn, lo, hi, parent)))
        for lo, hi, future in pending:
            error = future.result()
            if error is not None:
                healing.append((lo, hi, repr(error)))
        for lo, hi, reason in healing:
            _LOG.warning(
                "thread shard [%d:%d) lost (%s); healing serially in "
                "the dispatching thread", lo, hi, reason)
            obs.counter("threads.heal")
            with obs.span("threads.shard", lo=lo, hi=hi, healed=True):
                fn(lo, hi)

    # -- lifecycle --------------------------------------------------------

    def shutdown(self) -> None:
        """Join the worker threads (idempotent; pool stays revivable)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
