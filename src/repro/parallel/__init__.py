"""Execution substrates: forked children for units, threads for shards.

The paper's pipeline parallelizes at one grain -- independent work
units -- plus, inside one native propagate, the block axis.  Each
grain has exactly one substrate:

* **fork children** -- campaign unit shards (one forked child per
  shard, see :mod:`repro.campaign.orchestrator`; ``repro figN --jobs
  N`` runs through them too) and fabric lease workers.  Unit closures
  capture compiled kernels and injector factories, which cannot be
  pickled; fork inherits them.  :func:`fork_available` is the one probe every
  fork user asks.
* :class:`~repro.parallel.threads.ThreadShardPool` -- persistent
  **threads** sharding native-engine propagates into column ranges of
  the same workspace.  The native kernel is a ctypes call that
  releases the GIL, so threads overlap it with zero pipes and zero
  pickling.  Numpy engines never shard.

The thread pool is configured explicitly (CLI ``--shard-threads``,
benches, tests).  Its accessor is fork-aware: a forked child gets a
*fresh same-width pool* from :func:`get_thread_pool` (threads do not
survive fork, and a campaign or DTA worker should keep thread-sharding
its propagates).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os

from repro.parallel.threads import ThreadShardPool, free_threaded, \
    shard_ranges

__all__ = [
    "ThreadShardPool",
    "configure_thread_pool",
    "fork_available",
    "free_threaded",
    "get_thread_pool",
    "shard_ranges",
    "shutdown_thread_pool",
]

_THREAD_POOL: ThreadShardPool | None = None


def fork_available() -> bool:
    """Whether this platform can fork children (every fork user asks)."""
    return "fork" in multiprocessing.get_all_start_methods() \
        and hasattr(os, "fork")


def configure_thread_pool(workers: int | None,
                          min_shard_vectors: int = 64) \
        -> ThreadShardPool | None:
    """Install (or clear) the process-global thread-shard pool.

    ``workers`` of None/0 clears it.  A 1-worker thread pool is
    installed rather than cleared: it is degenerate (``shard_columns``
    answers None, propagates run serially) but costs nothing, and it
    lets "thread mode, one lane" be expressed without a special case
    -- the 1-core bench row runs through it.  Threads spawn lazily on
    first sharded call.
    """
    global _THREAD_POOL
    shutdown_thread_pool()
    if workers and workers >= 1:
        _THREAD_POOL = ThreadShardPool(
            workers, min_shard_vectors=min_shard_vectors)
    return _THREAD_POOL


def get_thread_pool() -> ThreadShardPool | None:
    """The process-global thread pool, rebuilt across forks.

    Threads do not survive :func:`os.fork`, but the *configuration*
    should: a forked campaign/DTA worker inheriting a configured
    thread pool gets a fresh pool of the same width on first access,
    so its native propagates keep thread-sharding.
    """
    global _THREAD_POOL
    pool = _THREAD_POOL
    if pool is not None and pool.owner_pid != os.getpid():
        pool = ThreadShardPool(
            pool.workers, min_shard_vectors=pool.min_shard_vectors)
        _THREAD_POOL = pool
    return pool


def shutdown_thread_pool() -> None:
    """Join and drop the thread pool, if this process owns it."""
    global _THREAD_POOL
    if _THREAD_POOL is not None \
            and _THREAD_POOL.owner_pid == os.getpid():
        _THREAD_POOL.shutdown()
    _THREAD_POOL = None


atexit.register(shutdown_thread_pool)
