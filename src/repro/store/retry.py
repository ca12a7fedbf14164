"""Shared transient-failure retry policy: backoff + seeded jitter.

One policy object serves every layer that retries transient I/O --
the filesystem store's write path and the fabric HTTP backend's
request path -- so the budget and the backoff shape are configured
once:

* ``REPRO_STORE_RETRIES``   -- attempts (not re-tries; default 3);
* ``REPRO_STORE_BACKOFF_S`` -- base sleep before the second attempt
  (default 0.02 s), doubled per attempt.

The jitter is **deterministic**: a hash of (seed, key, attempt) maps
each sleep into ``[0.5, 1.5)`` of its exponential slot, the fault
plane's own decision draw (:func:`repro.faults.uniform`).  Reruns of
a failing schedule therefore sleep identically -- chaos replays stay
byte-for-byte reproducible -- while concurrent workers (distinct
``key`` strings) still de-synchronize their retry storms.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass

from repro.faults import uniform

_RETRIES_ENV = "REPRO_STORE_RETRIES"
_BACKOFF_ENV = "REPRO_STORE_BACKOFF_S"

DEFAULT_ATTEMPTS = 3
DEFAULT_BACKOFF_S = 0.02

_LOG = logging.getLogger("repro.store")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter."""

    attempts: int = DEFAULT_ATTEMPTS
    backoff_s: float = DEFAULT_BACKOFF_S
    seed: int = 0

    @classmethod
    def from_env(cls, seed: int = 0) -> "RetryPolicy":
        """Build the policy from the environment (bad values ignored)."""
        attempts = DEFAULT_ATTEMPTS
        backoff_s = DEFAULT_BACKOFF_S
        try:
            attempts = max(1, int(os.environ[_RETRIES_ENV]))
        except (KeyError, ValueError):
            pass
        try:
            backoff_s = max(0.0, float(os.environ[_BACKOFF_ENV]))
        except (KeyError, ValueError):
            pass
        return cls(attempts=attempts, backoff_s=backoff_s, seed=seed)

    def delay_s(self, key: str, attempt: int) -> float:
        """Sleep before retrying after the ``attempt``-th failure.

        Exponential in the attempt index, jittered into [0.5, 1.5) of
        its slot by a pure function of (seed, key, attempt).
        """
        slot = self.backoff_s * (1 << attempt)
        return slot * (0.5 + uniform(self.seed, key, attempt))

    def run(self, what: str, func, *, retry_on=(OSError,),
            sleep=time.sleep, log: logging.Logger | None = None):
        """Run ``func``, absorbing up to attempts-1 transient failures.

        ``what`` labels the operation in the warning log *and* seeds
        the jitter stream, so two operations retrying concurrently
        sleep on de-correlated schedules.  The final failure is
        re-raised unchanged.
        """
        logger = log or _LOG
        for attempt in range(self.attempts):
            try:
                return func()
            except retry_on as error:
                if attempt == self.attempts - 1:
                    raise
                logger.warning("transient %s failure (%s); retrying",
                               what, error)
                sleep(self.delay_s(what, attempt))
        raise AssertionError("unreachable")  # pragma: no cover
