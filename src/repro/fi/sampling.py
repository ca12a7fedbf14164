"""Exact conditional sampling of per-endpoint Bernoulli fault masks.

The statistical models decide *whether* any endpoint faults with one
uniform draw against the any-endpoint probability (the fast path --
most cycles inject nothing), and only then sample *which* endpoints
fault.  Conditioned on "at least one endpoint violates", the
independent-Bernoulli distribution is sampled exactly in two steps:

1. the index of the lowest violating endpoint follows the
   first-success distribution, precomputed as a CDF;
2. endpoints above it are independent Bernoullis with their own
   probabilities.

This keeps the expensive work proportional to actual fault cycles
instead of every simulated cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def any_probability(p_bits: np.ndarray) -> float:
    """Probability that at least one independent endpoint violates."""
    return 1.0 - float(np.prod(1.0 - p_bits))


@dataclass
class BitSampler:
    """Conditional sampler for one fixed endpoint-probability vector.

    Attributes:
        p_bits: (n,) per-endpoint violation probabilities.
        p_any: probability that at least one endpoint violates,
            ``1 - prod(1 - p_bits)``.
        first_cdf: (n,) CDF of the lowest violating endpoint index,
            conditioned on ``p_any``.
    """

    p_bits: np.ndarray
    p_any: float
    first_cdf: np.ndarray

    @classmethod
    def from_probs(cls, p_bits: np.ndarray) -> "BitSampler":
        p_bits = np.asarray(p_bits, dtype=float)
        if p_bits.ndim != 1 or not p_bits.size:
            raise ValueError("p_bits must be a non-empty 1-D array")
        if np.any((p_bits < 0) | (p_bits > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        none_below = np.concatenate(([1.0], np.cumprod(1.0 - p_bits)[:-1]))
        first_probs = none_below * p_bits
        p_any = any_probability(p_bits)
        if p_any > 0.0:
            first_cdf = np.cumsum(first_probs) / p_any
        else:
            first_cdf = np.ones_like(p_bits)
        return cls(p_bits=p_bits, p_any=p_any, first_cdf=first_cdf)

    def sample_mask(self, rng: np.random.Generator) -> int:
        """Sample a violation mask conditioned on at least one bit set.

        Returns a non-zero integer mask (bit i set = endpoint i
        violated).  Must not be called when ``p_any`` is zero.
        """
        if self.p_any <= 0.0:
            raise ValueError("conditional sample requested with p_any == 0")
        first = int(np.searchsorted(self.first_cdf, rng.random(),
                                    side="right"))
        first = min(first, self.p_bits.size - 1)
        mask = 1 << first
        remaining = self.p_bits.size - first - 1
        if remaining > 0:
            hits = np.flatnonzero(
                rng.random(remaining) < self.p_bits[first + 1:])
            for offset in hits:
                mask |= 1 << (first + 1 + int(offset))
        return mask
