"""Fault-injection models: A (random), B (STA), B+ (STA+noise), C (statistical)."""

from repro.fi.base import FAULT_SEMANTICS, FaultInjector, NullInjector
from repro.fi.model_a import FixedProbabilityInjector
from repro.fi.model_b import StaInjector, endpoint_worst_sta
from repro.fi.model_bplus import StaNoiseInjector
from repro.fi.model_c import StatisticalInjector
from repro.fi.sampling import BitSampler
from repro.fi.streams import EffectivePeriodStream

__all__ = [
    "BitSampler",
    "EffectivePeriodStream",
    "FAULT_SEMANTICS",
    "FaultInjector",
    "FixedProbabilityInjector",
    "NullInjector",
    "StaInjector",
    "StaNoiseInjector",
    "StatisticalInjector",
    "endpoint_worst_sta",
]
