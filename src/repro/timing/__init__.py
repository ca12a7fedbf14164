"""Timing analysis: STA, DTA, CDFs, voltage and noise models."""

from repro.timing.cdf import CdfGrid, EndpointCdfs
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
    clear_cache,
    get_characterization,
)
from repro.timing.dta import DtaResult, run_dta, sample_operands
from repro.timing.noise import VoltageNoise
from repro.timing.report import EndpointSlack, TimingReport, timing_report
from repro.timing.sta import max_frequency_hz, static_arrivals, worst_arrival
from repro.timing.voltage import VddDelayModel

__all__ = [
    "AluCharacterization",
    "CdfGrid",
    "CharacterizationConfig",
    "DtaResult",
    "EndpointCdfs",
    "EndpointSlack",
    "TimingReport",
    "VddDelayModel",
    "VoltageNoise",
    "clear_cache",
    "get_characterization",
    "max_frequency_hz",
    "run_dta",
    "sample_operands",
    "static_arrivals",
    "timing_report",
    "worst_arrival",
]
