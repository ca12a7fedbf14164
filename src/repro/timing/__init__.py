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
from repro.timing.sta import compute_envelope
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
    "compute_envelope",
    "get_characterization",
    "run_dta",
    "sample_operands",
    "timing_report",
]
