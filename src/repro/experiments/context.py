"""Shared experiment context: the hardware model and its timing views.

Every experiment needs the same expensive substrate -- the calibrated
ALU netlist, its fitted Vdd-delay curve, and per-voltage DTA
characterizations.  :class:`ExperimentContext` builds them lazily and
caches them, so a sequence of experiments (or one pytest session)
characterizes each condition only once.

With a :class:`~repro.store.ResultStore` attached, characterizations
additionally persist on disk keyed by (ALU identity, characterization
config, schema version): they are computed once per operating
condition *across invocations and worker processes* and reloaded
bit-identically everywhere else.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.netlist.alu import AluNetlist
from repro.netlist.calibrate import calibrated_alu
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
    alu_fingerprint,
    characterization_key,
    get_characterization,
)
from repro.timing.noise import VoltageNoise
from repro.timing.voltage import VddDelayModel
from repro.experiments.scale import Scale, get_scale

#: The case study's nominal operating voltage [V].
NOMINAL_VDD = 0.7

#: Noise sigmas studied throughout the paper [V].
NOISE_SIGMAS = (0.0, 0.010, 0.025)


@dataclass
class ExperimentContext:
    """Lazily-built shared hardware model for the experiment drivers.

    ``store`` (optional) persists characterizations across processes;
    Monte-Carlo points are persisted by the drivers themselves.
    """

    scale: Scale
    seed: int = 2016
    store: object | None = None
    _alu: AluNetlist | None = None
    _vdd_model: VddDelayModel | None = None
    _characterizations: dict[CharacterizationConfig,
                             AluCharacterization] = \
        field(default_factory=dict)

    @classmethod
    def create(cls, scale: str | Scale = "default",
               seed: int = 2016, store=None) -> "ExperimentContext":
        return cls(scale=get_scale(scale), seed=seed, store=store)

    @property
    def alu(self) -> AluNetlist:
        if self._alu is None:
            self._alu = calibrated_alu()
        return self._alu

    @property
    def vdd_model(self) -> VddDelayModel:
        if self._vdd_model is None:
            self._vdd_model = VddDelayModel.from_alu_sta(self.alu)
        return self._vdd_model

    def char_config(self, vdd: float = NOMINAL_VDD,
                    glitch_model: str = "sensitized") -> \
            CharacterizationConfig:
        """Characterization config implied by this context's scale/seed."""
        return CharacterizationConfig(
            vdd=vdd,
            n_cycles_per_instr=self.scale.char_cycles,
            seed=self.seed,
            glitch_model=glitch_model)

    def char_fingerprint(self, vdd: float = NOMINAL_VDD,
                         glitch_model: str = "sensitized") -> dict:
        """Cache-key fields identifying the hardware model a point was
        simulated against (merged into MC point keys): the full
        characterization config *and* the ALU timing-model identity,
        so netlist or cell-library changes invalidate persisted points
        instead of silently serving stale figures."""
        return {
            "characterization": asdict(self.char_config(
                vdd, glitch_model)),
            "alu": alu_fingerprint(self.alu),
        }

    def characterization(self, vdd: float = NOMINAL_VDD) -> \
            AluCharacterization:
        """Per-instruction CDF tables at one supply voltage (cached)."""
        return self.characterized(self.char_config(vdd))

    def characterized(self, config: CharacterizationConfig) -> \
            AluCharacterization:
        """Characterization for an explicit config.

        Lookup order: in-memory cache, then the attached result store
        (bit-identical reload), then a fresh DTA run -- whose tables
        are persisted to the store for every later invocation and
        worker process.
        """
        found = self._characterizations.get(config)
        if found is None and self.store is not None:
            found = self.store.get(characterization_key(self.alu, config))
        if found is None:
            found = get_characterization(self.alu, config)
            if self.store is not None:
                self.store.put(
                    characterization_key(self.alu, config), found,
                    label=f"char@{config.vdd:.2f}V/"
                          f"{config.glitch_model}")
        self._characterizations[config] = found
        return found

    def sta_limit_hz(self, vdd: float = NOMINAL_VDD) -> float:
        return self.alu.sta_limit_hz(vdd)

    def noise(self, sigma_v: float) -> VoltageNoise:
        return VoltageNoise(sigma_v)

    def bplus_onset_hz(self, vdd: float, sigma_v: float) -> float:
        """First frequency at which model B+ can inject a fault.

        The worst STA critical period stretched by the worst-case
        (clipped 2-sigma) droop defines the model-B+ onset; with zero
        noise this equals the STA limit (model B's cliff).
        """
        worst = self.alu.worst_sta_period_ps(vdd)
        factor = float(self.vdd_model.scale_factor(
            vdd - VoltageNoise(sigma_v).max_droop_v, vdd))
        return 1e12 / (worst * factor)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)
