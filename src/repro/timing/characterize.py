"""Characterization flow: run DTA for every instruction, build CDFs.

This is the offline part of the paper's model C: a gate-level
characterization kernel covering all ALU instructions with randomized
operands (the paper uses 8 kCycles total) produces per-instruction,
per-endpoint arrival statistics, which are compiled into the CDF
tables the statistical fault injector consumes.

Characterizations are cached in-process by configuration key, and
the result store persists them through :meth:`AluCharacterization.to_json`
(the gate-level timing simulation is the most expensive step of the
flow).  Every instruction's CDFs are compiled into one period-grid
fault table, so one grid row index serves every instruction.  Only
model C reads that table, so it is compiled on first use: a
characterization served from the store to a figure that builds no
injector never compiles it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.netlist.alu import AluNetlist
from repro import obs
from repro.netlist.library import VDD_REF
from repro.timing.cdf import CdfGrid, EndpointCdfs
from repro.timing.dta import run_dta


@dataclass(frozen=True)
class CharacterizationConfig:
    """Parameters of one characterization run.

    Attributes:
        vdd: supply voltage of the timing views.
        n_cycles_per_instr: characterization cycles per instruction.
            The paper's 8 kCycle kernel over ~17 ALU instructions is
            roughly 470 cycles each; the default is slightly richer.
        seed: base RNG seed (each instruction derives its own stream).
        glitch_model: event model for the timing simulation.
        grid_points: resolution of the compiled period grid.

    Every field enters the store key (:func:`characterization_key`),
    so adding one re-keys every stored characterization.
    """

    vdd: float = VDD_REF
    n_cycles_per_instr: int = 512
    seed: int = 2016
    glitch_model: str = "sensitized"
    grid_points: int = 2048


@dataclass
class AluCharacterization:
    """Per-instruction CDF tables for one ALU at one supply voltage.

    Attributes:
        config: parameters of the characterization run.
        cdfs: each instruction's empirical CDFs.
        worst_sta_period_ps: the ALU's worst STA period at ``config.vdd``.
    """

    SCHEMA: ClassVar[int] = 1

    config: CharacterizationConfig
    cdfs: dict[str, EndpointCdfs]
    worst_sta_period_ps: float

    @classmethod
    def run(cls, alu: "AluNetlist",
            config: CharacterizationConfig | None = None) \
            -> "AluCharacterization":
        """Characterize every FI-eligible instruction of an ALU.

        The DTA runs on the compiled engine, which is bit-identical
        to the per-gate reference.
        """
        config = config or CharacterizationConfig()
        cdfs: dict[str, EndpointCdfs] = {}
        for index, mnemonic in enumerate(alu.mnemonics):
            result = run_dta(
                alu, mnemonic,
                n_cycles=config.n_cycles_per_instr,
                vdd=config.vdd,
                seed=config.seed + 7919 * index,
                glitch_model=config.glitch_model)
            cdfs[mnemonic] = EndpointCdfs.from_critical(
                mnemonic, config.vdd, result.critical_ps)
        return cls(config=config, cdfs=cdfs,
                   worst_sta_period_ps=alu.worst_sta_period_ps(config.vdd))

    @cached_property
    def grid(self) -> CdfGrid:
        """Every instruction's CDFs on one period grid, in
        :attr:`mnemonics` order: the fault table model C reads.

        Compiled on first use and kept, so every injector built on
        this characterization shares it.  The grid spans 0.35x the
        worst STA period up to 5% past the slowest of that period and
        every sampled cycle.
        """
        worst_sta = self.worst_sta_period_ps
        max_critical = max(float(table.critical_rows.max())
                           for table in self.cdfs.values())
        with obs.span("timing.grid", vdd=float(self.config.vdd)):
            return CdfGrid.compile(
                [self.cdfs[mnemonic] for mnemonic in self.mnemonics],
                0.35 * worst_sta, 1.05 * max(max_critical, worst_sta),
                self.config.grid_points)

    @property
    def mnemonics(self) -> tuple[str, ...]:
        return tuple(sorted(self.cdfs))

    def poff_frequency_hz(self, mnemonic: str) -> float:
        """Lowest frequency at which an instruction can ever fail."""
        return self.cdfs[mnemonic].poff_frequency_hz()

    # -- persistence -----------------------------------------------------

    @classmethod
    def _rebuild(cls, config: CharacterizationConfig,
                 criticals: dict[str, np.ndarray],
                 worst_sta: float) -> "AluCharacterization":
        """Reconstruct the CDFs from raw critical-period data.

        Deterministic: given bit-identical criticals, the rebuilt
        tables (and the grid compiled from them on first use) match
        the originally computed ones exactly (``CdfGrid.compile`` and
        ``EndpointCdfs.from_critical`` are pure), which is what makes
        store-served characterizations interchangeable with freshly
        computed ones.
        """
        cdfs = {}
        for mnemonic, critical in criticals.items():
            # The persisted matrix is critical_rows, i.e. already in
            # row-max ascending order; rebuilding the views directly
            # (instead of re-sorting via from_critical) keeps the row
            # order exact even when worst periods tie, so a re-stored
            # body is byte-identical to the one it was loaded from.
            critical = np.asarray(critical)
            cdfs[mnemonic] = EndpointCdfs(
                mnemonic=mnemonic,
                vdd=config.vdd,
                row_max_sorted=critical.max(axis=1),
                critical_rows=critical,
            )
        return cls(config=config, cdfs=cdfs, worst_sta_period_ps=worst_sta)

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``SCHEMA``).

        Only the raw per-instruction critical-period matrices travel
        (exact dtype preserved); the CDFs are rebuilt deterministically
        on load, and the grid on first use.
        """
        from repro.store.serialize import encode
        return {
            "schema": self.SCHEMA,
            "config": asdict(self.config),
            "worst_sta_period_ps": float(self.worst_sta_period_ps),
            "critical_ps": {
                mnemonic: encode(table.critical_rows)
                for mnemonic, table in self.cdfs.items()
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AluCharacterization":
        """Inverse of :meth:`to_json` (bit-identical tables)."""
        from repro.store.serialize import decode
        # Bodies written by older builds also carry the settle-pipeline
        # dtype, which was "float64" under every key the current code
        # builds; fields the config no longer has are dropped.
        known = {f.name for f in fields(CharacterizationConfig)}
        config = CharacterizationConfig(**{
            name: value for name, value in payload["config"].items()
            if name in known})
        criticals = {mnemonic: decode(encoded) for mnemonic, encoded
                     in payload["critical_ps"].items()}
        return cls._rebuild(config, criticals,
                            payload["worst_sta_period_ps"])


#: In-process characterization cache, keyed by (alu key, config).
_CACHE: dict[tuple, AluCharacterization] = {}


def alu_fingerprint(alu: "AluNetlist") -> tuple:
    """Identity of an ALU's timing model: structure, unit scaling and
    cell library.  Part of every characterization *and* Monte-Carlo
    cache key, so hardware-model changes invalidate persisted results
    instead of serving stale ones."""
    scales = tuple(sorted(alu.unit_scales.items()))
    lib = alu.library
    return (alu.config.width, alu.config.adder_kind, scales,
            lib.vth, lib.alpha, lib.clk_to_q_ps, lib.setup_ps,
            tuple(sorted(lib.cell_delays_ps.items())))


def characterization_key(alu: "AluNetlist",
                         config: CharacterizationConfig) -> dict:
    """Result-store key payload for one characterization.

    Covers everything that determines the tables: the calibrated ALU
    identity (structure, unit scaling, cell library) and the full
    characterization config, plus the schema version.
    """
    return {
        "kind": "alu_characterization",
        "schema": AluCharacterization.SCHEMA,
        "alu": alu_fingerprint(alu),
        "config": asdict(config),
    }


def get_characterization(alu: "AluNetlist",
                         config: CharacterizationConfig | None = None) \
        -> AluCharacterization:
    """Cached characterization lookup (runs DTA on first use).

    The cache key is (ALU identity, config) only: the engine is an
    execution detail, bit-identical across engines.
    """
    config = config or CharacterizationConfig()
    key = (alu_fingerprint(alu), config)
    found = _CACHE.get(key)
    if found is None:
        found = AluCharacterization.run(alu, config)
        _CACHE[key] = found
    return found


def clear_cache() -> None:
    """Drop all cached characterizations (mainly for tests)."""
    _CACHE.clear()
