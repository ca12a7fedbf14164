"""Ablation studies for the reproduction's own design choices.

Three knobs of this implementation do not exist in the paper (which
had real silicon) and deserve quantified justification:

* **glitch model** -- the DTA engine's event semantics.  The default
  ``sensitized`` model propagates glitch activity through statically
  sensitized gates; the optimistic ``value-change`` variant tracks only
  settled-value toggles.  The ablation measures how much apparent
  frequency-over-scaling headroom the optimistic model invents.

* **fault semantics** -- what a timing violation does to the endpoint
  flip-flop: ``flip`` (invert the bit) versus ``stale`` (re-latch the
  previous value).  The ablation compares fault rates and output error
  on a data-path benchmark.

* **adder topology** -- carry-select (default) versus ripple-carry and
  Kogge-Stone.  The topology shapes the per-bit arrival profile and
  therefore how strongly the add PoFF depends on operand bit-width
  (the paper's Fig. 4 spread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.suite import build_kernel
from repro.fi.model_c import StatisticalInjector
from repro.mc.results import McPoint
from repro.mc.runner import run_point
from repro.mc.units import ExperimentPlan, WorkUnit, mc_point_key, \
    work_unit_key
from repro.netlist.adders import ADDER_KINDS
from repro.netlist.alu import AluConfig, AluNetlist
from repro.netlist.calibrate import calibrate_alu
from repro.timing.characterize import CharacterizationConfig
from repro.timing.dta import run_dta
from repro.experiments.context import ExperimentContext, NOMINAL_VDD
from repro.experiments.scale import Scale, get_scale


@dataclass
class GlitchModelAblation:
    """Instruction PoFFs under both DTA event models."""

    poff_sensitized_hz: dict[str, float]
    poff_value_change_hz: dict[str, float]

    def headroom_inflation(self, mnemonic: str) -> float:
        """How much extra over-scaling headroom the optimistic model
        claims for one instruction (>= 0)."""
        return (self.poff_value_change_hz[mnemonic]
                / self.poff_sensitized_hz[mnemonic]) - 1.0


#: Voltages whose characterizations planning forces (the semantics
#: study's injector tables).
PLAN_VDDS = (NOMINAL_VDD,)


def run_glitch_model_ablation(scale: str | Scale = "default",
                              seed: int = 2016,
                              context: ExperimentContext | None = None) -> \
        GlitchModelAblation:
    """Characterize both glitch models and compare instruction PoFFs."""
    scale = get_scale(scale)
    ctx = context or ExperimentContext.create(scale, seed)
    poffs = {}
    for model in ("sensitized", "value-change"):
        # Through the context: glitch-model characterizations land in
        # the attached result store like the default ones.
        characterization = ctx.characterized(CharacterizationConfig(
            vdd=NOMINAL_VDD,
            n_cycles_per_instr=scale.char_cycles,
            seed=seed,
            glitch_model=model))
        poffs[model] = {
            mnemonic: characterization.poff_frequency_hz(mnemonic)
            for mnemonic in characterization.mnemonics
        }
    return GlitchModelAblation(
        poff_sensitized_hz=poffs["sensitized"],
        poff_value_change_hz=poffs["value-change"])


@dataclass
class SemanticsAblation:
    """Matmul outcomes under flip vs stale fault semantics."""

    frequency_hz: float
    summary_flip: dict[str, float]
    summary_stale: dict[str, float]


def semantics_point_units(ctx: ExperimentContext, seed: int = 2016,
                          frequency_hz: float = 730e6,
                          sigma_v: float = 0.010) -> list[WorkUnit]:
    """One Monte-Carlo unit per fault-semantics variant (flip, stale)."""
    characterization = ctx.characterization(NOMINAL_VDD)
    kernel = build_kernel("mat_mult_8bit", ctx.scale.kernel_scale)
    noise = ctx.noise(sigma_v)
    units = []
    for semantics in ("flip", "stale"):
        def compute(semantics=semantics):
            return run_point(
                kernel,
                lambda rng, semantics=semantics: StatisticalInjector(
                    characterization, frequency_hz, noise,
                    vdd_model=ctx.vdd_model, rng=rng,
                    semantics=semantics),
                n_trials=ctx.scale.trials, seed=seed)

        units.append(WorkUnit(
            label=f"ablations:semantics/{semantics}",
            key=mc_point_key(
                "ablations", ctx.scale, seed, kernel,
                ctx.scale.trials,
                {"study": "semantics", "semantics": semantics,
                 "sigma_v": sigma_v, "model": "C",
                 "frequency_hz": float(frequency_hz),
                 **ctx.char_fingerprint(NOMINAL_VDD)}),
            compute=compute))
    return units


def assemble_semantics(points: list[McPoint],
                       frequency_hz: float = 730e6) -> SemanticsAblation:
    """Fold the (flip, stale) points into the ablation summary."""
    return SemanticsAblation(
        frequency_hz=frequency_hz,
        summary_flip=points[0].summary(),
        summary_stale=points[1].summary())


#: Schema version of the AdderTopologyAblation JSON representation;
#: bump on any incompatible change (store entries key on it).
ADDER_ABLATION_SCHEMA = 1

#: Per-topology seed stride: every topology derives its own operand
#: stream as ``seed + ADDER_SEED_STRIDE * index``, so topology units
#: are independent of the order in which they compute.
ADDER_SEED_STRIDE = 32452843


@dataclass
class AdderTopologyAblation:
    """Bit-width-dependent add PoFFs per adder topology.

    Doubles as the per-topology store artifact (kind
    ``adder_ablation``): a unit's result carries one topology's entry,
    :func:`assemble_adders` merges them into the full study.
    """

    #: topology -> (poff with 15-bit operands, poff with 32-bit operands)
    poffs_hz: dict[str, tuple[float, float]]

    def width_spread(self, kind: str) -> float:
        """PoFF(16-bit) / PoFF(32-bit): the paper's Fig. 4 spread
        (877/746 = 1.18 on the case-study silicon)."""
        narrow, wide = self.poffs_hz[kind]
        return narrow / wide

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (floats round-trip exactly)."""
        return {
            "schema": ADDER_ABLATION_SCHEMA,
            "poffs_hz": {kind: [float(narrow), float(wide)]
                         for kind, (narrow, wide)
                         in self.poffs_hz.items()},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AdderTopologyAblation":
        """Inverse of :meth:`to_json` (exact round-trip)."""
        if payload.get("schema") != ADDER_ABLATION_SCHEMA:
            raise ValueError(
                f"AdderTopologyAblation schema mismatch: stored "
                f"{payload.get('schema')}, current "
                f"{ADDER_ABLATION_SCHEMA}")
        return cls(poffs_hz={
            kind: (narrow, wide)
            for kind, (narrow, wide) in payload["poffs_hz"].items()})


def _adder_study_fingerprint() -> dict:
    """Deterministic inputs of one topology's PoFF measurement.

    The topology ALUs are built fresh from the default cell library
    and calibrated to the default unit timing targets, so those two --
    not any pre-built ALU instance -- identify the hardware model in
    the cache key.
    """
    from repro.netlist.calibrate import DEFAULT_TARGETS_PS
    from repro.netlist.library import CellLibrary
    library = CellLibrary()
    return {
        "targets_ps": dict(DEFAULT_TARGETS_PS),
        "library": [library.vth, library.alpha, library.clk_to_q_ps,
                    library.setup_ps,
                    sorted(library.cell_delays_ps.items())],
    }


def _compute_adder_poffs(kind: str, n_samples: int,
                         seed: int) -> tuple[float, float]:
    """Measure one topology's (16-bit, 32-bit) add PoFFs."""
    alu = AluNetlist(AluConfig(adder_kind=kind))
    calibrate_alu(alu)
    rng = np.random.default_rng(seed)
    results = []
    for bits in (15, 32):
        operands = tuple(
            rng.integers(0, 1 << bits, n_samples + 1, dtype=np.uint64)
            for _ in range(2))
        dta = run_dta(alu, "l.add", n_samples, vdd=NOMINAL_VDD,
                      seed=seed, operands=operands)
        results.append(1e12 / float(dta.critical_ps.max()))
    return (results[0], results[1])


def adder_topology_units(scale: str | Scale,
                         seed: int = 2016) -> list[WorkUnit]:
    """One work unit per adder topology (planning runs no DTA).

    Each topology gets its own ALU, calibrated to identical unit timing
    targets, so only the *structure* (the arrival-time profile across
    endpoint bits) differs.
    """
    scale = get_scale(scale)
    fingerprint = _adder_study_fingerprint()
    units = []
    for index, kind in enumerate(ADDER_KINDS):
        def compute(kind=kind, index=index):
            return AdderTopologyAblation(poffs_hz={
                kind: _compute_adder_poffs(
                    kind, scale.fig4_samples,
                    seed + ADDER_SEED_STRIDE * index)})

        units.append(WorkUnit(
            label=f"ablations:adder/{kind}",
            key=work_unit_key(
                "adder_ablation", "ablations", scale, seed,
                {"study": "adder_topology", "adder_kind": kind,
                 "topology_index": index,
                 "operand_bits": [15, 32], "vdd": NOMINAL_VDD,
                 "n_samples": scale.fig4_samples,
                 "glitch_model": "sensitized", **fingerprint}),
            compute=compute))
    return units


def assemble_adders(parts: list[AdderTopologyAblation]) \
        -> AdderTopologyAblation:
    """Merge per-topology units into the full study."""
    merged: dict[str, tuple[float, float]] = {}
    for part in parts:
        merged.update(part.poffs_hz)
    return AdderTopologyAblation(poffs_hz=merged)


def plan(ctx: ExperimentContext, seed: int = 2016) -> ExperimentPlan:
    """The three studies as one plan.

    Semantics points and per-topology adder PoFFs are units; the
    glitch-model study is served through the context's
    characterizations when the result assembles -- so a warm run
    performs no DTA and no Monte-Carlo.
    """
    semantics_units = semantics_point_units(ctx, seed=seed)
    n_semantics = len(semantics_units)
    return ExperimentPlan(
        units=semantics_units + adder_topology_units(ctx.scale,
                                                     seed=seed),
        assemble=lambda artifacts: (
            run_glitch_model_ablation(ctx.scale, seed=seed, context=ctx),
            assemble_semantics(artifacts[:n_semantics]),
            assemble_adders(artifacts[n_semantics:])),
        render=lambda studies: render_all(*studies))


def render_all(glitch: GlitchModelAblation, semantics: SemanticsAblation,
               adders: AdderTopologyAblation) -> str:
    """Human-readable ablation report."""
    lines = ["--- glitch model: PoFF inflation of the optimistic model ---"]
    for mnemonic in ("l.mul", "l.add", "l.sll"):
        lines.append(
            f"  {mnemonic:7s} sensitized "
            f"{glitch.poff_sensitized_hz[mnemonic] / 1e6:7.1f} MHz   "
            f"value-change "
            f"{glitch.poff_value_change_hz[mnemonic] / 1e6:7.1f} MHz   "
            f"(+{glitch.headroom_inflation(mnemonic):.0%})")
    lines.append(f"--- fault semantics @ "
                 f"{semantics.frequency_hz / 1e6:.0f} MHz (matmul 8-bit) ---")
    for name, summary in (("flip", semantics.summary_flip),
                          ("stale", semantics.summary_stale)):
        lines.append(
            f"  {name:5s} correct {summary['p_correct']:5.1%}  "
            f"FI/kCyc {summary['fi_rate_per_kcycle']:8.2f}  "
            f"MSE {summary['mean_error']:.3g}")
    lines.append("--- adder topology: add PoFF (16-bit / 32-bit ops) ---")
    for kind, (narrow, wide) in adders.poffs_hz.items():
        lines.append(
            f"  {kind:13s} {narrow / 1e6:7.1f} / {wide / 1e6:7.1f} MHz   "
            f"spread x{adders.width_spread(kind):.2f}")
    return "\n".join(lines)
