"""Monte-Carlo result containers and aggregation.

One :class:`TrialResult` records a single fault-injected run; a
:class:`McPoint` aggregates the trials of one parameter configuration
(one data point of the paper's figures) into the four application-level
metrics of Section 4.2:

* probability that the program *finishes*,
* probability that the execution is *correct*,
* fault-injection rate in FIs per 1000 kernel cycles,
* output error of the remaining successful runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.mc.stats import mean, wilson_interval


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one fault-injected benchmark run.

    Attributes:
        finished: the program reached its exit hook.
        correct: outputs matched the golden run exactly.
        error_value: benchmark-native output error (only meaningful when
            ``finished``; NaN-free: 0.0 for non-finishing runs).
        relative_error: normalized [0, 1] output error (same caveat).
        fault_count: injected faults (corrupted bits).
        kernel_cycles: cycles executed inside the FI window.
        alu_cycles: FI-eligible instructions inside the FI window.
        cycles: total executed cycles.
        abort_reason: reason tag for non-finishing runs.
    """

    finished: bool
    correct: bool
    error_value: float
    relative_error: float
    fault_count: int
    kernel_cycles: int
    alu_cycles: int
    cycles: int
    abort_reason: str | None = None

    #: The field names :meth:`from_json` accepts (set below the class).
    FIELD_NAMES: ClassVar[frozenset[str]]

    @property
    def fi_rate_per_kcycle(self) -> float:
        if self.kernel_cycles <= 0:
            return 0.0
        return 1000.0 * self.fault_count / self.kernel_cycles

    def to_json(self) -> dict:
        """JSON-native dict; every field is losslessly representable."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict) -> "TrialResult":
        """Inverse of :meth:`to_json` (exact round-trip)."""
        unknown = payload.keys() - cls.FIELD_NAMES
        if unknown:
            raise ValueError(f"unknown TrialResult fields {sorted(unknown)}")
        return cls(**payload)


TrialResult.FIELD_NAMES = frozenset(f.name for f in fields(TrialResult))


@dataclass
class McPoint:
    """Aggregated Monte-Carlo metrics for one configuration.

    The error statistics follow the paper's convention: output error is
    averaged over the *successful* (finished) runs only, while the FI
    rate is averaged over all runs.
    """

    SCHEMA: ClassVar[int] = 1

    label: str
    trials: list[TrialResult] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add(self, trial: TrialResult) -> None:
        self.trials.append(trial)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def p_finished(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.finished for t in self.trials) / len(self.trials)

    @property
    def p_correct(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.correct for t in self.trials) / len(self.trials)

    @property
    def fi_rate_per_kcycle(self) -> float:
        return mean([t.fi_rate_per_kcycle for t in self.trials])

    @property
    def mean_error_of_finished(self) -> float:
        """Benchmark-native error averaged over finishing runs."""
        finished = [t.error_value for t in self.trials if t.finished]
        return mean(finished)

    @property
    def mean_relative_error_of_finished(self) -> float:
        """Normalized error averaged over finishing runs."""
        finished = [t.relative_error for t in self.trials if t.finished]
        return mean(finished)

    def finished_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson CI of the finish probability."""
        if not self.trials:
            return (0.0, 0.0)
        return wilson_interval(
            sum(t.finished for t in self.trials), len(self.trials), z)

    def correct_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson CI of the correctness probability."""
        if not self.trials:
            return (0.0, 0.0)
        return wilson_interval(
            sum(t.correct for t in self.trials), len(self.trials), z)

    def abort_histogram(self) -> dict[str, int]:
        """Counts of abort reasons among non-finishing runs."""
        histogram: dict[str, int] = {}
        for trial in self.trials:
            if trial.finished:
                continue
            reason = trial.abort_reason or "unknown"
            histogram[reason] = histogram.get(reason, 0) + 1
        return histogram

    def summary(self) -> dict[str, float]:
        """Flat metric dict, convenient for tables and benches."""
        return {
            "n_trials": float(self.n_trials),
            "p_finished": self.p_finished,
            "p_correct": self.p_correct,
            "fi_rate_per_kcycle": self.fi_rate_per_kcycle,
            "mean_error": self.mean_error_of_finished,
            "mean_relative_error": self.mean_relative_error_of_finished,
        }

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``SCHEMA``).

        Trials serialize field-by-field; the config dict goes through
        the store encoder so numpy scalars keep their exact dtype.
        """
        from repro.store.serialize import encode
        return {
            "schema": self.SCHEMA,
            "label": self.label,
            "config": encode(self.config),
            "trials": [trial.to_json() for trial in self.trials],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "McPoint":
        """Inverse of :meth:`to_json` (exact round-trip)."""
        from repro.store.serialize import decode
        return cls(
            label=payload["label"],
            trials=[TrialResult.from_json(t) for t in payload["trials"]],
            config=decode(payload["config"]),
        )
