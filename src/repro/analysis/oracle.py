"""Opt-in runtime bounds oracle for ``Circuit.propagate``.

With ``REPRO_CHECK_BOUNDS=1`` in the environment, every propagate call
-- any engine, any glitch model -- has its returned arrivals checked
against the static envelope of
:func:`repro.timing.sta.compute_envelope`:

    every arrival is exactly 0.0 (no event) or inside [min, max].

Every engine is held to the envelope *exactly* (IEEE add/max are
monotone, so the dynamic recurrence can never produce a value outside
the static one).

The check is deliberately independent of the engines: it reuses the
compiled plan's structure but none of the event kernels, so a silent
kernel bug trips it instead of only shifting engine-vs-engine diffs.
Envelopes are cached per plan (delays and launch compared by value),
so test suites that sweep both engines over one circuit pay for one
static pass, not two.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.netlist.plan import CompiledPlan
from repro.timing.sta import Envelope, compute_envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.circuit import Circuit

#: Environment switch; any value other than empty/"0" activates.
ENV_VAR = "REPRO_CHECK_BOUNDS"


class BoundsViolation(AssertionError):
    """A dynamic arrival escaped the static [min, max] envelope."""


#: plan -> (delays snapshot, input_arrival, envelope).  Weak keys so
#: discarded circuits do not pin their plans (mirrors the plan's own
#: delay-tile cache discipline: identity is not enough, values are
#: compared defensively).
_CACHE: weakref.WeakKeyDictionary[
    CompiledPlan, tuple[np.ndarray, float, Envelope]] = \
    weakref.WeakKeyDictionary()


def bounds_check_enabled() -> bool:
    """Whether the runtime oracle is active (``REPRO_CHECK_BOUNDS``)."""
    return os.environ.get(ENV_VAR, "0") not in ("", "0")


def envelope_for(circuit: "Circuit", delays: np.ndarray,
                 input_arrival: float) -> Envelope:
    """Cached static envelope of one (circuit, delays, launch) corner."""
    plan = circuit.plan
    delays = np.asarray(delays, dtype=np.float64)
    arrival = float(input_arrival)
    cached = _CACHE.get(plan)
    if cached is not None and cached[1] == arrival \
            and np.array_equal(cached[0], delays):
        return cached[2]
    envelope = compute_envelope(plan, delays, arrival)
    _CACHE[plan] = (delays.copy(), arrival, envelope)
    return envelope


def check_bounds(circuit: "Circuit", delays: np.ndarray,
                 input_arrival: float,
                 arrivals: Mapping[str, np.ndarray],
                 engine: str = "?", glitch_model: str = "?") -> None:
    """Assert propagate output against the envelope; raise on escape."""
    envelope = envelope_for(circuit, delays, input_arrival)
    plan = circuit.plan
    for name in circuit.output_names:
        rows = plan.rows[circuit.output_nets(name)]
        lo = envelope.min_rows[rows][:, None]
        hi = envelope.max_rows[rows][:, None]
        observed = np.asarray(arrivals[name], dtype=np.float64)
        ok = (observed == 0.0) | ((observed >= lo) & (observed <= hi))
        if bool(ok.all()):
            continue
        bit, vector = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise BoundsViolation(
            f"{circuit.name}: arrival {observed[bit, vector]!r} ps on "
            f"{name}[{int(bit)}] (vector {int(vector)}) escapes the "
            f"static envelope [{envelope.min_rows[rows][bit]!r}, "
            f"{envelope.max_rows[rows][bit]!r}] "
            f"(engine={engine}, glitch_model={glitch_model})")


def maybe_check_bounds(circuit: "Circuit", delays: np.ndarray,
                       input_arrival: float,
                       arrivals: Mapping[str, np.ndarray],
                       engine: str = "?",
                       glitch_model: str = "?") -> None:
    """The propagate hook: no-op unless ``REPRO_CHECK_BOUNDS`` is set."""
    if not bounds_check_enabled():
        return
    check_bounds(circuit, delays, input_arrival, arrivals,
                 engine=engine, glitch_model=glitch_model)
