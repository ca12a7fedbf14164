"""Per-unit failure markers: campaign crash isolation state.

A campaign unit that raises must not abort the whole run -- the
orchestrator records a :class:`UnitFailure` in the store under a key
*derived from* (but distinct from) the unit's own key, so:

* ``campaign status`` can report failed units separately from
  never-attempted ones (with the attempt count and the stored
  traceback available for diagnosis);
* ``campaign run --max-retries N`` knows how often a unit has already
  been tried;
* a later successful compute deletes the marker, so stale failure
  state never outlives its cause.

The store's schema registry imports this module lazily; importing the
orchestrator here would complete a cycle through ``repro.store``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.mc.units import work_unit_key
from repro.store.serialize import key_hash


@dataclass(frozen=True)
class UnitFailure:
    """Outcome record of a unit whose compute raised."""

    SCHEMA: ClassVar[int] = 1

    label: str
    error: str  # formatted traceback of the last attempt
    attempts: int
    last_unix: float

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
            "last_unix": self.last_unix,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "UnitFailure":
        return cls(
            label=str(payload["label"]),
            error=str(payload["error"]),
            attempts=int(payload["attempts"]),
            last_unix=float(payload["last_unix"]),
        )


def failure_key(unit_key: dict) -> dict:
    """Store key of the failure marker shadowing one unit key.

    The unit's full key is folded to its hash: the marker must never
    collide with the unit's own entry, and the marker key must stay
    valid for *any* unit kind without copying kind-specific fields.
    """
    return work_unit_key("unit_failure", unit_key.get("experiment", ""),
                         None, unit_key.get("seed", 0),
                         {"unit_sha": key_hash(unit_key)},
                         stream="failure")
