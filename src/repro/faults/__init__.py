"""Deterministic fault injection (see :mod:`repro.faults.plane`)."""

from repro.faults.plane import (  # noqa: F401
    FaultPlane,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    active,
    configure,
    fire,
    get_plane,
    parse_schedule,
    read_log,
    reset,
    schedule_from_log,
    trip,
    uniform,
)
