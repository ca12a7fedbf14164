"""Unified telemetry plane (see :mod:`repro.obs.plane`).

Every layer of the stack asks this package for :func:`span` context
managers and :func:`counter` increments; the plane is off by default
and near-free while off.  ``REPRO_TRACE=<path>`` (or the CLI
``--trace``) turns it on; ``repro trace export`` converts the merged
JSONL to Chrome ``trace_event`` JSON; ``repro stats`` renders the
aggregate tables.
"""

from repro.obs.export import (  # noqa: F401
    category_of,
    counter_totals,
    fabric_split,
    read_trace,
    render_stats,
    span_aggregates,
    spans,
    thread_split,
    to_chrome,
    unit_times,
)
from repro.obs.plane import (  # noqa: F401
    adopted_parent,
    configure,
    counter,
    current_span_id,
    enabled,
    flush,
    merge_parts,
    reset,
    shutdown,
    span,
)
