"""Persistent, content-addressed result store.

Monte-Carlo points, frequency sweeps and DTA characterizations are
expensive to compute and fully determined by (experiment, scale, seed,
condition config, schema version).  This package persists them as
canonical JSON envelopes addressed by the SHA-256 of that key, so
repeated invocations -- and campaign worker processes -- reuse instead
of recompute.

Each artifact kind is declared once, in the kind table of
:mod:`repro.store.schema`; its schema version lives on the artifact
class (``SCHEMA``).  Importing this package loads no artifact module:
a kind's class is imported on its first use.
"""

from repro.store.backend import FsBackend, ObjectStat, StoreBackend
from repro.store.retry import RetryPolicy
from repro.store.schema import (
    KINDS,
    artifact_from_json,
    artifact_to_json,
    current_schema,
)
from repro.store.serialize import canonical_json, decode, encode, key_hash
from repro.store.store import ResultStore, StoreEntry, default_root

__all__ = [
    "KINDS",
    "FsBackend",
    "ObjectStat",
    "ResultStore",
    "RetryPolicy",
    "StoreBackend",
    "StoreEntry",
    "artifact_from_json",
    "artifact_to_json",
    "canonical_json",
    "current_schema",
    "decode",
    "default_root",
    "encode",
    "key_hash",
]
