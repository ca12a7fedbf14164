"""Canonical JSON encoding for store keys and artifacts.

Two jobs live here:

* **Lossless numpy round-trips.**  Artifacts carry numpy arrays (DTA
  critical-period matrices) and occasionally numpy scalars inside
  config dicts.  Arrays are encoded as a tagged object holding the
  dtype string, the shape and the base64 of the raw C-order bytes, so
  decoding reproduces the exact dtype and bit pattern; numpy scalars
  travel as 0-d arrays and come back as the same ``np.generic`` type.

* **Canonical key text.**  Cache keys are the SHA-256 of the canonical
  JSON of a key payload (sorted keys, no whitespace).  Any numpy
  values are normalized through the same encoder first, so logically
  equal payloads always hash identically.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

#: Tag marking an encoded ndarray (or numpy scalar as a 0-d array).
NDARRAY_TAG = "__ndarray__"


def encode(value):
    """Recursively convert a value into JSON-serializable form.

    Dicts, lists and tuples are walked (tuples become lists -- JSON has
    no tuple type); numpy arrays and scalars become tagged objects;
    everything else must already be JSON-native.
    """
    if isinstance(value, dict):
        return {_string_key(key): encode(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, np.generic):
        # bool_/integer/floating scalars: a 0-d array keeps the dtype.
        return _encode_array(np.asarray(value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} for the store")


def decode(value):
    """Inverse of :func:`encode`; numpy scalars regain their dtype."""
    if isinstance(value, dict):
        if NDARRAY_TAG in value:
            return _decode_array(value)
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value


def _string_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"store dict keys must be strings, got {key!r}")
    return key


def _encode_array(array: np.ndarray) -> dict:
    if array.dtype.hasobject:
        raise TypeError("object arrays cannot be stored")
    contiguous = np.ascontiguousarray(array)
    return {
        NDARRAY_TAG: True,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(payload: dict):
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    array = array.reshape(payload["shape"]).copy()
    if array.ndim == 0:
        return array[()]  # numpy scalar with the original dtype
    return array


def canonical_json(payload) -> str:
    """Deterministic JSON text of a payload (keys sorted, compact)."""
    return native_json(encode(payload))


def native_json(value) -> str:
    """:func:`canonical_json` of an already JSON-native value (a key
    or body parsed back from a stored envelope, say), without the
    :func:`encode` walk, which on a warm read costs several times the
    ``json.loads`` it follows."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def text_hash(text: str) -> str:
    """SHA-256 hex digest of a canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def json_hash(value) -> str:
    """SHA-256 hex digest of an already JSON-native value's canonical
    JSON; equal to :func:`key_hash` on such a value."""
    return text_hash(native_json(value))


def key_hash(payload) -> str:
    """SHA-256 hex digest of a key payload's canonical JSON."""
    return text_hash(canonical_json(payload))
