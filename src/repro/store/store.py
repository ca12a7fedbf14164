"""Content-addressed result store over a pluggable object backend.

Layout under a *filesystem* store root::

    objects/ab/abcdef...json # one envelope per artifact
    quarantine/              # poisoned envelopes, kept for forensics
    leases/                  # fabric work-lease ledger (raw blobs)

An object's file name is the SHA-256 of the canonical JSON of its
*key payload* -- a dict carrying the artifact kind, schema version,
experiment, scale, seed and condition config -- so logically identical
requests land on the same entry across invocations and processes.

The store's byte-level I/O goes through a
:class:`repro.store.backend.StoreBackend`: :class:`FsBackend` is the
local directory layout above; :class:`repro.fabric.remote.HttpBackend`
speaks the same five primitives to a shared object service
(``repro store serve``), which is how N hosts share one store.  All
envelope semantics -- checksums, schema staleness, quarantine -- are
backend-independent and live here.

Robustness rules:

* Writes are **atomic**: the envelope is written to a temp file in the
  same directory and ``os.replace``d into place (the HTTP service does
  the same server-side), so a killed campaign never leaves a
  half-written (and thus poisoned) entry.
* Reads are **paranoid**: an entry whose JSON does not parse, whose
  embedded key does not canonically match the request, whose artifact
  body fails its stored checksum, or whose schema version is stale is
  treated as a miss (never returned).  Corrupt objects are never
  silently skipped: they are **quarantined** -- moved to
  ``quarantine/`` under the store root with a logged reason -- so the
  caller recomputes and the forensic evidence survives until ``gc``
  reclaims it (after :data:`~ResultStore.TEMP_GRACE_S`, under
  ``--max-bytes`` pressure, or on ``--all``).
* Writes are **durable**: the object temp file is fsynced (plus the
  containing directory after the rename), so an acknowledged ``put``
  survives a crash of the machine, not only of the process.
  ``REPRO_STORE_NO_FSYNC=1`` trades that away for speed.
* Transient ``OSError``s on the write path are retried with bounded
  exponential backoff and deterministic seeded jitter
  (:class:`repro.store.retry.RetryPolicy`; budget via
  ``REPRO_STORE_RETRIES`` / ``REPRO_STORE_BACKOFF_S``).
* The objects directory is the one index: a ``put`` is a single
  object write, and ``ls`` reads every envelope through the backend,
  so no second file can drift from what ``get`` serves.  ``ls`` is
  read-only: it skips unparsable or self-inconsistent objects and
  leaves quarantining them to ``get``.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from repro import faults, obs
from repro.store.backend import FsBackend, ObjectStat, StoreBackend
from repro.store.retry import RetryPolicy
from repro.store.schema import artifact_from_json, artifact_to_json, \
    current_schema
from repro.store.serialize import canonical_json, json_hash, key_hash, \
    native_json, text_hash

FORMAT = "repro-store/1"

_LOG = logging.getLogger("repro.store")


@dataclass(frozen=True)
class StoreEntry:
    """One listed artifact: its envelope metadata and on-disk size."""

    sha256: str
    kind: str
    schema: int
    experiment: str
    label: str
    created_unix: float
    n_bytes: int


def default_root() -> Path:
    """Store location used by the CLI when ``--store`` is not given.

    ``REPRO_STORE`` overrides; otherwise the XDG cache directory.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-store"


class ResultStore:
    """Content-addressed artifact store over an object backend."""

    def __init__(self, root: str | Path | None = None, *,
                 backend: StoreBackend | None = None):
        if backend is None:
            if root is None:
                raise ValueError("ResultStore needs a root or a backend")
            backend = FsBackend(root)
        self.backend = backend
        self.retry = RetryPolicy.from_env()
        self._fs = backend if isinstance(backend, FsBackend) else None
        if self._fs is not None:
            self.root: Path | str = self._fs.root
            self.objects = self._fs.root / "objects"
            self.quarantine_dir = self._fs.root / "quarantine"
            self.objects.mkdir(parents=True, exist_ok=True)
        else:
            self.root = backend.describe()
            self.objects = None
            self.quarantine_dir = None

    @classmethod
    def default(cls) -> "ResultStore":
        return cls(default_root())

    @classmethod
    def remote(cls, url: str, **backend_kwargs) -> "ResultStore":
        """A store served over HTTP by ``repro store serve``."""
        from repro.fabric.remote import HttpBackend
        return cls(backend=HttpBackend(url, **backend_kwargs))

    # -- keys and paths --------------------------------------------------

    @staticmethod
    def key_of(payload: dict) -> str:
        """SHA-256 content address of a key payload."""
        return key_hash(payload)

    @staticmethod
    def _object_name(sha: str) -> str:
        return f"objects/{sha[:2]}/{sha}.json"

    def _object_path(self, sha: str) -> Path:
        assert self.objects is not None, "fs-only operation"
        return self.objects / sha[:2] / f"{sha}.json"

    # -- core operations -------------------------------------------------

    def put(self, key_payload: dict, artifact, label: str = "",
            if_absent: bool = False) -> str:
        """Store an artifact under its key; returns the content hash.

        The envelope lands atomically in one backend write.  With
        ``if_absent`` the write is conditional: an existing entry is
        left untouched -- the fabric's duplicate-compute suppression.
        """
        kind = key_payload["kind"]
        with obs.span("store.put", kind=kind):
            key_text = canonical_json(key_payload)
            sha = text_hash(key_text)
            body = artifact_to_json(kind, artifact)
            envelope = {
                "format": FORMAT,
                "sha256": sha,
                "label": label,
                "created_unix": time.time(),
                "key": json.loads(key_text),
                "artifact": body,
                # Body checksum, verified on get(): detects torn or
                # bit-rotted artifact bodies behind a parseable
                # envelope.
                "body_sha256": key_hash(body),
            }
            name = self._object_name(sha)
            text = json.dumps(envelope, separators=(",", ":"))
            self._retry("object write",
                        lambda: self._write_object(name, text,
                                                   if_absent=if_absent))
            obs.counter("store.put_bytes", len(text))
        return sha

    def _write_object(self, name: str, text: str, *,
                      if_absent: bool = False) -> None:
        mode = faults.fire("store.object_write")
        if mode == "oserror":
            raise OSError(
                "injected transient OSError at store.object_write")
        if mode == "torn":
            # An acknowledged-but-torn write: the atomic machinery runs,
            # but half the payload is lost.  get() must catch this via
            # parse/checksum failure and quarantine the object.
            text = text[:len(text) // 2]
        self.backend.write(name, text.encode(), if_absent=if_absent)

    def _retry(self, what: str, func):
        """Run a write-path step, absorbing transient OSErrors."""
        return self.retry.run(what, func, log=_LOG)

    def get(self, key_payload: dict):
        """Load the artifact stored under a key, or None on any miss.

        Corrupted files, key mismatches (hash collisions, tampering),
        checksum failures and stale schema versions all read as
        misses -- and any of those found *on disk* is quarantined with
        a logged reason rather than silently skipped, so the caller's
        recompute does not re-hit the same poison.
        """
        with obs.span("store.get",
                      kind=key_payload.get("kind", "")) as rec:
            artifact = self._get(key_payload)
            hit = artifact is not None
            rec.set(hit=hit)
        obs.counter("store.hit" if hit else "store.miss")
        return artifact

    def _get(self, key_payload: dict):
        found = self._envelope(key_payload, read_faults=True)
        if found is None:
            return None
        name, envelope = found
        body_sha = envelope.get("body_sha256")
        if body_sha is not None \
                and json_hash(envelope["artifact"]) != body_sha:
            self._quarantine(name, "artifact body checksum mismatch")
            return None
        try:
            return artifact_from_json(key_payload["kind"],
                                      envelope["artifact"])
        except Exception as error:
            self._quarantine(name,
                             f"artifact body failed to decode: {error}")
            return None

    def contains(self, key_payload: dict) -> bool:
        """Whether a valid-looking entry exists for a key.

        Envelope-level check only (format, key match, schema): unlike
        :meth:`get` it does not decode the artifact body, so scanning
        a large campaign for pending units stays cheap.  A corrupted
        artifact body behind a valid envelope still reads as a miss in
        :meth:`get`; callers that need the artifact must handle that.
        """
        return self._envelope(key_payload) is not None

    def _envelope(self, key_payload: dict, *,
                  read_faults: bool = False) -> tuple[str, dict] | None:
        """(object name, envelope) of a key's entry, or None on a miss.

        Schema -> read -> parse -> key match, shared by :meth:`get` and
        :meth:`contains`; a present object failing parse or key match
        is quarantined.  Only ``get`` passes ``read_faults``, so
        ``store.object_read`` hit counts follow ``get`` calls alone.
        """
        kind = key_payload.get("kind", "")
        try:
            if key_payload.get("schema") != current_schema(kind):
                return None  # stale-schema request: never served
        except KeyError:
            return None
        key_text = canonical_json(key_payload)
        name = self._object_name(text_hash(key_text))
        data = self.backend.read(name)
        if data is None:
            return None
        if read_faults and faults.fire("store.object_read") == "corrupt":
            self._quarantine(name, "injected read corruption")
            return None
        envelope = self._parse_envelope(data)
        if envelope is None:
            self._quarantine(name, "unreadable or malformed envelope")
            return None
        if native_json(envelope["key"]) != key_text:
            self._quarantine(name, "embedded key mismatches address")
            return None
        return name, envelope

    def delete(self, key_payload: dict) -> bool:
        """Remove the entry stored under a key; True if one existed."""
        return self.backend.delete(
            self._object_name(self.key_of(key_payload)))

    def _quarantine(self, name: str, reason: str) -> None:
        """Move a corrupt object aside, keeping it for forensics."""
        if not self.backend.quarantine(name, reason):
            return  # already gone (e.g. a racing reader moved it)
        obs.counter("store.quarantine")
        _LOG.warning("quarantined corrupt store object %s: %s",
                     name.rsplit("/", 1)[-1], reason)

    # -- listing ---------------------------------------------------------

    def ls(self) -> list[StoreEntry]:
        """All listable entries, oldest first.

        Walks the backend's ``objects/`` and reads every envelope (a
        full read of the store, like ``gc``: diagnostics-grade, not a
        hot path).  Unparsable objects and objects whose key does not
        hash to their name are skipped; temp files of in-flight writes
        never list.  Read-only: nothing is quarantined here.
        ``n_bytes`` is the object's stored size.
        """
        entries = [self._entry_of(envelope, stat.size)
                   for stat, envelope in self._scan()
                   if envelope is not None]
        return sorted(entries, key=lambda entry: entry.created_unix)

    def _scan(self) -> Iterator[tuple[ObjectStat, dict | None]]:
        """Yield (stat, envelope) per object; the envelope is None when
        it does not parse or its key does not hash to its name."""
        for stat in self.backend.list("objects/"):
            data = self.backend.read(stat.name)
            envelope = None if data is None else self._parse_envelope(data)
            if envelope is not None and not self._self_consistent(
                    envelope, PurePosixPath(stat.name).stem):
                envelope = None
            yield stat, envelope

    # -- garbage collection ----------------------------------------------

    #: Temp files *and quarantined objects* younger than this are left
    #: alone by the default ``gc`` pass: a young temp file may belong
    #: to a live writer mid-write, and young quarantine is forensic
    #: evidence someone may still want to inspect.
    TEMP_GRACE_S = 3600.0

    def gc(self, *, remove_all: bool = False,
           kinds: tuple[str, ...] | None = None,
           max_bytes: int | None = None,
           pin_kinds: tuple[str, ...] = ()) -> tuple[int, int]:
        """Reclaim store space; returns (entries removed, bytes freed).

        The default pass removes only *dead* data: unparsable or
        self-inconsistent envelopes, entries with a stale schema
        version, temp files abandoned by killed writers and
        quarantined objects that have outlived their forensic value
        (both older than :data:`TEMP_GRACE_S`; younger temp files may
        belong to an in-flight atomic write of a concurrent campaign
        worker).  ``remove_all`` drops every entry (optionally
        restricted to ``kinds``) and empties the quarantine.

        ``max_bytes`` adds a size-capped LRU pass *after* the
        dead-data reclaim: while the surviving objects still exceed
        the cap, entries are evicted -- and only until the total drops
        to the cap, never below it, so a gc racing a live campaign
        reclaims the minimum necessary (evicted entries are recomputed
        on their next resolve; everything newer stays a hit).
        Quarantined objects **count toward the cap** and are reclaimed
        first, oldest first -- poisoned evidence is never worth a live
        entry's eviction.

        ``pin_kinds`` weights the LRU pass by recompute cost: entries
        of a pinned kind (e.g. ``alu_characterization``, whose 1.5 MB
        tables cost a full DTA sweep to rebuild) are evicted only
        after every unpinned entry is gone -- age order within each
        class.  The cap stays *hard*: when the pinned entries alone
        exceed ``max_bytes`` (including a cap smaller than the largest
        single pinned entry), pinned entries are evicted too, oldest
        first, until the store fits.
        """
        if self._fs is None:
            raise RuntimeError(
                "gc runs on the service host against its store root, "
                "not through the HTTP backend")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        with obs.span("store.gc", remove_all=remove_all) as rec:
            removed, freed = self._gc(remove_all=remove_all,
                                      kinds=kinds, max_bytes=max_bytes,
                                      pin_kinds=pin_kinds)
            rec.set(removed=removed, freed_bytes=freed)
        return removed, freed

    def _gc(self, *, remove_all: bool,
            kinds: tuple[str, ...] | None,
            max_bytes: int | None,
            pin_kinds: tuple[str, ...]) -> tuple[int, int]:
        removed = 0
        freed = 0
        cutoff = time.time() - self.TEMP_GRACE_S
        for path in self.objects.glob("*/.tmp-*"):
            try:
                stat = path.stat()
                if stat.st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # renamed/removed by its writer meanwhile
            freed += stat.st_size
            removed += 1
        # Eviction candidates: (rank, age, path, size).  Rank orders
        # the classes -- quarantine (0) before unpinned live entries
        # (1) before pinned ones (2) -- and the byte-cap pass walks
        # them in sorted order.
        candidates: list[tuple[int, float, Path, int]] = []
        if self.quarantine_dir.exists():
            for path in sorted(self.quarantine_dir.iterdir()):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if remove_all and kinds is None \
                        or stat.st_mtime < cutoff:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += 1
                    freed += stat.st_size
                else:
                    candidates.append((0, stat.st_mtime, path,
                                       stat.st_size))
        for obj, envelope in self._scan():
            dead = envelope is None or self._stale(envelope)
            kind = (envelope or {}).get("key", {}).get("kind")
            if remove_all and (kinds is None or kind in kinds):
                dead = True
            if dead:
                if not self.backend.delete(obj.name):
                    continue
                removed += 1
                freed += obj.size
            else:
                candidates.append((
                    2 if kind in pin_kinds else 1,
                    float(envelope.get("created_unix", 0.0)),
                    self._fs.root / obj.name, obj.size))
        if max_bytes is not None:
            evicted, evicted_bytes = self._evict_lru(candidates,
                                                     max_bytes)
            removed += evicted
            freed += evicted_bytes
        return removed, freed

    def _evict_lru(self, candidates: list[tuple[int, float, Path, int]],
                   max_bytes: int) -> tuple[int, int]:
        """Evict candidates until the total fits ``max_bytes``.

        ``candidates`` carries (rank, age, path, size) of every
        surviving object -- quarantined files, then unpinned live
        entries, then pinned ones; the sort order (rank, oldest first
        within each rank, path as the deterministic tie-break) *is*
        the eviction order.  Eviction stops the moment the running
        total is at or under the cap.
        """
        total = sum(size for _, _, _, size in candidates)
        removed = 0
        freed = 0
        for _, _, path, size in sorted(candidates):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already reclaimed by a concurrent gc
            total -= size
            removed += 1
            freed += size
        return removed, freed

    # -- internals -------------------------------------------------------

    @classmethod
    def _parse_envelope(cls, data: bytes) -> dict | None:
        try:
            envelope = json.loads(data.decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(envelope, dict) \
                or envelope.get("format") != FORMAT \
                or not isinstance(envelope.get("key"), dict) \
                or "artifact" not in envelope:
            return None
        return envelope

    @staticmethod
    def _self_consistent(envelope: dict, stem: str) -> bool:
        """Entry's own key must hash to its file name."""
        return json_hash(envelope["key"]) == stem

    @staticmethod
    def _stale(envelope: dict) -> bool:
        key = envelope["key"]
        try:
            return key.get("schema") != current_schema(key["kind"])
        except KeyError:
            return True

    @staticmethod
    def _entry_of(envelope: dict, n_bytes: int) -> StoreEntry:
        key = envelope["key"]
        return StoreEntry(
            sha256=envelope["sha256"],
            kind=key.get("kind", "?"),
            schema=int(key.get("schema", -1)),
            experiment=str(key.get("experiment", "")),
            label=str(envelope.get("label", "")),
            created_unix=float(envelope.get("created_unix", 0.0)),
            n_bytes=n_bytes,
        )
