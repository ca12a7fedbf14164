"""Process-global, seeded, deterministic fault-injection plane.

The paper's premise is operating hardware past its guaranteed margins
and characterizing what breaks; this module applies the same idea to
the runtime itself.  Every layer that can fail in production declares
**named injection sites** (``store.object_write`` /
``store.object_read``, ``campaign.shard_dispatch``,
``campaign.unit_run``, ...)
and asks the plane on each pass whether a fault should fire there.  Forked campaign workers fire ``campaign.worker.kill.w<i>``
before each unit of worker *i*'s shard.  The distributed fabric adds
its network surface as first-class sites: ``fabric.http.put`` /
``fabric.http.get`` (one hit per HTTP attempt; ``oserror`` =
unreachable, ``corrupt`` = torn response body),
``fabric.lease.renew`` (a heartbeat that cannot reach the store) and
``fabric.worker.kill.w<i>`` (SIGKILL worker *i* mid-lease; the site is
per-worker because decisions are pure functions of (seed, site, hit)
-- one shared name would kill every worker at the same hit -- and
``fabric.worker.kill*`` still targets the family).  A *schedule* --
parsed from ``REPRO_FAULTS`` or the CLI ``--faults`` flag -- maps
sites to fault modes::

    REPRO_FAULTS="seed=7;store.object_write:torn@p=0.1;campaign.worker.kill.w1:kill@after=3"

Grammar: rules are ``;``-separated ``site:mode@param,param`` clauses
plus an optional ``seed=N`` clause.  ``site`` may end in ``*`` for a
prefix match.  Params:

* ``p=F``       -- fire with probability F on every hit (decided by a
  hash of (seed, site, hit index): fully deterministic, independent of
  process identity or wall clock);
* ``after=N``   -- fire exactly on the N-th hit of the site;
* ``hits=A+B``  -- fire exactly on the listed hit indices (the replay
  form: :func:`schedule_from_log` pins a failed run's fired faults
  this way);
* ``times=K``   -- stop after K fires of this rule (default: 1 for
  ``after``, unlimited otherwise).

Modes are interpreted by the site that declares them (``torn`` tears a
store write, ``corrupt`` garbles a fabric HTTP response body, ...) except
for three the plane handles uniformly: ``kill`` SIGKILLs the current
process at the site, ``raise``/any mode reaching :func:`trip` raises
:class:`InjectedFault`, and ``oserror`` is raised as a transient
:class:`OSError` by ``store.object_write`` and the fabric I/O sites.

Every fired fault is appended to the in-process ``fired`` list, logged
as a warning, and -- when ``REPRO_FAULT_LOG`` names a file -- appended
as one JSON line, so a failing chaos run can be replayed exactly:
:func:`schedule_from_log` turns the log back into a pinned
``hits=``-schedule.

Hit counters are per process: a forked worker inherits the plane
object (and its counters at fork time) but counts its own hits from
there -- which is why the worker kill sites are per-worker names.
Replays compare fired faults as (site, mode, hit) multisets for
exactly this reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

_LOG_ENV = "REPRO_FAULT_LOG"
_SPEC_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """An injected fault surfaced as an exception (mode ``raise``)."""


class FaultSpecError(ValueError):
    """A fault schedule string does not parse."""


@dataclass(frozen=True)
class FaultRule:
    """One ``site:mode@params`` clause of a schedule."""

    site: str
    mode: str
    p: float | None = None
    after: int | None = None
    hits: tuple[int, ...] = ()
    times: int | None = None

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    def decide(self, seed: int, site: str, hit: int) -> bool:
        """Deterministic fire decision for one hit of a site."""
        if self.hits:
            return hit in self.hits
        if self.after is not None:
            return hit == self.after
        if self.p is not None:
            return uniform(seed, site, hit) < self.p
        return True  # unconditional: every hit fires

    def max_fires(self) -> int | None:
        if self.times is not None:
            return self.times
        if self.hits:
            return len(self.hits)
        if self.after is not None:
            return 1
        return None  # unlimited


def uniform(seed: int, key: str, n: int) -> float:
    """Deterministic uniform [0, 1) from (seed, key, n).

    The fault plane's decision draw, also the retry and lease-poll
    jitter: a pure function of its arguments, so replays repeat it.
    """
    digest = hashlib.sha256(
        f"{seed}\x00{key}\x00{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def parse_schedule(spec: str) -> tuple[tuple[FaultRule, ...], int]:
    """Parse a schedule string into (rules, seed)."""
    rules: list[FaultRule] = []
    seed = 0
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[5:])
            except ValueError as error:
                raise FaultSpecError(f"bad seed clause {clause!r}") \
                    from error
            continue
        head, _, params = clause.partition("@")
        site, sep, mode = head.partition(":")
        if not sep or not site or not mode:
            raise FaultSpecError(
                f"bad fault clause {clause!r} (want site:mode@params)")
        kwargs: dict = {}
        for param in filter(None, params.split(",")):
            key, sep, value = param.partition("=")
            if not sep:
                raise FaultSpecError(
                    f"bad fault param {param!r} in {clause!r}")
            try:
                if key == "p":
                    kwargs["p"] = float(value)
                elif key == "after":
                    kwargs["after"] = int(value)
                elif key == "times":
                    kwargs["times"] = int(value)
                elif key == "hits":
                    kwargs["hits"] = tuple(
                        int(item) for item in value.split("+"))
                else:
                    raise FaultSpecError(
                        f"unknown fault param {key!r} in {clause!r}")
            except ValueError as error:
                raise FaultSpecError(
                    f"bad fault param {param!r} in {clause!r}") \
                    from error
        rules.append(FaultRule(site=site, mode=mode, **kwargs))
    return tuple(rules), seed


@dataclass
class FaultPlane:
    """Evaluates a schedule against per-site hit counters."""

    rules: tuple[FaultRule, ...]
    seed: int = 0
    log_path: str | None = None
    #: Fired faults of this process, in order.
    fired: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._hits: dict[str, int] = defaultdict(int)
        self._fires: dict[int, int] = defaultdict(int)

    def fire(self, site: str) -> str | None:
        """Count one hit of a site; fire and return the mode, or None.

        ``kill`` mode never returns: the process SIGKILLs itself at
        the site (after logging), which is the point.
        """
        self._hits[site] += 1
        hit = self._hits[site]
        for index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            cap = rule.max_fires()
            if cap is not None and self._fires[index] >= cap:
                continue
            if not rule.decide(self.seed, site, hit):
                continue
            self._fires[index] += 1
            self._record(site, rule.mode, hit)
            if rule.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            return rule.mode
        return None

    def _record(self, site: str, mode: str, hit: int) -> None:
        from repro import obs
        # mono shares CLOCK_MONOTONIC with trace spans, so firings
        # order unambiguously across processes; span ties the firing
        # to the trace region it interrupted (null when not tracing).
        record = {"site": site, "mode": mode, "hit": hit,
                  "pid": os.getpid(), "unix": time.time(),
                  "mono": time.monotonic() * 1e6,
                  "span": obs.current_span_id()}
        self.fired.append(record)
        import logging
        logging.getLogger("repro.faults").warning(
            "injected fault %s:%s at hit %d", site, mode, hit)
        if self.log_path:
            line = json.dumps(record, sort_keys=True) + "\n"
            try:
                # One O_APPEND write per record: concurrent processes
                # interleave whole lines, never torn ones (short line).
                with open(self.log_path, "a") as handle:
                    handle.write(line)
            except OSError:
                pass  # the log is diagnostic, never load-bearing


# -- process-global plane ------------------------------------------------

_PLANE: FaultPlane | None = None
#: Spec string the current plane was built from (None = explicitly
#: cleared / never built); lets env changes rebuild lazily.
_PLANE_SPEC: str | None = None
_EXPLICIT = False


def configure(spec: str | None,
              log_path: str | None = None) -> FaultPlane | None:
    """Install a plane from a schedule string (None/'' clears it).

    Explicit configuration (the CLI ``--faults`` flag) wins over the
    ``REPRO_FAULTS`` environment variable until :func:`reset`.
    """
    global _PLANE, _PLANE_SPEC, _EXPLICIT
    _EXPLICIT = True
    _PLANE_SPEC = spec or None
    if not spec:
        _PLANE = None
        return None
    rules, seed = parse_schedule(spec)
    _PLANE = FaultPlane(rules=rules, seed=seed,
                        log_path=log_path
                        or os.environ.get(_LOG_ENV) or None)
    return _PLANE


def reset() -> None:
    """Drop any plane and forget explicit configuration (tests)."""
    global _PLANE, _PLANE_SPEC, _EXPLICIT
    _PLANE = None
    _PLANE_SPEC = None
    _EXPLICIT = False


def get_plane() -> FaultPlane | None:
    """The active plane, lazily (re)built from ``REPRO_FAULTS``."""
    global _PLANE, _PLANE_SPEC
    if _EXPLICIT:
        return _PLANE
    spec = os.environ.get(_SPEC_ENV) or None
    if spec != _PLANE_SPEC:
        _PLANE_SPEC = spec
        if spec is None:
            _PLANE = None
        else:
            rules, seed = parse_schedule(spec)
            _PLANE = FaultPlane(rules=rules, seed=seed,
                                log_path=os.environ.get(_LOG_ENV)
                                or None)
    return _PLANE


def active() -> bool:
    return get_plane() is not None


def fire(site: str) -> str | None:
    """Module-level :meth:`FaultPlane.fire`; no-op without a plane."""
    plane = get_plane()
    if plane is None:
        return None
    return plane.fire(site)


def trip(site: str) -> None:
    """Fire a site where *any* fault mode means "raise here".

    ``kill`` never returns from :func:`fire`; every other fired mode
    becomes an :class:`InjectedFault` carrying the site name.
    """
    mode = fire(site)
    if mode is not None:
        raise InjectedFault(f"injected {mode} fault at {site}")


# -- replay --------------------------------------------------------------

def read_log(path: str | Path) -> list[dict]:
    """Parse a fired-fault log (unparsable lines are skipped)."""
    records = []
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "site" in record:
            records.append(record)
    return records


def schedule_from_log(records: list[dict]) -> str:
    """Pinned ``hits=`` schedule replaying exactly the logged faults.

    Hit indices are per process and per site; replaying pins every
    (site, mode) pair to the union of the hit indices it fired at, so
    a deterministic rerun fires the same faults at the same points.
    """
    by_rule: dict[tuple[str, str], set[int]] = defaultdict(set)
    for record in records:
        by_rule[(record["site"], record["mode"])].add(int(record["hit"]))
    clauses = [
        f"{site}:{mode}@hits=" + "+".join(
            str(hit) for hit in sorted(hits))
        for (site, mode), hits in sorted(by_rule.items())
    ]
    return ";".join(clauses)
