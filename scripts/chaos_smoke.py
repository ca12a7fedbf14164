#!/usr/bin/env python
"""Chaos smoke test: a standing fault schedule must not change results.

Runs the full quick-scale ``campaign run all`` three times:

1. **clean** into store A -- the reference output, no faults;
2. **chaos** into store B, ``--jobs 2``, under a standing
   ``REPRO_FAULTS`` schedule that fails and tears store object writes,
   raises inside unit computes and SIGKILLs a forked campaign worker.
   The run must still exit 0 (the store retries the failed writes,
   ``--max-retries`` absorbs the unit raises, the parent backstops
   the dead worker's shard, torn artifacts are quarantined and
   recomputed), both object-write modes must have fired, and its
   rendered output must be
   **byte-identical** to the clean run;
3. **replay** into store C under the *same* schedule: the identical
   faults must fire at the identical per-site hit indices (the fired
   logs must match as (site, mode, hit) multisets), proving the fault
   sequence is a pure function of the schedule -- and the pinned
   ``hits=`` schedule ``scripts/fault_replay.py`` derives from run
   2's log must round-trip through the schedule grammar.

Exit code 0 = all invariants hold.  Wired into ``make chaos-smoke``
(part of ``make tier1``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import faults  # noqa: E402

SCALE = "quick"
SEED = "2016"
JOBS = "2"
MAX_RETRIES = "3"

#: The standing chaos schedule.  Every probability is per *hit* and
#: decided by sha256(seed, site, hit), so the whole run is a pure
#: function of this string and the execution order -- rerunning it
#: fires the identical fault sequence.  Rules on one site share one
#: draw per hit and the first matching rule wins, so the two
#: ``store.object_write`` rules split it: draws below 0.04 raise the
#: transient OSError (4% per hit), draws in [0.04, 0.09) tear (5%).
CHAOS_SCHEDULE = (
    "seed=7"
    ";store.object_write:oserror@p=0.04"
    ";store.object_write:torn@p=0.09"
    ";campaign.unit_run:raise@p=0.08"
    ";campaign.worker.kill.w1:kill@after=3"
)


def repro(args: list[str], store: Path,
          env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}" + (
        f":{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_LOG", None)
    env.update(env_extra or {})
    command = [sys.executable, "-m", "repro", *args,
               "--store", str(store)]
    return subprocess.run(command, capture_output=True, text=True,
                          env=env)


def scaled(args: list[str]) -> list[str]:
    return [*args, "--scale", SCALE, "--seed", SEED]


def chaos_args() -> list[str]:
    return scaled(["campaign", "run", "all", "--jobs", JOBS,
                   "--max-retries", MAX_RETRIES])


def fingerprint(log: Path) -> list[tuple[str, str, int]]:
    """Order-independent (site, mode, hit) multiset of a fault log."""
    return sorted((record["site"], record["mode"], int(record["hit"]))
                  for record in faults.read_log(log))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_path = Path(tmp)
        store_a = tmp_path / "store-a"
        store_b = tmp_path / "store-b"
        store_c = tmp_path / "store-c"
        log_b = tmp_path / "faults-b.jsonl"
        log_c = tmp_path / "faults-c.jsonl"

        print("[1/3] clean `campaign run all` into store A ...",
              flush=True)
        clean = repro(scaled(["campaign", "run", "all", "--jobs", JOBS]),
                      store_a)
        if clean.returncode != 0:
            sys.stderr.write(clean.stdout + clean.stderr)
            raise SystemExit("FAIL: clean campaign run exited "
                             f"{clean.returncode}")
        reference = clean.stdout

        print("[2/3] chaos campaign into store B under "
              f"{CHAOS_SCHEDULE!r} ...", flush=True)
        chaos = repro(chaos_args(), store_b, env_extra={
            "REPRO_FAULTS": CHAOS_SCHEDULE,
            "REPRO_FAULT_LOG": str(log_b),
        })
        if chaos.returncode != 0:
            sys.stderr.write(chaos.stdout + chaos.stderr)
            raise SystemExit("FAIL: chaos campaign run exited "
                             f"{chaos.returncode} -- the runtime did "
                             "not heal around the injected faults")
        if chaos.stdout != reference:
            sys.stderr.write(chaos.stderr)
            raise SystemExit("FAIL: chaos campaign output differs from "
                             "the clean run")
        fired_b = fingerprint(log_b)
        if not fired_b:
            raise SystemExit("FAIL: the chaos schedule fired no faults "
                             "-- the smoke test is vacuous")
        write_modes = {mode for site, mode, _ in fired_b
                       if site == "store.object_write"}
        if write_modes != {"oserror", "torn"}:
            raise SystemExit("FAIL: store.object_write fired "
                             f"{sorted(write_modes)}, expected both "
                             "oserror and torn")
        sites = sorted({site for site, _, _ in fired_b})
        print(f"      healed around {len(fired_b)} injected faults "
              f"across {sites}", flush=True)

        print("[3/3] rerun the schedule into store C; fired logs "
              "must match exactly ...", flush=True)
        pin = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "fault_replay.py"),
             str(log_b)], capture_output=True, text=True)
        if pin.returncode != 0 or not pin.stdout.strip():
            sys.stderr.write(pin.stdout + pin.stderr)
            raise SystemExit("FAIL: fault_replay.py could not pin "
                             "run 2's fault log")
        faults.parse_schedule(pin.stdout.strip())  # grammar round-trip
        replay = repro(chaos_args(), store_c, env_extra={
            "REPRO_FAULTS": CHAOS_SCHEDULE,
            "REPRO_FAULT_LOG": str(log_c),
        })
        if replay.returncode != 0:
            sys.stderr.write(replay.stdout + replay.stderr)
            raise SystemExit("FAIL: replay campaign run exited "
                             f"{replay.returncode}")
        if replay.stdout != reference:
            raise SystemExit("FAIL: replay campaign output differs "
                             "from the clean run")
        fired_c = fingerprint(log_c)
        if fired_c != fired_b:
            only_b = [f for f in fired_b if f not in fired_c]
            only_c = [f for f in fired_c if f not in fired_b]
            raise SystemExit(
                "FAIL: replayed fault log differs from the original "
                f"(only in original: {only_b[:5]}, only in replay: "
                f"{only_c[:5]}) -- the fault log is not a "
                "deterministic replay record")

        print(f"chaos smoke OK: {len(fired_b)} faults healed, output "
              "byte-identical to the clean run, fault log replayed "
              "exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
