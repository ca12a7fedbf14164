#!/usr/bin/env python
"""Campaign smoke test: run -> kill -> resume -> diff, at quick scale.

Exercises the persistence guarantees end to end with real processes,
over the full ``all`` campaign target (every figure + ablations in one
sharded pass):

1. an uninterrupted ``repro campaign run all --scale quick --jobs 2``
   into store A (the reference output);
2. the same campaign into store B, SIGKILLed as soon as a few work
   units have been persisted (the process group takes the forked
   shard workers down with it);
3. ``repro campaign resume all`` on store B, **serially** -- it must
   reuse the surviving units and render **byte-identical** output to
   the forked step 1 (the dispatch mode is invisible in the results);
4. warm ``repro fig2`` / ``repro fig4`` / ``repro fig5`` reruns
   against store A with ``REPRO_FORBID_MC`` and ``REPRO_FORBID_DTA``
   set: any attempt to reach the Monte-Carlo or timing simulator
   aborts, proving the reruns are served entirely from the store (and
   each figure's output matches its section of the campaign render);
5. ``repro cache gc --max-bytes`` on store A, capped so roughly half
   the work-unit bytes must go: ``cache ls`` must report the store
   under the cap, every ``alu_characterization`` entry must survive
   (the default ``--pin`` evicts the cheap-to-recompute units first),
   and a rerun of the full campaign must recompute exactly the
   evicted units back to byte-identical output while the survivors
   stay cache hits;
6. ``repro fig7 --jobs 2`` into fresh store C, a serial ``repro
   fig7`` into fresh store D, and a serial ``repro fig7`` rerun on
   store C under ``REPRO_FORBID_MC``: all three outputs must be
   byte-identical, so ``--jobs`` changes neither the figure nor its
   store entries.

Exit code 0 = all invariants hold.  Wired into ``make campaign-smoke``
(part of ``make tier1``).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCALE = "quick"
SEED = "2016"
JOBS = "2"
#: Kill once this many work-unit artifacts are on disk in store B.
KILL_AFTER_UNITS = 4
KILL_TIMEOUT_S = 600.0
#: Artifact kinds that are campaign work units (characterizations are
#: planning substrate, not units).
UNIT_KINDS = ("mc_point", "fig2_curve", "fig4_curve", "adder_ablation",
              "table1_row")


def repro(args: list[str], store: Path, env_extra: dict | None = None,
          check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = f"{root / 'src'}" + (
        f":{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "")
    env.update(env_extra or {})
    command = [sys.executable, "-m", "repro", *args,
               "--store", str(store)]
    result = subprocess.run(command, capture_output=True, text=True,
                            env=env)
    if check and result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"FAIL: {' '.join(command)} exited "
                         f"{result.returncode}")
    return result


def scaled(args: list[str]) -> list[str]:
    return [*args, "--scale", SCALE, "--seed", SEED]


def count_units(store: Path) -> int:
    """Work-unit envelopes currently persisted in a store."""
    count = 0
    for path in store.glob("objects/*/*.json"):
        text = path.read_text()
        if any(f'"kind":"{kind}"' in text for kind in UNIT_KINDS):
            count += 1
    return count


def unit_bytes(store: Path) -> int:
    """Bytes held by work-unit artifacts (excludes characterizations)."""
    total = 0
    for path in store.glob("objects/*/*.json"):
        text = path.read_text()
        if any(f'"kind":"{kind}"' in text for kind in UNIT_KINDS):
            total += path.stat().st_size
    return total


def characterization_shas(store: Path) -> set[str]:
    """Content hashes of the pinned characterization entries."""
    return {path.stem for path in store.glob("objects/*/*.json")
            if '"kind":"alu_characterization"' in path.read_text()}


def characterization_bytes(store: Path) -> int:
    """Bytes held by the pinned characterization entries."""
    return sum(path.stat().st_size
               for path in store.glob("objects/*/*.json")
               if '"kind":"alu_characterization"' in path.read_text())


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store_a = Path(tmp) / "store-a"
        store_b = Path(tmp) / "store-b"

        print("[1/6] uninterrupted `campaign run all` into store A ...",
              flush=True)
        fresh = repro(scaled(["campaign", "run", "all", "--jobs", JOBS]),
                      store_a)
        reference = fresh.stdout

        print("[2/6] campaign into store B, SIGKILL mid-run ...",
              flush=True)
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = f"{root / 'src'}" + (
            f":{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro",
             *scaled(["campaign", "run", "all", "--jobs", JOBS]),
             "--store", str(store_b)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env, start_new_session=True)
        deadline = time.monotonic() + KILL_TIMEOUT_S
        killed_midway = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it
            if count_units(store_b) >= KILL_AFTER_UNITS:
                # Kill the whole process group (campaign + fork workers).
                os.killpg(victim.pid, signal.SIGKILL)
                victim.wait()
                killed_midway = True
                break
            time.sleep(0.05)
        else:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()
            raise SystemExit("FAIL: campaign produced no units to kill "
                             "within the timeout")
        survivors = count_units(store_b)
        print(f"      killed={killed_midway} with {survivors} units "
              f"persisted", flush=True)

        print("[3/6] serial resume of store B, diff against "
              "store A ...", flush=True)
        resumed = repro(scaled(["campaign", "resume", "all"]), store_b)
        if resumed.stdout != reference:
            sys.stderr.write(resumed.stdout)
            raise SystemExit("FAIL: resumed campaign output differs "
                             "from the uninterrupted run")
        reused = re.search(r"(\d+) cached", resumed.stderr)
        if killed_midway and (reused is None or int(reused.group(1)) == 0):
            raise SystemExit("FAIL: resume recomputed everything "
                             "(no units were reused)")

        print("[4/6] warm fig2/fig4/fig5 reruns must do zero "
              "simulation ...", flush=True)
        forbid = {"REPRO_FORBID_MC": "1", "REPRO_FORBID_DTA": "1"}
        for figure in ("fig2", "fig4", "fig5"):
            warm = repro(scaled([figure]), store_a, env_extra=forbid)
            if warm.stdout.rstrip("\n") not in reference:
                raise SystemExit(
                    f"FAIL: warm store-served {figure} differs from "
                    f"its campaign section")

        print("[5/6] `cache gc --max-bytes` keeps the cap, pins "
              "characterizations, evicted units recompute ...",
              flush=True)
        # The cap leaves room for every characterization plus half the
        # unit bytes: the default --pin must sacrifice ~half the cheap
        # units (oldest first) while every expensive characterization
        # -- including ones *older* than the evicted units -- survives.
        pinned_before = characterization_shas(store_a)
        cap = characterization_bytes(store_a) + unit_bytes(store_a) // 2
        repro(["cache", "gc", "--max-bytes", str(cap)], store_a)
        listing = repro(["cache", "ls"], store_a)
        match = re.search(r"(\d+) entries, (\d+) bytes",
                          listing.stdout)
        if match is None or int(match.group(2)) > cap:
            raise SystemExit(
                f"FAIL: store exceeds the gc cap ({listing.stdout!r})")
        if characterization_shas(store_a) != pinned_before:
            raise SystemExit(
                "FAIL: gc evicted a pinned characterization while "
                "cheap units were available")
        regen = repro(scaled(["campaign", "run", "all",
                              "--jobs", JOBS]), store_a)
        if regen.stdout != reference:
            raise SystemExit("FAIL: campaign output after eviction "
                             "differs from the reference")
        counts = re.search(r"(\d+) units, (\d+) cached, (\d+) computed",
                           regen.stderr)
        if counts is None or int(counts.group(2)) == 0 \
                or int(counts.group(3)) == 0:
            raise SystemExit(
                "FAIL: post-gc rerun should mix cache hits "
                f"(survivors) with recomputes (evicted): "
                f"{regen.stderr!r}")

        print("[6/6] `fig7 --jobs 2` equals serial fig7 and serves "
              "it from the same store entries ...", flush=True)
        store_c = Path(tmp) / "store-c"
        store_d = Path(tmp) / "store-d"
        sharded = repro(scaled(["fig7", "--jobs", JOBS]), store_c).stdout
        serial = repro(scaled(["fig7"]), store_d).stdout
        served = repro(scaled(["fig7"]), store_c,
                       env_extra={"REPRO_FORBID_MC": "1"}).stdout
        if not sharded == serial == served:
            raise SystemExit("FAIL: `fig7 --jobs 2`, serial fig7 and "
                             "the serial rerun on the --jobs store "
                             "differ")

        print("campaign smoke OK: resume byte-identical, warm reruns "
              "simulation-free, gc cap held with correct recompute, "
              "--jobs figure equals serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
