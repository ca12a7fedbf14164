"""Kill-resume matrix: SIGKILL at every injection site, then resume.

Satellite of the fault-injection harness: a real campaign process
(tests/_chaos_driver.py) is SIGKILLed -- by the fault plane itself --
at each stage of the unit pipeline (fork dispatch, mid-shard compute,
a killed worker, inside a store object write).  Whatever the kill
leaves behind (half-written shards, workers dead mid-unit, an object
write that never landed), a fault-free rerun of the same campaign
must render byte-identical output to a never-killed baseline.

Sites that kill only *workers* are allowed to complete in one go (the
parent backstops the dead worker's shard); their output must then
match the baseline directly.  Either way the fired-fault log must show
the site actually fired -- a cell whose fault never triggers is
vacuous and fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults

DRIVER = Path(__file__).parent / "_chaos_driver.py"

#: site -> fault clause; each clause SIGKILLs the process that reaches
#: the site (parent or forked worker -- whichever hits it first).  The
#: worker kill site is per-worker: children inherit the parent's hit
#: counters, so one shared name would kill both workers on one hit.
MATRIX = {
    "dispatch": "campaign.shard_dispatch:kill@after=1",
    "mid-shard": "campaign.unit_run:kill@after=3",
    "worker-kill": "campaign.worker.kill.w1:kill@after=2",
    "object-write": "store.object_write:kill@after=2",
}


def run_driver(store: Path, env_extra: dict | None = None,
               timeout: float = 600) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_LOG", None)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, str(DRIVER), str(store)],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> str:
    """Rendered output of a never-killed driver run."""
    store = tmp_path_factory.mktemp("kill-matrix") / "store-clean"
    result = run_driver(store)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    return result.stdout


@pytest.mark.parametrize("site", sorted(MATRIX))
def test_kill_at_site_then_resume_is_byte_identical(
        site, baseline, tmp_path):
    store = tmp_path / "store"
    log = tmp_path / "faults.jsonl"
    chaotic = run_driver(store, env_extra={
        "REPRO_FAULTS": MATRIX[site],
        "REPRO_FAULT_LOG": str(log),
    })

    fired = faults.read_log(log) if log.exists() else []
    assert fired, f"the {site} fault never fired -- vacuous cell"
    assert all(record["mode"] == "kill" for record in fired)

    if chaotic.returncode == 0:
        # Only workers were killed; the parent backstopped their
        # shards and finished -- its output must already match.
        assert chaotic.stdout == baseline
        return

    # The campaign process itself was SIGKILLed mid-run.
    assert chaotic.returncode == -9, (chaotic.returncode,
                                      chaotic.stderr[-2000:])
    resumed = run_driver(store)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    assert resumed.stdout == baseline


def test_killed_worker_heals_without_hanging(baseline, tmp_path):
    """SIGKILL one worker of a ``jobs=2`` campaign: exit 0, promptly.

    A ``multiprocessing.Pool`` never delivers a task whose worker was
    SIGKILLed, so a fork dispatch built on one waits forever.  The
    join-based dispatch sees the dead child's pipe hit EOF, backstops
    its shard in the parent and finishes with byte-identical output.
    """
    log = tmp_path / "faults.jsonl"
    chaotic = run_driver(tmp_path / "store", env_extra={
        "REPRO_FAULTS": "campaign.worker.kill.w0:kill@after=1",
        "REPRO_FAULT_LOG": str(log),
    }, timeout=180)
    assert chaotic.returncode == 0, chaotic.stderr[-2000:]
    assert chaotic.stdout == baseline
    assert [(r["site"], r["mode"]) for r in faults.read_log(log)] == \
        [("campaign.worker.kill.w0", "kill")]
