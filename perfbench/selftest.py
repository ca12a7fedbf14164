"""Tiny-scale self-test of the benchmark (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks, on tiny inputs, that every workload passes its output checks
and prints exactly the metrics ``BENCHMARK.json`` names, traced and
untraced; that the wrappers reach every binding site and are gone from
untraced passes; that a digest mismatch fails a run; and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["attempted"] >= 1 \
                and result["failed"] == 0, result
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace,
                                     set(got) ^ set(expected))
            print(f"ok {workload} --trace {trace}")


def check_wrappers() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import repro.campaign.orchestrator  # noqa: F401
    import repro.mc.sweep

    layers.assert_clean()
    tracer = layers.Tracer()
    tracer.install()
    # run_point is a from-import in repro.mc.sweep: a second site.
    assert getattr(repro.mc.sweep.run_point, layers.MARK) == "mc.run_point"
    assert tracer.stale_bindings() == []
    try:
        layers.assert_clean()
    except RuntimeError:
        pass
    else:
        raise AssertionError("assert_clean missed an installed wrapper")
    print("ok wrappers")


def check_mismatch_fails() -> None:
    passes = [{"pass": "cold", "digest": "a", "failed": 0},
              {"pass": "warm-1", "digest": "b", "failed": 0}]
    try:
        run._check_outputs("campaign", workloads.BASE_SEED, passes, True)
    except run.CheckFailed:
        pass
    else:
        raise AssertionError("differing digests passed the check")
    seed = workloads.BASE_SEED
    passes = [{"pass": "cold", "digest": "not-recorded", "failed": 0}]
    try:
        run._check_outputs("campaign", seed, passes, False)
    except run.CheckFailed:
        pass
    else:
        raise AssertionError("a digest unlike the recorded one passed")
    print("ok mismatch")


def check_needs_source() -> None:
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "campaign-quick", "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print("ok needs-source")


if __name__ == "__main__":
    check_mismatch_fails()
    check_needs_source()
    check_wrappers()
    check_workloads()
    print("selftest passed")
