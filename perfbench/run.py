"""End-to-end benchmark of the repro pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-quick --seed 0 \\
        --seconds 20 --trace 0

Every pass runs in a fresh interpreter with a scrubbed environment
(no ``REPRO_*`` variable, private ``TMPDIR`` / ``XDG_CACHE_HOME``) on a
fresh result store under ``.perfbench_work/`` in the checkout, which
is removed afterwards.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced pass.  The
last line of standard output is the result JSON; the host fingerprint
and the per-pass records are printed on the line before it.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

#: Wall-clock limit of one benchmark invocation (seconds).
RUN_LIMIT_S = 170.0
#: Warm reruns per run: at least / at most.
MIN_WARM, MAX_WARM = 7, 15
#: Set-up-only passes of mc-paper-sweep (plus the cold pass's set-up).
SWEEP_SETUPS = 1

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("sim_cycles_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: Layers each workload's traced cold pass must record calls for.
_CORE = ("sim.cpu_build", "sim.cpu_run", "fi.on_alu", "fi.injector_build",
         "mc.run_point", "mc.golden", "store.put")
REQUIRED = {
    "campaign": _CORE + ("store.get", "store.contains", "campaign.plan", "campaign.run",
                         "experiments.render", "timing.characterize",
                         "timing.dta", "netlist.propagate",
                         "bench.kernel_build"),
    "sweep": _CORE + ("mc.sweep",),
}
REQUIRED_WARM = {
    "campaign": ("store.get", "store.contains", "campaign.plan",
                 "campaign.run", "experiments.render"),
    "sweep": ("store.get", "mc.sweep"),
}


class CheckFailed(Exception):
    """An output or coverage check failed; the run is not valid."""


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Spawns child passes with a scrubbed environment and a deadline."""

    def __init__(self, root: str, workdir: str, deadline: float,
                 tiny: bool):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.tiny = tiny
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        for name, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg")):
            path = os.path.join(workdir, sub)
            os.makedirs(path, exist_ok=True)
            self.env[name] = path
        self.passes: list[dict] = []
        self._count = 0

    def new_store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def child(self, label: str, **spec) -> dict:
        self._count += 1
        stem = os.path.join(self.workdir, f"pass-{self._count}")
        spec.update(tiny=self.tiny, workdir=self.workdir,
                    result=stem + ".out.json")
        spec.setdefault("trace", False)
        with open(stem + ".spec.json", "w") as handle:
            json.dump({**spec, "t_spawn": time.monotonic()}, handle)
        proc = subprocess.Popen(
            [sys.executable, CHILD, stem + ".spec.json"], cwd=self.root,
            env=self.env, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0,
                                         self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The session holds the pass and any fork workers it left.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise RuntimeError(f"pass {label} "
                               + ("timed out" if code is None
                                  else f"exited with code {code}"))
        with open(spec["result"]) as handle:
            result = json.load(handle)
        result["pass"] = label
        self.passes.append(result)
        return result


def _recorded(kind: str, seed: int) -> dict | None:
    with open(DIGESTS) as handle:
        return json.load(handle)[kind].get(str(seed))


def _check_outputs(kind: str, seed: int, passes: list[dict],
                   tiny: bool) -> None:
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        raise CheckFailed(f"outputs differ between passes: "
                          f"{sorted((p['pass'], p['digest']) for p in passes)}")
    for p in passes:
        if p["failed"]:
            raise CheckFailed(f"pass {p['pass']}: {p['failed']} failed units")
    if tiny:
        return
    recorded = _recorded(kind, seed)
    if recorded is None:
        raise CheckFailed(f"no recorded digest for {kind} seed {seed}")
    if digests != {recorded["digest"]}:
        raise CheckFailed(f"output digest {digests.pop()} differs from the "
                          f"recorded {recorded['digest']}")
    for p in passes:
        if "mc_cycles" in p and p["mc_cycles"] != recorded["mc_cycles"]:
            raise CheckFailed(f"pass {p['pass']}: {p['mc_cycles']} simulated "
                              f"cycles, recorded {recorded['mc_cycles']}")


def _check_trace(result: dict, required) -> None:
    if result["stale"]:
        raise CheckFailed(f"unwrapped bindings: {result['stale']}")
    ops, _ = _layer_view(result)
    missing = [op for op in required if ops.get(op, [0])[0] == 0]
    if missing:
        raise CheckFailed(f"pass {result['pass']}: no calls recorded for "
                          f"{missing}")


# -- passes per workload ----------------------------------------------------

def _warm_reruns(make_pass, start: float, seconds: float) -> list[dict]:
    """Warm passes until the measuring budget is spent (within bounds)."""
    warm: list[dict] = []
    while len(warm) < MAX_WARM:
        last = warm[-1]["wall_s"] + warm[-1]["setup_s"] if warm else 0.0
        if len(warm) >= MIN_WARM \
                and time.monotonic() - start + last > seconds:
            break
        warm.append(make_pass(f"warm-{len(warm) + 1}"))
    return warm


def _campaign_passes(runner: Runner, seed: int, jobs: int, trace: bool,
                     start: float, seconds: float) -> dict:
    def campaign(label, store, traced=False, **extra):
        return runner.child(label, mode="campaign", seed=seed, jobs=jobs,
                            store=store, trace=traced, **extra)

    out: dict = {"warm": []}
    if trace:
        out["reference"] = campaign("cold-untraced", runner.new_store(),
                                    host=True)
        store = runner.new_store()
        out["cold"] = campaign("cold-traced", store, traced=True,
                               count_cycles=True)
        out["warm"].append(campaign("warm-traced", store, traced=True))
        return out
    store = runner.new_store()
    out["cold"] = campaign("cold", store, count_cycles=True, host=True)
    out["warm"] = _warm_reruns(lambda label: campaign(label, store), start,
                               seconds)
    return out


def _sweep_passes(runner: Runner, seed: int, trace: bool, start: float,
                  seconds: float) -> dict:
    def sweep(label, store, traced=False, **extra):
        return runner.child(label, mode="sweep", seed=seed, store=store,
                            trace=traced, **extra)

    out: dict = {"warm": [], "setups": []}
    if trace:
        out["reference"] = sweep("cold-untraced", runner.new_store(),
                                 host=True)
        store = runner.new_store()
        out["cold"] = sweep("cold-traced", store, traced=True)
        out["warm"].append(sweep("warm-traced", store, traced=True,
                                 warm=True))
        return out
    for index in range(SWEEP_SETUPS):
        out["setups"].append(runner.child(f"setup-{index + 1}", mode="setup",
                                          seed=seed))
    store = runner.new_store()
    out["cold"] = sweep("cold", store, host=True)
    out["warm"] = _warm_reruns(lambda label: sweep(label, store, warm=True),
                               start, seconds)
    return out


# -- metrics ------------------------------------------------------------------

def end_to_end(kind: str, out: dict) -> dict:
    cold = out["cold"]
    if kind == "campaign":
        setups = [p["setup_s"] for p in [cold] + out["warm"]]
    else:
        setups = [p["setup_s"] for p in out["setups"] + [cold]]
    everything = [cold] + out["warm"] + out.get("setups", [])
    values = {
        "setup_s": _median(setups),
        "cold_s": cold["wall_s"],
        "warm_s": _median([p["wall_s"] for p in out["warm"]]),
        "sim_cycles_per_s": cold["mc_cycles"] / cold["wall_s"],
        "peak_rss_mb": max(p["maxrss_mb"] for p in everything),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _layer_view(result: dict) -> tuple[dict, dict]:
    """(ops, counts) summed over the pass and its fork workers."""
    view: dict = {"ops": {}, "counts": {}}
    layers.merge(view, result["trace"])
    if result.get("workers"):
        layers.merge(view, result["workers"])
    return view["ops"], view["counts"]


def _coverage(result: dict) -> float:
    """Share of the pass wall explained by named layers' self time.

    Only the campaign process's own timeline counts; the entry points'
    self time is the unexplained remainder, except that a campaign
    process blocked on fork workers is explained by the dispatch
    window.
    """
    ops = result["trace"]["ops"]
    explained = sum(stats[1] for op, stats in ops.items()
                    if op not in layers.ENTRY_OPS)
    dispatch = result.get("dispatch", {}).get("wall_s", 0.0)
    if dispatch:
        explained += min(dispatch, ops.get("campaign.run", [0, 0.0])[1])
    return explained / result["wall_s"]


def per_layer(out: dict) -> dict:
    cold = out["cold"]
    ops, counts = _layer_view(cold)

    def self_s(op):
        return ops.get(op, [0, 0.0, 0.0])[1]

    def calls(op):
        return ops.get(op, [0, 0.0, 0.0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    dispatch = cold.get("dispatch") or {}
    cycles = counts.get("sim.cycles", 0)
    alu_cycles = counts.get("fi.alu_cycles", 0)
    gets = calls("store.get")
    metrics = {
        "sim.cpu_build_s": (self_s("sim.cpu_build"), "s"),
        "sim.cpu_builds": (calls("sim.cpu_build"), "count"),
        "sim.cpu_build_ms": (1e3 * ratio(self_s("sim.cpu_build"),
                                         calls("sim.cpu_build")), "ms"),
        "sim.cpu_run_s": (self_s("sim.cpu_run"), "s"),
        "sim.trials": (calls("sim.cpu_run"), "count"),
        "sim.cycles": (cycles, "count"),
        "sim.ns_per_cycle": (1e9 * ratio(self_s("sim.cpu_run"), cycles),
                             "ns"),
        "fi.on_alu_s": (self_s("fi.on_alu"), "s"),
        "fi.alu_ops": (calls("fi.on_alu"), "count"),
        "fi.faulty_cycle_frac": (ratio(counts.get("fi.faulty_cycles", 0),
                                       alu_cycles), "ratio"),
        "fi.injector_build_s": (self_s("fi.injector_build"), "s"),
        "fi.injector_builds": (calls("fi.injector_build"), "count"),
        "mc.run_point_s": (self_s("mc.run_point"), "s"),
        "mc.points": (calls("mc.run_point"), "count"),
        "mc.golden_s": (ops.get("mc.golden", [0, 0.0, 0.0])[2], "s"),
        "store.put_s": (self_s("store.put"), "s"),
        "store.puts": (calls("store.put"), "count"),
        "store.put_bytes": (counts.get("store.put_bytes", 0), "bytes"),
        "store.get_s": (self_s("store.get"), "s"),
        "store.gets": (gets, "count"),
        "store.get_hit_frac": (ratio(counts.get("store.get_hits", 0), gets),
                               "ratio"),
        "store.contains_s": (self_s("store.contains"), "s"),
        "campaign.plan_s": (self_s("campaign.plan"), "s"),
        "campaign.units": (counts.get("campaign.units", 0), "count"),
        "campaign.dispatch_s": (self_s("campaign.run"), "s"),
        "experiments.render_s": (self_s("experiments.render"), "s"),
        "dispatch.wall_s": (dispatch.get("wall_s", 0.0), "s"),
        "dispatch.worker_cpu_s": (cold.get("worker_cpu_s", 0.0), "s"),
        "dispatch.utilization": (
            ratio(cold.get("worker_cpu_s", 0.0),
                  dispatch.get("shards", 0) * dispatch.get("wall_s", 0.0)),
            "ratio"),
        "timing.characterize_s": (self_s("timing.characterize"), "s"),
        "timing.characterizations": (calls("timing.characterize"), "count"),
        "timing.dta_s": (self_s("timing.dta"), "s"),
        "timing.dta_calls": (calls("timing.dta"), "count"),
        "netlist.propagate_s": (self_s("netlist.propagate"), "s"),
        "netlist.propagates": (calls("netlist.propagate"), "count"),
        "bench.kernel_build_s": (self_s("bench.kernel_build"), "s"),
        "mc.sweep_s": (self_s("mc.sweep"), "s"),
        "trace.cold_wall_s": (cold["wall_s"], "s"),
        "trace.coverage_frac": (_coverage(cold), "ratio"),
        "trace.overhead_frac": (cold["wall_s"] / out["reference"]["wall_s"]
                                - 1.0, "ratio"),
    }
    warm = out["warm"][0]
    warm_ops, _ = _layer_view(warm)
    for op, name in (("store.get", "store.get_s"),
                     ("store.contains", "store.contains_s"),
                     ("campaign.plan", "campaign.plan_s"),
                     ("campaign.run", "campaign.dispatch_s"),
                     ("experiments.render", "experiments.render_s"),
                     ("bench.kernel_build", "bench.kernel_build_s"),
                     ("timing.characterize", "timing.characterize_s")):
        metrics[f"warm.{name}"] = (warm_ops.get(op, [0, 0.0])[1], "s")
    metrics["warm.store.gets"] = (warm_ops.get("store.get", [0])[0],
                                  "count")
    metrics["warm.wall_s"] = (warm["wall_s"], "s")
    metrics["warm.trace.coverage_frac"] = (_coverage(warm), "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


# -- entry point --------------------------------------------------------------

def measure(args, root: str, workdir: str) -> tuple[dict, list]:
    kind, jobs = workloads.WORKLOADS[args.workload]
    seed = workloads.program_seed(args.seed)
    start = time.monotonic()
    runner = Runner(root, workdir, start + RUN_LIMIT_S, args.tiny)
    trace = bool(args.trace)
    if kind == "campaign":
        out = _campaign_passes(runner, seed, jobs, trace, start,
                               args.seconds)
    else:
        out = _sweep_passes(runner, seed, trace, start, args.seconds)
    checked = [out["cold"]] + out["warm"] + (
        [out["reference"]] if "reference" in out else [])
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for p in checked:
        result["attempted"] += p["units"]
        result["failed"] += p["failed"]
    try:
        _check_outputs(kind, seed, checked, args.tiny)
        if out["cold"].get("computed", out["cold"]["units"]) \
                != out["cold"]["units"]:
            raise CheckFailed("cold pass was served from a store")
        for warm in out["warm"]:
            if warm.get("cached", warm["units"]) != warm["units"]:
                raise CheckFailed(f"{warm['pass']} recomputed units")
        if trace:
            _check_trace(out["cold"], REQUIRED[kind])
            _check_trace(out["warm"][0], REQUIRED_WARM[kind])
            if jobs and jobs > 1 and not out["cold"]["dispatch"]["shards"]:
                raise CheckFailed("no fork-worker shard was traced")
            result["metrics"] = per_layer(out)
        else:
            result["metrics"] = end_to_end(kind, out)
    except CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        result["correct"] = False
    return result, runner.passes


def _record(root: str, workdir: str) -> None:
    """Rewrite digests.json from cold passes of every seed slot."""
    recorded: dict = {"campaign": {}, "sweep": {}}
    for slot in range(workloads.SEED_SLOTS):
        seed = workloads.program_seed(slot)
        runner = Runner(root, workdir, time.monotonic() + 600, False)
        cold = runner.child("record", mode="campaign", seed=seed, jobs=2,
                            store=runner.new_store(), count_cycles=True)
        recorded["campaign"][str(seed)] = {"digest": cold["digest"],
                                           "mc_cycles": cold["mc_cycles"]}
        cold = runner.child("record", mode="sweep", seed=seed,
                            store=runner.new_store())
        recorded["sweep"][str(seed)] = {"digest": cold["digest"],
                                        "mc_cycles": cold["mc_cycles"]}
        print(f"seed {seed}: {recorded['campaign'][str(seed)]} "
              f"{recorded['sweep'][str(seed)]}", file=sys.stderr)
    with open(DIGESTS, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny-scale inputs, no recorded digests "
                             "(self-test)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json for every seed slot")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so the cleanup below still kills the
    # running pass's session and removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro under "
              f"{root}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        if args.record:
            _record(root, workdir)
            return 0
        try:
            result, passes = measure(args, root, workdir)
        except RuntimeError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    host = next((p["host"] for p in passes if "host" in p), None)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps({"host": host, "passes": [
        {key: value for key, value in p.items()
         if key not in ("trace", "workers", "host")} for p in passes]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
