"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per pass with a JSON spec as its only
argument and reads the JSON result it writes to ``spec["result"]``.
Modes:

* ``campaign`` -- ``run_campaign`` on the spec's store (cold when the
  store is empty, warm when a previous pass filled it);
* ``sweep`` -- the Monte-Carlo frequency sweep of ``mc-paper-sweep``
  (``warm`` in the spec times set-up plus store-served sweeps as one
  pass);
* ``setup`` -- only the set-up part of ``sweep``.

The child's set-up time runs from the parent's spawn timestamp
(``CLOCK_MONOTONIC`` is system-wide) to the end of its set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module)
import workloads  # noqa: E402


def _rusage() -> dict:
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "maxrss_mb": max(self_usage.ru_maxrss, children.ru_maxrss) / 1024,
        "children_cpu_s": children.ru_utime + children.ru_stime,
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _store_mc_cycles(store) -> int:
    """Simulated cycles of every Monte-Carlo trial in a filesystem store.

    Reads the on-disk envelopes directly, after the timed region.
    """
    total = 0
    for entry in store.ls():
        if entry.kind != "mc_point":
            continue
        path = os.path.join(str(store.root), "objects", entry.sha256[:2],
                            f"{entry.sha256}.json")
        with open(path) as handle:
            envelope = json.load(handle)
        total += sum(trial["cycles"]
                     for trial in envelope["artifact"]["trials"])
    return total


def _collect_shards(workdir: str) -> tuple[dict, dict]:
    """(merged fork-worker layer stats, dispatch window) of one pass."""
    workers: dict = {"ops": {}, "counts": {}}
    starts, ends, cpu, shards = [], [], 0.0, 0
    for name in sorted(os.listdir(workdir)):
        if not name.startswith("shard-"):
            continue
        path = os.path.join(workdir, name)
        with open(path) as handle:
            record = json.load(handle)
        os.remove(path)
        layers.merge(workers, record)
        starts.append(record["start"])
        ends.append(record["end"])
        cpu += record["cpu_s"]
        shards += 1
    if not shards:
        return workers, {"shards": 0, "wall_s": 0.0, "cpu_s": 0.0}
    return workers, {"shards": shards, "wall_s": max(ends) - min(starts),
                     "cpu_s": cpu}


def _campaign(spec: dict, tracer) -> dict:
    from repro.campaign import orchestrator
    from repro.store import ResultStore

    config = workloads.campaign_config(spec["tiny"])
    store = ResultStore(spec["store"])
    ready = time.monotonic()
    if tracer is not None:
        tracer.install(workdir=spec["workdir"])
        tracer.reset()
    cpu_before = _rusage()["children_cpu_s"]
    start = time.perf_counter()
    # Looked up after install(), so a traced pass calls the wrapper.
    report = orchestrator.run_campaign(
        config["experiment"], scale=config["scale"], seed=spec["seed"],
        store=store, jobs=spec["jobs"])
    wall = time.perf_counter() - start
    result = {
        "setup_s": ready - spec["t_spawn"],
        "wall_s": wall,
        "digest": _sha256(report.rendered),
        "units": report.total,
        "computed": report.computed,
        "cached": report.cached,
        "failed": report.failed,
        "worker_cpu_s": _rusage()["children_cpu_s"] - cpu_before,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["workers"], result["dispatch"] = \
            _collect_shards(spec["workdir"])
        result["stale"] = tracer.stale_bindings()
    if spec.get("count_cycles"):
        result["mc_cycles"] = _store_mc_cycles(store)
    return result


def _sweep_setup(spec: dict, config: dict, store, golden: bool):
    """Context, characterization, kernels and (cold) golden runs."""
    from repro.bench.suite import build_kernel
    from repro.experiments import fig5
    from repro.experiments.context import ExperimentContext
    from repro.fi.model_c import StatisticalInjector
    from repro.mc.runner import golden_cycles

    ctx = ExperimentContext.create(config["scale"], config["ctx_seed"],
                                   store=store)
    vdd, sigma = config["vdd"], config["sigma_v"]
    characterization = ctx.characterization(vdd)
    noise = ctx.noise(sigma)
    grid = fig5.transition_grid(ctx, vdd, sigma, config["points"])
    kernels = [build_kernel(name, config["kernel_scale"])
               for name in config["kernels"]]
    if golden:
        for kernel in kernels:
            golden_cycles(kernel)

    def factory(frequency, rng):
        return StatisticalInjector(characterization, frequency, noise,
                                   vdd_operating=vdd,
                                   vdd_model=ctx.vdd_model, rng=rng)
    return ctx, grid, kernels, factory


def _sweeps(spec: dict, config: dict, store, ctx, grid, kernels, factory):
    from repro.mc.sweep import sweep_frequencies

    vdd = config["vdd"]
    return [sweep_frequencies(
        kernel, factory, grid, config["trials"],
        sta_limit_hz=ctx.sta_limit_hz(vdd), seed=spec["seed"],
        config={"vdd": vdd, "sigma_v": config["sigma_v"], "model": "C"},
        store=store, experiment="perfbench-mc", scale=ctx.scale,
        key_extra=ctx.char_fingerprint(vdd)) for kernel in kernels]


def _sweep(spec: dict, tracer) -> dict:
    from repro.store import ResultStore

    config = workloads.sweep_config(spec["tiny"])
    store = ResultStore(spec["store"]) if spec.get("store") else None
    warm = spec["mode"] == "sweep" and spec.get("warm", False)
    if spec["mode"] == "setup":
        _sweep_setup(spec, config, store, golden=True)
        return {"setup_s": time.monotonic() - spec["t_spawn"]}
    if tracer is not None:
        tracer.install()
    if warm:
        # The warm pass times everything after the imports: a rerun on
        # a filled store reloads the characterization, rebuilds the
        # kernels and serves every point from the store.
        ready = time.monotonic()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        ctx, grid, kernels, factory = _sweep_setup(spec, config, store,
                                                   golden=False)
    else:
        ctx, grid, kernels, factory = _sweep_setup(spec, config, store,
                                                   golden=True)
        ready = time.monotonic()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
    sweeps = _sweeps(spec, config, store, ctx, grid, kernels, factory)
    wall = time.perf_counter() - start
    points = [point for sweep in sweeps for point in sweep.points]
    result = {
        "setup_s": ready - spec["t_spawn"],
        "wall_s": wall,
        "digest": _sha256(json.dumps([sweep.to_json() for sweep in sweeps],
                                     sort_keys=True)),
        "units": len(points),
        "failed": 0,
        "mc_cycles": sum(trial.cycles for point in points
                         for trial in point.trials),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["stale"] = tracer.stale_bindings()
    return result


def _host() -> dict:
    """Host fingerprint: what the numbers were measured on."""
    import platform

    import numpy

    from repro import native
    from repro.native.build import probe_compiler

    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    probe = probe_compiler()
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": probe.version if probe.ok else probe.reason,
        "native_available": native.native_available(),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    tracer = layers.Tracer() if spec["trace"] else None
    if tracer is None:
        import repro.campaign.orchestrator  # noqa: F401  (load targets)
        import repro.mc.sweep  # noqa: F401
        layers.assert_clean()
    if spec["mode"] == "campaign":
        result = _campaign(spec, tracer)
    else:
        result = _sweep(spec, tracer)
    result.update(_rusage())
    if spec.get("host"):
        result["host"] = _host()
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
