"""Per-layer timing from outside the program.

A :class:`Tracer` replaces each layer's public functions with a timing
wrapper, at the defining module *and* at every module that bound the
function by name (``from repro.mc.runner import run_point`` leaves a
second reference in ``repro.mc.sweep``).  Every wrapped call pushes a
frame on one stack; a layer's *self* time is its calls' wall time minus
the time of wrapped calls nested inside them, so the layers partition
the traced wall without double counting.

An untraced pass uses only :func:`assert_clean`, which checks that no
wrapper is installed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: Marker attribute set on every wrapper.
MARK = "__perfbench_op__"

#: Entry points whose self time is the unattributed remainder: it is
#: reported (as ``campaign.dispatch_s``) but never counted as covered.
ENTRY_OPS = ("campaign.run", "mc.sweep")

#: (op, module, qualified name) of every wrapped public function.
#: Methods are wrapped on their class; plain functions at every binding
#: site found in the loaded ``repro`` modules.
TARGETS = (
    ("sim.cpu_build", "repro.sim.cpu", "Cpu.__init__"),
    ("sim.cpu_run", "repro.sim.cpu", "Cpu.run"),
    ("fi.on_alu", "repro.fi.base", "FaultInjector.on_alu"),
    ("fi.injector_build", "repro.fi.model_a",
     "FixedProbabilityInjector.__init__"),
    ("fi.injector_build", "repro.fi.model_b", "StaInjector.__init__"),
    ("fi.injector_build", "repro.fi.model_bplus",
     "StaNoiseInjector.__init__"),
    ("fi.injector_build", "repro.fi.model_c",
     "StatisticalInjector.__init__"),
    ("mc.run_point", "repro.mc.runner", "run_point"),
    ("mc.golden", "repro.mc.runner", "golden_cycles"),
    ("mc.sweep", "repro.mc.sweep", "sweep_frequencies"),
    ("store.put", "repro.store.store", "ResultStore.put"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.contains", "repro.store.store", "ResultStore.contains"),
    ("campaign.plan", "repro.campaign.orchestrator", "plan_campaign"),
    ("campaign.run", "repro.campaign.orchestrator", "run_campaign"),
    ("bench.kernel_build", "repro.bench.suite", "build_kernel"),
    ("netlist.calibrate", "repro.netlist.calibrate", "calibrated_alu"),
    ("netlist.propagate", "repro.netlist.circuit", "Circuit.propagate"),
    ("netlist.propagate", "repro.netlist.alu", "AluNetlist.propagate"),
    ("timing.characterize", "repro.timing.characterize",
     "AluCharacterization.run"),
    ("timing.dta", "repro.timing.dta", "run_dta"),
    ("timing.vdd_fit", "repro.timing.voltage",
     "VddDelayModel.from_alu_sta"),
) + tuple(
    ("experiments.render", f"repro.experiments.{module}", name)
    for module, names in (
        ("table1", ("render",)),
        ("fig1", ("assemble", "render")),
        ("fig2", ("assemble", "render")),
        ("fig4", ("assemble", "render")),
        ("fig5", ("assemble", "render")),
        ("fig6", ("assemble", "render")),
        ("fig7", ("assemble", "render")),
        ("ablations", ("assemble_semantics", "assemble_adders",
                       "render_all")),
    )
    for name in names)

#: Worker-side hook of the fork dispatch: each shard a forked worker
#: runs writes its layer stats to a file the campaign process merges.
SHARD_TARGET = ("repro.campaign.orchestrator", "_run_shard")


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw attribute) of a target."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, raw


def assert_clean() -> None:
    """Raise if any target is wrapped (untraced passes call this)."""
    for _, module_name, qualname in TARGETS + (("", *SHARD_TARGET),):
        _, _, raw = _resolve(module_name, qualname)
        func = getattr(raw, "__func__", raw)
        if hasattr(func, MARK):
            raise RuntimeError(f"wrapper installed on {qualname} in an "
                               f"untraced pass")


class Tracer:
    """Self-time accounting over wrapped layer functions."""

    def __init__(self) -> None:
        #: op -> [calls, self_s, inclusive_s]
        self.ops: dict[str, list] = {}
        #: free-form counts gathered from return values
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []
        self._originals: list = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, op: str, func, on_return=None):
        stats = self.ops.setdefault(op, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # A call nested directly in the same op (a subclass
            # __init__ calling its base, Alu -> Circuit propagate) is
            # part of the outer call: its time stays self time of the
            # op but it is not counted again.
            outer = not stack or stack[-1][0] != op
            frame = [op, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[1] += elapsed - frame[1]
                if outer:
                    stats[0] += 1
                    stats[2] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(traced, MARK, op)
        return traced

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_cpu_run(self, args, result) -> None:
        self._count("sim.cycles", result.cycles)
        self._count("fi.alu_cycles", result.alu_cycles)
        self._count("fi.faulty_cycles", result.faulty_cycles)

    def _on_get(self, args, result) -> None:
        self._count("store.get_hits", result is not None)

    def _on_run_campaign(self, args, result) -> None:
        self._count("campaign.units", result.total)

    def install(self, workdir: str | None = None) -> None:
        """Wrap every target at every binding site in loaded modules.

        ``workdir`` enables the worker-side shard hook of the fork
        dispatch (stats files land there).
        """
        hooks = {"sim.cpu_run": self._on_cpu_run,
                 "store.get": self._on_get,
                 "campaign.run": self._on_run_campaign}
        for op, module_name, qualname in TARGETS:
            owner, attr, raw = _resolve(module_name, qualname)
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(op, raw.__func__,
                                                 hooks.get(op)))
            else:
                wrapper = self._wrap(op, raw, hooks.get(op))
            self._rebind(owner, attr, raw, wrapper)
        backend = importlib.import_module("repro.store.backend")
        write = backend.FsBackend.write

        @functools.wraps(write)
        def counted_write(backend_self, name, data, **kwargs):
            self._count("store.put_bytes", len(data))
            return write(backend_self, name, data, **kwargs)
        setattr(counted_write, MARK, "store.write")
        self._rebind(backend.FsBackend, "write", write, counted_write)
        if workdir is not None:
            owner, attr, raw = _resolve(*SHARD_TARGET)
            self._rebind(owner, attr, raw, self._shard_hook(raw, workdir))

    def _rebind(self, owner, attr, raw, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, raw))
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapper)

    def stale_bindings(self) -> list[str]:
        """Module attributes still bound to an unwrapped original."""
        originals = {id(raw): f"{getattr(owner, '__name__', owner)}."
                              f"{attr}"
                     for owner, attr, raw in self._originals
                     if not isinstance(owner, type)}
        stale = []
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in originals:
                    stale.append(f"{name}.{key} -> {originals[id(value)]}")
        return stale

    def _shard_hook(self, run_shard, workdir: str):
        tracer = self

        @functools.wraps(run_shard)
        def traced_shard(indices):
            # Runs in a forked worker: start from zero (the fork copied
            # the parent's totals) and hand the worker's own totals back
            # through a file, since pool workers exit without atexit.
            tracer.reset()
            start = time.monotonic()
            cpu0 = os.times()
            outcome = run_shard(indices)
            cpu1 = os.times()
            record = {"start": start, "end": time.monotonic(),
                      "cpu_s": (cpu1.user - cpu0.user)
                      + (cpu1.system - cpu0.system),
                      **tracer.snapshot()}
            path = os.path.join(workdir, f"shard-{os.getpid()}-"
                                         f"{time.monotonic_ns()}.json")
            with open(path, "w") as handle:
                json.dump(record, handle)
            return outcome
        setattr(traced_shard, MARK, "dispatch.shard")
        return traced_shard

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold the lists)."""
        for stats in self.ops.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"ops": {op: list(stats) for op, stats in self.ops.items()},
                "counts": dict(self.counts)}


def merge(into: dict, other: dict) -> None:
    """Add one snapshot's totals to another's."""
    for op, stats in other["ops"].items():
        mine = into["ops"].setdefault(op, [0, 0.0, 0.0])
        for index, value in enumerate(stats):
            mine[index] += value
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
