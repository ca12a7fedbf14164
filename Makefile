# Developer entry points.  `make tier1` is the gate every PR must keep
# green: the full unit/property suite, the quick-scale engine benches
# (bench_engines asserts compiled/reference bit-identity and refreshes
# BENCH_engines.json), the campaign smoke test (run -> kill ->
# resume -> diff over the persistent result store) and the perfbench
# self-test (its tracer must still reach every wrapped binding).

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: tier1 test lint bench-engines bench-engines-scratch \
        bench-baseline bench-check bench-figures campaign-smoke \
        chaos-smoke obs-smoke fabric-smoke perfbench-selftest

# tier1 runs the bench suite into a scratch file (its bit-identity
# asserts still gate) so the *committed* median-anchored
# BENCH_engines.json stays what bench-check compares against --
# otherwise the single run just written would overwrite the baseline
# seconds before the gate reads it.
tier1: lint test bench-engines-scratch bench-check campaign-smoke chaos-smoke obs-smoke fabric-smoke perfbench-selftest

# Static checks: ruff + mypy per pyproject.toml (strict on
# src/repro/analysis/ and src/repro/timing/sta.py, permissive elsewhere).  Where those tools are
# not installed the gate falls back to compileall + an AST
# unused-import sweep and says so -- the gate never silently narrows.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/lint_gate.py

bench-engines-scratch:
	PYTHONPATH=$(PYTHONPATH) REPRO_BENCH_OUT=$(or $(TMPDIR),/tmp)/repro-bench-tier1.json \
		$(PYTHON) -m pytest benchmarks/bench_engines.py -x -q

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

bench-engines:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_engines.py -x -q

# Refresh the *committed* BENCH_engines.json: per-row medians over
# REPRO_BENCH_RUNS (default 3) full bench runs, so the one-sided
# bench-check gate is anchored to representative numbers instead of a
# single run's outliers (this box swings +-30-40% row to row).
bench-baseline:
	$(PYTHON) scripts/bench_median.py

# Rerun the engine rows at the block width the baseline was recorded
# at and fail if any committed BENCH_engines.json speedup regressed
# beyond tolerance (20%).
bench-check:
	$(PYTHON) scripts/bench_check.py

# Kill a quick-scale `campaign run all` mid-run, resume it, and require
# the rendered output to be byte-identical to an uninterrupted run;
# prove warm fig2/fig4/fig5 reruns perform zero DTA and zero Monte-
# Carlo simulation; prove `cache gc --max-bytes` holds the cap
# while evicted units recompute byte-identically; and prove
# `repro fig7 --jobs 2` renders the serial figure from shared entries.
campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py

# Run the full quick-scale campaign under a standing fault-injection
# schedule (failing and torn store writes, raising unit computes, a
# SIGKILLed campaign worker): the run must exit 0, render
# byte-identically to a clean run, and its fired-fault log must
# replay exactly (scripts/fault_replay.py pins it).
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

# Run distributed campaigns against a live `repro store serve` HTTP
# object service: two lease-fabric workers must render byte-identically
# to a serial run, a warm rerun must do zero simulation over HTTP,
# a SIGKILLed worker's lapsed lease must be stolen by the survivor
# (still byte-identical), and the fired-fault log must replay exactly.
fabric-smoke:
	$(PYTHON) scripts/fabric_smoke.py

# Trace a quick-scale --jobs 2 campaign, require byte-identical
# rendered output vs untraced, validate the Chrome export (store/
# campaign/circuit/propagate spans from >= 2 pids) and `repro stats`,
# then gate the disabled telemetry path at <= 2% propagate overhead
# vs a no-telemetry no-op baseline.
obs-smoke:
	$(PYTHON) scripts/obs_smoke.py

# Tiny-scale self-test of the end-to-end benchmark (about a minute):
# every workload passes its output checks and prints exactly the
# metrics BENCHMARK.json names, traced and untraced, and the tracer's
# wrappers reach every binding of the functions it times.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

# Full figure/table reproduction benches (slow; scale via REPRO_BENCH_SCALE).
bench-figures:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -x -q
