"""Command-line interface: regenerate any paper experiment from a shell.

Examples::

    python -m repro table1 --scale paper
    python -m repro fig5 --scale default --jobs 4
    python -m repro all --scale quick
    python -m repro campaign run fig5 --scale paper --jobs 8
    python -m repro campaign run all --scale paper --jobs 8
    python -m repro campaign status fig5 --scale paper
    python -m repro cache ls
    python -m repro cache gc --max-bytes 100000000 --pin alu_characterization
    python -m repro timing-report --frequency-mhz 750
    python -m repro verilog --unit multiplier --out mul32.v
    python -m repro kernels

Every experiment command (``all`` included) runs as a campaign of the
experiment's plan (:data:`repro.experiments.EXPERIMENTS`) over a
content-addressed result store (``REPRO_STORE`` or the XDG cache dir
by default), so reruns at the same configuration are served without
re-simulating; ``--no-store`` computes into a throwaway store instead.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro import analysis, faults, obs
from repro.analysis import lint as lint_mod
from repro.bench.suite import BENCHMARK_NAMES, build_kernel
from repro.campaign import ALL_TARGET, CAMPAIGN_EXPERIMENTS, \
    campaign_status, run_campaign
from repro.campaign.orchestrator import stderr_log
from repro.experiments import EXPERIMENTS, ExperimentContext
from repro.mc.runner import golden_cycles
from repro.netlist.calibrate import calibrated_alu
from repro.netlist.verilog import to_verilog
from repro.store import ResultStore
from repro.timing.report import timing_report

def _positive_int(text: str) -> int:
    """argparse type for worker counts: a bad count is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "default", "paper"),
                        help="experiment fidelity preset")
    parser.add_argument("--seed", type=int, default=2016,
                        help="master random seed")


def _add_store(parser: argparse.ArgumentParser,
               with_jobs: bool = True) -> None:
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default: "
                             "$REPRO_STORE or the user cache dir)")
    parser.add_argument("--no-store", action="store_true",
                        help="compute everything fresh into a "
                             "throwaway store; do not read or write "
                             "the result store")
    if with_jobs:
        parser.add_argument("--jobs", type=_positive_int, default=None,
                            help="worker processes: shard the "
                                 "experiment's store units over N "
                                 "forked children (output does not "
                                 "depend on N)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection schedule "
                             "(same grammar as $REPRO_FAULTS, e.g. "
                             "'seed=7;store.object_write:torn@p=0.05'); "
                             "fired faults are logged to "
                             "$REPRO_FAULT_LOG for exact replay via "
                             "scripts/fault_replay.py")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a telemetry trace (spans + "
                             "counters, JSONL) to PATH; same as "
                             "$REPRO_TRACE.  'repro trace export' "
                             "converts it to Chrome/Perfetto JSON, "
                             "'repro stats' prints aggregates.  For "
                             "'campaign status' an existing trace is "
                             "read, not overwritten, to report "
                             "per-unit wall times")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Statistical fault injection for timing-error "
                    "impact evaluation (DAC 2016 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in list(EXPERIMENTS) + ["all"]:
        sub = subparsers.add_parser(
            name, help=f"regenerate {name}" if name != "all"
            else "regenerate every table and figure")
        _add_scale(sub)
        _add_store(sub)

    campaign = subparsers.add_parser(
        "campaign", help="persistent, sharded, resumable figure "
                         "campaigns over the result store")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    for action, text in (("run", "run a campaign (skips stored units)"),
                         ("resume", "resume a killed campaign"),
                         ("status", "show stored/pending units")):
        sub = campaign_sub.add_parser(action, help=text)
        sub.add_argument("experiment",
                         choices=CAMPAIGN_EXPERIMENTS + (ALL_TARGET,))
        _add_scale(sub)
        _add_store(sub, with_jobs=(action != "status"))
        sub.add_argument("--fabric", default=None, metavar="URL",
                         help="shared store service URL (from 'repro "
                              "store serve'); the campaign reads and "
                              "writes through it instead of a local "
                              "directory")
        if action != "status":
            sub.add_argument("--workers", type=_positive_int,
                             default=None,
                             metavar="N",
                             help="distributed-fabric worker "
                                  "processes: N forked lease workers "
                                  "race for unit batches on the "
                                  "shared store, heartbeat their "
                                  "leases and steal from dead peers "
                                  "(default with --fabric: 2)")
            sub.add_argument("--max-retries", type=int, default=0,
                             metavar="N",
                             help="re-attempt units that failed this "
                                  "run up to N times (serial, with "
                                  "backoff) before reporting them as "
                                  "FAILED")

    store_cmd = subparsers.add_parser(
        "store", help="run or probe the shared store object service "
                      "(the distributed-campaign fabric's backend)")
    store_sub = store_cmd.add_subparsers(dest="store_command",
                                         required=True)
    serve_cmd = store_sub.add_parser(
        "serve", help="serve a store root over HTTP: campaign workers "
                      "on any host point --fabric at it")
    serve_cmd.add_argument("--root", default=None, metavar="DIR",
                           help="store directory to serve (default: "
                                "$REPRO_STORE or the user cache dir)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: loopback; "
                                "bind 0.0.0.0 to serve other hosts)")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="TCP port (default 0: pick a free "
                                "port and print it)")
    ping_cmd = store_sub.add_parser(
        "ping", help="probe a store service: health, round-trip "
                     "latency, degraded/spool state")
    ping_cmd.add_argument("url", help="service URL, e.g. "
                                      "http://127.0.0.1:8321")
    ping_cmd.add_argument("--strict", action="store_true",
                          help="exit nonzero when the service is "
                               "unreachable or this client is "
                               "degraded (unflushed local spool) -- "
                               "for scripts that need a healthy "
                               "fabric")

    cache = subparsers.add_parser(
        "cache", help="inspect or clean the result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    ls = cache_sub.add_parser("ls", help="list stored artifacts")
    ls.add_argument("--store", default=None, metavar="DIR")
    gc = cache_sub.add_parser(
        "gc", help="drop corrupted, stale-schema and abandoned-temp "
                   "entries (--all wipes everything, --kind K wipes "
                   "one artifact kind, --max-bytes N additionally "
                   "evicts oldest live entries down to the cap)")
    gc.add_argument("--store", default=None, metavar="DIR")
    gc.add_argument("--all", action="store_true",
                    help="remove every entry, not just dead ones")
    gc.add_argument("--kind", default=None,
                    help="remove every entry of this artifact kind")
    gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="after the dead-data pass, evict oldest "
                         "entries (by creation time) until the live "
                         "store fits N bytes")
    gc.add_argument("--pin", action="append", default=None,
                    metavar="KIND",
                    help="artifact kinds the --max-bytes pass evicts "
                         "last (repeatable; default: "
                         "alu_characterization, whose tables cost a "
                         "full DTA sweep to recompute; 'none' "
                         "disables pinning).  The cap stays hard: "
                         "pinned entries still go, oldest first, "
                         "when they alone exceed it")

    trace = subparsers.add_parser(
        "trace", help="work with recorded telemetry traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace_event JSON "
                       "(load in Perfetto or chrome://tracing)")
    export.add_argument("trace", help="trace file recorded by --trace "
                                      "or $REPRO_TRACE")
    export.add_argument("--out", default=None, metavar="FILE",
                        help="output file (default: <trace>.json; "
                             "'-' writes to stdout)")

    stats = subparsers.add_parser(
        "stats", help="aggregate a telemetry trace: top spans by "
                      "total/self time, counter totals, store hit "
                      "rate and fabric use")
    stats.add_argument("trace", help="trace file recorded by --trace "
                                     "or $REPRO_TRACE")
    stats.add_argument("--limit", type=int, default=20,
                       help="span rows to list (by total time)")

    report = subparsers.add_parser(
        "timing-report", help="STA endpoint-slack report of the ALU")
    report.add_argument("--frequency-mhz", type=float, default=707.1)
    report.add_argument("--vdd", type=float, default=0.7)
    report.add_argument("--limit", type=int, default=10,
                        help="endpoints to list (worst first)")

    sta = subparsers.add_parser(
        "sta", help="static min/max arrival analysis of a functional "
                    "unit: envelope bounds, endpoint slack, top-K "
                    "critical paths (exit 1 on negative slack)")
    sta.add_argument("unit", choices=("adder", "multiplier", "shifter",
                                      "logic"))
    sta.add_argument("--clock-ps", type=float, default=None,
                     metavar="PS",
                     help="clock period to compute slack against "
                          "(default: the ALU's worst-case STA sign-off "
                          "period at --vdd)")
    sta.add_argument("--paths", type=int, default=3, metavar="K",
                     help="critical paths to extract per output bus "
                          "(gate-by-gate; 0 disables)")
    sta.add_argument("--vdd", type=float, default=0.7,
                     help="supply voltage of the delay corner")
    sta.add_argument("--json", action="store_true",
                     help="emit the machine-readable report body "
                          "(the persisted sta_report schema)")

    lint = subparsers.add_parser(
        "lint", help="structural netlist diagnostics: combinational "
                     "loops, floating inputs, undriven/multiply-driven "
                     "nets, dead gates, fanout histogram (exit 1 on "
                     "findings)")
    lint.add_argument("unit", choices=("adder", "multiplier", "shifter",
                                       "logic", "broken-fixture"),
                      help="functional unit to lint ('broken-fixture' "
                           "is the deliberately malformed self-test "
                           "netlist)")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable findings")

    verilog = subparsers.add_parser(
        "verilog", help="export a functional unit as structural Verilog")
    verilog.add_argument("--unit", default="adder",
                         choices=("adder", "multiplier", "shifter",
                                  "logic"))
    verilog.add_argument("--out", default=None,
                         help="output file (stdout when omitted)")

    kernels = subparsers.add_parser(
        "kernels", help="list benchmark kernels and their cycle counts")
    kernels.add_argument("--scale", default="paper",
                         choices=("quick", "paper"))

    subparsers.add_parser(
        "engines", help="list the circuit engines and the bounds "
                        "oracle's state")
    return parser


def _resolve_store(args) -> ResultStore | None:
    if getattr(args, "no_store", False):
        return None
    if getattr(args, "fabric", None):
        return ResultStore.remote(args.fabric)
    if getattr(args, "store", None):
        return ResultStore(args.store)
    return ResultStore.default()


def _run_experiments(args, store: ResultStore) -> int:
    """Run ``args.command`` (one experiment, or ``all`` of them) as
    campaigns over ``store`` and print each render."""
    names = list(EXPERIMENTS) if args.command == "all" \
        else [args.command]
    ctx = ExperimentContext.create(args.scale, args.seed, store=store)
    failed = False
    for name in names:
        if len(names) > 1:
            print(f"\n{'=' * 72}\n{name} (scale: {args.scale})\n"
                  f"{'=' * 72}")
        report = run_campaign(name, args.scale, args.seed, store=store,
                              jobs=args.jobs or 1, context=ctx)
        failed = failed or bool(report.failed)
        print(report.rendered)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if getattr(args, "faults", None):
        # Before any store work: forked workers inherit
        # the configured plane, so one schedule governs the process
        # tree.
        faults.configure(args.faults)

    # Commands that *read* a trace must never configure (and thereby
    # clear) it: `campaign status` reports from it, `trace`/`stats`
    # take the path as a positional that shares the `trace` dest.
    reads_trace = args.command in ("trace", "stats") \
        or (args.command == "campaign"
            and getattr(args, "campaign_command", None) == "status")
    if getattr(args, "trace", None) and not reads_trace:
        # Same reasoning as faults: configure before workers fork so
        # the whole tree records into one trace.  `campaign status`
        # *reads* an existing trace (configure would clear it).
        obs.configure(args.trace)

    if args.command in EXPERIMENTS or args.command == "all":
        if args.no_store:
            with tempfile.TemporaryDirectory(prefix="repro-") as tmp:
                return _run_experiments(args, ResultStore(tmp))
        return _run_experiments(args, _resolve_store(args))

    if args.command == "campaign":
        store = _resolve_store(args)
        if store is None:
            print("campaigns need the result store (drop --no-store)",
                  file=sys.stderr)
            return 2
        if args.campaign_command == "status":
            status = campaign_status(args.experiment, args.scale,
                                     args.seed, store, log=stderr_log)
            print(status.summary())
            for label in status.failed:
                print(f"  FAILED  {label}")
            for label in status.pending:
                print(f"  pending {label}")
            times = {}
            if getattr(args, "trace", None):
                times = obs.unit_times(obs.read_trace(args.trace))
            if times:
                print(f"{'wall ms':>10s} unit")
                for label, ms in sorted(times.items(),
                                        key=lambda item: -item[1]):
                    print(f"{ms:>10.1f} {label}")
                print(f"{sum(times.values()):>10.1f} total "
                      f"({len(times)} traced unit(s))")
            else:
                print("unit wall time: - (no trace; run the campaign "
                      "with --trace and pass it here)")
            return 0
        fabric_workers = args.workers
        if fabric_workers is None and getattr(args, "fabric", None):
            fabric_workers = 2
        report = run_campaign(args.experiment, args.scale, args.seed,
                              store=store, jobs=args.jobs or 1,
                              log=stderr_log,
                              max_retries=args.max_retries,
                              fabric_workers=fabric_workers)
        print(report.summary(), file=sys.stderr)
        print(report.rendered)
        return 1 if report.failed else 0

    if args.command == "store":
        from repro.fabric import HttpBackend, serve
        from repro.store import default_root
        if args.store_command == "serve":
            root = args.root or str(default_root())
            service = serve(root, host=args.host, port=args.port)
            host, port = service.server_address
            # Machine-parseable: scripts launching a service on port 0
            # read the chosen port from this line.
            print(f"serving {root} on http://{host}:{port}",
                  flush=True)
            try:
                service.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                service.server_close()
            return 0
        if args.store_command == "ping":
            ping = HttpBackend(args.url).ping()
            degraded = not ping.get("ok") or ping.get("degraded")
            state = "DEGRADED" if degraded else "healthy"
            print(f"{args.url}: {state}")
            for field in ("backend", "root", "objects", "latency_ms",
                          "spooled", "error"):
                if field in ping:
                    print(f"  {field:12s} {ping[field]}")
            return 1 if args.strict and degraded else 0

    if args.command == "cache":
        store = _resolve_store(args)
        if args.cache_command == "ls":
            entries = store.ls()
            total = sum(entry.n_bytes for entry in entries)
            print(f"{'hash':12s} {'kind':22s} {'experiment':10s} "
                  f"{'bytes':>10s} label")
            for entry in entries:
                print(f"{entry.sha256[:12]:12s} {entry.kind:22s} "
                      f"{entry.experiment:10s} {entry.n_bytes:>10d} "
                      f"{entry.label}")
            print(f"{len(entries)} entries, {total} bytes "
                  f"({store.root})")
            return 0
        if args.cache_command == "gc":
            kinds = (args.kind,) if args.kind else None
            pins = tuple(args.pin) if args.pin is not None \
                else ("alu_characterization",)
            if "none" in pins:
                pins = ()
            removed, freed = store.gc(
                remove_all=args.all or kinds is not None, kinds=kinds,
                max_bytes=args.max_bytes, pin_kinds=pins)
            print(f"removed {removed} entries, freed {freed} bytes "
                  f"({store.root})")
            return 0

    if args.command == "trace":
        records = obs.read_trace(args.trace)
        if not records:
            print(f"no trace records at {args.trace}", file=sys.stderr)
            return 2
        import json
        text = json.dumps(obs.to_chrome(records))
        out = args.out or f"{args.trace}.json"
        if out == "-":
            print(text)
        else:
            with open(out, "w") as handle:
                handle.write(text)
            print(f"wrote {out} ({len(obs.spans(records))} spans; "
                  f"load in Perfetto or chrome://tracing)")
        return 0

    if args.command == "stats":
        records = obs.read_trace(args.trace)
        if not records:
            print(f"no trace records at {args.trace}", file=sys.stderr)
            return 2
        print(obs.render_stats(records, limit=args.limit))
        return 0

    if args.command == "timing-report":
        alu = calibrated_alu()
        report = timing_report(alu, args.frequency_mhz * 1e6, args.vdd)
        print(report.render(limit=args.limit))
        return 0

    if args.command == "sta":
        import json
        alu = calibrated_alu()
        clock_ps = args.clock_ps if args.clock_ps is not None \
            else alu.worst_sta_period_ps(args.vdd)
        report = analysis.unit_report(alu, args.unit, args.vdd,
                                      clock_ps=clock_ps, k_paths=args.paths)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.render())
        slack = report.min_slack_ps
        return 1 if slack is not None and slack < 0.0 else 0

    if args.command == "lint":
        if args.unit == "broken-fixture":
            report = lint_mod.lint_netlist(lint_mod.broken_fixture())
        else:
            alu = calibrated_alu()
            report = lint_mod.lint_circuit(alu.units[args.unit])
        print(report.render_json() if args.json else report.render())
        return 0 if report.ok else 1

    if args.command == "verilog":
        alu = calibrated_alu()
        text = to_verilog(alu.units[args.unit])
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0

    if args.command == "engines":
        print(f"{'engine':16s} status")
        print(f"{'reference':16s} available "
              f"(per-gate python loop, the executable spec)")
        print(f"{'compiled':16s} available "
              f"(numpy SoA plan, bit-identical to reference)")
        if analysis.bounds_check_enabled():
            print(f"{'oracle':16s} ACTIVE: every propagate checked "
                  f"against the static STA envelope "
                  f"(REPRO_CHECK_BOUNDS)")
        else:
            print(f"{'oracle':16s} off (set REPRO_CHECK_BOUNDS=1 to "
                  f"assert every propagate against the static STA "
                  f"envelope)")
        return 0

    if args.command == "kernels":
        print(f"{'benchmark':16s} {'size':16s} {'cycles':>9s} "
              f"{'output metric'}")
        for name in BENCHMARK_NAMES:
            kernel = build_kernel(name, args.scale)
            cycles = golden_cycles(kernel)
            size = ", ".join(f"{k}={v}" for k, v in kernel.params.items()
                             if k != "seed")
            print(f"{name:16s} {size:16s} {cycles:>9d} "
                  f"{kernel.metric_name}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
