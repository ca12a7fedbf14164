"""Tests for Verilog export, STA reports and the CLI."""

import tempfile

import pytest

from repro import obs
from repro.campaign import campaign_status
from repro.cli import build_parser, main
from repro.experiments import scale as scale_mod
from repro.experiments.scale import Scale
from repro.netlist.adders import adder_circuit
from repro.netlist.circuit import Circuit
from repro.netlist.logic_unit import logic_circuit
from repro.netlist.verilog import to_verilog, write_verilog
from repro.store import ResultStore
from repro.timing.report import timing_report

TINY = Scale(name="tiny", trials=4, freq_points=4, kernel_scale="quick",
             char_cycles=128, fig4_samples=128, voltage_points=3)


class TestVerilogEmitter:
    def test_module_structure(self):
        circuit = adder_circuit(8)
        text = to_verilog(circuit)
        assert text.startswith("// Generated by repro.netlist.verilog")
        assert "module carry_select_adder8 (" in text
        assert "input [7:0] a;" in text
        assert "input [7:0] b;" in text
        assert "input sub;" in text
        assert "output [7:0] result;" in text
        assert "output cout;" in text
        assert text.rstrip().endswith("endmodule")

    def test_gate_count_matches(self):
        circuit = logic_circuit(4)
        text = to_verilog(circuit)
        instances = sum(text.count(f" {p} g") for p in
                        ("and", "or", "xor", "not", "buf", "nand",
                         "nor", "xnor"))
        muxes = text.count(" ? ")
        assert instances + muxes == circuit.n_gates

    def test_constants_rendered(self):
        circuit = Circuit("const_test")
        a = circuit.input_bus("a", 1)[0]
        circuit.output_bus("y", [circuit.gate("AND2", a,
                                              circuit.const(1))])
        text = to_verilog(circuit)
        assert "1'b1" in text

    def test_custom_module_name_sanitized(self):
        circuit = adder_circuit(4)
        text = to_verilog(circuit, module_name="8 bad-name")
        assert "module n_8_bad_name (" in text

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "adder.v"
        write_verilog(adder_circuit(4), path)
        assert path.read_text().startswith("// Generated")

    def test_every_alu_unit_exports(self, alu):
        for unit in alu.units.values():
            text = to_verilog(unit)
            assert "endmodule" in text


class TestTimingReport:
    def test_no_violations_at_sta_limit(self, alu):
        report = timing_report(alu, alu.sta_limit_hz(0.7) * 0.999, 0.7)
        assert not report.violations
        assert report.worst.slack_ps >= 0

    def test_violations_above_limit(self, alu):
        report = timing_report(alu, alu.sta_limit_hz(0.7) * 1.01, 0.7)
        assert report.violations
        assert report.worst.violated
        # The multiplier owns the critical endpoint, bit 31.
        assert report.worst.unit == "multiplier"
        assert report.worst.bit == 31

    def test_render(self, alu):
        report = timing_report(alu, 800e6, 0.7)
        text = report.render(limit=5)
        assert "Timing report @ 0.70 V" in text
        assert "VIOLATED" in text

    def test_validation(self, alu):
        with pytest.raises(ValueError):
            timing_report(alu, 0.0)

    def test_endpoint_count(self, alu):
        report = timing_report(alu, 707e6)
        assert len(report.endpoints) == 32


class TestCli:
    def test_parser_covers_all_experiments(self):
        parser = build_parser()
        for command in ("table1", "fig5", "ablations", "all",
                        "timing-report", "verilog", "kernels"):
            assert parser.parse_args([command]).command == command

    def test_parser_covers_campaign_and_cache(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "run", "fig5",
                                  "--scale", "quick", "--jobs", "4"])
        assert args.command == "campaign"
        assert args.campaign_command == "run"
        assert args.experiment == "fig5" and args.jobs == 4
        args = parser.parse_args(["campaign", "status", "fig7"])
        assert args.campaign_command == "status"
        args = parser.parse_args(["campaign", "resume", "ablations"])
        assert args.campaign_command == "resume"
        args = parser.parse_args(["campaign", "run", "all"])
        assert args.experiment == "all"
        args = parser.parse_args(["campaign", "run", "fig2"])
        assert args.experiment == "fig2"
        args = parser.parse_args(["cache", "gc", "--all"])
        assert args.command == "cache" and args.all
        args = parser.parse_args(["cache", "gc", "--max-bytes", "512"])
        assert args.max_bytes == 512

    def test_experiments_accept_store_flags(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--no-store", "--jobs", "2"])
        assert args.no_store and args.jobs == 2
        args = parser.parse_args(["fig7", "--store", "/tmp/s"])
        assert args.store == "/tmp/s"

    @pytest.mark.parametrize("argv", [
        ["fig7", "--jobs", "0"],
        ["all", "--jobs", "-1"],
        ["campaign", "run", "fig7", "--jobs", "0"],
        ["campaign", "resume", "fig7", "--jobs", "-1"],
        ["campaign", "run", "fig7", "--jobs", "two"],
        ["campaign", "run", "fig7", "--fabric", "http://127.0.0.1:1",
         "--workers", "0"],
    ])
    def test_worker_counts_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_fig_jobs_renders_the_serial_figure(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setitem(scale_mod._PRESETS, "quick", TINY)
        assert main(["fig7", "--store", str(tmp_path / "a"),
                     "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert main(["fig7", "--store", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == sharded
        # The serial rerun on the sharded store is served from it.
        monkeypatch.setenv("REPRO_FORBID_MC", "1")
        assert main(["fig7", "--store", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out == sharded

    def test_fig_no_store_jobs_renders_the_serial_figure(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(scale_mod._PRESETS, "quick", TINY)
        assert main(["fig7", "--store", str(tmp_path / "serial")]) == 0
        serial = capsys.readouterr().out
        # --no-store shards over a throwaway store: nothing lands in
        # the default store and the throwaway one is gone afterwards.
        default = tmp_path / "default-store"
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("REPRO_STORE", str(default))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert main(["fig7", "--no-store", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert not default.exists()
        assert list(scratch.iterdir()) == []

    def test_fig_jobs_trace_counts_every_trial(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setitem(scale_mod._PRESETS, "quick", TINY)
        store = str(tmp_path / "store")
        trace = str(tmp_path / "t.jsonl")
        try:
            assert main(["fig7", "--store", store, "--jobs", "2",
                         "--trace", trace]) == 0
            obs.shutdown()
        finally:
            obs.reset()
        totals = obs.counter_totals(obs.read_trace(trace))
        units = campaign_status("fig7", TINY, 2016,
                                ResultStore(store)).total
        assert sum(totals.get(f"mc.trials.{kind}", 0) for kind in (
            "speculated", "scheduled", "diverged", "live")) \
            == units * TINY.trials
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        assert "mc speculation hit rate" in capsys.readouterr().out

    def test_cache_ls_and_gc_run(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cache")
        assert main(["cache", "ls", "--store", store_dir]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--store", store_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--store", store_dir,
                     "--max-bytes", "0"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "probabilistic period violation" in out

    def test_timing_report_runs(self, capsys):
        assert main(["timing-report", "--frequency-mhz", "750"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_verilog_stdout(self, capsys):
        assert main(["verilog", "--unit", "logic"]) == 0
        assert "module logic32" in capsys.readouterr().out

    def test_verilog_file(self, tmp_path, capsys):
        out = tmp_path / "u.v"
        assert main(["verilog", "--unit", "shifter",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_kernels_listing(self, capsys):
        assert main(["kernels", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        for name in ("median", "dijkstra", "kmeans"):
            assert name in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--scale", "quick"]) == 0
        assert "l.mul" in capsys.readouterr().out
