"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "dse" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.network == "alexnet"
        assert args.part == "485t"
        assert not args.single


class TestCommands:
    def test_networks_lists_zoo(self, capsys):
        out = run(capsys, "networks")
        for name in ("AlexNet", "VGGNet-E", "SqueezeNet", "GoogLeNet"):
            assert name in out

    def test_networks_single(self, capsys):
        out = run(capsys, "networks", "--network", "alexnet")
        assert "conv1a" in out

    def test_optimize_single(self, capsys):
        out = run(capsys, "optimize", "--single")
        assert "Tn=7" in out and "Tm=64" in out  # Zhang FPGA'15 optimum
        assert "throughput" in out

    def test_optimize_save(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        out = run(capsys, "optimize", "--single", "--save", str(path))
        assert str(path) in out
        record = json.loads(path.read_text())
        assert record["network"]["name"] == "AlexNet"

    def test_table2(self, capsys):
        out = run(capsys, "table2", "--scenario", "485t_single")
        assert "2006k" in out or "2006" in out

    def test_gantt(self, capsys):
        out = run(capsys, "gantt", "--network", "alexnet", "--part", "485t")
        assert "CLP0" in out and "epoch" in out

    def test_gantt_from_file(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        run(capsys, "optimize", "--single", "--save", str(path))
        out = run(capsys, "gantt", "--load", str(path))
        assert "CLP0" in out

    def test_latency(self, capsys):
        out = run(capsys, "latency", "--max-clps", "2")
        assert "frontier" in out.lower()
        assert "CLPs" in out

    def test_hls(self, capsys):
        out = run(capsys, "hls", "--network", "alexnet", "--single")
        assert "#define TN" in out
        assert "DATAFLOW" in out

    def test_joint(self, capsys):
        out = run(capsys, "joint", "alexnet", "squeezenet",
                  "--part", "690t", "--dtype", "fixed16")
        assert "AlexNet" in out and "SqueezeNet" in out


SAMPLE_RUN = __import__("os").path.join(
    __import__("os").path.dirname(__file__), "data", "sample_fleet_run.json"
)


class TestReportCommand:
    def test_report_on_run_json(self, capsys):
        out = run(capsys, "report", SAMPLE_RUN)
        assert out.startswith("# Run report")
        assert "## SLO attainment" in out
        assert "## Time series" in out

    def test_report_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        out = run(capsys, "report", SAMPLE_RUN, "--out", str(path))
        assert str(path) in out
        assert path.read_text().startswith("# Run report")

    def test_report_with_slo(self, capsys):
        out = run(capsys, "report", SAMPLE_RUN, "--p99-ms", "1000",
                  "--max-drop-rate", "1.0")
        assert "(no SLO given" not in out

    def test_report_missing_path_errors(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/run.json"])

    def test_report_on_malformed_record_names_the_key(self, tmp_path):
        with open(SAMPLE_RUN) as handle:
            record = json.load(handle)
        del record["tenants"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(path)])
        assert str(excinfo.value) == (
            "repro report: error: malformed fleet run record: "
            "missing key 'tenants'"
        )


class TestServeObsFlags:
    @pytest.fixture(scope="class")
    def design_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("design") / "design.json"
        main(["optimize", "--single", "--save", str(path)])
        return str(path)

    def test_fleet_json_omits_timeseries_by_default(self, capsys, design_file):
        out = run(capsys, "fleet", "simulate", "--load", design_file,
                  "--replicas", "2", "--rate", "100",
                  "--process", "constant", "--json")
        record = json.loads(out)
        assert record["num_replicas"] == 2
        assert "timeseries" not in record

    def test_fleet_json_includes_timeseries_on_request(
        self, capsys, design_file
    ):
        out = run(capsys, "fleet", "simulate", "--load", design_file,
                  "--replicas", "2", "--rate", "100",
                  "--process", "constant", "--json", "--emit-timeseries")
        record = json.loads(out)
        assert record["timeseries"]["series"]

    def test_serve_trace_and_report(self, capsys, design_file, tmp_path):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.md"
        out = run(capsys, "serve", "--load", design_file, "--rate", "100",
                  "--process", "constant", "--emit-timeseries",
                  "--trace-out", str(trace), "--report", str(report))
        assert str(trace) in out and str(report) in out
        assert json.loads(trace.read_text())["traceEvents"]
        assert report.read_text().startswith("# Run report")

    def test_serve_fast_engine_rejects_trace(self, design_file, tmp_path):
        with pytest.raises(SystemExit, match="cannot emit a trace"):
            main(["serve", "--load", design_file, "--engine", "fast",
                  "--trace-out", str(tmp_path / "t.json")])

    def test_autoscale_report_and_trace(self, capsys, design_file, tmp_path):
        trace = tmp_path / "scaling.json"
        report = tmp_path / "autoscale.md"
        out = run(capsys, "fleet", "autoscale", "--load", design_file,
                  "--rates", "50", "400", "--window-ms", "40",
                  "--max-replicas", "3",
                  "--trace-out", str(trace), "--report", str(report))
        assert str(trace) in out and str(report) in out
        assert "traceEvents" in trace.read_text()
        text = report.read_text()
        assert text.startswith("# Autoscale report")
        assert "## Window series" in text
