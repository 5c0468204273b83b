"""Tests for the experiment harness (tables, figures, report helpers)."""

import pytest

from repro.analysis import paper_data
from repro.analysis.report import (
    _cell,
    ascii_plot,
    format_ratio,
    format_sig,
    markdown_table,
    render_table,
    sparkline,
)
from repro.analysis.tables import design_for, table2, table3, table6, table8
from repro.analysis.figures import figure6, figure7


class TestReportHelpers:
    def test_render_table_alignment(self):
        out = render_table(["a", "long"], [(1, 2), (33, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [(1, 2)])

    def test_render_table_title(self):
        assert render_table(["x"], [(1,)], title="T").startswith("T\n")

    def test_format_ratio(self):
        assert "2.00x" in format_ratio(2.0, 1.0)
        assert "paper 0" in format_ratio(1.0, 0.0)

    def test_ascii_plot_dimensions(self):
        out = ascii_plot([(0, 0), (10, 5)], width=20, height=5)
        assert out.count("\n") >= 6

    def test_ascii_plot_empty(self):
        assert ascii_plot([]) == "(no points)"

    def test_ascii_plot_constant_y(self):
        # A flat series used to divide by a synthetic span and print a
        # meaningless "5.00 .. 5.00" range; now it's an annotated midline.
        out = ascii_plot([(0, 5.0), (10, 5.0)], width=20, height=5)
        assert "(5.00, constant)" in out
        assert "-" * 10 in out  # the midline is drawn

    def test_ascii_plot_constant_x(self):
        out = ascii_plot([(3, 1.0), (3, 2.0)], width=20, height=5)
        assert "(3, constant)" in out

    def test_ascii_plot_single_point(self):
        out = ascii_plot([(2, 7.0)], width=20, height=5)
        assert "(7.00, constant)" in out
        assert "(2, constant)" in out
        assert "*" in out

    def test_format_sig_keeps_small_rates_visible(self):
        # The old %.2f cell rounded a 0.4% drop rate to "0.00".
        assert format_sig(0.004) == "0.004"
        assert format_sig(0.00037) == "0.00037"
        assert format_sig(-0.004) == "-0.004"

    def test_format_sig_large_values_unchanged(self):
        assert format_sig(0.0) == "0.00"
        assert format_sig(1.2345) == "1.23"
        assert format_sig(97.1) == "97.10"
        assert format_sig(float("nan")) == "nan"

    def test_cell_uses_significant_digits(self):
        assert _cell(0.004) == "0.004"
        assert _cell("text") == "text"
        assert _cell(7) == "7"

    def test_render_table_small_floats(self):
        out = render_table(["rate"], [(0.004,)])
        assert "0.004" in out

    def test_sparkline_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_gaps_and_constant(self):
        assert sparkline([None, None]) == "··"
        assert sparkline([5.0, None, 5.0]) == "▄·▄"

    def test_markdown_table_shape(self):
        out = markdown_table(["a", "b"], [(1, 0.004)])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert "0.004" in lines[2]


class TestRunReport:
    @pytest.fixture(scope="class")
    def sample_result(self):
        import os

        from repro.analysis.report import load_run

        path = os.path.join(
            os.path.dirname(__file__), "data", "sample_fleet_run.json"
        )
        return path, load_run(path)

    def test_load_run_sniffs_fleet(self, sample_result):
        _, result = sample_result
        assert result.balancer == "round-robin"

    def test_render_run_report_sections(self, sample_result):
        from repro.analysis.report import render_run_report

        path, result = sample_result
        text = render_run_report([result], [path])
        assert text.startswith("# Run report")
        assert "## Runs" in text
        assert "## SLO attainment" in text
        assert "## Resilience" in text  # the sample ran rolling-reboot
        assert "## Time series" in text
        assert "rolling-reboot" in text
        # Single run: no cross-run aggregate section.
        assert "## Aggregate" not in text

    def test_multi_run_aggregates(self, sample_result):
        from repro.analysis.report import render_run_report

        path, result = sample_result
        text = render_run_report([result, result], [path, path])
        assert "## Aggregate across runs" in text

    def test_slo_section_uses_given_spec(self, sample_result):
        from repro.analysis.report import render_run_report
        from repro.serve import SLOSpec

        path, result = sample_result
        text = render_run_report(
            [result], [path], slo=SLOSpec(max_drop_rate=1.0)
        )
        assert "(no SLO given" not in text

    def test_render_report_dispatches_directory(self, sample_result, tmp_path):
        import shutil

        from repro.analysis.report import render_report

        path, _ = sample_result
        shutil.copy(path, tmp_path / "run.json")
        (tmp_path / "noise.json").write_text("{}")
        text = render_report(str(tmp_path))
        assert "run.json" in text

    def test_render_report_rejects_empty_dir(self, tmp_path):
        from repro.analysis.report import render_report

        with pytest.raises(ValueError):
            render_report(str(tmp_path))

    def test_render_store_report(self, tmp_path):
        from repro.analysis.report import render_report
        from repro.dse import DesignPoint, run_sweep

        store = tmp_path / "store.jsonl"
        point = DesignPoint.build("alexnet", dsp=500, bram18k=400)
        run_sweep([point], store=str(store))
        text = render_report(str(store))
        assert text.startswith("# Sweep report")
        assert "## Top points by throughput" in text
        assert "alexnet" in text
        assert "solve time" in text  # store.describe() timing satellite


class TestPaperData:
    def test_table1_has_16_cases(self):
        assert len(paper_data.TABLE1_UTILIZATION) == 16

    def test_table2_dsp_conservation(self):
        # Section 6.3: the 690T Multi-CLP uses exactly the Single-CLP's
        # 576 units spread over six CLPs.
        multi = paper_data.TABLE2_CONFIGS["690t_multi"]
        assert sum(c.tn * c.tm for c in multi) == 9 * 64

    def test_table4_485t_multi_dsp(self):
        multi = paper_data.TABLE4_CONFIGS["485t_multi"]
        assert sum(c.tn * c.tm for c in multi) == 2240

    def test_headline_speedups(self):
        assert paper_data.HEADLINE_SPEEDUPS["alexnet"] == 3.8


class TestDesignCache:
    def test_cache_returns_same_object(self):
        a = design_for("alexnet", "485t", "float32", single=True)
        b = design_for("alexnet", "485t", "float32", single=True)
        assert a is b

    def test_single_flag_distinguishes(self):
        single = design_for("alexnet", "485t", "float32", single=True)
        multi = design_for("alexnet", "485t", "float32", single=False)
        assert single.num_clps == 1
        assert multi.num_clps > 1


class TestTableGenerators:
    @pytest.mark.parametrize(
        "scenario,cycles_k,grid",
        [("485t_single", 2006, (7, 64)), ("690t_single", 1769, (9, 64))],
    )
    def test_table2_single_matches_paper_exactly(self, scenario, cycles_k, grid):
        result = table2(scenario)
        assert result.overall_cycles_k == result.paper_overall_cycles_k == cycles_k
        assert (result.rows[0].tn, result.rows[0].tm) == grid

    @pytest.mark.parametrize("scenario", ["485t_multi", "690t_multi"])
    def test_table2_multi_at_least_matches_paper(self, scenario):
        result = table2(scenario)
        assert result.overall_cycles_k <= result.paper_overall_cycles_k
        assert len(result.rows) > 1

    def test_table3_dsp_matches_paper(self):
        result = table3()
        for row in result.rows:
            assert row.dsp == row.paper.dsp

    def test_table3_throughput_within_band(self):
        result = table3()
        for row in result.rows:
            assert row.throughput == pytest.approx(
                row.paper.throughput, rel=0.05
            )

    def test_table6_model_column_matches_paper(self):
        result = table6("485t_single")
        clp = result.implementation.clps[0]
        paper = result.paper_rows[0]
        assert clp.dsp_model == paper.dsp_model == 2240
        assert clp.bram_model == paper.bram_model == 618

    def test_table8_rows_format(self):
        text = table8().format()
        assert "485t_single" in text
        assert "power" in text.lower()


class TestFigures:
    def test_figure6_curves_decrease(self):
        for curve in figure6():
            bws = [bw for _, bw in curve.points]
            assert bws == sorted(bws, reverse=True)
            assert len(curve.points) >= 3, "curve should expose a real tradeoff"

    def test_figure6_bandwidth_at(self):
        curve = figure6(parts=("485t",))[0]
        big = curve.bandwidth_at(10**6)
        assert big is not None
        small = curve.bandwidth_at(curve.points[0][0])
        assert small >= big

    def test_figure7_small_sweep(self):
        result = figure7(dsp_sweep=(500, 2240))
        assert len(result.points) == 2
        last = result.points[-1]
        assert last.speedup is not None and last.speedup >= 1.0

    def test_figure7_format(self):
        text = figure7(dsp_sweep=(500,)).format()
        assert "DSP" in text
