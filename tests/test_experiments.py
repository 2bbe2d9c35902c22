"""Tests for the experiment harnesses (Fig. 1, Tables I–III, runtime)."""

import pytest

from repro.experiments.fig1 import build_fig1_network, format_result, run_fig1
from repro.experiments.report import Row, format_table, improvement
from repro.experiments.runtime import format_results as fmt_runtime
from repro.experiments.runtime import run_monolithic
from repro.experiments.table1 import format_results as fmt_t1
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import format_results as fmt_t2
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import (
    PAPER_DELTAS,
    format_summary,
    run_table3,
)
from repro.sbm.config import FlowConfig


class TestReport:
    def test_format_table(self):
        rows = [Row("bench1", {"a": 1, "b": None}),
                Row("bench2", {"a": 20, "b": 3.14159})]
        text = format_table("Title", ["a", "b"], rows)
        assert "Title" in text and "bench1" in text and "3.14" in text
        assert "-" in text  # None rendered as dash

    def test_improvement(self):
        assert improvement(100, 90) == pytest.approx(10.0)
        assert improvement(0, 5) is None


class TestFig1:
    def test_network_shape(self):
        aig = build_fig1_network()
        assert aig.num_pis == 5
        assert aig.num_pos == 2

    def test_reduction_and_verification(self):
        result = run_fig1()
        assert result.reduced
        assert result.verified
        assert result.stats.rewrites >= 1

    def test_format(self):
        text = format_result(run_fig1())
        assert "before rewrite" in text
        assert "yes" in text


class TestRuntime:
    def test_monolithic_runs(self):
        results = run_monolithic(benchmarks=("cavlc",), max_pairs=500)
        assert len(results) == 1
        r = results[0]
        assert r.pairs_tried > 0
        assert r.runtime_s > 0
        assert r.paper_runtime_s == 1.2
        assert "cavlc" in fmt_runtime(results)


class TestTable1:
    def test_small_subset(self):
        fast = FlowConfig(iterations=1)
        results = run_table1(benchmarks=["router"], flow_config=fast)
        assert len(results) == 1
        r = results[0]
        assert r.verified
        assert r.sbm_luts > 0
        text = fmt_t1(results)
        assert "router" in text and "paper" in text.lower()


class TestTable2:
    def test_small_subset(self):
        fast = FlowConfig(iterations=1)
        results = run_table2(benchmarks=["router"], flow_config=fast)
        r = results[0]
        assert r.verified
        assert r.sbm_size <= r.baseline_size
        assert r.paper_size == 96
        assert "router" in fmt_t2(results)


class TestTable3:
    def test_two_designs(self):
        summary = run_table3(num_designs=2,
                             sbm_config=FlowConfig(iterations=1))
        assert len(summary.results) == 2
        assert summary.all_verified()
        # area delta defined and the proposed flow is not worse on average
        delta = summary.average_delta("combinational_area")
        assert delta is not None and delta <= 1.0
        text = format_summary(summary)
        assert "Comb. Area" in text and "paper" in text

    def test_paper_deltas_recorded(self):
        assert PAPER_DELTAS["comb_area"] == -2.20
        assert PAPER_DELTAS["tns"] == -5.99
