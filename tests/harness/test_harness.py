"""Tests for the experiment harness: timing, figures, drivers, results."""

import io
import json

import pytest

from repro.core.report import PatternRecord, RunReport
from repro.errors import ExperimentError
from repro.harness import experiments
from repro.harness.experiments import (
    run_fig1,
    run_fig2,
    run_fig3,
    run_scaling,
)
from repro.harness.figures import (
    ascii_chart,
    dual_chart,
    render_table,
    xy_chart,
)
from repro.harness.results import (
    result_to_dict,
    write_curve_csv,
    write_fig3_csv,
    write_json,
)
from repro.harness.timing import Timer, clock_function, format_seconds


class TestTiming:
    def test_timer_accumulates(self):
        timer = Timer(clock="perf")
        for _ in range(3):
            with timer:
                sum(range(1000))
        assert timer.seconds > 0

    def test_clock_function_lookup(self):
        assert callable(clock_function("process"))
        assert callable(clock_function("perf"))
        with pytest.raises(ExperimentError):
            clock_function("sundial")

    def test_format_seconds_ranges(self):
        assert format_seconds(0.004).endswith("ms")
        assert format_seconds(5.0).endswith(" s")
        assert format_seconds(600.0).endswith("min")


class TestFigures:
    def test_ascii_chart_contains_extremes(self):
        text = ascii_chart([1, 5, 3, 2], title="t")
        assert "t" in text and "5" in text and "1" in text

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart([], title="t")

    def test_ascii_chart_resamples_long_series(self):
        text = ascii_chart(list(range(1000)), width=40)
        longest = max(len(line) for line in text.splitlines())
        assert longest < 70

    def test_dual_chart_markers(self):
        text = dual_chart([0, 1, 2, 3], [3.0, 2.0, 1.0, 0.5], title="fig")
        assert "+" in text and "*" in text and "fig" in text

    def test_xy_chart_series_markers(self):
        text = xy_chart(
            {
                "concurrent": [(1, 1.0), (2, 2.0)],
                "serial": [(1, 5.0), (2, 9.0)],
            },
            title="f3",
        )
        assert "[c] concurrent" in text
        assert "[s] serial" in text

    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned


@pytest.fixture(scope="module")
def tiny_fig1():
    return run_fig1(rows=2, cols=2, n_faults=40)


def fake_run(total, pattern_seconds):
    report = RunReport(n_faults=0)
    report.total_seconds = total
    report.patterns = [
        PatternRecord(index=i, label=f"p{i}", seconds=seconds,
                      detections=0, live_after=0)
        for i, seconds in enumerate(pattern_seconds)
    ]
    return report


class TestTimedRuns:
    def test_interleaved_medians(self, monkeypatch):
        monkeypatch.setattr(experiments, "GOOD_REPEATS", 2)
        monkeypatch.setattr(experiments, "SIM_REPEATS", 3)
        calls = []
        goods = iter([0.5, 0.1, 0.4, 0.2, 0.9, 0.3, 0.6, 0.7])
        sims = iter([
            fake_run(3.0, [1.0, 2.0]),
            fake_run(2.0, [3.0, 0.5]),
            fake_run(4.0, [2.0, 1.0]),
        ])

        def good_run():
            calls.append("good")
            return fake_run(next(goods), [])

        def sim_run():
            calls.append("sim")
            return next(sims)

        good, sim = experiments._timed_runs(good_run, sim_run)
        assert calls == ["good"] * 2 + (["sim"] + ["good"] * 2) * 3
        # Lower median of the eight good runs; the median fault run...
        assert good.total_seconds == 0.4
        assert sim.total_seconds == 3.0
        # ...with each pattern's median across all three runs.
        assert sim.seconds_per_pattern() == [2.0, 1.0]

    def test_budget_stops_repeats(self):
        calls = []

        def good_run():
            calls.append("good")
            return fake_run(0.1, [])

        def sim_run():
            calls.append("sim")
            return fake_run(experiments.REPEAT_BUDGET_SECONDS, [1.0])

        _good, sim = experiments._timed_runs(good_run, sim_run)
        assert calls.count("sim") == 1
        assert sim.seconds_per_pattern() == [1.0]


class TestDrivers:
    def test_fig1_result_fields(self, tiny_fig1):
        result = tiny_fig1
        assert result.n_patterns == 47  # 7 + 10 + 10 + 20 for a 2x2 RAM
        assert result.n_faults == 40
        assert len(result.seconds_per_pattern) == result.n_patterns
        assert len(result.cumulative_detections) == result.n_patterns
        assert 0 < result.coverage <= 1
        assert result.concurrent_seconds > result.good_seconds

    def test_fig1_render(self, tiny_fig1):
        text = tiny_fig1.render()
        assert "FIG1" in text and "serial" in text

    def test_fig2_uses_sequence2(self):
        result = run_fig2(rows=2, cols=2, n_faults=20)
        assert result.sequence_name == "sequence2"
        assert result.n_patterns == 27  # 7 + 20

    def test_scaling_factors(self):
        result = run_scaling(small=(2, 2), large=(2, 4), n_faults=30)
        assert result.factor("transistors") > 1
        assert result.factor("n_patterns") > 1
        assert "scale factor" in result.render()

    def test_fig3_points_and_slope(self):
        result = run_fig3(rows=2, cols=2, fault_counts=(10, 40, 80))
        assert [p.n_faults for p in result.points] == [10, 40, 80]
        assert result.slope_ratio() > 0
        assert "FIG3" in result.render()

    def test_fig3_rejects_oversample(self):
        with pytest.raises(ExperimentError):
            run_fig3(rows=2, cols=2, fault_counts=(10_000,))

    def test_fig3_real_serial_limit(self):
        result = run_fig3(
            rows=2, cols=2, fault_counts=(5,), real_serial_limit=5
        )
        assert result.points[0].serial_real_avg is not None


class TestResults:
    def test_result_to_dict_curve(self, tiny_fig1):
        data = result_to_dict(tiny_fig1)
        assert data["experiment"] == "FIG1"
        assert "report" not in data
        assert "concurrent_vs_serial_ratio" in data

    def test_write_json_roundtrip(self, tiny_fig1):
        stream = io.StringIO()
        write_json(tiny_fig1, stream)
        data = json.loads(stream.getvalue())
        assert data["n_faults"] == 40

    def test_write_curve_csv(self, tiny_fig1):
        stream = io.StringIO()
        write_curve_csv(tiny_fig1, stream)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0] == (
            "backend,backend_options,pattern,seconds,"
            "cumulative_detected,live_after,oscillation_events,"
            "collapsed,trim,static_pruned"
        )
        assert len(lines) == tiny_fig1.n_patterns + 1
        assert all(line.startswith("concurrent,") for line in lines[1:])

    def test_oscillation_events_archived(self, tiny_fig1):
        # Regression: RunReport.oscillation_events used to be dropped on
        # the floor by the archiver (neither JSON nor CSV carried it).
        data = result_to_dict(tiny_fig1)
        assert "oscillation_events" in data
        assert isinstance(data["oscillation_events"], int)
        stream = io.StringIO()
        write_curve_csv(tiny_fig1, stream)
        rows = stream.getvalue().strip().splitlines()[1:]
        expected = str(tiny_fig1.oscillation_events)
        assert all(row.split(",")[6] == expected for row in rows)

    def test_result_to_dict_records_backend(self, tiny_fig1):
        data = result_to_dict(tiny_fig1)
        assert data["backend"] == "concurrent"
        assert data["backend_options"] == {}

    def test_backend_options_archived(self):
        from repro.harness.experiments import run_fig1
        from repro.harness.results import format_backend_options

        result = run_fig1(
            rows=2, cols=2, n_faults=6,
            backend="sharded",
            backend_options={"jobs": 2, "inner_backend": "concurrent"},
        )
        data = result_to_dict(result)
        assert data["backend_options"] == {
            "jobs": 2, "inner_backend": "concurrent"
        }
        stream = io.StringIO()
        write_curve_csv(result, stream)
        cell = format_backend_options(result.backend_options)
        assert cell == "inner_backend=concurrent;jobs=2"
        assert cell in stream.getvalue()

    def test_write_fig3_csv(self):
        result = run_fig3(rows=2, cols=2, fault_counts=(5, 10))
        stream = io.StringIO()
        write_fig3_csv(result, stream)
        assert len(stream.getvalue().strip().splitlines()) == 3

    def test_unknown_result_rejected(self):
        with pytest.raises(ExperimentError):
            result_to_dict(object())
