"""Tests for the fmossim command-line interface."""

import pytest

from repro.cli import main
from repro.core.shard import resolve_jobs

INVERTER = """\
input a
node out
d out vdd out 1
n a out gnd 2
"""


@pytest.fixture()
def netlist_path(tmp_path):
    path = tmp_path / "inv.sim"
    path.write_text(INVERTER)
    return str(path)


class TestSimulate:
    def test_settings_applied_in_order(self, netlist_path, capsys):
        code = main(
            ["simulate", netlist_path, "--set", "a=0", "--set", "a=1",
             "--show", "out"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "after a=0: out=1" in out
        assert "after a=1: out=0" in out

    def test_no_settings_prints_initial_state(self, netlist_path, capsys):
        code = main(["simulate", netlist_path])
        assert code == 0
        assert "out=" in capsys.readouterr().out

    def test_bad_assignment_is_error(self, netlist_path, capsys):
        code = main(["simulate", netlist_path, "--set", "a=2"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFaultsim:
    def test_stuck_faults_with_pattern_file(
        self, netlist_path, tmp_path, capsys
    ):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            [
                "faultsim",
                netlist_path,
                "--observe",
                "out",
                "--patterns",
                str(patterns),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults detected" in out
        # out stuck-at-0 and stuck-at-1 are both caught by toggling a.
        assert "2/2" in out

    def test_transistor_universe(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            [
                "faultsim",
                netlist_path,
                "--observe",
                "out",
                "--patterns",
                str(patterns),
                "--faults",
                "transistor",
            ]
        )
        assert code == 0
        assert "/4" in capsys.readouterr().out  # 2 transistors x 2 modes

    def test_random_patterns_default(self, netlist_path, capsys):
        code = main(
            ["faultsim", netlist_path, "--observe", "out", "--limit", "2"]
        )
        assert code == 0

    def test_comment_lines_skipped(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text(
            "# a comment does not start or split a pattern\n"
            "a=0\n\n# another comment\na=1\n"
        )
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns)]
        )
        assert code == 0
        assert "2/2" in capsys.readouterr().out

    def test_empty_pattern_file_is_error(
        self, netlist_path, tmp_path, capsys
    ):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("\n\n# only comments and blanks\n\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no patterns" in err

    def test_policy_flags(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns),
             "--no-drop", "--detect-policy", "any", "--clock", "perf"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wall" in out  # --clock perf switches the time label

    def test_batch_backend_options_round_trip(
        self, netlist_path, tmp_path, capsys
    ):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns), "--backend", "batch",
             "--locality", "compiled"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2" in out
        assert "batch backend" in out

    def test_locality_round_trip(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        for locality in ("dynamic", "static", "compiled"):
            code = main(
                ["faultsim", netlist_path, "--observe", "out",
                 "--patterns", str(patterns), "--locality", locality]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "2/2" in out, locality

    def test_compiled_locality_reports_cache(
        self, netlist_path, tmp_path, capsys
    ):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns), "--locality", "compiled"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solve cache:" in out

    def test_profile_prints_to_stderr(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns), "--profile", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "2/2" in captured.out  # the normal report is intact
        assert "cumulative" in captured.err
        assert "function calls" in captured.err

    def test_simulate_locality_flag(self, netlist_path, capsys):
        code = main(
            ["simulate", netlist_path, "--set", "a=0", "--show", "out",
             "--locality", "compiled"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "after a=0: out=1" in out

    def test_sharded_jobs_round_trip(self, netlist_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns),
             "--backend", "sharded", "--jobs", "2",
             "--inner-backend", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2" in out
        assert "sharded(serialx2) backend" in out

    def test_sharded_jobs_auto_resolves_and_echoes(
        self, netlist_path, tmp_path, capsys
    ):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns),
             "--backend", "sharded", "--jobs", "auto",
             "--inner-backend", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2" in out
        # The resolved job count is echoed in the shard-stats line.
        assert f"shards: {resolve_jobs('auto')} job(s)" in out

    def test_jobs_rejects_non_integer_non_auto(self, netlist_path, capsys):
        with pytest.raises(SystemExit):
            main(
                ["faultsim", netlist_path, "--observe", "out",
                 "--backend", "sharded", "--jobs", "many"]
            )
        assert "expected an integer or 'auto'" in capsys.readouterr().err

    def test_invalid_backend_option_is_one_line_error(
        self, netlist_path, tmp_path, capsys
    ):
        # Regression: used to leak "TypeError: SerialBackend() takes no
        # arguments" as a traceback instead of a CLI error.
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", netlist_path, "--observe", "out",
             "--patterns", str(patterns),
             "--backend", "serial", "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert "serial" in captured.err
        assert "accepts: locality" in captured.err


class TestLint:
    @pytest.fixture()
    def bad_path(self, tmp_path):
        path = tmp_path / "bad.sim"
        path.write_text("node float\nnode n\nn float vdd n 1\n")
        return str(path)

    def test_clean_netlist(self, netlist_path, capsys):
        assert main(["lint", netlist_path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_validate_alias(self, netlist_path, capsys):
        assert main(["validate", netlist_path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_netlist_nonzero_exit(self, bad_path, capsys):
        assert main(["lint", bad_path]) == 1
        assert "floating-gate" in capsys.readouterr().out

    def test_json_output(self, bad_path, capsys):
        import json

        assert main(["lint", bad_path, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] >= 1
        codes = {finding["code"] for finding in data["findings"]}
        assert "floating-gate" in codes
        subjects = [
            finding["subject"]
            for finding in data["findings"]
            if finding["code"] == "floating-gate"
        ]
        assert subjects[0]["kind"] == "transistor"

    def test_json_clean_exit_zero(self, netlist_path, capsys):
        import json

        assert main(["lint", netlist_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "netlist": netlist_path,
            "errors": 0,
            "warnings": 0,
            "findings": [],
        }

    def test_faultsim_rejects_bad_netlist(self, bad_path, capsys):
        code = main(["faultsim", bad_path, "--observe", "n"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed lint" in captured.err
        assert "--no-lint" in captured.err

    def test_faultsim_no_lint_runs_anyway(self, bad_path, capsys):
        code = main(
            ["faultsim", bad_path, "--observe", "n", "--no-lint",
             "--limit", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "faults detected" in captured.out

    def test_simulate_rejects_bad_netlist(self, bad_path, capsys):
        code = main(["simulate", bad_path, "--set", "n=1"])
        assert code == 1
        assert "failed lint" in capsys.readouterr().err

    def test_warnings_go_to_stderr_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "warn.sim"
        # An isolated node warns but must not block the run.
        path.write_text(
            "input a\nnode out\nnode orphan\n"
            "d out vdd out 1\nn a out gnd 2\n"
        )
        code = main(["faultsim", str(path), "--observe", "out",
                     "--limit", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "isolated-node" in captured.err
        assert "isolated-node" not in captured.out


class TestStaticPruneFlag:
    @pytest.fixture()
    def pruneable_path(self, tmp_path):
        # The d-type load's stuck-closed fault is provably unexcitable.
        path = tmp_path / "inv.sim"
        path.write_text(INVERTER)
        return str(path)

    def test_report_line_when_pruned(self, pruneable_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", pruneable_path, "--observe", "out",
             "--patterns", str(patterns),
             "--faults", "transistor", "--no-collapse"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "statically pruned 1/4" in out
        assert "1 unexcitable" in out

    def test_no_static_prune_flag(self, pruneable_path, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("a=0\n\na=1\n")
        code = main(
            ["faultsim", pruneable_path, "--observe", "out",
             "--patterns", str(patterns),
             "--faults", "transistor", "--no-collapse",
             "--no-static-prune"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "statically pruned" not in out


class TestExperiment:
    def test_fig1_tiny(self, capsys):
        code = main(
            ["experiment", "fig1", "--rows", "2", "--cols", "2",
             "--faults", "10"]
        )
        assert code == 0
        assert "FIG1" in capsys.readouterr().out

    def test_fig1_sharded_backend_options(self, capsys):
        code = main(
            ["experiment", "fig1", "--rows", "2", "--cols", "2",
             "--faults", "8", "--backend", "sharded", "--jobs", "2",
             "--inner-backend", "concurrent"]
        )
        assert code == 0
        assert "FIG1" in capsys.readouterr().out

    def test_bad_backend_options_one_line_error(self, capsys):
        code = main(
            ["experiment", "fig1", "--rows", "2", "--cols", "2",
             "--faults", "8", "--backend", "concurrent",
             "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "concurrent" in captured.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
