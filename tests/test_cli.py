"""Tests for the command-line interface."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main


class TestDiagnose:
    def test_bgp_breakdown_printed(self, capsys):
        code = main(["diagnose", "bgp-month", "--size", "40", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Root Cause" in out
        assert "Interface flap" in out
        assert "explained:" in out

    def test_trend_flag(self, capsys):
        code = main(
            ["diagnose", "pim-fortnight", "--size", "30", "--seed", "2", "--trend"]
        )
        assert code == 0
        assert "per-day trend" in capsys.readouterr().out

    def test_runs_without_numpy(self):
        # numpy is a test extra, not a dependency: with it unimportable
        # the CLI must still import and diagnose
        script = textwrap.dedent(
            """
            import sys

            class BlockNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ImportError("numpy is not installed")

            sys.meta_path.insert(0, BlockNumpy())
            from repro.cli import main

            sys.exit(main(["diagnose", "bgp-month", "--size", "20", "--seed", "2"]))
            """
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "Root Cause" in done.stdout

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["diagnose", "no-such-scenario"])

    @pytest.mark.slow
    def test_backend_swap_is_config_only(self, tmp_path, capsys):
        from repro.collector.backends import set_default_backend

        base = ["diagnose", "bgp-month", "--size", "20", "--seed", "2"]
        try:
            assert main(base + ["--feed-stats"]) == 0
            memory_out = capsys.readouterr().out
            assert "stats storage backend=memory" in memory_out
            assert main(
                base
                + ["--feed-stats", "--backend", "sqlite",
                   "--store-path", str(tmp_path / "db")]
            ) == 0
            sqlite_out = capsys.readouterr().out
            assert "stats storage backend=sqlite" in sqlite_out
        finally:
            set_default_backend(None)
        # identical diagnoses either way: the swap changes storage only
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("stats storage")
        ]
        assert strip(sqlite_out) == strip(memory_out)
        assert (tmp_path / "db" / "syslog.sqlite").exists()


class TestCatalog:
    def test_events(self, capsys):
        assert main(["catalog", "events"]) == 0
        out = capsys.readouterr().out
        assert "Link congestion alarm" in out
        assert "event definitions" in out

    def test_rules(self, capsys):
        assert main(["catalog", "rules"]) == 0
        out = capsys.readouterr().out
        assert "SONET restoration" in out
        assert "rule templates" in out


class TestSpecCheck:
    def test_valid_spec(self, tmp_path, capsys):
        spec = tmp_path / "app.grca"
        spec.write_text(
            'application "x"\n'
            'symptom "eBGP flap"\n'
            'rule "eBGP flap" -> "Interface flap" priority 160 {\n'
            "    symptom expand start/start 200 10\n"
            "    diagnostic expand start/end 10 10\n"
            "    join router:neighbor-ip interface at interface\n"
            "}\n"
        )
        assert main(["spec", "check", str(spec)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.grca"
        spec.write_text('symptom "No such event"\n')
        assert main(["spec", "check", str(spec)]) == 1
        assert "unknown symptom" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["spec", "check", "/nonexistent/path.grca"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_dump_feeds(self, tmp_path, capsys):
        code = main(
            ["simulate", "bgp-month", "--size", "20", "--seed", "2",
             "--out", str(tmp_path / "feeds")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ground-truth symptoms" in out
        dumped = sorted(p.name for p in (tmp_path / "feeds").iterdir())
        assert "syslog.tsv" in dumped
        assert "snmp.tsv" in dumped
        syslog = (tmp_path / "feeds" / "syslog.tsv").read_text()
        assert "router=" in syslog


class TestParallelJobs:
    def test_jobs_flag_matches_serial_output(self, capsys):
        serial_args = ["diagnose", "bgp-month", "--size", "30", "--seed", "3"]
        assert main(serial_args) == 0
        serial_out = capsys.readouterr().out
        assert main(serial_args + ["--jobs", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out  # byte-identical breakdown


class TestServe:
    def test_serve_runs_and_prints_metrics(self, capsys):
        code = main(
            ["serve", "bgp-month", "--size", "30", "--seed", "2",
             "--workers", "2", "--rounds", "3", "--repeat"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "symptoms diagnosed by 2 workers over 3 scheduled rounds" in out
        assert "Root Cause" in out
        assert "explained:" in out
        assert "repeat of the full window served from the result cache" in out
        assert "service metrics:" in out
        assert "cache:" in out
        assert "worker utilization" in out


class TestMine:
    @pytest.mark.slow
    def test_mine_runs(self, capsys):
        code = main(["mine", "--seed", "2", "--days", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "candidate series" in out
        assert "provisioning activity" in out


class TestEval:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.eval import scenario_names

        assert main(["eval", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_is_exit_2(self, capsys):
        assert main(["eval", "no-such-scenario"]) == 2
        assert "registered:" in capsys.readouterr().err

    def test_no_arguments_is_exit_2(self, capsys):
        assert main(["eval"]) == 2
        assert "--matrix" in capsys.readouterr().err

    def test_single_scenario_prints_scorecard(self, capsys):
        assert main(["eval", "bgp_month_core"]) == 0
        out = capsys.readouterr().out
        assert "composite" in out
        assert "accuracy" in out
        assert "gate: pass" in out

    def test_matrix_subset_writes_artifact_and_gates(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_scenarios.json"
        code = main([
            "eval", "--matrix", "--only", "bgp_month_core",
            "--gate", "--out", str(out_path), "--no-timing",
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "grca-scenario-matrix/1"
        assert document["summary"]["count"] == 1
        assert document["summary"]["gate_failures"] == []
        assert "timing" not in document["scenarios"][0]
        assert "gate passed" in capsys.readouterr().out

    def test_diff_of_identical_artifacts_is_clean(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main(["eval", "--matrix", "--only", "bgp_month_core",
                     "--out", str(out_path), "--no-timing"]) == 0
        capsys.readouterr()
        assert main(["eval", "--diff", str(out_path), str(out_path)]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_diff_missing_file_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["eval", "--diff", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err
