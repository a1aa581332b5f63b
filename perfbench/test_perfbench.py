"""Smoke test of the benchmark itself, at tiny size.

    PYTHONPATH=src python -m pytest -q perfbench

Checks that every declared metric is emitted with its unit for every
workload (traced and untraced), and unit-tests the measurement math the
reported figures rest on.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from http_load import InvalidRun, WARMUP_JOBS, check_lag, plan
from stats import (
    CheckFailed,
    compressed_schedule,
    percentile,
    scheduled_latencies,
    send_lags,
)

#: tiny workload sizes: two storm days, a 400-flap bgp month
TINY = {"storm_replay": {"days": 2}, "http_diagnose": {"flaps": 400}}


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([7.0], 90) == 7.0
    assert percentile(list(range(1, 102)), 90) == 91.0
    assert percentile([1.0, 2.0], 0) == 1.0 and percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_counts_from_the_scheduled_send():
    # the second request was due at 1.0 but only seen at 3.0: a stall
    # before it was even sent still counts against it
    assert scheduled_latencies([0.0, 1.0, 2.0], [0.5, 3.0, 2.25]) == [0.5, 2.0, 0.25]
    assert send_lags([0.0, 1.0], [0.1, 0.9]) == [0.1, 0.0]
    with pytest.raises(ValueError):
        scheduled_latencies([1.0], [0.5])
    with pytest.raises(ValueError):
        scheduled_latencies([1.0, 2.0], [3.0])


def test_schedule_replays_the_month_at_the_rate():
    # flaps at 1000, 1000, 1300 and 1900 s into the month, replayed at 10/s:
    # the month's 900-s span becomes 0.3 s, gaps keep their proportions
    # and the two coincident flaps are due together
    offsets = compressed_schedule([1000.0, 1000.0, 1300.0, 1900.0], 10.0)
    assert offsets[:2] == [0.0, 0.0]
    assert abs(offsets[2] - 0.1) < 1e-12 and abs(offsets[3] - 0.3) < 1e-12
    # in bursts of two, each pair is due at the time of its first flap
    assert compressed_schedule([1000.0, 1100.0, 1300.0, 1900.0], 10.0, 2) == [
        0.0, 0.0, offsets[2], offsets[2]
    ]
    assert compressed_schedule([5.0], 10.0) == [0.0]
    assert compressed_schedule([5.0, 5.0], 10.0) == [0.0, 0.0]
    with pytest.raises(ValueError):
        compressed_schedule([2.0, 1.0], 10.0)
    with pytest.raises(ValueError):
        compressed_schedule([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        compressed_schedule([1.0, 2.0], 10.0, 0)


def test_plan_replays_a_seeded_window_of_the_month():
    symptoms = list(range(1000))
    warm, timed = plan(4, symptoms, 300)
    assert (warm, timed) == plan(4, symptoms, 300)
    window = warm + timed
    assert len(warm) == WARMUP_JOBS and len(timed) == 300
    assert window == list(range(window[0], window[0] + len(window)))
    assert {plan(seed, symptoms, 300)[1][0] for seed in range(5)} != {timed[0]}
    with pytest.raises(ValueError):
        plan(4, symptoms, 1000)


def test_a_generator_behind_its_schedule_invalidates_the_phase():
    # a 4-ms median latency and a 0.25 bound allow a 1-ms lag p90
    latencies = [4.0] * 100
    check_lag([0.2] * 91 + [9.0] * 9, latencies, 0.25)
    with pytest.raises(InvalidRun):
        check_lag([0.2] * 80 + [1.5] * 20, latencies, 0.25)
    # an 8-ms lag is small next to a 40-ms send gap but doubles this latency
    with pytest.raises(InvalidRun):
        check_lag([8.0] * 100, latencies, 0.25)


def test_spec_and_predictions_name_the_same_metrics(spec):
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    assert sorted(predictions["per_layer"]) == sorted(
        metric["name"] for metric in spec["per_layer"]
    )
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS)
    for row in predictions["per_layer"].values():
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads)
    assert "setup_s" in [metric["name"] for metric in spec["end_to_end"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(spec, workload):
    result = run.measure(spec, workload, 3, 1.0, True, **TINY[workload])
    assert _children() == [], "the run left a process it started running"
    assert result["attempted"] >= 1 and result["failed"] == 0
    for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        reported = run.report(spec, result, traced)
        assert reported["correct"] is True
        assert list(reported["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            value = reported["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
    for name in ("setup_s", "symptoms_per_s", "latency_p50_ms", "cpu_ms_per_symptom"):
        assert result["end_to_end"][name] > 0


def _children():
    """Processes whose parent is this one (Linux ``/proc``; [] elsewhere)."""
    children = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # the parent pid follows the ")" that ends the command name
                ppid = int(stat.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == os.getpid():
            children.append(int(entry))
    return children


def test_a_missing_diagnosis_fails_the_storm_check():
    import storm

    scenario = storm.storm_month(5, 1)
    outcome = storm.replay(scenario, storm._set_up(scenario))
    storm.check(scenario, outcome)
    outcome["diagnoses"].pop()
    with pytest.raises(CheckFailed):
        storm.check(scenario, outcome)


def test_a_digest_other_than_the_recorded_one_fails(spec, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HERE", tmp_path)
    (tmp_path / "digests.json").write_text(json.dumps({"storm_replay": {"5": "abc"}}))
    args = run.argparse.Namespace(
        workload="storm_replay", seed=5, seconds=spec["run_seconds"]
    )
    run.check_digest(spec, args, "abc", record=False)
    with pytest.raises(CheckFailed):
        run.check_digest(spec, args, "abd", record=False)
    # a storm month's stream does not depend on --seconds
    args.seconds = 1
    with pytest.raises(CheckFailed):
        run.check_digest(spec, args, "abd", record=False)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
