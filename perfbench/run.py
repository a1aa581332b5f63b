"""The repository benchmark: one command, two workloads, every metric.

    python3 perfbench/run.py --workload storm_replay --seed 1 --seconds 30 --trace 0

Builds nothing: the platform is pure Python and is imported from the
checkout's ``src/`` tree.  Inputs are generated from ``--seed``
(``inputs.py``); every diagnosis the platform emits is checked (one per
injected truth for ``storm_replay``, equal to an in-process
``engine.diagnose`` for ``http_diagnose``, and the stream digest equal to
the one recorded in ``digests.json`` when the seed has one).  The last
stdout line is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds a traced pass and reports the per-layer metrics.
``--record`` stores the run's digest for its seed in ``digests.json``.

Exit codes: 0 success, 1 a correctness check failed (the result line
says ``"correct": false``), 2 the checkout has no source tree, 3 the
load generator fell behind its schedule (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("storm_replay", "http_diagnose")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(
    spec: dict, workload: str, seed: int, seconds: float, traced: bool, **size
):
    """Run one workload; return its digest, counts and metric values."""
    if workload == "storm_replay":
        import storm

        return storm.run(seed, seconds, traced, **size)
    import http_load

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    return http_load.run(seed, seconds, traced, bounds["latency_p90_ms"], **size)


def report(spec: dict, result: dict, traced: bool) -> dict:
    """The result object, every declared metric named with its unit."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["per_layer" if traced else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"measured metrics {sorted(values)} differ from declared {sorted(names)}"
        )
    return {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def check_digest(spec: dict, args, stream_digest: str, record: bool) -> None:
    """Compare (or record) the run's diagnosis digest for its seed."""
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text())
    if args.workload == "http_diagnose" and args.seconds != spec["run_seconds"]:
        # its job list scales with --seconds: digests hold for run_seconds
        # (storm_replay replays whole months whatever --seconds is)
        return
    per_seed = recorded.setdefault(args.workload, {})
    expected = per_seed.get(str(args.seed))
    if record:
        per_seed[str(args.seed)] = stream_digest
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    elif expected is None:
        print(f"note: no digest recorded for {args.workload} seed {args.seed}; "
              "checked against the injected truths and the in-process engine",
              file=sys.stderr)
    elif expected != stream_digest:
        raise CheckFailed(
            f"diagnosis digest {stream_digest} differs from the recorded {expected}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest for its seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()

    import http_load

    try:
        result = measure(
            spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
        check_digest(spec, args, result["digest"], args.record)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except http_load.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report(spec, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
