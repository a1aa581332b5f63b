"""Per-stage latency breakdown of traced diagnoses (repro.obs).

Where does a diagnosis spend its time?  This benchmark traces every
symptom of the three table scenarios (bgp / cdn / pim), aggregates the
span trees into per-stage *exclusive* times (`stage_breakdown`), and
reports p50/p95 per stage and scenario.  Two structural assertions are
gated — they hold on any machine:

* every traced diagnosis's stage times sum to at most its root span's
  duration (exclusive time cannot double-count);
* the traced diagnoses equal an untraced run of the same symptoms
  (tracing observes, never changes results).

Measurements land in ``BENCH_trace_stages.json`` (per-stage p50/p95 per
scenario) and one full span tree per scenario is exported as
``BENCH_trace_<scenario>.json`` for CI to archive.
"""

from pathlib import Path

from repro.obs import stage_breakdown, summarize_stages, trace_to_json

from .artifacts import record

BENCH_FILE = Path("BENCH_trace_stages.json")

#: wiggle room for float summation when comparing stage sums to roots
EPSILON = 1e-9


def _traced_stage_summary(app, symptoms, scenario, console):
    """Trace every symptom, summarize stages, gate the invariants."""
    engine = app.engine.isolated()  # cold cache: retrieval cost is visible
    diagnoses = engine.diagnose_all(symptoms, traced=True)

    breakdowns = []
    for diagnosis in diagnoses:
        root = diagnosis.trace
        assert root is not None, "traced run must attach a span tree"
        breakdown = stage_breakdown(root)
        assert sum(breakdown.values()) <= root.duration + EPSILON, (
            "exclusive stage times exceed the root span duration"
        )
        breakdowns.append(breakdown)

    untraced = app.engine.isolated().diagnose_all(symptoms)
    assert diagnoses == untraced  # tracing observes, never changes results

    summary = summarize_stages(breakdowns)
    console.emit(
        f"\n=== stage breakdown ({scenario}, {len(symptoms)} symptoms) ==="
    )
    width = max(len(stage) for stage in summary)
    for stage, stats in summary.items():
        console.emit(
            f"{stage:<{width}}  p50 {1000 * stats['p50']:8.3f} ms  "
            f"p95 {1000 * stats['p95']:8.3f} ms  ({stats['count']:.0f} samples)"
        )

    record(
        BENCH_FILE,
        scenario,
        {
            "symptoms": len(symptoms),
            "stages": {
                stage: {k: round(v, 6) for k, v in stats.items()}
                for stage, stats in summary.items()
            },
        },
    )
    trace_path = Path(f"BENCH_trace_{scenario}.json")
    trace_path.write_text(trace_to_json(diagnoses[0].trace))
    console.emit(f"sample span tree written to {trace_path}")
    return summary


def test_bgp_stage_breakdown(bgp_outcome, console):
    _result, app, symptoms, _diagnoses = bgp_outcome
    summary = _traced_stage_summary(app, symptoms, "bgp_month", console)
    # the walk always retrieves and joins: the core stages must appear
    for stage in ("retrieve", "temporal-join", "spatial-join", "reason"):
        assert stage in summary, f"stage {stage!r} missing from traced runs"


def test_cdn_stage_breakdown(cdn_outcome, console):
    _result, app, symptoms, _diagnoses = cdn_outcome
    _traced_stage_summary(app, symptoms, "cdn_month", console)


def test_pim_stage_breakdown(pim_outcome, console):
    _result, app, symptoms, _diagnoses = pim_outcome
    _traced_stage_summary(app, symptoms, "pim_fortnight", console)
