"""Golden-trace regression tests: the walk's shape is pinned.

A diagnosis trace mirrors the engine's graph walk — which nodes were
visited in which order, which rules fired with which six-parameter
identities, how many records each retrieval returned.  These tests
freeze that *shape* (never timings) for one small seeded scenario per
example application, so any change to walk order, rule wiring, join
semantics or retrieval behaviour shows up as a reviewable fixture diff
instead of a silent drift.

To bless an intentional change, regenerate the fixtures::

    PYTHONPATH=src python tests/integration/regen_trace_goldens.py
"""

import json
import os

import pytest

from repro.apps import BgpFlapApp, CdnApp, PimApp
from repro.core.engine import RcaEngine
from repro.simulation import bgp_month, cdn_month, pim_fortnight

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: how many leading diagnoses get their full span-tree shape pinned
#: (the rest are covered by aggregate span-kind counts)
PINNED_TRACES = 3

#: scenario name -> (simulator kwargs-applied, application class)
SCENARIOS = {
    "bgp": (lambda: bgp_month(total_flaps=12, seed=5), BgpFlapApp),
    "cdn": (lambda: cdn_month(total_degradations=10, seed=5), CdnApp),
    "pim": (lambda: pim_fortnight(total_changes=10, seed=5), PimApp),
}


def scenario_shape_document(name):
    """Trace every symptom of one scenario; reduce to a shape document.

    The document holds the full timing-free shape of the first
    :data:`PINNED_TRACES` diagnoses plus aggregate span-kind counts
    over all of them — small enough to review, strict enough to catch
    walk-order, rule-identity and record-count drift.
    """
    build_scenario, app_cls = SCENARIOS[name]
    result = build_scenario()
    app = app_cls.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    diagnoses = app.engine.diagnose_all(symptoms, traced=True)
    kind_counts = {}
    for diagnosis in diagnoses:
        for span in diagnosis.trace.walk():
            kind_counts[span.kind] = kind_counts.get(span.kind, 0) + 1
    return {
        "symptoms": len(diagnoses),
        "causes": [d.primary_cause for d in diagnoses],
        "kind_counts": kind_counts,
        "shapes": [d.trace.shape() for d in diagnoses[:PINNED_TRACES]],
    }


def _load_golden(name):
    path = os.path.join(GOLDEN_DIR, f"trace_shape_{name}.json")
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            f"PYTHONPATH=src python tests/integration/regen_trace_goldens.py"
        )
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_shape_matches_golden(name):
    golden = _load_golden(name)
    current = scenario_shape_document(name)
    assert current["symptoms"] == golden["symptoms"]
    assert current["causes"] == golden["causes"]
    assert current["kind_counts"] == golden["kind_counts"]
    for index, (got, want) in enumerate(
        zip(current["shapes"], golden["shapes"])
    ):
        assert got == want, (
            f"span-tree shape drifted for {name} diagnosis #{index}; if "
            f"intentional, regenerate via tests/integration/"
            f"regen_trace_goldens.py and review the diff"
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_shape_is_deterministic(name):
    # two fresh runs of the same seeded scenario produce identical
    # shapes — the precondition for golden pinning to be meaningful
    assert scenario_shape_document(name) == scenario_shape_document(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_run_takes_the_untraced_path(name, monkeypatch):
    # tracing observes the production join path, it never selects
    # another: both runs go through the columnar spatial stage equally
    # often and reach equal diagnoses
    calls = []
    original = RcaEngine._spatial_stage

    def spy(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RcaEngine, "_spatial_stage", spy)

    def run(traced):
        build_scenario, app_cls = SCENARIOS[name]
        result = build_scenario()
        app = app_cls.build(result.platform())
        symptoms = app.find_symptoms(result.start, result.end)
        before = len(calls)
        diagnoses = app.engine.diagnose_all(symptoms, traced=traced)
        return diagnoses, len(calls) - before

    untraced, untraced_calls = run(False)
    traced, traced_calls = run(True)
    assert untraced_calls > 0
    assert traced_calls == untraced_calls
    assert traced == untraced
