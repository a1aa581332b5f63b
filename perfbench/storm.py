"""``storm_replay``: a month of MVPN provisioning storms, replayed inline.

One thread pushes the month's feed lines through ``FeedReplayer`` into
``DataCollector.ingest`` in 600-s ticks and calls
``StreamingRca.advance`` after each, diagnosing inline with the
production defaults (incremental streaming, columnar joins, feed-health
annotation on).  Reads run beside writes; there is no HTTP, queue or
result cache, so this is also the single-threaded baseline.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from inputs import DAY, STORM_DAYS, TICK, Scenario, register_devices, storm_month
from layers import LayerTrace
from stats import CheckFailed, digest, median, percentile, peak_rss_mb

#: set-ups per run; ``setup_s`` is their median
SETUPS = 15


def _set_up(scenario: Scenario):
    """Everything a deployment builds before the first line arrives.

    The ``FeedReplayer`` that stands in for the live feed transports is
    built in :func:`replay`: sorting the month's lines is input
    delivery, not platform set-up.
    """
    from repro.apps import PimApp
    from repro.collector import DataCollector
    from repro.core.streaming import StreamingRca
    from repro.platform import GrcaPlatform

    collector = DataCollector()
    register_devices(collector, scenario.topology)
    platform = GrcaPlatform.from_collector(
        scenario.topology, collector, config_time=scenario.start - DAY
    )
    app = PimApp.build(platform)
    streaming = StreamingRca(app.engine, start=scenario.start)
    return app, streaming, collector


def _timed_setup(scenario: Scenario):
    # a deployment sets up once: the previous set-up's garbage is
    # collected here, not inside the next one's timing
    gc.collect()
    started = time.perf_counter()
    built = _set_up(scenario)
    return time.perf_counter() - started, built


def replay(scenario: Scenario, built) -> Dict[str, object]:
    """Stream the month through one set-up; return what it emitted."""
    from repro.core.streaming import FeedReplayer

    app, streaming, collector = built
    replayer = FeedReplayer(collector, scenario.stream)
    diagnoses = []
    emitting_tick_ms: List[float] = []
    cpu0 = time.process_time()
    started = time.perf_counter()
    now = scenario.start
    while now < scenario.end + TICK:
        now += TICK
        tick_started = time.perf_counter()
        replayer.deliver_until(now)
        emitted = streaming.advance(now)
        if emitted:
            emitting_tick_ms.append(1000.0 * (time.perf_counter() - tick_started))
            diagnoses.extend(emitted)
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu0
    streaming.close()
    return {
        "diagnoses": diagnoses,
        "seconds": elapsed,
        "cpu_seconds": cpu,
        "tick_ms": emitting_tick_ms,
        "streaming": streaming,
        "app": app,
        "collector": collector,
    }


def check(scenario: Scenario, outcome) -> str:
    """Exactly one diagnosis per injected truth, none re-opened."""
    diagnoses = outcome["diagnoses"]
    if outcome["streaming"].reopened_count != 0:
        raise CheckFailed(
            f"in-order replay re-opened {outcome['streaming'].reopened_count} symptoms"
        )
    expected = sorted((t.time, t.location) for t in scenario.truths)
    seen = sorted(
        (d.symptom.start, "~".join(d.symptom.location.parts)) for d in diagnoses
    )
    if seen != expected:
        missing = len(set(expected) - set(seen))
        raise CheckFailed(
            f"{len(diagnoses)} diagnoses for {len(expected)} injected symptoms "
            f"({missing} injected symptoms undiagnosed)"
        )
    return digest(d.to_json() for d in diagnoses)


def run(
    seed: int, seconds: float, traced: bool, days: int = STORM_DAYS
) -> Dict[str, object]:
    scenario = storm_month(seed, days)
    setups, built = [], None
    for _ in range(SETUPS):
        elapsed, built = _timed_setup(scenario)
        setups.append(elapsed)
    # whole months only (the digest covers a whole month); another one
    # starts only when the last one's duration still fits in `seconds`.
    # Each month is checked and dropped before the next set-up, so the
    # peak RSS stays one deployment's however many months fit.
    replays: List[Dict[str, object]] = []
    digests = set()
    while True:
        outcome = replay(scenario, built)
        digests.add(check(scenario, outcome))
        replays.append({
            "symptoms": len(outcome["diagnoses"]),
            **{key: outcome[key] for key in ("seconds", "cpu_seconds", "tick_ms")},
        })
        outcome = built = None
        busy = sum(r["seconds"] for r in replays)
        if busy + replays[-1]["seconds"] > seconds:
            break
        _, built = _timed_setup(scenario)
    if len(digests) != 1:
        raise CheckFailed("repeated replays of one month emitted different streams")
    stream_digest = digests.pop()
    symptoms = sum(r["symptoms"] for r in replays)
    ticks = [ms for r in replays for ms in r["tick_ms"]]
    result = {
        "digest": stream_digest,
        "attempted": len(scenario.truths) * len(replays),
        "failed": 0,
        "end_to_end": {
            "setup_s": median(setups),
            "symptoms_per_s": symptoms / busy,
            "latency_p50_ms": median(ticks),
            "latency_p90_ms": percentile(ticks, 90.0),
            "cpu_ms_per_symptom": 1000.0 * sum(r["cpu_seconds"] for r in replays)
            / symptoms,
            "max_rss_mb": peak_rss_mb(),
        },
    }
    if traced:
        result["per_layer"] = _traced(scenario, replays[0]["seconds"], stream_digest)
    return result


def _traced(
    scenario: Scenario, untraced_seconds: float, untraced_digest: str
) -> Dict[str, float]:
    _, built = _timed_setup(scenario)
    trace = LayerTrace().install()
    try:
        outcome = replay(scenario, built)
    finally:
        trace.uninstall()
    if check(scenario, outcome) != untraced_digest:
        raise CheckFailed("the traced replay emitted a different diagnosis stream")
    metrics = trace.layer_metrics()
    streaming = outcome["streaming"]
    resolver = outcome["app"].engine.resolver.cache_stats()
    lookups = resolver["hits"] + resolver["misses"]
    parsers = outcome["collector"].parsers.values()
    metrics.update({
        "collector.rejected": sum(p.stats.rejected for p in parsers),
        "spatial.cache_hit_share": resolver["hits"] / lookups if lookups else 0.0,
        "streaming.invalidated": streaming.invalidated_count,
        "streaming.evicted": streaming.evicted_count,
        "streaming.reopened": streaming.reopened_count,
        # no service, gateway or open-loop schedule on this workload
        "service.worker_busy_s": 0.0,
        "service.cache_hit_share": 0.0,
        "http.submit_rtt_p50_ms": 0.0,
        "http.poll_rtt_p50_ms": 0.0,
        "http.response_bytes_per_job": 0.0,
        "http.unattributed_p50_ms": 0.0,
        "loadgen.sent": len(scenario.stream),
        "loadgen.lag_p90_ms": 0.0,
        "trace.overhead_share": outcome["seconds"] / untraced_seconds - 1.0,
    })
    return metrics
