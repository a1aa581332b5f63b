"""Per-layer timing for the traced run, measured from outside the program.

:class:`LayerTrace` replaces a fixed set of the platform's public
functions with timing wrappers and restores them on
:meth:`LayerTrace.uninstall`.  Nothing in the program knows about it:
an untraced run executes exactly the code a deployment runs, and a
traced run executes the same code with a clock read around each layer
boundary.  Times are inclusive (a layer's time contains the layers it
calls), which is what a caller of that layer waits for.

The wrappers are thread-safe: the HTTP server calls them from several
worker and handler threads at once.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from stats import median, percentile


class LayerTrace:
    """Timing wrappers around each layer's public entry points."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        #: per-call durations, kept only for layers reported as percentiles
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: work counts observed on the calls' arguments and results
        self.counts: Dict[str, int] = defaultdict(int)
        #: service jobs submitted while tracing (queue wait and job time
        #: are read off their timestamps once they finish)
        self.jobs: List[Any] = []

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        key: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, Any], None]] = None,
        keep_durations: bool = False,
    ) -> Callable:
        """``fn`` with its calls counted and timed under ``key``.

        ``observe(args, result)`` runs after each call, under the
        trace's lock, to count the work the call did.
        """

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.calls[key] += 1
                self.seconds[key] += elapsed
                if keep_durations:
                    self.durations[key].append(elapsed)
                if observe is not None:
                    observe(args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _patch(self, owner: Any, name: str, key: str, **options: Any) -> None:
        original = getattr(owner, name)
        setattr(owner, name, self.wrap(key, original, **options))
        self._patches.append((owner, name, original))

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "LayerTrace":
        from repro.collector import DataCollector
        from repro.collector.store import Table
        from repro.core import engine, serialize, spatial, streaming, temporal
        from repro.incident.aggregate import IncidentAggregator
        from repro.service.api import RcaService
        from repro.service.http import gateway

        counts = self.counts

        def rows(args, result):
            counts["store.rows"] += len(result)

        def columns(args, result):
            counts["store.rows"] += len(result)
            counts["store.zero_copy"] += bool(result.zero_copy)
            counts["store.columnar_calls"] += 1

        def temporal_work(args, result):
            counts["engine.temporal_candidates"] += len(args[2])
            counts["engine.temporal_survivors"] += len(result)

        def job(args, result):
            self.jobs.append(result)

        def lines(args, result):
            counts["collector.lines"] += len(args[2])

        self._patch_ingest(DataCollector, lines)
        self._patch(Table, "query", "store.query", observe=rows)
        self._patch(Table, "query_columns", "store.query", observe=columns)
        self._patch(engine.RcaEngine, "diagnose", "engine.diagnose",
                    keep_durations=True)
        self._patch(temporal.TemporalJoinRule, "joined_batch", "engine.temporal",
                    observe=temporal_work)
        self._patch(engine, "reason", "engine.reason")
        self._patch(spatial.LocationResolver, "expand", "spatial.expand")
        self._patch(streaming.StreamingRca, "advance", "streaming.advance",
                    keep_durations=True)
        self._patch(engine.RcaEngine, "invalidate_deltas", "streaming.invalidate")
        self._patch(engine.RcaEngine, "evict_retrievals_before",
                    "streaming.invalidate")
        self._patch(RcaService, "submit_diagnosis", "service.submit", observe=job)
        self._patch(engine.Diagnosis, "to_json", "serialize.to_json")
        self._patch(serialize, "instance_from_dict", "serialize.from_dict")
        self._patch(gateway, "instance_from_dict", "serialize.from_dict")
        self._patch(IncidentAggregator, "observe", "incident.observe")
        return self

    def _patch_ingest(self, collector_cls, observe) -> None:
        original = collector_cls.ingest
        timed = self.wrap("collector.ingest", original, observe=observe)

        def ingest(collector, source, lines, now=None):
            # ingest takes any iterable; a list lets the wrapper count it
            return timed(collector, source, list(lines), now)

        collector_cls.ingest = ingest
        self._patches.append((collector_cls, "ingest", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def durations_ms(self, key: str) -> List[float]:
        return [1000.0 * value for value in self.durations.get(key, [])]

    def job_times_ms(self) -> Dict[str, List[float]]:
        """Queue wait and submit-to-finish time of every finished job."""
        waits, totals = [], []
        for job in self.jobs:
            if job.started_at is None or job.finished_at is None:
                continue
            waits.append(1000.0 * (job.started_at - job.submitted_at))
            totals.append(1000.0 * (job.finished_at - job.submitted_at))
        return {"queue_wait": waits, "job": totals}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer figure this trace measured directly."""
        calls, seconds, counts = self.calls, self.seconds, self.counts
        store_calls = calls["store.query"]
        candidates = counts["engine.temporal_candidates"]
        diagnose_ms = self.durations_ms("engine.diagnose") or [0.0]
        advance_ms = self.durations_ms("streaming.advance") or [0.0]
        jobs = self.job_times_ms()
        return {
            "collector.ingest_s": seconds["collector.ingest"],
            "collector.lines_per_s": (
                counts["collector.lines"] / seconds["collector.ingest"]
                if seconds["collector.ingest"] else 0.0
            ),
            "store.query_calls": store_calls,
            "store.query_s": seconds["store.query"],
            "store.rows_per_query": (
                counts["store.rows"] / store_calls if store_calls else 0.0
            ),
            "store.zero_copy_share": (
                counts["store.zero_copy"] / counts["store.columnar_calls"]
                if counts["store.columnar_calls"] else 0.0
            ),
            "engine.diagnose_calls": calls["engine.diagnose"],
            "engine.diagnose_s": seconds["engine.diagnose"],
            "engine.diagnose_p50_ms": median(diagnose_ms),
            "engine.diagnose_p90_ms": percentile(diagnose_ms, 90.0),
            "engine.temporal_s": seconds["engine.temporal"],
            "engine.temporal_survivor_share": (
                counts["engine.temporal_survivors"] / candidates
                if candidates else 0.0
            ),
            "engine.reason_s": seconds["engine.reason"],
            "spatial.expand_calls": calls["spatial.expand"],
            "spatial.expand_s": seconds["spatial.expand"],
            "streaming.advance_s": seconds["streaming.advance"],
            "streaming.advance_p90_ms": percentile(advance_ms, 90.0),
            "streaming.invalidate_s": seconds["streaming.invalidate"],
            "service.queue_wait_p50_ms": median(jobs["queue_wait"] or [0.0]),
            "service.queue_wait_p90_ms": percentile(
                jobs["queue_wait"] or [0.0], 90.0
            ),
            "service.job_p50_ms": median(jobs["job"] or [0.0]),
            "serialize.to_json_calls": calls["serialize.to_json"],
            "serialize.to_json_s": seconds["serialize.to_json"],
            "serialize.from_dict_s": seconds["serialize.from_dict"],
            "incident.observe_calls": calls["incident.observe"],
            "incident.observe_s": seconds["incident.observe"],
        }
