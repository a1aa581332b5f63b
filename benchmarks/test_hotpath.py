"""Hot-path speedup gate: columnar batch joins + incremental streaming.

The paper sizes the platform for event storms — PIM adjacency changes
"arrive by the thousands per day", and a single provisioning action on
one PE disturbs its MVPN adjacencies towards *every* remote PE in
every customer VPN at once.  That is the shape that makes the join
stage the hot path: dozens of symptom instances share one retrieval
cover, and each of them must be joined against every OSPF-monitor
candidate in the window.

This benchmark replays one month of daily MVPN provisioning storms
twice through the same streaming loop:

* **legacy** — the pre-optimization discipline, run from the test
  oracles: scalar per-candidate joins (``tests.oracles.ScalarRcaEngine``)
  and a full retrieval-cache clear on every advance
  (``tests.oracles.ClearCacheStreamingRca``);
* **optimized** — the defaults: columnar batch joins over the store's
  zero-copy views plus delta-driven invalidation and horizon eviction,
  so covers built for one symptom serve every sibling symptom of the
  storm, and surviving covers are dropped only when a record actually
  lands in them.

Telemetry is delivered strictly in order, so the two disciplines must
produce byte-identical diagnosis streams (no re-opens fire; the
late-data paths are covered by the incremental oracle tests in
``tests/core/test_streaming.py``).  The gate asserts the optimized
replay's diagnosis loop — every ``advance()`` call, detection included
— is at least 5x faster.  Results land in ``BENCH_hotpath.json``.
"""

import random
import time
from pathlib import Path

from repro.apps import PimApp
from repro.collector import DataCollector
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.core.streaming import FeedReplayer, StreamingConfig, StreamingRca
from repro.platform import GrcaPlatform
from repro.simulation.faults import FaultInjector
from repro.simulation.scenarios import DAY
from repro.simulation.telemetry import BASE_EPOCH, TelemetryEmitter
from repro.topology import TopologyParams, build_topology
from tests.oracles import ClearCacheStreamingRca, scalar_engine

from .artifacts import record

BENCH_FILE = Path("BENCH_hotpath.json")

#: replay clock step (the paper's near-real-time cadence)
TICK = 600.0
DURATION_DAYS = 30.0
#: storm shape: one provisioning action every 15 minutes, daily
FAULTS_PER_STORM = 3
FAULT_SPACING = 900.0
#: MVPN customer VPNs disturbed per provisioning action
VRFS = 10
#: OSPFMon LSA-churn cadence around each action (reconvergence noise)
CHURN_REFRESH = 12.0
CHURN_SPAN = 300.0
#: quiet-hours LSA refresh cadence
IDLE_REFRESH = 1800.0
GATE_SPEEDUP = 5.0


def _storm_month():
    """A month of daily MVPN provisioning storms with OSPFMon churn.

    Each provisioning action on a PE flaps its PIM adjacencies towards
    every remote PE across ``VRFS`` customer VPNs — dozens of symptom
    instances within one second, exactly the storm fan-out the paper
    reports.  Around every action the OSPF monitor sees a burst of LSA
    re-announcements (one per link every ``CHURN_REFRESH`` seconds),
    each of which the knowledge library treats as a re-convergence
    point; off-hours the feed idles at ``IDLE_REFRESH``.
    """
    topology = build_topology(
        TopologyParams(n_pops=8, pers_per_pop=2, customers_per_per=4, seed=77)
    )
    emitter = TelemetryEmitter(topology, random.Random(78))
    # storms need exact sub-second fan-out: jitter would collide the
    # per-vrf instance identities (rounded to deciseconds) and scatter
    # siblings across retrieval buckets in both configurations alike
    emitter.syslog_jitter = 0.0
    injector = FaultInjector(topology, emitter, random.Random(79))
    start = BASE_EPOCH
    end = start + DURATION_DAYS * DAY
    pes = sorted(topology.provider_edges)
    links = sorted(topology.network.logical_links)

    truths = []
    churn_spans = []
    storm_start = start + 0.5 * DAY
    n = 0
    while storm_start < end - 0.5 * DAY:
        for k in range(FAULTS_PER_STORM):
            t = storm_start + k * FAULT_SPACING
            pe = pes[(n + k) % len(pes)]
            remotes = [p for p in pes if p != pe]
            emitter.tacacs(
                t - 8.0, pe, "prov-sys",
                "conf t; ip vrf cust-vpn-1; mdt default 239.1.1.1",
            )
            for v in range(VRFS):
                # whole-second offsets (syslog timestamp resolution)
                # keep the instances' identities distinct while still
                # sharing retrieval covers across the whole fan-out
                truths += injector._pim_changes(
                    t + 2.0 * v, pe, remotes,
                    "PIM Configuration change", vrf=f"cust-vpn-{v + 1}",
                )
            churn_spans.append((t - CHURN_SPAN, t + CHURN_SPAN))
        storm_start += DAY
        n += 1
    stream = emitter.buffers.replay_order()

    # the quiet-but-heavy feed, delivered strictly in order
    t = start
    while t < end:
        for link in links:
            stream.append((t, "ospfmon", render_ospfmon_row(t, link, 10)))
        t += IDLE_REFRESH
    for lo, hi in churn_spans:
        t = lo
        while t <= hi:
            for link in links:
                stream.append((t, "ospfmon", render_ospfmon_row(t, link, 10)))
            t += CHURN_REFRESH
    return topology, stream, truths, start, end


def _replay(topology, stream, start, end, *, legacy):
    """Stream the scenario through one discipline; return results.

    The timed section is the diagnosis loop — every ``advance()`` call,
    including symptom detection — not ingestion, which is identical
    (and untouched) in both configurations.
    """
    collector = DataCollector()
    for router in topology.network.routers.values():
        collector.registry.register_device(router.name, router.timezone)
    platform = GrcaPlatform.from_collector(
        topology, collector, config_time=start - DAY
    )
    app = PimApp.build(platform)
    engine = scalar_engine(app.engine) if legacy else app.engine
    # feed-health gap annotation is orthogonal to the cache/join
    # disciplines under test; disabling it keeps the loop cost honest
    engine.config.health = None
    streaming_cls = ClearCacheStreamingRca if legacy else StreamingRca
    streaming = streaming_cls(
        engine, StreamingConfig(reopen_horizon=1800.0), start=start
    )
    replayer = FeedReplayer(collector, stream)
    diagnoses = []
    advances = 0
    rca_seconds = 0.0
    now = start
    while now < end + TICK:
        now += TICK
        replayer.deliver_until(now)
        t0 = time.perf_counter()
        diagnoses.extend(streaming.advance(now))
        rca_seconds += time.perf_counter() - t0
        advances += 1
    streaming.close()
    return {
        "diagnoses": diagnoses,
        "advances": advances,
        "rca_seconds": rca_seconds,
        "invalidated": streaming.invalidated_count,
        "reopened": streaming.reopened_count,
        "reemitted": streaming.reemitted_count,
        "evicted": streaming.evicted_count,
    }


def test_month_replay_speedup_and_equivalence(console):
    topology, stream, truths, start, end = _storm_month()

    legacy = _replay(topology, stream, start, end, legacy=True)
    optimized = _replay(topology, stream, start, end, legacy=False)

    # correctness first: the speedup must not change a single diagnosis
    assert len(optimized["diagnoses"]) == len(truths)
    assert optimized["reopened"] == 0  # in-order delivery: no re-opens
    assert optimized["diagnoses"] == legacy["diagnoses"]

    speedup = legacy["rca_seconds"] / optimized["rca_seconds"]
    per_symptom_ms = (
        1000.0 * optimized["rca_seconds"] / len(optimized["diagnoses"])
    )
    console.emit(
        f"\n=== Streaming hot path: month of MVPN provisioning storms "
        f"({len(optimized['diagnoses'])} symptoms, "
        f"{optimized['advances']} advances) ===\n"
        f"legacy (scalar joins, clear-cache): "
        f"{legacy['rca_seconds']:.2f} s\n"
        f"optimized (batch joins, incremental): "
        f"{optimized['rca_seconds']:.2f} s\n"
        f"speedup: {speedup:.1f}x (gate: >= {GATE_SPEEDUP:.0f}x)   "
        f"per-symptom: {per_symptom_ms:.2f} ms"
    )
    record(
        BENCH_FILE,
        "month_storm_replay",
        {
            "symptoms": len(optimized["diagnoses"]),
            "advances": optimized["advances"],
            "tick_seconds": TICK,
            "duration_days": DURATION_DAYS,
            "legacy_rca_seconds": round(legacy["rca_seconds"], 3),
            "optimized_rca_seconds": round(optimized["rca_seconds"], 3),
            "speedup": round(speedup, 2),
            "per_symptom_ms": round(per_symptom_ms, 3),
            "invalidated": optimized["invalidated"],
            "reopened": optimized["reopened"],
            "reemitted": optimized["reemitted"],
            "evicted": optimized["evicted"],
            "gate_speedup": GATE_SPEEDUP,
            "identical_diagnoses": True,
        },
    )
    assert speedup >= GATE_SPEEDUP
