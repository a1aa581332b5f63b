"""Service recovery under injected faults: MTTR, job loss, overhead.

The paper positions G-RCA as an always-on platform that operations
teams depend on during network incidents (Sections I, VI) — exactly
when its own infrastructure is most likely to misbehave.  This
benchmark measures the supervised runtime's three recovery claims on
the Table IV scenario:

* **MTTR after a worker kill** — from the moment a worker thread dies
  mid-job to the moment the supervisor has restored full pool
  capacity;
* **job loss under crashes** — every job submitted across the crash
  must still reach a terminal state with a result (loss count 0);
* **supervision overhead** — fault-free batch wall-clock with the
  supervisor on vs. off; the runtime budget is < 5% regression, the
  gate here leaves headroom for shared-runner noise.

Results land in ``BENCH_service_chaos.json`` (one key per test) so CI
can archive the measurements per run.
"""

import time
from pathlib import Path

from repro.service.api import RcaService
from repro.service.faults import ServiceFaultInjector
from repro.service.queue import JobState
from repro.service.supervisor import SupervisorConfig

from .artifacts import record

BENCH_FILE = Path("BENCH_service_chaos.json")


def _chaos_service(result, app, workers=2):
    """A supervised service whose executor runs through a fault injector."""
    holder = {}
    injector = ServiceFaultInjector(
        lambda job, worker: holder["service"]._execute(job, worker)
    )
    service = RcaService(
        result.collector.store,
        workers=workers,
        executor=injector,
        supervisor_config=SupervisorConfig(interval=0.05),
    )
    holder["service"] = service
    service.register_app("bgp_flaps", app)
    service.start()
    return service, injector


def test_recovery_after_worker_kill(bgp_outcome, console):
    result, app, symptoms, _diagnoses = bgp_outcome
    batch = symptoms[:40]
    service, injector = _chaos_service(result, app, workers=2)
    try:
        injector.crash_when(times=1)  # the first execution kills its worker
        jobs = [
            service.submit_diagnosis("bgp_flaps", [symptom], block=True,
                                     timeout=30.0)
            for symptom in batch
        ]

        capacity = service.pool.capacity
        deadline = time.perf_counter() + 30.0
        died_at = restored_at = None
        while time.perf_counter() < deadline:
            alive = service.pool.alive
            if died_at is None and alive < capacity:
                died_at = time.perf_counter()
            if (
                died_at is not None
                and alive == capacity
                and service.metrics.workers_restarted.value >= 1
            ):
                restored_at = time.perf_counter()
                break
            time.sleep(0.0005)
        assert died_at is not None, "the injected crash never killed a worker"
        assert restored_at is not None, "the supervisor never restored capacity"
        mttr = restored_at - died_at

        assert service.drain(timeout=120.0)
        lost = [job for job in jobs if job.state is not JobState.DONE]
        assert lost == [], f"{len(lost)} job(s) lost across the crash"
        assert injector.fired("crash") == 1
        assert service.metrics.jobs_failed_over.value == 1
    finally:
        service.shutdown(graceful=True, timeout=60.0)
    assert service.pool.leaked == 0

    console.emit(
        f"\n=== service crash recovery (bgp_month, {len(batch)} jobs, "
        f"{service.pool.capacity} workers) ==="
    )
    console.emit(
        f"MTTR: {1000 * mttr:.1f} ms (sweep interval 50 ms); "
        f"jobs lost: {len(lost)}; leaked workers: {service.pool.leaked}"
    )
    record(
        BENCH_FILE,
        "crash_recovery",
        {
            "scenario": "bgp_month",
            "jobs": len(batch),
            "workers": service.pool.capacity,
            "sweep_interval_seconds": 0.05,
            "mttr_seconds": round(mttr, 4),
            "jobs_lost": len(lost),
            "jobs_failed_over": service.metrics.jobs_failed_over.value,
            "workers_restarted": service.metrics.workers_restarted.value,
            "leaked_workers": service.pool.leaked,
        },
    )


def _timed_batch(result, app, symptoms, supervise):
    """Wall-clock for a fault-free single-symptom job batch."""
    # a deliberately aggressive sweep interval: the overhead number must
    # include real sweep work, not just an idle supervisor thread
    service = RcaService(result.collector.store, workers=2,
                         supervise=supervise,
                         supervisor_config=SupervisorConfig(interval=0.01))
    service.register_app("bgp_flaps", app)
    service.start()
    try:
        started = time.perf_counter()
        jobs = [
            service.submit_diagnosis("bgp_flaps", [symptom], block=True,
                                     timeout=30.0)
            for symptom in symptoms
        ]
        for job in jobs:
            job.outcome(timeout=120.0)
        elapsed = time.perf_counter() - started
        sweeps = service.metrics.supervisor_sweeps.value
    finally:
        service.shutdown(graceful=True, timeout=60.0)
    return elapsed, sweeps


def test_supervision_overhead_is_negligible(bgp_outcome, console):
    result, app, symptoms, _diagnoses = bgp_outcome
    batch = symptoms[:200]

    bare_seconds, _ = _timed_batch(result, app, batch, supervise=False)
    supervised_seconds, sweeps = _timed_batch(result, app, batch,
                                              supervise=True)
    overhead = supervised_seconds / bare_seconds if bare_seconds else 1.0

    console.emit(
        f"\n=== supervision overhead (bgp_month, {len(batch)} jobs) ==="
    )
    console.emit(
        f"unsupervised: {bare_seconds:.2f} s; supervised: "
        f"{supervised_seconds:.2f} s ({100 * (overhead - 1):+.1f}%, "
        f"{sweeps} sweeps)"
    )
    record(
        BENCH_FILE,
        "supervision_overhead",
        {
            "scenario": "bgp_month",
            "jobs": len(batch),
            "unsupervised_seconds": round(bare_seconds, 4),
            "supervised_seconds": round(supervised_seconds, 4),
            "overhead_ratio": round(overhead, 4),
            "supervisor_sweeps": sweeps,
        },
    )

    # runtime budget is < 1.05x; the gate leaves headroom for noisy
    # shared runners while still catching a real regression
    assert overhead < 1.25, (
        f"supervision cost {100 * (overhead - 1):.1f}% on a fault-free batch"
    )
