"""HTTP gateway load benchmark: latency, throughput, clean overload.

Drives the sharded RCA gateway over real loopback sockets with a
multi-threaded load generator, the way operators and tooling would hit
the deployed platform:

* **steady load** — concurrent clients submit single-symptom diagnosis
  jobs (Table IV scenario) and long-poll each to completion; reports
  submit latency p50/p99, end-to-end job latency p50/p99 and jobs/s
  across 2 shards;
* **saturation** — a burst far beyond a deliberately tiny queue must
  split cleanly into 202s and 429s: every accepted job reaches a
  terminal state (no lost jobs), every rejection is a well-formed 429
  with Retry-After, and nothing hangs or errors.

Results land in ``BENCH_service_http.json`` (one key per test).
"""

import http.client
import json
import threading
import time
from pathlib import Path

from repro.core.serialize import instance_to_dict
from repro.service.api import RcaService
from repro.service.http import RcaGateway, ShardRouter, build_shards

from .artifacts import record

BENCH_FILE = Path("BENCH_service_http.json")

STEADY_CLIENTS = 8
STEADY_JOBS_PER_CLIENT = 25
BURST_JOBS = 80
BURST_QUEUE_DEPTH = 4


def _percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class GatewayClient:
    """Keep-alive JSON client over one persistent connection."""

    def __init__(self, gateway):
        self.conn = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=120
        )

    def request(self, method, path, body=None):
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(raw) if raw else None
        )

    def close(self):
        self.conn.close()


def test_steady_load_latency_and_throughput(bgp_outcome, console):
    result, app, symptoms, diagnoses = bgp_outcome
    router = ShardRouter(
        build_shards(result.collector.store, shards=2, workers=2)
    )
    router.register_app("bgp_flaps", app)
    router.start()
    gateway = RcaGateway(router).start()

    total_jobs = STEADY_CLIENTS * STEADY_JOBS_PER_CLIENT
    work = [symptoms[i % len(symptoms)] for i in range(total_jobs)]
    submit_latencies, e2e_latencies, failures = [], [], []
    lock = threading.Lock()
    shard_hits = {0: 0, 1: 0}

    def client_loop(worker_index):
        client = GatewayClient(gateway)
        try:
            for k in range(STEADY_JOBS_PER_CLIENT):
                symptom = work[worker_index * STEADY_JOBS_PER_CLIENT + k]
                body = {
                    "kind": "diagnose",
                    "app": "bgp_flaps",
                    "symptoms": [instance_to_dict(symptom)],
                }
                started = time.perf_counter()
                status, _, doc = client.request("POST", "/v1/jobs", body)
                submitted = time.perf_counter()
                if status != 202:
                    with lock:
                        failures.append((status, doc))
                    continue
                status, _, done = client.request(
                    "GET", f"/v1/jobs/{doc['job_id']}?wait=60"
                )
                finished = time.perf_counter()
                if status != 200 or done["state"] != "done":
                    with lock:
                        failures.append((status, done))
                    continue
                with lock:
                    submit_latencies.append(submitted - started)
                    e2e_latencies.append(finished - started)
                    shard_hits[doc["shard"]] += 1
        finally:
            client.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(STEADY_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600.0)
        assert not thread.is_alive(), "load generator thread hung"
    elapsed = time.perf_counter() - started
    gateway.stop()

    assert not failures, failures[:5]
    assert len(e2e_latencies) == total_jobs  # no lost jobs
    # both shards actually served traffic (distinct symptom keyspaces)
    assert all(hits > 0 for hits in shard_hits.values()), shard_hits

    throughput = total_jobs / elapsed
    payload = {
        "scenario": "bgp_month",
        "clients": STEADY_CLIENTS,
        "jobs": total_jobs,
        "shards": 2,
        "workers_per_shard": 2,
        "seconds": round(elapsed, 3),
        "jobs_per_second": round(throughput, 1),
        "submit_p50_ms": round(1000 * _percentile(submit_latencies, 0.50), 2),
        "submit_p99_ms": round(1000 * _percentile(submit_latencies, 0.99), 2),
        "e2e_p50_ms": round(1000 * _percentile(e2e_latencies, 0.50), 2),
        "e2e_p99_ms": round(1000 * _percentile(e2e_latencies, 0.99), 2),
        "shard_split": {str(k): v for k, v in shard_hits.items()},
    }
    console.emit(
        f"\n=== HTTP gateway steady load ({STEADY_CLIENTS} clients, "
        f"{total_jobs} jobs, 2 shards x 2 workers) ==="
    )
    console.emit(
        f"throughput: {payload['jobs_per_second']} jobs/s over "
        f"{payload['seconds']} s; shard split {payload['shard_split']}"
    )
    console.emit(
        f"submit latency: p50 {payload['submit_p50_ms']} ms, "
        f"p99 {payload['submit_p99_ms']} ms"
    )
    console.emit(
        f"end-to-end latency: p50 {payload['e2e_p50_ms']} ms, "
        f"p99 {payload['e2e_p99_ms']} ms"
    )
    record(BENCH_FILE, "steady_load", payload)


def test_saturation_sheds_cleanly_and_loses_nothing(bgp_outcome, console):
    result, app, symptoms, _diagnoses = bgp_outcome
    service = RcaService(
        store=result.collector.store, workers=1,
        queue_depth=BURST_QUEUE_DEPTH,
    )
    service.register_app("bgp_flaps", app)
    service.start()
    router = ShardRouter([service])
    gateway = RcaGateway(router).start()

    accepted, rejected, anomalies = [], [], []
    lock = threading.Lock()

    def fire(index):
        client = GatewayClient(gateway)
        try:
            body = {
                "kind": "diagnose",
                "app": "bgp_flaps",
                "symptoms": [instance_to_dict(symptoms[index % len(symptoms)])],
            }
            status, headers, doc = client.request("POST", "/v1/jobs", body)
            with lock:
                if status == 202:
                    accepted.append(doc["job_id"])
                elif status == 429:
                    if headers.get("Retry-After") != "1" or "error" not in doc:
                        anomalies.append(("malformed 429", headers, doc))
                    else:
                        rejected.append(doc["error"])
                else:
                    anomalies.append((status, doc))
        finally:
            client.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=fire, args=(i,), daemon=True)
        for i in range(BURST_JOBS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "burst thread hung"
    burst_seconds = time.perf_counter() - started

    # every accepted job reaches a terminal state: nothing is lost
    client = GatewayClient(gateway)
    lost = []
    for job_id in accepted:
        status, _, doc = client.request("GET", f"/v1/jobs/{job_id}?wait=120")
        if status != 200 or not doc["finished"]:
            lost.append((job_id, status, doc))
    client.close()
    gateway.stop()

    assert not anomalies, anomalies[:5]
    assert not lost, lost[:5]
    assert len(accepted) + len(rejected) == BURST_JOBS
    # the burst genuinely overran the queue: both outcomes occurred
    assert accepted and rejected, (len(accepted), len(rejected))

    payload = {
        "burst_jobs": BURST_JOBS,
        "queue_depth": BURST_QUEUE_DEPTH,
        "accepted": len(accepted),
        "rejected_429": len(rejected),
        "lost": 0,
        "burst_seconds": round(burst_seconds, 3),
    }
    console.emit(
        f"\n=== HTTP gateway saturation (burst {BURST_JOBS} jobs into "
        f"depth-{BURST_QUEUE_DEPTH} queue, 1 worker) ==="
    )
    console.emit(
        f"accepted: {payload['accepted']} (all finished), "
        f"clean 429s: {payload['rejected_429']}, lost: 0"
    )
    record(BENCH_FILE, "saturation", payload)
