"""``http_diagnose``: open-loop load on the HTTP gateway.

The server (``server.py``) runs in its own process, deployed the way
``repro-grca api`` deploys.  This process is the load generator, one
thread with two keep-alive connections.  It replays a seeded window of
the month's eBGP flaps in time order as single-symptom jobs, the
month's times compressed to a fixed mean rate (``RATE``), each run of
``BURST`` consecutive flaps due together.  Submits go out over one
connection, pipelined so that no send waits for a reply; each accepted
job is long-polled to completion over the other.  Latency runs from
each job's *scheduled* send time to the moment the generator sees it
terminal, so a stall anywhere, the server's own garbage collections
included, is charged to every job queued behind it.  The server and the
generator each get a CPU, and a halt poller keeps the server's CPU from
halting between bursts, so a VM host's wake-up delay is not measured.

Every symptom is submitted once, so each job misses the result cache
and runs the engine.  Every diagnosis received is checked against an
in-process ``engine.diagnose`` of the same symptom.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from inputs import DAY, bgp_month, ingest_all, register_devices
from stats import CheckFailed, compressed_schedule, digest, median, percentile
from stats import scheduled_latencies, send_lags

#: mean offered load of every phase (jobs per second).  The paper's
#: volumes (flaps by the thousands per day, well under 1/s) would leave
#: the server idle; 25/s compresses the month ~40,000-fold and keeps the
#: server, at 2-3 ms of CPU per job, busy under a tenth of the time.  At
#: 100/s (~30 % busy) its gen-2 collections (seven per 30 s, up to 0.5 s
#: each) held ~10 % of the jobs and the p90 ranged 9.6-38 ms across seeds
#: on a 2-vCPU VM.
RATE = 25.0
#: consecutive flaps due together.  Chosen for steadiness, not taken from
#: the paper: a burst queues ~10 jobs' work behind each other, so the
#: latency percentiles sit on tens of milliseconds of serving work.  Sent
#: one by one, a job's ~3 ms latency is at the mercy of the VM host: over
#: ten seeds the p90 of single sends spread by 1.17 of its median.
BURST = 10
#: jobs sent before the timed phase (connections, threads, lazy state)
WARMUP_JOBS = 100
#: bgp month size: enough symptoms for the warm-up plus a 30-s timed
#: phase at RATE without repeating one, and room to place that window
FLAPS = 1600
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: timed phases a run may measure before giving up on a lagging generator
ATTEMPTS = 3
#: longest silence from the gateway before a run is declared hung (s)
IDLE_TIMEOUT = 60.0
APP = "bgp-month"
HERE = Path(__file__).resolve().parent


class InvalidRun(Exception):
    """The load generator fell behind its own schedule."""


def _place(server_pid: int) -> Optional[set]:
    """Give the server and this generator a CPU each.

    The generator polls without sleeping, so it needs a CPU of its own;
    the server gets the last CPU, away from CPU 0, where Linux routes
    most device interrupts by default.  Left to the scheduler, the
    server's threads and the generator also migrate between the CPUs,
    and the GIL hand-offs between server threads on different CPUs set a
    per-run latency level: on a 2-vCPU VM the p50 of five runs of one
    seed spread by 0.27 unplaced, 0.08 placed.  Returns this process's
    previous CPU set, if it changed.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    previous = os.sched_getaffinity(0)
    cpus = sorted(previous)
    if len(cpus) < 2:
        raise RuntimeError("http_diagnose needs two CPUs: one for the server, "
                           "one for the load generator")
    os.sched_setaffinity(server_pid, {cpus[-1]})
    os.sched_setaffinity(0, {cpus[0]})
    return previous


#: the halt poller's program: pin itself, drop to SCHED_IDLE, spin until
#: its parent (this generator) is gone
_POLLER = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


def _halt_poller(cpu: int) -> Optional[subprocess.Popen]:
    """Keep the server's CPU from halting while the server waits for work.

    On a virtual machine, a vCPU that halts when idle and is woken by an
    arriving request waits for the host to run it again; the host
    accounts that wait as steal time and it lands on the request's
    latency.  The server is idle about 94 % of a phase, so each burst
    pays the wake-up: on a 2-vCPU VM its vCPU accrued steal of 15-56 %
    of its busy time, and latency_p90_ms ranged 25.6-43.8 ms over five
    runs.  A process spinning at ``SCHED_IDLE`` priority on that CPU,
    which runs only while no thread of the server is runnable, keeps
    the vCPU out of halt (the guest-side equivalent of ``idle=poll``):
    steal fell under 3 % and latency_p90_ms to 23.0-24.7 ms.  The
    poller is a process of its own, so the server's CPU time excludes
    it.  Returns None where ``SCHED_IDLE`` is not available.
    """
    if not hasattr(os, "SCHED_IDLE"):
        return None
    return subprocess.Popen([sys.executable, "-c", _POLLER, str(cpu)])


class ServerProcess:
    """The process under test, driven over its stdin/stdout."""

    def __init__(self, seed: int, flaps: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--seed", str(seed), "--flaps", str(flaps)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.poller = None
        try:
            self._generator_cpus = _place(self.proc.pid)
            if self._generator_cpus is not None:
                self.poller = _halt_poller(max(self._generator_cpus))
            self._expect_line()  # {"event": "generated"}
        except BaseException:
            self._stop_poller()
            self.proc.kill()
            self.proc.wait()
            raise

    def _stop_poller(self) -> None:
        if self.poller is not None:
            self.poller.kill()
            self.poller.wait()
            self.poller = None

    def _expect_line(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps(dict(cmd=cmd, **args)) + "\n")
        self.proc.stdin.flush()
        return self._expect_line()

    def close(self) -> dict:
        """Stop the server; return its final mark (CPU, peak RSS)."""
        try:
            return self.call("stop")
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._stop_poller()
            if self._generator_cpus is not None:
                os.sched_setaffinity(0, self._generator_cpus)


class Pipe:
    """One keep-alive connection carrying pipelined HTTP/1.1 requests.

    Requests are written without waiting for earlier responses; the
    gateway answers them in order, so responses are matched to the
    tags queued in ``waiting``.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.waiting: deque = deque()

    def send(self, requests: List[tuple]) -> None:
        """Write ``(method, path, body, tag)`` requests in one system call."""
        data = []
        for method, path, body, tag in requests:
            head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            if body:
                head += (f"Content-Type: application/json\r\n"
                         f"Content-Length: {len(body)}\r\n")
            data.append(head.encode() + b"\r\n" + (body or b""))
            self.waiting.append(tag)
        self.sock.sendall(b"".join(data))

    def receive(self) -> List[tuple]:
        """Read what arrived; return ``(tag, status, body)`` per response."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise CheckFailed("the gateway closed a keep-alive connection")
        self.buffer += chunk
        complete = []
        while True:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return complete
            head = self.buffer[:end].decode("latin-1").split("\r\n")
            length = next(
                int(line.partition(":")[2])
                for line in head[1:]
                if line.lower().startswith("content-length:")
            )
            if len(self.buffer) < end + 4 + length:
                return complete
            body = self.buffer[end + 4:end + 4 + length]
            self.buffer = self.buffer[end + 4 + length:]
            complete.append((self.waiting.popleft(), int(head[0].split()[1]), body))

    def close(self) -> None:
        self.sock.close()


def run_phase(port: int, bodies: List[bytes], offsets: List[float]) -> Dict:
    """Send ``bodies`` at ``offsets`` (s) and wait for every job to end.

    One thread, two connections: submits go out on schedule over one
    whatever the replies are doing, long-polls of accepted jobs over
    the other.
    """
    n = len(bodies)
    sent = [0.0] * n
    seen = [0.0] * n
    polled = [0.0] * n
    docs: List[dict] = [None] * n
    received = [0] * n
    submit_rtt: List[float] = []
    poll_rtt: List[float] = []
    refused: List[int] = []
    submits, polls = Pipe(port), Pipe(port)
    selector = selectors.DefaultSelector()
    selector.register(submits.sock, selectors.EVENT_READ, submits)
    selector.register(polls.sock, selectors.EVENT_READ, polls)

    pending_polls: List[tuple] = []

    def poll(index: int, job_id: str, now: float) -> None:
        polled[index] = now
        pending_polls.append(("GET", f"/v1/jobs/{job_id}?wait=30", None, (index, job_id)))

    # this process holds the whole reference platform: a collector pause
    # here would read as server latency, so none runs during the phase
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        next_send = 0
        t0 = quiet_since = time.perf_counter()
        while next_send < n or submits.waiting or polls.waiting:
            now = time.perf_counter()
            if next_send < n and t0 + offsets[next_send] <= now:
                # everything due goes out in one write, so of flaps due
                # together the last is sent no later than the first
                due = []
                while next_send < n and t0 + offsets[next_send] <= now:
                    sent[next_send] = now
                    due.append(("POST", "/v1/jobs", bodies[next_send], next_send))
                    next_send += 1
                submits.send(due)
                quiet_since = now
                continue
            # poll, never sleep: a sleeping generator would add the time
            # its CPU takes to wake (milliseconds on a busy VM host) to
            # every send and every reply it times
            events = selector.select(0)
            if not events:
                if now - quiet_since > IDLE_TIMEOUT:
                    raise CheckFailed(f"no reply from the gateway for {IDLE_TIMEOUT} s")
                continue
            quiet_since = now
            for key, _ in events:
                pipe = key.data
                replies = pipe.receive()
                now = time.perf_counter()
                for tag, status, body in replies:
                    if pipe is submits:
                        index = tag
                        submit_rtt.append(now - sent[index])
                        received[index] += len(body)
                        if status == 202:
                            poll(index, json.loads(body)["job_id"], now)
                        else:
                            refused.append(index)
                        continue
                    index, job_id = tag
                    poll_rtt.append(now - polled[index])
                    received[index] += len(body)
                    if status != 200:
                        raise CheckFailed(f"poll of job {job_id} answered {status}")
                    doc = json.loads(body)
                    if doc["finished"]:
                        seen[index], docs[index] = now, doc
                    else:
                        poll(index, job_id, now)
            if pending_polls:
                # the polls a read made due go out in one write too
                polls.send(pending_polls)
                pending_polls.clear()
    finally:
        gc.enable()
        selector.close()
        submits.close()
        polls.close()
    refused_set = set(refused)
    done = [i for i in range(n) if i not in refused_set]
    due = [t0 + offsets[i] for i in done]
    return {
        "done": done,
        "docs": docs,
        "refused": len(refused),
        "due": due,
        "latency_ms": [1000.0 * v for v in scheduled_latencies(due, [seen[i] for i in done])],
        "lag_ms": [1000.0 * v for v in send_lags(due, [sent[i] for i in done])],
        "submit_rtt_ms": [1000.0 * v for v in submit_rtt],
        "poll_rtt_ms": [1000.0 * v for v in poll_rtt],
        "bytes": sum(received),
        "seconds": max(seen[i] for i in done) - t0,
    }


def _latency(phase, q: float) -> float:
    """``latency_p50_ms``/``latency_p90_ms``: over every job of the phase."""
    return percentile(phase["latency_ms"], q)


def _digest(phase) -> str:
    return digest(d for i in phase["done"] for d in phase["docs"][i]["diagnoses"])


def _metrics(port: int) -> dict:
    """The gateway's own counters (``GET /v1/metrics``)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise CheckFailed(f"GET /v1/metrics answered {response.status}")
    return json.loads(body)


def _reference(scenario):
    """The in-process app every served diagnosis is compared against."""
    from repro.apps import BgpFlapApp
    from repro.collector import DataCollector
    from repro.platform import GrcaPlatform

    collector = DataCollector()
    register_devices(collector, scenario.topology)
    ingest_all(collector, scenario.stream)
    platform = GrcaPlatform.from_collector(
        scenario.topology, collector, config_time=scenario.start - DAY
    )
    return BgpFlapApp.build(platform)


def plan(seed: int, symptoms: list, jobs: int):
    """(warm-up, timed) symptom lists of one run: a seeded window of the
    time-ordered ``symptoms``, its first ``WARMUP_JOBS`` the warm-up."""
    needed = WARMUP_JOBS + jobs
    if len(symptoms) < needed:
        raise ValueError(
            f"{len(symptoms)} symptoms cannot feed {needed} distinct jobs; "
            "lower --seconds"
        )
    first = random.Random(f"http_diagnose/{seed}").randint(0, len(symptoms) - needed)
    window = symptoms[first:first + needed]
    return window[:WARMUP_JOBS], window[WARMUP_JOBS:]


def check_lag(lag_ms: List[float], latency_ms: List[float], bound: float) -> None:
    """Refuse a phase whose generator fell behind its own schedule.

    Latency counts from the scheduled send time, so a late send is
    charged to the system.  That is fair for jitter, not for a
    generator that cannot keep its schedule: a phase is valid only
    while the 90th-percentile send lag stays under ``bound`` (the
    latency metrics' regression bound) of the phase's median latency,
    so a slow client cannot pass for a regression of the server.
    """
    lag = percentile(lag_ms, 90.0)
    limit = bound * percentile(latency_ms, 50.0)
    if lag > limit:
        raise InvalidRun(
            f"generator lag p90 {lag:.3f} ms exceeds {bound:.0%} of the "
            f"phase's {limit / bound:.3f}-ms median latency"
        )


def run(
    seed: int, seconds: float, traced: bool, lag_bound: float, flaps: int = FLAPS
) -> Dict[str, object]:
    from repro.core.engine import Diagnosis
    from repro.core.events import instance_key
    from repro.core.serialize import instance_to_dict

    scenario = bgp_month(seed, flaps)
    app = _reference(scenario)
    symptoms = sorted(
        app.find_symptoms(scenario.start, scenario.end),
        key=lambda s: (s.start, s.location.parts),
    )
    jobs = max(1, int(RATE * seconds))
    warm, timed = plan(seed, symptoms, jobs)

    def bodies(batch):
        return [
            json.dumps({"kind": "diagnose", "app": APP,
                        "symptoms": [instance_to_dict(s)]}).encode()
            for s in batch
        ]

    warm_bodies, timed_bodies = bodies(warm), bodies(timed)
    # the warm-up keeps the timed phase's rate and bursts
    warm_offsets = compressed_schedule([s.start for s in warm], RATE, BURST)
    offsets = compressed_schedule([s.start for s in timed], RATE, BURST)
    checked = []  # (name, symptoms, phase) of every phase run, kept or not
    server = ServerProcess(seed, flaps)
    try:
        setup = server.call("setup", reps=SETUPS)
        port = setup["port"]
        for attempt in range(1, ATTEMPTS + 1):
            checked.append(("warm-up", warm, run_phase(port, warm_bodies, warm_offsets)))
            mark0 = server.call("mark")
            phase = run_phase(port, timed_bodies, offsets)
            mark1 = server.call("mark")
            checked.append(("timed", timed, phase))
            try:
                check_lag(phase["lag_ms"], phase["latency_ms"], lag_bound)
                break
            except InvalidRun as exc:
                if attempt == ATTEMPTS:
                    raise
                print(f"note: attempt {attempt} invalid ({exc}); measuring "
                      "again on a fresh set-up", file=sys.stderr)
                port = server.call("setup", reps=1)["port"]
        if traced:
            # the same jobs again on a fresh set-up, so the traced phase
            # does the untraced one's work and must serve its stream
            port = server.call("setup", reps=1)["port"]
            checked.append(("warm-up", warm, run_phase(port, warm_bodies, warm_offsets)))
            server.call("trace_on")
            before = _metrics(port)
            traced_phase = run_phase(port, timed_bodies, offsets)
            after = _metrics(port)
            layers = server.call("trace_off")["layers"]
            checked.append(("traced", timed, traced_phase))
    finally:
        final = server.close()

    # correctness: every accepted job DONE, equal to the in-process engine
    reference: Dict[tuple, Diagnosis] = {}
    for name, batch, result in checked:
        for i in result["done"]:
            doc = result["docs"][i]
            if doc["state"] != "done":
                raise CheckFailed(f"{name} job {doc['job_id']} ended {doc['state']}")
            key = instance_key(batch[i])
            if key not in reference:
                reference[key] = app.engine.diagnose(batch[i])
            served = [Diagnosis.from_json(d) for d in doc["diagnoses"]]
            if served != [reference[key]]:
                raise CheckFailed(
                    f"{name} job {doc['job_id']}: served diagnosis differs from "
                    f"engine.diagnose of {batch[i]}"
                )
    stream_digest = _digest(phase)
    if traced and _digest(traced_phase) != stream_digest:
        raise CheckFailed("the traced phase served a different diagnosis stream")

    completed = len(phase["done"])
    result = {
        "digest": stream_digest,
        "attempted": len(timed),
        "failed": phase["refused"],
        "end_to_end": {
            "setup_s": median(setup["setup_s"]),
            "symptoms_per_s": completed / phase["seconds"],
            "latency_p50_ms": _latency(phase, 50.0),
            "latency_p90_ms": _latency(phase, 90.0),
            "cpu_ms_per_symptom": 1000.0 * (mark1["cpu_s"] - mark0["cpu_s"]) / completed,
            "max_rss_mb": final["rss_mb"],
        },
    }
    if traced:
        result["per_layer"] = _per_layer(layers, phase, traced_phase, before, after)
    return result


def _per_layer(layers, untraced, traced, before, after) -> Dict[str, float]:
    """Server-side layer figures plus what only the client can see."""
    def cache(snapshot, key):
        return snapshot["aggregate"]["cache"][key]

    def busy(snapshot):
        return sum(shard["worker_busy_seconds"] for shard in snapshot["shards"])

    hits = cache(after, "hits") - cache(before, "hits")
    misses = cache(after, "misses") - cache(before, "misses")
    latency_p50 = _latency(traced, 50.0)
    untraced_p50 = _latency(untraced, 50.0)
    layers.update({
        "service.worker_busy_s": busy(after) - busy(before),
        "service.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "http.submit_rtt_p50_ms": median(traced["submit_rtt_ms"]),
        "http.poll_rtt_p50_ms": median(traced["poll_rtt_ms"]),
        "http.response_bytes_per_job": traced["bytes"] / len(traced["done"]),
        "http.unattributed_p50_ms": latency_p50 - layers["service.job_p50_ms"],
        "streaming.invalidated": 0,
        "streaming.evicted": 0,
        "streaming.reopened": 0,
        "loadgen.sent": len(traced["docs"]),
        "loadgen.lag_p90_ms": percentile(traced["lag_ms"], 90.0),
        "trace.overhead_share": latency_p50 / untraced_p50 - 1.0,
    })
    return layers
