"""The process under test for the ``http_diagnose`` workload.

Generates the seeded bgp month, then waits for commands on stdin, one
JSON object per line, and answers each with one JSON line on stdout:

* ``{"cmd": "setup", "reps": N}`` -- N times: ingest the feeds, wire
  ``GrcaPlatform``, build the app, serve it the way ``repro-grca api``
  does (``serve_sharded`` defaults, incidents on) and start the HTTP
  gateway; every set-up but the last is torn down again.  Answers the
  set-up times and the port of the gateway left running.
* ``{"cmd": "mark"}`` -- this process's CPU seconds and peak RSS.
* ``{"cmd": "trace_on"}`` / ``{"cmd": "trace_off"}`` -- install or
  remove the benchmark's layer wrappers; ``trace_off`` answers the
  per-layer figures recorded in between.
* ``{"cmd": "stop"}`` (or end of stdin) -- stop the gateway and exit.

Run from the benchmark: ``python3 perfbench/server.py --seed N --flaps F``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from inputs import DAY, bgp_month, ingest_all, register_devices  # noqa: E402
from layers import LayerTrace  # noqa: E402
from stats import peak_rss_mb  # noqa: E402

APP = "bgp-month"


def set_up(scenario):
    """One deployment, as ``repro-grca api`` wires it; returns the gateway."""
    from repro.apps import BgpFlapApp
    from repro.collector import DataCollector
    from repro.platform import GrcaPlatform
    from repro.service.http import RcaGateway

    collector = DataCollector()
    register_devices(collector, scenario.topology)
    ingest_all(collector, scenario.stream)
    platform = GrcaPlatform.from_collector(
        scenario.topology, collector, config_time=scenario.start - DAY
    )
    app = BgpFlapApp.build(platform)
    router = platform.serve_sharded(
        {APP: app}, shards=2, workers=2, queue_depth=256,
        default_deadline=None, incidents=True, incident_gap=3600.0,
    )
    gateway = RcaGateway(router, host="127.0.0.1", port=0).start()
    return gateway, platform


class Server:
    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.gateway = None
        self.platform = None
        self.trace = None
        self._spatial_before = None
        self._sinks = []

    def setup(self, reps: int) -> dict:
        times = []
        for _ in range(reps):
            if self.gateway is not None:
                self.gateway.stop()
            # a deployment sets up once: collect the previous set-up's
            # garbage here, not during the timed phase, and before the
            # next one is built, so the peak RSS is one deployment's
            self.gateway = self.platform = None
            gc.collect()
            started = time.perf_counter()
            self.gateway, self.platform = set_up(self.scenario)
            times.append(time.perf_counter() - started)
        return {"setup_s": times, "port": self.gateway.port}

    def mark(self) -> dict:
        return {"cpu_s": time.process_time(), "rss_mb": peak_rss_mb()}

    def trace_on(self) -> dict:
        self.trace = LayerTrace().install()
        # the shards captured the aggregator's bound observe at set-up,
        # so the class-level wrapper cannot see it: wrap the sinks too
        for shard in self.gateway.router.shards:
            self._sinks.append((shard, shard.incident_sink))
            shard.incident_sink = self.trace.wrap(
                "incident.observe", shard.incident_sink
            )
        self._spatial_before = self.platform.resolver.cache_stats()
        return {}

    def trace_off(self) -> dict:
        self.trace.uninstall()
        for shard, sink in self._sinks:
            shard.incident_sink = sink
        self._sinks.clear()
        after = self.platform.resolver.cache_stats()
        hits = after["hits"] - self._spatial_before["hits"]
        misses = after["misses"] - self._spatial_before["misses"]
        layers = self.trace.layer_metrics()
        layers["spatial.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        parsers = self.platform.collector.parsers.values()
        layers["collector.rejected"] = sum(p.stats.rejected for p in parsers)
        self.trace = None
        return {"layers": layers}

    def stop(self) -> dict:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        return self.mark()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--flaps", type=int, required=True)
    args = parser.parse_args()
    server = Server(bgp_month(args.seed, args.flaps))
    out = sys.stdout
    out.write(json.dumps({"event": "generated"}) + "\n")
    out.flush()
    try:
        for line in sys.stdin:
            command = json.loads(line)
            cmd = command.pop("cmd")
            if cmd not in ("setup", "mark", "trace_on", "trace_off", "stop"):
                raise ValueError(f"unknown command {cmd!r}")
            reply = getattr(server, cmd)(**command)
            out.write(json.dumps(reply) + "\n")
            out.flush()
            if cmd == "stop":
                return 0
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
