"""Seeded workload inputs, owned by the benchmark.

Every input the benchmark feeds the platform is generated here from the
``--seed`` argument, using only the simulator's emission primitives
(``TelemetryEmitter``, ``FaultInjector``'s public fault recipes).  No
scenario function of the program and no file of the ``benchmarks/``
tree decides a workload's shape, so editing them cannot change what is
measured.

The topology of each workload is fixed; the seed moves *where* and
*when* faults land, never how many there are, so two seeds do the same
amount of work and their figures can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.collector import DataCollector
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.simulation.faults import FaultInjector
from repro.simulation.telemetry import BASE_EPOCH, TelemetryEmitter
from repro.topology import TopologyParams, build_topology

DAY = 86400.0

#: (time, source, raw line) in arrival order
Stream = List[Tuple[float, str, str]]


@dataclass
class Truth:
    """One injected symptom: what the diagnosis stream must account for."""

    time: float
    location: str


@dataclass
class Scenario:
    topology: object
    stream: Stream
    truths: List[Truth]
    start: float
    end: float


def register_devices(collector: DataCollector, topology) -> None:
    for router in topology.network.routers.values():
        collector.registry.register_device(router.name, router.timezone)


def ingest_all(collector: DataCollector, stream: Stream) -> None:
    """Batch-ingest a whole stream, one ``ingest`` call per source."""
    by_source: Dict[str, List[str]] = {}
    for _t, source, line in stream:
        by_source.setdefault(source, []).append(line)
    for source in sorted(by_source):
        collector.ingest(source, by_source[source])


# ---------------------------------------------------------------------------
# storm_replay: a month of daily MVPN provisioning storms

STORM_DAYS = 29
#: storm_replay's delivery step (seconds)
TICK = 600.0
#: where in its tick a storm starts (seconds)
STORM_PHASE = 300.0
#: provisioning actions per daily storm, and their spacing (seconds)
FAULTS_PER_STORM = 3
FAULT_SPACING = 900.0
#: customer VPNs disturbed per provisioning action
VRFS = 10
#: OSPFMon LSA-churn cadence around each action, and its half-span
CHURN_REFRESH = 12.0
CHURN_SPAN = 300.0
#: quiet-hours LSA refresh cadence
IDLE_REFRESH = 1800.0


def storm_month(seed: int, days: int = STORM_DAYS) -> Scenario:
    """A month of daily MVPN provisioning storms with OSPFMon churn.

    Each provisioning action on a PE flaps its PIM adjacencies towards
    every remote PE across ``VRFS`` customer VPNs: dozens of symptoms
    within seconds that share retrieval covers.  Around every action
    the OSPF monitor re-announces every link each ``CHURN_REFRESH``
    seconds; off-hours it idles at ``IDLE_REFRESH``.  The seed picks
    the PE rotation, each storm's time of day and the adjacency
    recovery delays.
    """
    rng = random.Random(f"storm_replay/{seed}")
    topology = build_topology(
        TopologyParams(n_pops=8, pers_per_pop=2, customers_per_per=4, seed=77)
    )
    emitter = TelemetryEmitter(topology, random.Random(rng.random()))
    # storms need exact sub-second fan-out: jitter would collide the
    # per-vrf instance identities (rounded to deciseconds)
    emitter.syslog_jitter = 0.0
    network = topology.network
    start = BASE_EPOCH
    end = start + (days + 1) * DAY
    pes = sorted(topology.provider_edges)
    rng.shuffle(pes)
    links = sorted(network.logical_links)

    truths: List[Truth] = []
    churn_spans = []
    for day in range(days):
        # on the replay's tick grid, so that every seed's ticks carry
        # whole storms (a storm split across two ticks makes the
        # per-tick latency depend on the seed)
        slot = round(rng.uniform(0.25, 0.75) * DAY / TICK)
        storm_start = start + day * DAY + slot * TICK + STORM_PHASE
        for k in range(FAULTS_PER_STORM):
            t = storm_start + k * FAULT_SPACING
            pe = pes[(day + k) % len(pes)]
            uplink = network.uplinks_of(pe)[0]
            local_if = (
                uplink.interface_a
                if uplink.interface_a.startswith(pe)
                else uplink.interface_z
            ).partition(":")[2]
            emitter.tacacs(
                t - 8.0, pe, "prov-sys",
                "conf t; ip vrf cust-vpn-1; mdt default 239.1.1.1",
            )
            for v in range(VRFS):
                # whole-second offsets (syslog resolution) keep instance
                # identities distinct while sharing retrieval covers
                t_vrf = t + 2.0 * v
                vrf = f"cust-vpn-{v + 1}"
                for remote in sorted(p for p in pes if p != pe):
                    loopback = network.router(remote).loopback
                    emitter.pim_neighbor_change(
                        t_vrf, pe, loopback, local_if, "down", vrf
                    )
                    emitter.pim_neighbor_change(
                        t_vrf + rng.uniform(30.0, 90.0), pe, loopback,
                        local_if, "up", vrf,
                    )
                    truths.append(Truth(t_vrf, f"{pe}~{remote}"))
            churn_spans.append((t - CHURN_SPAN, t + CHURN_SPAN))
    stream = emitter.buffers.replay_order()
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
    stream.sort(key=lambda item: (item[0], item[1]))
    return Scenario(topology, stream, truths, start, end)


# ---------------------------------------------------------------------------
# http_diagnose: a month of customer eBGP flaps with the paper's Table IV mixture

#: Table IV of the paper (percent of eBGP flaps per cause)
BGP_MIXTURE: Tuple[Tuple[str, float], ...] = (
    ("Router reboot", 0.33),
    ("Customer reset session", 1.84),
    ("CPU high (average)", 0.02),
    ("CPU high (spike)", 6.44),
    ("Interface flap", 63.94),
    ("Line protocol flap", 11.15),
    ("eBGP HTE", 4.86),
    ("Regular optical mesh network restoration", 0.04),
    ("Fast optical mesh network restoration", 0.14),
    ("SONET restoration", 0.29),
    ("Unknown", 10.95),
)
BGP_DAYS = 30.0
#: minimum spacing between two faults on one target (seconds)
BGP_SPACING = 1800.0


def bgp_month(seed: int, flaps: int) -> Scenario:
    """A month of eBGP flaps on a fixed 6-PoP topology.

    About ``flaps`` symptoms with the Table IV cause mixture, placed
    at seeded times on seeded customers, plus benign hourly CPU
    samples on every PE.
    """
    rng = random.Random(f"bgp_month/{seed}")
    topology = build_topology(
        TopologyParams(n_pops=6, pers_per_pop=3, customers_per_per=8, seed=1001)
    )
    emitter = TelemetryEmitter(topology, random.Random(rng.random()))
    injector = FaultInjector(topology, emitter, random.Random(rng.random()))
    start = BASE_EPOCH
    end = start + BGP_DAYS * DAY
    lo, hi = start + 0.05 * DAY, end - 0.05 * DAY
    used: Dict[str, List[float]] = {}

    def draw(target: str) -> float:
        while True:
            t = rng.uniform(lo, hi)
            if all(abs(t - other) > BGP_SPACING for other in used.get(target, [])):
                used.setdefault(target, []).append(t)
                return t

    customers = sorted(topology.customer_attachments)
    layer1 = topology.customer_layer1
    sonet = sorted(c for c, d in layer1.items() if d.startswith("adm-")) or customers
    mesh = sorted(c for c, d in layer1.items() if d.startswith("omx-")) or customers
    pes = sorted(topology.provider_edges)
    plan: List[Tuple[float, str, str]] = []
    for cause, percent in BGP_MIXTURE:
        target_count = max(1, round(percent * flaps / 100.0))
        produced = 0
        while produced < target_count:
            if cause == "Router reboot":
                pe = rng.choice(pes)
                plan.append((draw(pe), cause, pe))
                produced += len(
                    [c for c, (owner, _i, _n) in topology.customer_attachments.items()
                     if owner == pe]
                )
                continue
            pool = (
                sonet if cause == "SONET restoration"
                else mesh if cause.endswith("optical mesh network restoration")
                else customers
            )
            customer = rng.choice(pool)
            plan.append((draw(customer), cause, customer))
            produced += 1
    plan.sort()
    inject = {
        "Router reboot": injector.bgp_router_reboot,
        "Customer reset session": injector.bgp_customer_reset,
        "CPU high (average)": injector.bgp_cpu_average,
        "CPU high (spike)": injector.bgp_cpu_spike,
        "Interface flap": injector.bgp_interface_flap,
        "Line protocol flap": injector.bgp_lineproto_flap,
        "eBGP HTE": injector.bgp_hte_unknown,
        "Unknown": injector.bgp_unknown,
    }
    truths: List[Truth] = []
    for t, cause, target in plan:
        if cause in inject:
            injected = inject[cause](t, target)
        else:
            injected = injector.bgp_layer1_restoration(t, target, cause)
        truths.extend(Truth(g.time, g.location) for g in injected)
    for pe in pes:
        t = start + rng.uniform(0.0, 3600.0)
        while t < end:
            emitter.snmp(t, pe, "cpu_util_5min", "", rng.uniform(15.0, 55.0))
            t += 3600.0
    return Scenario(topology, emitter.buffers.replay_order(), truths, start, end)
