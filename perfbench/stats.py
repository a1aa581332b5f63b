"""Dependency-free measurement and checking helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import resource
from typing import Iterable, List, Sequence


class CheckFailed(Exception):
    """The program emitted something other than what the inputs require."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Matches ``numpy.percentile``'s default method: the value at rank
    ``q/100 * (n-1)`` of the sorted sample, interpolated.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def compressed_schedule(
    times: Sequence[float], rate: float, burst: int = 1
) -> List[float]:
    """Send offsets (seconds from the phase start) replaying ``times``.

    ``times`` are the instants (ascending, seconds) at which the
    scenario's symptoms occurred.  They are shifted to start at 0 and
    scaled by one factor, so that ``n`` sends span ``(n-1)/rate``
    seconds: every replayed window offers the same mean ``rate`` and
    the gaps keep their proportions.  Each run of ``burst`` consecutive
    symptoms is then due together, at the time of its first.  The
    schedule never depends on the system's replies, so a slow system
    cannot slow its own offered load.
    """
    if rate <= 0 or burst < 1 or not times:
        raise ValueError(
            f"need a positive rate and burst and some times, got {rate}, "
            f"{burst}, {len(times)}"
        )
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    span = times[-1] - times[0]
    scale = (len(times) - 1) / rate / span if span > 0 else 0.0
    return [(times[i - i % burst] - times[0]) * scale for i in range(len(times))]


def scheduled_latencies(
    scheduled: Sequence[float], completed: Sequence[float]
) -> List[float]:
    """Per-request latency measured from its *scheduled* send time.

    Timing from the schedule rather than from the actual send counts
    the wait a stalled client or server imposes on every request queued
    behind the stall (no coordinated omission).
    """
    if len(scheduled) != len(completed):
        raise ValueError("scheduled and completed differ in length")
    latencies = [done - due for due, done in zip(scheduled, completed)]
    if any(value < 0 for value in latencies):
        raise ValueError("a request completed before it was scheduled")
    return latencies


def send_lags(scheduled: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    return [max(0.0, actual - due) for due, actual in zip(scheduled, sent)]


def digest(documents: Iterable[dict]) -> str:
    """sha256 of a ``grca-diagnosis/1`` stream, in emission order.

    The ``footprint`` (which cached covers served a diagnosis) is
    provenance, not conclusion: it depends on what the serving engine
    had cached, so it is left out, as ``Diagnosis`` equality leaves it
    out.
    """
    h = hashlib.sha256()
    for doc in documents:
        conclusion = {k: v for k, v in doc.items() if k != "footprint"}
        text = json.dumps(
            conclusion, sort_keys=True, separators=(",", ":"), check_circular=False
        )
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    Linux carries ``ru_maxrss`` across ``exec``, so a process started by
    a large parent would report the parent's peak; ``VmHWM`` belongs to
    the process image alone.  ``ru_maxrss`` (KiB on Linux) is the
    fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
