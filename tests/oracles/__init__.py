"""Reference implementations the production paths are checked against.

Each oracle is the straightforward form of one join or cache stage —
the code the optimized path replaced — kept here, outside ``src/``, so
production carries exactly one path per stage:

* :mod:`.engine` — :class:`ScalarRcaEngine`, per-candidate temporal
  joins and per-survivor spatial verdicts;
* :mod:`.streaming` — :class:`ClearCacheStreamingRca`, the
  clear-everything streaming discipline (no deltas, no re-opens);
* :mod:`.spatial` — :class:`UncachedResolver`, location expansion with
  no memoization.

The property suites hold the production paths against these, and the
hot-path and spatial benchmarks time them as their legacy arms.
"""

from .engine import ScalarRcaEngine, scalar_engine
from .spatial import UncachedResolver, uncached_expand
from .streaming import ClearCacheStreamingRca

__all__ = [
    "ClearCacheStreamingRca",
    "ScalarRcaEngine",
    "UncachedResolver",
    "scalar_engine",
    "uncached_expand",
]
