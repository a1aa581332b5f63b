"""Location expansion with no memoization.

Every call converts the location through its per-type handler, at the
given timestamp, exactly as the resolver did before the routing-epoch
cache.  The cache must be semantically invisible: cached and uncached
expansions agree for every (location, level, timestamp), across any
interleaving of routing-state changes.
"""

from typing import FrozenSet

from repro.core.locations import Location
from repro.core.spatial import (
    _HANDLERS,
    _LEVEL_CANONICAL,
    JoinLevel,
    LocationResolver,
)


def uncached_expand(
    resolver: LocationResolver,
    location: Location,
    level: JoinLevel,
    timestamp: float,
) -> FrozenSet[str]:
    """``resolver``'s expansion of ``location``, recomputed from scratch."""
    level = _LEVEL_CANONICAL.get(level, level)
    if level is JoinLevel.NETWORK:
        return frozenset({"network"})
    if level is JoinLevel.SAME_LOCATION:
        return frozenset({str(location)})
    handler = _HANDLERS.get(location.type)
    if handler is None:
        return frozenset()
    try:
        return handler(resolver, location, level, timestamp)
    except KeyError:
        # stale location (element no longer in / never in topology)
        return frozenset()


class UncachedResolver(LocationResolver):
    """A :class:`LocationResolver` whose every expansion recomputes.

    Its cache counters never move: nothing is looked up or stored.
    """

    def expand(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        return uncached_expand(self, location, level, timestamp)
