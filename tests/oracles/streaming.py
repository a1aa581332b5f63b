"""The clear-everything streaming discipline.

Before delta-driven invalidation, every advance threw the engine's
whole retrieval cache away — a new record may have landed in any
cached window — and never revisited a settled symptom.  Under in-order
delivery the production discipline (selective invalidation, re-opens,
horizon eviction) must emit exactly the same diagnosis stream.
"""

from repro.core.streaming import StreamingRca


class ClearCacheStreamingRca(StreamingRca):
    """:class:`StreamingRca` with no delta subscription, a full cache
    clear before each advance, and therefore no re-opens."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # no insert listener: no deltas, so no invalidation or re-open
        self.close()

    def advance(self, now: float, tracer=None):
        self.engine.clear_cache()
        return super().advance(now, tracer)
