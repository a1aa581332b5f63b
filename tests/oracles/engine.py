"""The scalar engine: per-candidate temporal and spatial joins.

The pre-columnar join stage: every candidate of the retrieval cover is
prefiltered to the rule's search window and joined temporally one at a
time, and every temporal survivor gets its own spatial verdict.  The
production engine's batch temporal mask and columnar spatial stage
must match it exactly — same matched instances, same order, same cap.
"""

from typing import List

from repro.core.engine import RcaEngine
from repro.core.events import EventInstance
from repro.obs.trace import NULL_TRACER


class ScalarRcaEngine(RcaEngine):
    """An :class:`RcaEngine` whose rule evaluation is the scalar loop."""

    def _match_rule(
        self,
        rule,
        parent_instance: EventInstance,
        tracer=NULL_TRACER,
        plan=None,
        cancel=None,
    ) -> List[EventInstance]:
        window = rule.temporal.search_window(parent_instance.interval)
        if tracer.enabled:
            label = f"{rule.parent_event} -> {rule.child_event}"
            rule_args = dict(
                label=label,
                priority=rule.priority,
                temporal=rule.temporal.describe(),
                spatial=rule.spatial.describe(),
                window=[window[0], window[1]],
            )
            stage_args = dict(label=label)
        else:
            rule_args = {}
            stage_args = {}
        with tracer.span("rule", **rule_args) as rule_span:
            candidates = self._retrieve(
                rule.child_event, window, tracer, plan, cancel
            )
            instances = candidates.instances
            with tracer.span("temporal-join", **stage_args) as span:
                # the original per-candidate loop, prefiltered to the
                # search window exactly as the pre-columnar retrieval
                # path did
                lo, hi = window
                survivors = [
                    k
                    for k, instance in enumerate(instances)
                    if instance.end >= lo
                    and instance.start <= hi
                    and rule.temporal.joined(
                        parent_instance.interval, instance.interval
                    )
                ]
                span.annotate(candidates=len(instances), joined=len(survivors))
            matched: List[EventInstance] = []
            with tracer.span("spatial-join", **stage_args) as span:
                batch = rule.spatial.batch(
                    self.resolver, parent_instance.location, parent_instance.start
                )
                cap = self.config.max_matches_per_rule
                # the original per-survivor verdicts
                for k in survivors:
                    instance = instances[k]
                    if not batch.joined(instance.location):
                        continue
                    matched.append(instance)
                    if len(matched) >= cap:
                        break
                span.annotate(candidates=len(survivors), joined=len(matched))
            rule_span.annotate(
                matched=len(matched),
                candidates=len(instances),
                temporal_survivors=len(survivors),
                spatial_survivors=len(matched),
            )
        return matched


def scalar_engine(engine: RcaEngine) -> ScalarRcaEngine:
    """A scalar sibling of ``engine``: same graph, library, resolver,
    store and config, with its own (cold) retrieval cache."""
    return ScalarRcaEngine(
        graph=engine.graph,
        library=engine.library,
        resolver=engine.resolver,
        store=engine.store,
        config=engine.config,
    )
