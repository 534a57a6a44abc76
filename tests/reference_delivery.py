"""The naive probe delivery ``InstrumentationManager.record()`` is held to.

``repro.metrics.instrumentation`` delivers a time segment through an
attribution cell: the probes that match the segment were worked out
once, when its attribution was first seen, and are kept current by
``request()`` and ``delete()``.  This module is the discipline delivery
started with — every live probe examined for every segment, every focus
match computed from scratch, nothing indexed or memoised:

* a probe sees a segment when its metric counts the segment's activity
  and its focus matches the segment's attribution;
* a *time* metric adds the seconds of the segment that fall inside the
  probe's active window;
* a *count* metric adds one per segment that finishes inside it.

Values accumulate in a shadow ``{handle: value}`` the caller owns, so the
manager under test is only ever read.  Folding the same segments in the
same order with the same arithmetic, the shadow and every probe's
``accumulated`` must agree bit for bit.
"""


def deliver(manager, segment, shadow):
    """Fold *segment* into ``shadow[handle]`` for every live probe of
    *manager*; returns how many probes that examined (all of them)."""
    live = manager._active
    for handle, probe in live.items():
        metric = probe.metric
        if not metric.counts(segment.activity):
            continue
        if metric.kind == "count":
            inside = probe.active_from <= segment.end and (
                probe.deleted_at is None or segment.end <= probe.deleted_at)
            gain = 1.0 if inside else 0.0
        else:
            gain = probe.overlap(segment.start, segment.end)
        if gain > 0.0 and probe.focus.matches_parts(segment.parts):
            shadow[handle] = shadow.get(handle, 0.0) + gain
    return len(live)
