"""The naive probe delivery ``InstrumentationManager.record_batch()`` is
held to.

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

The engine hands the manager flush batches of segment prototypes; the
oracle is fed the way every sink was before that, one materialised
segment at a time: :class:`ShadowSink` defines only ``record()``, so
the engine wraps it in its materialising adaptor.  :func:`naive_read`
states ``read()`` the same way — the shadow plus the overlap of every
in-progress pseudo-segment (:func:`in_progress`) the probe's metric
counts and its focus matches.

:func:`feed` is how a test hands a segment that exists on its own to a
batch sink: a one-triple batch through the segment's prototype.
"""

from repro.simulator.records import TimeSegment, prototype_of


def feed(sink, *segments):
    """Deliver *segments* to the batch sink *sink*, one at a time and in
    order, each as a ``(prototype, start, duration)`` batch of one."""
    for seg in segments:
        sink.record_batch([(prototype_of(seg), seg.start, seg.duration)])


def in_progress(engine):
    """The engine's in-progress activities as pseudo-segments (stack:
    the innermost frame only), from ``in_progress_parts()``."""
    for parts, activity, start, duration in engine.in_progress_parts():
        code = parts["Code"]
        sync = parts.get("SyncObject")
        if sync is None:
            tag = None
        elif sync[1] == "Barrier":
            tag = "Barrier"
        else:
            tag = "/".join(sync[2:])
        yield TimeSegment.make(
            start=start, duration=duration, activity=activity,
            process=parts["Process"][1], node=parts["Machine"][1],
            module=code[1], function=code[2], tag=tag)


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


class ShadowSink:
    """A record-only engine sink folding every segment through
    :func:`deliver` into ``shadow``, counting what that examined."""

    def __init__(self, manager):
        self.manager = manager
        self.shadow = {}
        self.segments = 0
        self.examined = 0

    def record(self, segment):
        self.segments += 1
        self.examined += deliver(self.manager, segment, self.shadow)


def naive_read(manager, handle, shadow):
    """``(value, elapsed)`` of live *handle*, from *shadow* and the
    engine's in-progress pseudo-segments."""
    probe = manager._active[handle]
    elapsed = max(manager.engine.now - probe.active_from, 0.0)
    if elapsed == 0.0:
        return 0.0, 0.0
    value = shadow.get(handle, 0.0)
    if probe.metric.kind == "time":
        for seg in in_progress(manager.engine):
            if not probe.metric.counts(seg.activity):
                continue
            dt = probe.overlap(seg.start, seg.end)
            if dt > 0.0 and probe.focus.matches_parts(seg.parts):
                value += dt
    return value, elapsed
