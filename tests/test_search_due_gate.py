"""The evaluation pass computes a value only when a conclusion is due.

The search keeps an agenda of the instant each watched pair can next
change its answer, so a tick looks a handle up only when its pair is
due, and asks the instrumentation manager for a *value* — a walk over
the engine's in-progress activity — only once the pair has
``min_interval`` seconds of data.  A concluded persistent pair is due
again only once its value can have crossed the noise band.  A handle
deleted out of band reaches the search as a notification instead of
through a lookup.  These tests hold that on real sessions: no value is
computed that could not lead to a conclusion, ticks look up no handle
they do not read, and a handle deleted out of band before it is due is
still reported at the virtual time of the very next tick.
"""

import dataclasses

from repro.apps.poisson import PoissonConfig, build_poisson
from repro.core import DiagnosisSession, SearchConfig, extract_directives
from repro.core.shg import NodeState
from repro.obs import Tracer

SC = SearchConfig(min_interval=15.0, check_period=1.0, insertion_latency=1.0,
                  cost_limit=8.0)


def app():
    return build_poisson("C", PoissonConfig(iterations=120))


def logged_run(directives=None):
    """Run one session, logging per handle every value computed for it as
    ``(node, node state before the read, fraction, elapsed)`` and counting
    handle lookups, ``engine.in_progress_parts()`` walks and ticks, and the
    lookups and values made before the final pass (which looks every
    watched handle up).  No value may be computed short of the interval
    of the pass it is computed in."""
    active = DiagnosisSession(app=app(), directives=directives, config=SC).begin()
    instr, engine, search = active.instr, active.engine, active.search
    log = {"reads": {}, "lookups": 0, "walks": 0, "ticks": 0, "search": search}
    interval = []

    def wrap(owner, name, before):
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            before(*args, **kwargs)
            return inner(*args, **kwargs)
        setattr(owner, name, wrapped)

    def count(key):
        return lambda *args, **kwargs: log.update({key: log[key] + 1})

    wrap(search, "_evaluate_nodes",
         lambda nodes, min_interval, force=False: interval.append(min_interval))
    wrap(search, "tick", count("ticks"))
    wrap(search, "final_pass", lambda *args, **kwargs: log.update(at_final=(
        log["lookups"], sum(len(reads) for reads in log["reads"].values()))))
    wrap(engine, "in_progress_parts", count("walks"))
    wrap(instr, "elapsed", count("lookups"))
    read = instr.normalized_read

    def logged_read(handle):
        node = next(n for n in search.shg if n.handle == handle)
        state = node.state
        frac, elapsed = read(handle)
        assert elapsed >= interval[-1], \
            f"{node.hypothesis} {node.focus}: value computed {elapsed}s in"
        log["reads"].setdefault(handle, []).append((node, state, frac, elapsed))
        return frac, elapsed

    instr.normalized_read = logged_read
    active.step()
    return active.result(), log


def classify(log):
    """Count the values computed by the only three reasons one may be:
    it concluded the pair; it fell inside the noise band short of the
    decisive interval, so the pair kept collecting; or the pair is
    persistent and keeps watching after its conclusion."""
    search = log["search"]
    config = search.config
    concluded = borderline = persistent = 0
    for reads in log["reads"].values():
        node = reads[0][0]
        threshold = search.threshold(node.hypothesis)
        for i, (_node, state, frac, elapsed) in enumerate(reads):
            if state is not NodeState.ACTIVE:
                assert node.persistent
                persistent += 1
            elif i + 1 < len(reads) and reads[i + 1][1] is NodeState.ACTIVE:
                assert abs(frac - threshold) <= config.noise_band
                assert elapsed < config.decisive_factor * config.min_interval
                borderline += 1
            else:
                concluded += 1
        assert node.concluded
    total = sum(len(reads) for reads in log["reads"].values())
    assert total == concluded + borderline + persistent
    return total, concluded, borderline, persistent


class TestValueOnlyWhenDue:
    def test_undirected_session(self):
        record, log = logged_run()
        total, concluded, borderline, persistent = classify(log)
        assert persistent == 0
        assert concluded == record.metrics["pairs_concluded"] > 10
        # a walk needs a value computed in its pass, and a pass shares one
        assert 0 < log["walks"] <= total
        assert log["walks"] <= log["ticks"] + 1  # + the final pass
        # what the agenda saves: a tick looks up only the pairs it reads
        lookups, values = log.get("at_final", (log["lookups"], total))
        assert lookups == values

    def test_directed_session_with_persistent_pairs(self):
        base, _ = logged_run()
        record, log = logged_run(extract_directives(base))
        total, concluded, borderline, persistent = classify(log)
        assert persistent > 0  # still read after their conclusion, by design
        assert concluded == record.metrics["pairs_concluded"]
        assert 0 < log["walks"] <= log["ticks"] + 1
        assert total <= log["lookups"]
        # ... but only when the value can have crossed the noise band
        pairs = sum(1 for node in log["search"].shg if node.persistent)
        assert persistent <= log["ticks"] * pairs / 5


class TestLostHandleBeforeDue:
    """Delete a live handle behind the search's back at t=3.5, long
    before its pair has ``min_interval`` of data: the loss must surface
    at the next tick (t=4), exactly as when every tick looked every
    handle up."""

    LOST_AT = 3.5
    NEXT_TICK = 4.0

    def lose(self, active, pick):
        def strike():
            node = pick(active.search)
            assert active.instr.elapsed(node.handle) < SC.min_interval
            active.instr.delete(node.handle)
            strike.node = node
        active.engine.schedule(self.LOST_AT, strike)
        active.step()
        return strike.node, active.session.tracer

    def test_undecided_pair_goes_unknown_on_the_next_tick(self):
        active = DiagnosisSession(app=app(), config=SC, tracer=Tracer()).begin()
        node, tracer = self.lose(active, lambda search: next(
            n for n in search.shg
            if n.state is NodeState.ACTIVE and n.handle is not None))
        events = [e for e in tracer.events("node-unknown")
                  if e.data["node"] == node.node_id]
        assert [(e.t, e.data["reason"]) for e in events] == [
            (self.NEXT_TICK, "lost instrumentation sample")]
        assert node.state is NodeState.UNKNOWN
        assert not tracer.events("node-sample-lost")

    def test_concluded_persistent_pair_keeps_conclusion_on_the_next_tick(self):
        base = DiagnosisSession(app=app(), config=SC).run()
        active = DiagnosisSession(
            app=app(), directives=extract_directives(base), config=SC,
            tracer=Tracer(),
        ).begin()
        # a persistent pair is concluded by hand before it is due, the
        # way TestLostSample does, but on a live handle of a live session
        def pick(search):
            node = next(n for n in search.shg
                        if n.persistent and n.state is NodeState.ACTIVE)
            node.state = NodeState.TRUE
            node.t_concluded = search.engine.now
            return node
        node, tracer = self.lose(active, pick)
        events = [e for e in tracer.events("node-sample-lost")
                  if e.data["node"] == node.node_id]
        assert [e.t for e in events] == [self.NEXT_TICK]
        assert node.state is NodeState.TRUE and node.handle is None
        assert not [e for e in tracer.events("node-unknown")
                    if e.data["node"] == node.node_id]


def test_final_pass_gates_on_its_own_interval():
    """The gate compares against the interval the pass was given: a
    program shorter than ``min_interval`` is concluded by the final
    pass, on ``final_interval`` of data."""
    config = dataclasses.replace(SC, min_interval=100.0)
    record = DiagnosisSession(
        app=build_poisson("C", PoissonConfig(iterations=10)), config=config,
    ).run()
    assert config.final_interval < record.finish_time < config.min_interval
    assert record.metrics["pairs_concluded"] > 0
