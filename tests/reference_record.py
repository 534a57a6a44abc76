"""The record assembly ``ActiveDiagnosis.result()`` is held to.

``result()`` reads the Search History Graph in one walk
(``SearchHistoryGraph.tally``).  :func:`reference_result` is the
assembly it replaced: one walk per figure — the state counts, the
concluded pairs, the tested pairs (twice), the first and the last true
time, coverage — and node dicts whose state and priority text come from
the enum members themselves.  Records built by the two must be equal in
every field.
"""

import time

from repro.core.hypotheses import TOP_LEVEL
from repro.core.shg import NodeState
from repro.obs.metrics import run_metrics
from repro.storage.records import RunRecord


def state_counts(shg):
    out = {}
    for n in shg.nodes.values():
        out[n.state.value] = out.get(n.state.value, 0) + 1
    return out


def tested_count(shg):
    return sum(
        1 for n in shg.nodes.values()
        if n.t_requested is not None and n.hypothesis != "TopLevelHypothesis"
    )


def true_times(shg):
    return [n.t_concluded for n in shg.nodes.values()
            if n.state is NodeState.TRUE and n.hypothesis != TOP_LEVEL]


def coverage(shg):
    tested = concluded = 0
    for node in shg:
        if node.t_requested is None or node.hypothesis == TOP_LEVEL:
            continue
        tested += 1
        if node.concluded:
            concluded += 1
    return concluded / tested if tested else 1.0


def node_dict(node):
    return {
        "id": node.node_id,
        "hypothesis": node.hypothesis,
        "focus": str(node.focus),
        "state": node.state.value,
        "priority": str(node.priority),
        "persistent": node.persistent,
        "value": node.value,
        "t_requested": node.t_requested,
        "t_concluded": node.t_concluded,
        "quality": node.quality,
        "parents": sorted(node.parents),
        "children": sorted(node.children),
    }


def reference_result(active) -> RunRecord:
    """``ActiveDiagnosis.result()`` as seven walks of the graph."""
    if not active.done:
        raise RuntimeError(
            "diagnosis still in progress; step() it to completion first"
        )
    session, engine, search, instr = (
        active.session, active.engine, active.search, active.instr,
    )
    finish = active._finish if active._finish is not None else engine.now
    failure = active._failure
    degraded = failure is not None or bool(engine.crashed())
    if failure is None and engine.crashed():
        crashed = sorted(p.name for p in engine.crashed())
        failure = f"crashed processes: {crashed}"
    shg = search.shg
    states = state_counts(shg)
    concluded = sum(1 for n in shg if n.concluded and n.hypothesis != TOP_LEVEL)
    times = true_times(shg)
    metrics = run_metrics(
        engine_events=engine.events_processed,
        wall_seconds=time.perf_counter() - active._wall_start,
        virtual_seconds=finish,
        peak_cost=instr.peak_cost,
        mean_cost=instr.mean_cost,
        pairs_instrumented=tested_count(shg),
        pairs_concluded=concluded,
        pairs_pruned=states.get("pruned", 0),
        pairs_unknown=states.get("unknown", 0),
        instr_requests=instr.total_requests,
        instr_deletes=instr.total_deletes,
        instr_decimates=instr.total_decimates,
        segments_routed=instr.segments_routed,
        probes_examined=instr.probes_examined,
        engine_segments=engine.segments_emitted,
        emit_batches=engine.emit_batches,
        time_to_first_true=min(times) if times else None,
        time_to_last_true=max(true_times(shg)) if times else None,
        trace_events=session.tracer.count if session.tracer else 0,
        trace_dropped=session.tracer.dropped if session.tracer else 0,
    )
    config = active.config
    return RunRecord(
        run_id=active.run_id,
        app_name=session.app.name,
        version=session.app.version,
        n_processes=session.app.n_processes,
        nodes=list(session.app.node_names),
        placement=dict(session.app.placement),
        hierarchies={
            name: hierarchy.names()
            for name, hierarchy in active.space.hierarchies.items()
        },
        shg_nodes=[node_dict(shg.nodes[i]) for i in sorted(shg.nodes)],
        profile=active.profiler.profile.to_dict(),
        finish_time=finish,
        search_done_time=search.done_at,
        pairs_tested=tested_count(shg),
        total_requests=instr.total_requests,
        peak_cost=instr.peak_cost,
        thresholds=dict(search._thresholds),
        config={
            "min_interval": config.min_interval,
            "check_period": config.check_period,
            "cost_limit": config.cost_limit,
            "insertion_latency": config.insertion_latency,
        },
        notes=session.faults.describe() if session.faults else "",
        status="degraded" if degraded else "complete",
        failure=failure,
        coverage=coverage(shg),
        metrics=metrics,
    )
