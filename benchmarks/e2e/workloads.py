"""What the end-to-end benchmark runs and what it reports.

Every session diagnoses ``poisson`` version ``A`` under the package-
default :class:`SearchConfig` plus ``stop_engine_when_done=True`` (the
Table 1 protocol).  The history fixture is one undirected base run at
the paper-default 1000 iterations, archived as 96 records; the sessions
a run times are fresh executions of the same program, ``1000 + k``
iterations each (changing ``iterations`` re-draws the per-iteration
jitter).  Every run of a workload times the same executions in the same
cyclic order, whole cycles only, and ``--seed`` picks where the cycle
starts: what a run measures does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

APP = "poisson"
VERSION = "A"
#: The archived base execution (the paper default).
BASE_ITERATIONS = 1000
#: Timed sessions use ``BASE_ITERATIONS + k``, ``k < EXECUTIONS``.  On all
#: eight, directed and undirected, the search completes and re-finds the
#: whole solid set of the base run, so no session fails; they differ by
#: about +-7 % in host time, less than a run's own noise.
EXECUTIONS = 8
SEARCH = {"stop_engine_when_done": True}
#: Margin defining the scored "solid" bottleneck set (as in Table 1).
SOLID_MARGIN = 0.075
#: Events per scheduling slice: the service default, replayed stage by
#: stage in the traced phase.
SLICE_EVENTS = 2000


def session_cycle(seed: int, executions: int) -> List[int]:
    """The iteration counts of one cycle of sessions, in the order a run
    of *seed* sends them: always the same cycle, started at the seed."""
    return [BASE_ITERATIONS + (seed + i) % executions
            for i in range(executions)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Over TCP through ``ServerThread``; otherwise ``repro.diagnose``
    #: in process with ``pool=None``.
    served: bool
    #: ``history=<fixture>``.
    directed: bool
    #: ``store=<fixture>``: each session appends its record to the
    #: archive it was directed by.
    write_through: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "served_directed",
        "Paper's headline case on the warm serving path: harvest is a pool "
        "cache hit, so simulator, metrics, consultant.begin and protocol "
        "carry the time; storage and extraction carry none.",
        served=True, directed=True,
    ),
    Workload(
        "served_undirected",
        "Same app and server without history: ~780 pairs instead of 64, so "
        "search, instrumentation churn, profile sink and a 260 KB response "
        "dominate; pool, storage, extraction and begin() do nothing.",
        served=True, directed=False,
    ),
    Workload(
        "served_write_through",
        "History and store are the same archive (the paper's loop): every "
        "request pays save, an O(delta) re-harvest and finalize, "
        "auto-compaction fires and the record LRU fills, so write cost and "
        "memory show.",
        served=True, directed=True, write_through=True,
    ),
    Workload(
        "oneshot_cold",
        "What every CLI invocation pays with no server at all: store open, "
        "index token, aggregate harvest, finalize, directive mapping; only "
        "storage, extraction and facade changes should move it.",
        served=False, directed=True,
    ),
)}


@dataclass(frozen=True)
class Scale:
    """How much a run does.  ``FULL`` is what the driver measures;
    ``TINY`` is ``--selftest``."""

    #: Records the base run is archived as.  96 leaves one compacted
    #: generation (auto-compaction at 64) plus 32 unfolded segments.
    fixture_records: int = 96
    warmups: int = 3
    #: Executions in the cycle a run repeats.  The timed phase sends
    #: whole cycles until ``--seconds`` have passed; the traced phase
    #: replays one cycle stage by stage (each request also served plain
    #: and served with progress events).
    executions: int = EXECUTIONS
    #: Cycles after which ``peak_rss_mb`` is read, and the least a run
    #: sends.  On ``served_write_through`` memory peaks in the archive's
    #: second auto-compaction, at the 27th timed session.
    rss_cycles: int = 4
    #: Of the traced cycle, how many requests get the engine-only and
    #: engine+profile runs.
    differentials: int = 4


FULL = Scale()
TINY = Scale(fixture_records=4, warmups=0, executions=1, rss_cycles=1,
             differentials=1)

#: name, unit, better, bound.  Times are at reference host speed (see
#: clock.py); the last three are simulated (``sim_s``: seconds of the
#: simulated program, not of the host).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("sessions_per_s", "1/s", "higher", 0.15),
    ("session_p50_ms", "ms", "lower", 0.15),
    ("session_p75_ms", "ms", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_time_to_all_true_s", "sim_s", "lower", 0.01),
    ("pairs_instrumented_per_session", "count", "lower", 0.01),
    ("bottlenecks_found_share", "ratio", "higher", 0.01),
]

#: The paper's counts: simulated, and means over the cycle every run
#: repeats, so they are the same in every run of a workload, whatever
#: its seed, and a change meant only to speed up the host must leave
#: them identical.
EXACT = frozenset({"sim_time_to_all_true_s", "pairs_instrumented_per_session",
                   "bottlenecks_found_share"})

#: name, unit, better.  Layer = the name up to its last dot; README.md
#: says which end-to-end metric each should move on which workload.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("apps.build_ms", "ms", "lower"),
    ("simulator.engine_ms", "ms", "lower"),
    ("simulator.events_per_session", "count", "lower"),
    ("simulator.segments_per_session", "count", "lower"),
    ("simulator.us_per_event", "us", "lower"),
    ("metrics.profile_ms", "ms", "lower"),
    ("metrics.instr_requests", "count", "lower"),
    ("metrics.probes_examined", "count", "lower"),
    ("metrics.probes_per_segment", "ratio", "lower"),
    ("core.search.residual_ms", "ms", "lower"),
    ("core.search.pairs_pruned", "count", "higher"),
    ("core.search.pairs_concluded", "count", "lower"),
    ("core.search.true_per_pair", "ratio", "higher"),
    ("core.consultant.begin_ms", "ms", "lower"),
    ("core.consultant.step_ms", "ms", "lower"),
    ("core.consultant.result_ms", "ms", "lower"),
    ("core.extraction.evidence_ms", "ms", "lower"),
    ("core.extraction.finalize_ms", "ms", "lower"),
    ("core.extraction.directives", "count", "lower"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.save_ms", "ms", "lower"),
    ("storage.save_max_ms", "ms", "lower"),
    ("storage.seed_save_ms", "ms", "lower"),
    ("storage.disk_bytes_per_record", "bytes", "lower"),
    ("storage.index_bytes_end", "bytes", "lower"),
    ("storage.segments_end", "count", "lower"),
    ("storage.aggregated_segments_end", "count", "higher"),
    ("storage.generation_end", "count", "lower"),
    ("server.pool.harvest_ms", "ms", "lower"),
    ("server.pool.harvest_requests", "count", "lower"),
    ("server.pool.harvest_hit_share", "ratio", "higher"),
    ("server.pool.harvest_incremental_share", "ratio", "higher"),
    ("server.pool.store_opens", "count", "lower"),
    ("server.service.overhead_ms", "ms", "lower"),
    ("server.service.queue_ms", "ms", "lower"),
    ("server.service.wall_ms", "ms", "lower"),
    ("server.service.slices_per_session", "count", "lower"),
    ("server.service.sessions_failed", "count", "lower"),
    ("server.service.sessions_rejected", "count", "lower"),
    ("server.protocol.encode_ms", "ms", "lower"),
    ("server.protocol.decode_ms", "ms", "lower"),
    ("server.protocol.response_bytes", "bytes", "lower"),
    ("server.protocol.ping_ms", "ms", "lower"),
    ("facade.diagnose_ms", "ms", "lower"),
    ("facade.overhead_ms", "ms", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.speed_index", "ratio", "higher"),
    ("host.wall_p50_ms", "ms", "lower"),
    ("host.wall_p75_ms", "ms", "lower"),
    ("host.cpu_share", "ratio", "higher"),
    ("host.fixture_s", "s", "lower"),
    ("host.cold_first_ms", "ms", "lower"),
    ("host.span_sum_error", "ratio", "lower"),
]
