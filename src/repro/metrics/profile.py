"""Always-on flat profiler.

Aggregates the complete execution's time by each hierarchy dimension
(code function, process, machine node, message tag) and activity class.
This is the "raw data needed to test hypotheses postmortem" the paper's
future-work section mentions, and it feeds directive extraction: historic
prunes need per-function execution fractions, and threshold suggestion
needs the value distribution of candidate foci.

Unlike dynamic instrumentation the profiler observes the whole run (it is
the store's ground truth, not an online measurement).

The profile folds the engine's flush batches directly
(:meth:`FlatProfile.add_batch`): a run's segments are drawn from a
handful of segment prototypes, and the rows one prototype bumps are
resolved once.  Each segment is still added on its own, in order —
folding per-prototype subtotals would change the float summation order
and with it every stored profile.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Tuple

from ..resources.names import join_path
from ..simulator.records import Activity, Batch, TimeSegment, prototype_of

__all__ = ["FlatProfile", "ProfileCollector"]

_ACT_KEYS = {Activity.COMPUTE: "compute", Activity.SYNC: "sync", Activity.IO: "io"}

#: Cap on the prototype memo of :meth:`FlatProfile.add_batch`; cleared
#: wholesale when full.  Entries are bounded by the distinct prototypes
#: of a run (tens), so a realistic run never evicts.
_MEMO_MAX = 1 << 16


class FlatProfile:
    """Aggregated per-resource activity totals for one execution.

    Besides the four single-dimension tables, the profile keeps a full
    *conjunction* table keyed by (code function, process, node, sync tag),
    which is exactly the postmortem data needed to evaluate any
    (hypothesis : focus) pair offline — the paper's future-work extension
    of extracting directives "where results ... from a previous PC run are
    not available, but we do have the raw data needed to test hypotheses
    postmortem".
    """

    def __init__(self) -> None:
        # resource name -> {"compute": s, "sync": s, "io": s}
        self.by_code: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_process: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_node: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_tag: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # inclusive attribution: every frame on the stack is charged
        self.by_code_inclusive: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # (code path, process path, node path, tag path or "") -> totals
        self.by_combo: Dict[Tuple[str, str, str, str], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.totals: Dict[str, float] = defaultdict(float)
        self.elapsed: float = 0.0
        # id(prototype) -> (prototype, activity key, inner dicts to bump);
        # see _resolve
        self._memo: Dict[int, tuple] = {}

    # -- accumulation -------------------------------------------------------
    def add_batch(self, batch: Batch) -> None:
        """Charge one flush batch of ``(prototype, start, duration)``
        triples to every table.

        The names and the inner dicts a prototype bumps are resolved once
        (:meth:`_resolve`); after that a segment is one memo hit and one
        ``+=`` per table, in the same table order and segment order as an
        unmemoized fold, so every sum is bit-identical.
        """
        memo = self._memo
        elapsed = self.elapsed
        for proto, start, duration in batch:
            hit = memo.get(id(proto))
            if hit is None:
                hit = self._resolve(proto)
            key = hit[1]
            for cell in hit[2]:
                cell[key] += duration
            end = start + duration
            if end > elapsed:
                elapsed = end
        self.elapsed = elapsed

    def add(self, seg: TimeSegment) -> None:
        """Charge one segment: the same fold, through the segment's
        prototype (:func:`~repro.simulator.records.prototype_of`)."""
        self.add_batch(((prototype_of(seg), seg.start, seg.duration),))

    def _resolve(self, proto: dict) -> tuple:
        """Name one prototype's attribution in every table and memoize
        the result.

        The memo is keyed by the prototype's identity and pins it, so the
        id cannot be reused while the entry lives.  Resolving creates
        each outer table entry exactly where the first segment of the
        attribution would have, so key order is unchanged.
        """
        key = _ACT_KEYS[proto["activity"]]
        module, function = proto["module"], proto["function"]
        code = join_path(("Code", module, function))
        proc = join_path(("Process", proto["process"]))
        node = join_path(("Machine", proto["node"]))
        tag = ""
        cells = [self.by_code[code], self.by_process[proc], self.by_node[node]]
        parts = proto["parts"]
        if proto["tag"] is not None and "SyncObject" in parts:
            tag = join_path(parts["SyncObject"])
            cells.append(self.by_tag[tag])
        cells.append(self.by_combo[(code, proc, node, tag)])
        for frame in dict.fromkeys(proto["stack"] or ((module, function),)):
            cells.append(self.by_code_inclusive[join_path(("Code",) + frame)])
        cells.append(self.totals)
        if len(self._memo) >= _MEMO_MAX:
            self._memo.clear()
        hit = (proto, key, tuple(cells))
        self._memo[id(proto)] = hit
        return hit

    # -- ground-truth evaluation -----------------------------------------------
    def focus_value(self, focus, activity_keys) -> float:
        """Total seconds of the given activity classes inside *focus*."""
        sels = {h: focus.selection(h) for h in focus.hierarchies}
        total = 0.0
        for (code, proc, node, tag), entry in self.by_combo.items():
            if "Code" in sels and not _under(code, sels["Code"]):
                continue
            if "Process" in sels and not _under(proc, sels["Process"]):
                continue
            if "Machine" in sels and not _under(node, sels["Machine"]):
                continue
            if "SyncObject" in sels and sels["SyncObject"] != "/SyncObject":
                if not tag or not _under(tag, sels["SyncObject"]):
                    continue
            for k in activity_keys:
                total += entry.get(k, 0.0)
        return total

    def focus_fraction(self, focus, activity_keys, placement: Dict[str, str]) -> float:
        """Ground-truth normalised hypothesis value for *focus*: matched
        seconds / (elapsed × matched process count), mirroring the online
        normalisation in :mod:`repro.metrics.instrumentation`."""
        if self.elapsed <= 0:
            return 0.0
        n = 0
        for proc, node in placement.items():
            if "Process" in focus.hierarchies and not _under(
                f"/Process/{proc}", focus.selection("Process")
            ):
                continue
            if "Machine" in focus.hierarchies and not _under(
                f"/Machine/{node}", focus.selection("Machine")
            ):
                continue
            n += 1
        if n == 0:
            return 0.0
        return self.focus_value(focus, activity_keys) / (self.elapsed * n)

    # -- queries --------------------------------------------------------------
    def total_time(self) -> float:
        """Summed process time across all activity classes."""
        return sum(self.totals.values())

    # -- shares of total process time -------------------------------------------
    # The one definition of "share of execution": seconds over
    # total_time(), nothing (or 0.0) for a profile that holds no time.
    # Summaries, resource histories, run comparison, the checklist,
    # automap and historic prunes all read their shares from here.
    def share_table(self, table: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        """Every ``{activity: seconds}`` entry of *table* (one of this
        profile's tables) as shares of total process time."""
        total = self.total_time()
        if total <= 0.0:
            return {}
        return {
            name: {activity: seconds / total for activity, seconds in entry.items()}
            for name, entry in table.items()
        }

    def exec_share(self, entries: Iterable[Dict[str, float]]) -> float:
        """The seconds of every activity class in *entries* (entries of
        one table) as one share of total process time."""
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        return sum(sum(entry.values()) for entry in entries) / total

    def exec_shares(self, table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """:meth:`exec_share` of each entry of *table* on its own."""
        if self.total_time() <= 0.0:
            return {}
        return {name: self.exec_share((entry,)) for name, entry in table.items()}

    def code_exec_fraction(self, name: str) -> float:
        """Fraction of total execution time spent (in any class) in the
        given code resource — the signal for historic low-cost prunes."""
        return self.exec_share((self.by_code.get(name, {}),))

    def code_inclusive_fraction(self, name: str) -> float:
        """Inclusive variant: fraction of total execution time spent with
        the given function anywhere on the call stack."""
        return self.exec_share((self.by_code_inclusive.get(name, {}),))

    def sync_fraction_by_process(self, name: str) -> float:
        entry = self.by_process.get(name, {})
        t = sum(entry.values())
        return entry.get("sync", 0.0) / t if t > 0 else 0.0

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        def plain(table):
            return {k: dict(v) for k, v in table.items()}

        return {
            "by_code": plain(self.by_code),
            "by_process": plain(self.by_process),
            "by_node": plain(self.by_node),
            "by_tag": plain(self.by_tag),
            "by_code_inclusive": plain(self.by_code_inclusive),
            "by_combo": {"||".join(k): dict(v) for k, v in self.by_combo.items()},
            "totals": dict(self.totals),
            "elapsed": self.elapsed,
        }

    @staticmethod
    def from_dict(data: dict) -> "FlatProfile":
        prof = FlatProfile()
        for attr in ("by_code", "by_process", "by_node", "by_tag", "by_code_inclusive"):
            table = getattr(prof, attr)
            for name, entry in data.get(attr, {}).items():
                for key, val in entry.items():
                    table[name][key] += val
        for name, entry in data.get("by_combo", {}).items():
            parts = tuple(name.split("||"))
            for key, val in entry.items():
                prof.by_combo[parts][key] += val
        for key, val in data.get("totals", {}).items():
            prof.totals[key] += val
        prof.elapsed = data.get("elapsed", 0.0)
        return prof


def _under(path: str, ancestor: str) -> bool:
    """Prefix-at-component-boundary test for resource names."""
    return path == ancestor or path.startswith(ancestor + "/")


class ProfileCollector:
    """Trace sink wrapper around :class:`FlatProfile`."""

    def __init__(self) -> None:
        self.profile = FlatProfile()

    def record_batch(self, batch: Batch) -> None:
        self.profile.add_batch(batch)
