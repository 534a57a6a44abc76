"""Harvesting search directives from historical performance data.

Implements Section 3's three extraction mechanisms:

* **priorities** — High for pairs that tested true in at least one
  previous execution, Low for pairs that tested false in all of them
  (untested pairs stay Medium by omission);
* **prunes** — *general* prunes encode environment rules (the SyncObject
  hierarchy is irrelevant to non-synchronisation hypotheses; the Machine
  hierarchy is redundant when processes and nodes map one-to-one, the
  MPI-1 static process model), while *historic* prunes cut resources the
  history shows to be insignificant (functions with negligible execution
  time) and, optionally, previously-false pairs;
* **thresholds** — chosen from the observed hypothesis-value distribution
  by largest-gap separation, the automated version of the paper's
  "keep the number of bottlenecks reported in a practically useful range".

There is one route from history to a directive.  A run is reduced to
its index summary (:func:`repro.storage.summary.summarize_record` — at
save time for a store, on the spot for a record handed over in memory),
summaries fold into a :class:`HarvestAggregate`, and the aggregate's
mechanism methods — composed by :meth:`HarvestAggregate.finalize` —
state each rule once.  Every ``extract_*`` function below is that
pipeline over the records it is given.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..resources.focus import parse_focus
from ..storage.records import RunRecord
from ..storage.summary import summarize_record
from .directives import (
    ANY_HYPOTHESIS,
    DirectiveSet,
    PairPruneDirective,
    PriorityDirective,
    PruneDirective,
    ThresholdDirective,
)
from .hypotheses import HypothesisTree, standard_tree
from .shg import Priority

__all__ = [
    "HarvestAggregate",
    "extract_priorities",
    "extract_general_prunes",
    "extract_historic_prunes",
    "extract_pair_prunes",
    "suggest_threshold",
    "extract_thresholds",
    "extract_directives",
]

_Pair = Tuple[str, str]


def general_prune_directives(
    machine_nodes: Optional[int],
    n_processes: Optional[int],
    hypotheses: Optional[HypothesisTree] = None,
) -> List[PruneDirective]:
    """Environment-rule prunes, not specific to any application's history.

    Always prunes ``/SyncObject`` from non-sync hypotheses; additionally
    prunes ``/Machine`` entirely when the environment shows a one-to-one
    process/node correspondence (paper, Section 3.1).
    """
    tree = hypotheses or standard_tree()
    out = [
        PruneDirective(h.name, "/SyncObject")
        for h in tree.testable()
        if not h.sync_related
    ]
    if machine_nodes is not None and machine_nodes == n_processes and machine_nodes > 0:
        out.append(PruneDirective(ANY_HYPOTHESIS, "/Machine"))
    return out


def suggest_threshold(
    values: Iterable[float],
    noise_floor: float = 0.03,
    ceiling: float = 0.35,
    default: float = 0.20,
) -> float:
    """Pick a threshold separating significant bottleneck values from noise.

    Sorts the observed hypothesis values and places the threshold in the
    middle of the largest gap between consecutive values, considering only
    candidate thresholds (gap midpoints) up to ``ceiling`` — a useful
    reporting threshold sits below the significant cluster, not between
    two strong bottlenecks.  With fewer than two usable values the default
    is returned unchanged.
    """
    usable = sorted({round(v, 4) for v in values if v >= noise_floor})
    if len(usable) < 2:
        return default
    best_gap = 0.0
    best_mid = None
    lo_points = [noise_floor] + usable
    for a, b in zip(lo_points, lo_points[1:]):
        mid = (a + b) / 2.0
        if mid > ceiling:
            continue
        gap = b - a
        if gap > best_gap:
            best_gap = gap
            best_mid = mid
    return default if best_mid is None else round(best_mid, 3)


def threshold_directives(
    values_by_hyp: Dict[str, Collection[float]],
    hypotheses: Optional[HypothesisTree] = None,
) -> List[ThresholdDirective]:
    """One :func:`suggest_threshold` per testable hypothesis with values."""
    tree = hypotheses or standard_tree()
    out: List[ThresholdDirective] = []
    for h in tree.testable():
        vals = values_by_hyp.get(h.name)
        if not vals:
            continue
        value = suggest_threshold(vals, default=h.default_threshold)
        out.append(ThresholdDirective(h.name, value))
    return out


# --------------------------------------------------------------------------
# mergeable aggregates
# --------------------------------------------------------------------------
#: Serialized-aggregate format version (bumped on any shape change so
#: persisted aggregates from older code degrade to a rescan, never to a
#: misread).
AGGREGATE_VERSION = 1
#: What :meth:`HarvestAggregate.to_json` text holds before ``n_runs``.
_JSON_HEAD = '{"version": %d, "n_runs": ' % AGGREGATE_VERSION


class HarvestAggregate:
    """Parameter-free sufficient statistics for directive extraction.

    Everything the Section 3 rules read from a run's summary, reduced
    to a commutative-enough form: set unions for pair outcomes and code
    candidates, a per-function *max* execution fraction (the
    historic-prune test "below threshold in every run" is exactly "max
    over runs below threshold"), per-hypothesis value evidence, and the
    first run's machine/process environment for the general prunes.
    :meth:`finalize` reads six fields — ``first_env``, ``true_pairs``,
    ``false_pairs``, ``code_candidates``, ``code_max_fraction`` and
    ``hyp_values`` — and never ``n_runs``; :meth:`same_evidence`
    compares exactly those six.

    Hypothesis values are kept as ``{round(v, 4): max raw v}`` buckets —
    ``suggest_threshold`` filters raw values against the noise floor and
    then dedups at 4 decimals, so a 4-decimal bucket survives any floor
    iff its raw maximum does.  Passing the per-bucket maxima back through
    ``suggest_threshold`` is therefore exact for *every* noise floor,
    while bounding the aggregate at one entry per distinct rounded value
    instead of one per observed float.

    The structure is a monoid over *ordered* run sequences:
    ``HarvestAggregate()`` is the identity, :meth:`merge` is associative,
    and for any split of a run sequence ``merge`` of the parts equals
    :meth:`of_summaries` over the concatenation.  None of the extraction
    knobs (``min_exec_fraction``, thresholds' noise floor, the hypothesis
    tree) are baked in — they apply at :meth:`finalize` time, so one
    stored aggregate serves every option combination.
    """

    __slots__ = (
        "n_runs",
        "first_env",
        "true_pairs",
        "false_pairs",
        "code_candidates",
        "code_max_fraction",
        "hyp_values",
    )

    def __init__(self) -> None:
        self.n_runs: int = 0
        #: ``(machine_nodes, n_processes)`` of the first folded run.
        self.first_env: Optional[Tuple[Optional[int], Optional[int]]] = None
        self.true_pairs: Set[_Pair] = set()
        self.false_pairs: Set[_Pair] = set()
        self.code_candidates: Set[str] = set()
        self.code_max_fraction: Dict[str, float] = {}
        #: hypothesis → {round(value, 4) bucket: max raw value in bucket}
        self.hyp_values: Dict[str, Dict[float, float]] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def of_summaries(cls, summaries: Iterable[dict]) -> "HarvestAggregate":
        agg = cls()
        for summary in summaries:
            agg.fold_summary(summary)
        return agg

    def fold_summary(self, summary: dict) -> "HarvestAggregate":
        """Fold one run's summary in, in run order.  Mutates ``self``."""
        if self.n_runs == 0:
            self.first_env = (summary["machine_nodes"], summary["n_processes"])
        self.n_runs += 1
        self.true_pairs.update(tuple(p) for p in summary["true_pairs"])
        self.false_pairs.update(tuple(p) for p in summary["false_pairs"])
        self.code_candidates.update(summary["code_leaves"])
        fractions = summary["code_exec_fractions"]
        code_max = self.code_max_fraction
        for name, frac in fractions.items():
            prev = code_max.get(name)
            if prev is None or frac > prev:
                code_max[name] = frac
        for hyp, vals in summary["hyp_values"].items():
            buckets = self.hyp_values.setdefault(hyp, {})
            for v in vals:
                bucket = round(v, 4)
                prev = buckets.get(bucket)
                if prev is None or v > prev:
                    buckets[bucket] = v
        return self

    def copy(self) -> "HarvestAggregate":
        out = HarvestAggregate()
        out.n_runs = self.n_runs
        out.first_env = self.first_env
        out.true_pairs = set(self.true_pairs)
        out.false_pairs = set(self.false_pairs)
        out.code_candidates = set(self.code_candidates)
        out.code_max_fraction = dict(self.code_max_fraction)
        out.hyp_values = {h: dict(v) for h, v in self.hyp_values.items()}
        return out

    # -- the monoid --------------------------------------------------------
    def update(self, other: "HarvestAggregate") -> "HarvestAggregate":
        """In-place :meth:`merge`: fold ``other``'s runs after ``self``'s.
        Mutates and returns ``self``; ``other`` is untouched."""
        if self.n_runs == 0:
            self.first_env = other.first_env
        self.n_runs += other.n_runs
        self.true_pairs |= other.true_pairs
        self.false_pairs |= other.false_pairs
        self.code_candidates |= other.code_candidates
        for name, frac in other.code_max_fraction.items():
            prev = self.code_max_fraction.get(name)
            if prev is None or frac > prev:
                self.code_max_fraction[name] = frac
        for hyp, buckets in other.hyp_values.items():
            mine = self.hyp_values.setdefault(hyp, {})
            for bucket, raw in buckets.items():
                prev = mine.get(bucket)
                if prev is None or raw > prev:
                    mine[bucket] = raw
        return self

    def merge(self, other: "HarvestAggregate") -> "HarvestAggregate":
        """Aggregate over ``self``'s runs followed by ``other``'s.

        Associative, with the empty aggregate as identity:
        ``a.merge(b).merge(c) == a.merge(b.merge(c))`` and both equal
        :meth:`of_summaries` over the concatenated run sequence.
        Returns a new aggregate; neither operand is mutated.
        """
        return self.copy().update(other)

    # -- the Section 3 rules, each stated once ------------------------------
    def priorities(self) -> List[PriorityDirective]:
        """High for ever-true pairs, Low for always-false pairs (Section 3.1)."""
        out = [
            PriorityDirective(hyp, parse_focus(focus_text), Priority.HIGH)
            for hyp, focus_text in sorted(self.true_pairs)
        ]
        out.extend(
            PriorityDirective(hyp, parse_focus(focus_text), Priority.LOW)
            for hyp, focus_text in sorted(self.false_pairs - self.true_pairs)
        )
        return out

    def general_prunes(
        self, hypotheses: Optional[HypothesisTree] = None
    ) -> List[PruneDirective]:
        """:func:`general_prune_directives` for the first run's environment."""
        machine_nodes, n_processes = self.first_env or (None, None)
        return general_prune_directives(machine_nodes, n_processes, hypotheses)

    def historic_prunes(
        self, min_exec_fraction: float = 0.005
    ) -> List[PruneDirective]:
        """Prune code resources that history shows are insignificant.

        A function is pruned when its execution-time fraction (any
        activity class) stays below ``min_exec_fraction`` in *every*
        previous run; a module is pruned as a unit when all of its
        functions are, and the remaining tiny functions one by one.
        """
        code_max = self.code_max_fraction
        tiny = {
            name
            for name in self.code_candidates
            if code_max.get(name, 0.0) < min_exec_fraction
        }
        by_module: Dict[str, List[str]] = defaultdict(list)
        for name in self.code_candidates:
            by_module["/".join(name.split("/")[:3])].append(name)
        out: List[PruneDirective] = []
        folded: Set[str] = set()
        for module, functions in sorted(by_module.items()):
            if all(f in tiny for f in functions):
                out.append(PruneDirective(ANY_HYPOTHESIS, module))
                folded.update(functions)
        for name in sorted(tiny - folded):
            out.append(PruneDirective(ANY_HYPOTHESIS, name))
        return out

    def pair_prunes(self) -> List[PairPruneDirective]:
        """Previously-false pairs, prunable outright (with the robustness
        caveat the paper raises: pruning can miss new behaviour)."""
        return [
            PairPruneDirective(hyp, parse_focus(focus_text))
            for hyp, focus_text in sorted(self.false_pairs - self.true_pairs)
        ]

    def thresholds(
        self, hypotheses: Optional[HypothesisTree] = None
    ) -> List[ThresholdDirective]:
        """Per-hypothesis thresholds from the historical value distribution.

        Per-bucket raw maxima stand in for the observed values:
        ``round(max, 4)`` recovers each bucket, and a bucket passes the
        noise floor iff its max does — exact for any floor.
        """
        return threshold_directives(
            {h: buckets.values() for h, buckets in self.hyp_values.items()},
            hypotheses,
        )

    def finalize(
        self,
        include_priorities: bool = True,
        include_general_prunes: bool = True,
        include_historic_prunes: bool = True,
        include_pair_prunes: bool = True,
        include_thresholds: bool = False,
        hypotheses: Optional[HypothesisTree] = None,
        min_exec_fraction: float = 0.005,
    ) -> DirectiveSet:
        """Apply the extraction knobs and build the directive set.

        The only place a harvested :class:`DirectiveSet` is assembled:
        stores, the pool and :func:`extract_directives` all end here.
        ``tests/reference_extraction.py`` restates the rules naively over
        per-run facts, and ``DirectiveSet.to_text()`` must match it byte
        for byte for every option combination.

        Thresholds default off because the paper's Table 1/3 experiments
        hold thresholds identical across runs and study prunes/priorities
        in isolation; pass ``include_thresholds=True`` for Table 2's
        workflow.
        """
        prunes: List[PruneDirective] = []
        if include_general_prunes:
            prunes.extend(self.general_prunes(hypotheses))
        if include_historic_prunes:
            prunes.extend(self.historic_prunes(min_exec_fraction))
        return DirectiveSet(
            prunes=prunes,
            pair_prunes=self.pair_prunes() if include_pair_prunes else (),
            priorities=self.priorities() if include_priorities else (),
            thresholds=self.thresholds(hypotheses) if include_thresholds else (),
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-serializable form (sorted, deterministic)."""
        return {
            "version": AGGREGATE_VERSION,
            "n_runs": self.n_runs,
            "first_env": list(self.first_env) if self.first_env is not None else None,
            "true_pairs": sorted(list(p) for p in self.true_pairs),
            "false_pairs": sorted(list(p) for p in self.false_pairs),
            "code_candidates": sorted(self.code_candidates),
            "code_max_fraction": {
                k: self.code_max_fraction[k] for k in sorted(self.code_max_fraction)
            },
            # Bucket keys are floats, so they serialize as sorted
            # [bucket, max] pairs rather than JSON object keys.
            "hyp_values": {
                h: sorted([b, m] for b, m in self.hyp_values[h].items())
                for h in sorted(self.hyp_values)
            },
        }

    def to_json(
        self, last: Optional[Tuple["HarvestAggregate", str]] = None
    ) -> str:
        """``json.dumps(self.to_dict())``.

        *last* is an earlier aggregate and the text this method gave for
        it.  When it has the :meth:`same_evidence` — a rolling writer's
        save that taught the history nothing new — its text is reused
        with only ``n_runs`` spliced in.  Equal values encode alike:
        summaries hold true divisions and floats, never an ``int`` twin
        of a float or ``-0.0``.
        """
        if last is not None and self.same_evidence(last[0]):
            rest = last[1][len(_JSON_HEAD) + len(str(last[0].n_runs)):]
            return f"{_JSON_HEAD}{self.n_runs}{rest}"
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "HarvestAggregate":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` on an unknown format version so persisted
        aggregates from future code degrade to a rescan rather than being
        misread.
        """
        if data.get("version") != AGGREGATE_VERSION:
            raise ValueError(
                f"unsupported aggregate version: {data.get('version')!r}"
            )
        out = cls()
        out.n_runs = int(data["n_runs"])
        env = data.get("first_env")
        out.first_env = tuple(env) if env is not None else None
        out.true_pairs = {tuple(p) for p in data["true_pairs"]}
        out.false_pairs = {tuple(p) for p in data["false_pairs"]}
        out.code_candidates = set(data["code_candidates"])
        out.code_max_fraction = dict(data["code_max_fraction"])
        out.hyp_values = {
            h: {bucket: raw for bucket, raw in pairs}
            for h, pairs in data["hyp_values"].items()
        }
        return out

    # -- comparison / introspection ---------------------------------------
    def same_evidence(self, other: "HarvestAggregate") -> bool:
        """Whether :meth:`finalize` reads the same thing from both, for
        every option combination: the six fields it reads are equal.

        ``n_runs`` is not compared: the unions and maxima saturate, so
        another run of the same program usually adds nothing, and
        whoever derived something from ``other`` (a directive set, an
        encoded body) may keep it.  A field :meth:`finalize` comes to
        read must be added here, or that reuse goes stale.
        """
        return all(
            mine is theirs or mine == theirs
            for mine, theirs in (
                (self.first_env, other.first_env),
                (self.true_pairs, other.true_pairs),
                (self.false_pairs, other.false_pairs),
                (self.code_candidates, other.code_candidates),
                (self.code_max_fraction, other.code_max_fraction),
                (self.hyp_values, other.hyp_values),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HarvestAggregate):
            return NotImplemented
        return (
            self.n_runs == other.n_runs
            and self.first_env == other.first_env
            and self.true_pairs == other.true_pairs
            and self.false_pairs == other.false_pairs
            and self.code_candidates == other.code_candidates
            and self.code_max_fraction == other.code_max_fraction
            and self.hyp_values == other.hyp_values
        )

    def __repr__(self) -> str:
        return (
            f"HarvestAggregate(n_runs={self.n_runs}, "
            f"pairs={len(self.true_pairs)}+{len(self.false_pairs)}, "
            f"code={len(self.code_candidates)})"
        )


# --------------------------------------------------------------------------
# records in, directives out
# --------------------------------------------------------------------------
def _aggregate(records: Iterable[RunRecord] | RunRecord) -> HarvestAggregate:
    if isinstance(records, RunRecord):
        records = (records,)
    return HarvestAggregate.of_summaries(summarize_record(r) for r in records)


def extract_priorities(records: Sequence[RunRecord]) -> List[PriorityDirective]:
    """:meth:`HarvestAggregate.priorities` over *records*."""
    return _aggregate(records).priorities()


def extract_general_prunes(
    record: Optional[RunRecord] = None,
    hypotheses: Optional[HypothesisTree] = None,
) -> List[PruneDirective]:
    """:meth:`HarvestAggregate.general_prunes` for one record's environment
    (``None``: the environment-independent prunes alone)."""
    return _aggregate(() if record is None else record).general_prunes(hypotheses)


def extract_historic_prunes(
    records: Sequence[RunRecord],
    min_exec_fraction: float = 0.005,
) -> List[PruneDirective]:
    """:meth:`HarvestAggregate.historic_prunes` over *records*."""
    return _aggregate(records).historic_prunes(min_exec_fraction)


def extract_pair_prunes(records: Sequence[RunRecord]) -> List[PairPruneDirective]:
    """:meth:`HarvestAggregate.pair_prunes` over *records*."""
    return _aggregate(records).pair_prunes()


def extract_thresholds(
    records: Sequence[RunRecord],
    hypotheses: Optional[HypothesisTree] = None,
) -> List[ThresholdDirective]:
    """:meth:`HarvestAggregate.thresholds` over *records*."""
    return _aggregate(records).thresholds(hypotheses)


def extract_directives(
    records: Sequence[RunRecord] | RunRecord,
    **options,
) -> DirectiveSet:
    """Build a full directive set from one or more stored runs:
    :meth:`HarvestAggregate.finalize` (which documents *options*) over
    their summaries."""
    return _aggregate(records).finalize(**options)
