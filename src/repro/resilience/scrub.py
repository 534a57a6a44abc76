"""Store scrub: verify every record and index entry (``repro store verify``).

The torture harness proves crash prefixes land in a known-good state;
the scrub is the operational tool for the state you actually have — a
store of unknown history.  It walks the merged index and checks, for
every run:

* the payload **loads and checksum-verifies** — a corrupt payload is
  quarantined exactly as a normal read would quarantine it, and the
  scrub records where the bytes went;
* the payload **parses as a run record** — a valid envelope around a
  malformed record is reported (``invalid``) but left in place for
  ``rebuild`` to quarantine, so scrub stays read-mostly;
* the index summary **matches a recompute** from the payload
  (``summary_divergent``) — the known overwrite-crash window where the
  payload rename landed but the index segment did not; ``rebuild``
  regenerates the summary from the surviving payload.  Both sides'
  ``hyp_values`` are compared as bucket maxima, so an older entry that
  holds every observed value matches the recompute it folds alike to.

It also reports **orphans**: record files on disk that no index entry
references (the post-state of a crashed ``delete``, or a ``put`` that
died before sealing its segment).  Orphans are not touched —
``rebuild`` re-adopts them by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Tuple

from ..storage.api import StoreCorruption, StoreError, StoreUnavailable
from ..storage.file_backend import record_files
from ..storage.records import RunRecord
from ..storage.summary import bucket_maxima, summarize_record

__all__ = ["ScrubReport", "verify_store"]


@dataclass
class ScrubReport:
    """What one ``repro store verify`` pass found."""

    backend: str
    root: str
    #: Index entries examined.
    checked: int = 0
    #: Runs whose payload passed every check.
    ok: int = 0
    #: ``(run_id, reason)`` for payloads that failed checksum (now
    #: quarantined) or could not be read.
    corrupt: List[Tuple[str, str]] = field(default_factory=list)
    #: Index entries whose payload is gone.
    missing: List[str] = field(default_factory=list)
    #: Checksum-valid payloads that do not parse as run records.
    invalid: List[Tuple[str, str]] = field(default_factory=list)
    #: Runs whose indexed summary disagrees with a recompute.
    summary_divergent: List[str] = field(default_factory=list)
    #: On-disk record files no index entry references.
    orphans: List[str] = field(default_factory=list)
    #: Quarantine destinations produced by this scrub.
    quarantined: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No finding that loses or misrepresents data (orphans are
        benign leftovers, not divergences)."""
        return not (self.corrupt or self.missing or self.invalid
                    or self.summary_divergent)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "root": self.root,
            "checked": self.checked,
            "ok": self.ok,
            "clean": self.clean,
            "corrupt": [list(item) for item in self.corrupt],
            "missing": list(self.missing),
            "invalid": [list(item) for item in self.invalid],
            "summary_divergent": list(self.summary_divergent),
            "orphans": list(self.orphans),
            "quarantined": list(self.quarantined),
        }

    def __str__(self) -> str:
        lines = [f"verified {self.checked} record(s): {self.ok} ok"]
        for label, items in (
            ("corrupt (quarantined)", self.corrupt),
            ("missing payload", self.missing),
            ("invalid record", self.invalid),
            ("summary divergent", self.summary_divergent),
            ("orphaned file", self.orphans),
        ):
            for item in items:
                if isinstance(item, tuple):
                    lines.append(f"  {label}: {item[0]} ({item[1]})")
                else:
                    lines.append(f"  {label}: {item}")
        if not self.clean:
            lines.append("store is NOT clean — run 'repro store rebuild' "
                         "to regenerate the index from surviving payloads")
        return "\n".join(lines)


def verify_store(store) -> ScrubReport:
    """Scrub *store* (an :class:`~repro.storage.store.ExperimentStore`).

    Reads go through the backend's normal verified path, so corrupt
    payloads are quarantined as a side effect exactly once; everything
    else is reported without mutation.  Each payload read is the store's
    guarded call (retried like any other read) on the backend itself, so
    the record cache never answers for the bytes on disk.
    """
    backend = store.backend
    report = ScrubReport(backend=backend.name, root=str(store.root))
    entries = store.summaries()
    for run_id, meta in entries.items():
        report.checked += 1
        try:
            payload = store._call(backend.get, run_id)
        except StoreCorruption as exc:
            report.corrupt.append((run_id, str(exc)))
            if exc.quarantined_to is not None:
                report.quarantined.append(str(exc.quarantined_to))
            continue
        except StoreUnavailable:
            raise  # the store is unreachable: that says nothing of the run
        except StoreError:
            report.missing.append(run_id)
            continue
        try:
            record = RunRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            report.invalid.append((run_id, f"{type(exc).__name__}: {exc}"))
            continue
        indexed = meta.get("summary")
        if isinstance(indexed, dict):
            recomputed = summarize_record(record)
            if _canonical(_bucketed(indexed)) != _canonical(recomputed):
                report.summary_divergent.append(run_id)
                continue
        report.ok += 1

    for path in sorted(record_files(store.root)):
        if path.stem not in entries:
            report.orphans.append(path.name)
    return report


def _bucketed(summary: dict) -> dict:
    """*summary* with ``hyp_values`` reduced as a save reduces it now
    (a no-op on such an entry; a malformed one is left to diverge)."""
    try:
        return dict(summary, hyp_values=bucket_maxima(summary["hyp_values"]))
    except (KeyError, AttributeError, TypeError):
        return summary


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
