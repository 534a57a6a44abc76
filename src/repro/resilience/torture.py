"""Crash-consistency torture: seeded fault/kill schedules vs the store.

The store's consistency claim is simple to state and easy to break: a
writer killed — or fed EIO/ENOSPC/lock contention — at *any* I/O call
boundary leaves the merged index view equal to the state after some
prefix of the completed operations, never a third thing, and every
payload the surviving index references still loads and verifies.  This
module turns that claim into an executable check:

1. build a small seed store fault-free;
2. derive a deterministic operation schedule from the seed (saves,
   overwrites, deletes, compactions — or a cross-backend migration, a
   federated harvest, or, on ``file``, the open that converts a store
   laid down in the oldest layout, with the plan armed before it);
3. replay the schedule **fault-free on a pristine clone**, recording
   the canonical index view after every operation — the *chain* of
   legal states;
4. replay it again on a second clone with a seeded
   :class:`~repro.faults.io.IOFaultPlan` armed, stopping at the first
   unrecovered failure (a :class:`SimulatedCrash` abandons the store
   object exactly as a killed process would);
5. re-open the stressed clone with a fresh store — the restarted
   process — and assert its view is *in the chain*, all its payloads
   verify, and the backend's persisted harvest aggregate is absent or
   equal to a fold over the summary scan (never wrong).

Views are compared without ``seq`` values (a retried save legitimately
burns sequence numbers; ordering still must match) and a divergence
report always carries the backend + seed, so any failure replays with
``run_schedule(backend, seed)``.

Transient faults (``times``-bounded EIO, SQLITE_BUSY) are expected to be
*absorbed* by the store's one retry layer,
:class:`~repro.resilience.backend.ResilientBackend` (the backends never
retry on their own) — schedules where retry recovers complete
end-to-end and must land exactly on the final chain state.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.extraction import HarvestAggregate
from ..faults import io as io_faults
from ..faults.io import IOFaultPlan, SimulatedCrash
from ..storage.file_backend import _checksum
from ..storage.records import RunRecord
from ..storage.store import ExperimentStore, migrate_store
from ..storage.summary import meta_for_record
from .backend import ResiliencePolicy

__all__ = ["TortureReport", "run_schedule", "run_torture", "TORTURE_BACKENDS"]

TORTURE_BACKENDS = ("file", "sqlite")


def _no_sleep(_delay: float) -> None:
    """Torture retries back off logically, never in wall-clock time."""


def _fast_policy(seed: int) -> ResiliencePolicy:
    return ResiliencePolicy(
        attempts=3,
        base_delay=1e-4,
        max_delay=1e-3,
        deadline_s=60.0,
        seed=seed,
        sleep=_no_sleep,
    )


def _record(run_id: str, tag: int, app: str = "torture") -> RunRecord:
    """A deterministic record whose payload (and summary) vary with *tag*."""
    return RunRecord(
        run_id=run_id,
        app_name=app,
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0 + tag,
        search_done_time=None,
        pairs_tested=tag,
        total_requests=tag,
        peak_cost=float(tag),
    )


def _open(root: Path, backend: str,
          policy: Optional[ResiliencePolicy] = None) -> ExperimentStore:
    return ExperimentStore(
        root, backend=backend, auto_compact=0,
        resilience=policy if policy is not None else False,
    )


def _close(store: ExperimentStore) -> None:
    close = getattr(store.backend, "close", None)
    if close is not None:
        try:
            close()
        except Exception:
            pass


def store_view(store: ExperimentStore) -> str:
    """The canonical index view: run ids + metas in seq *order*, with the
    raw ``seq`` values stripped (retries may burn them legitimately)."""
    view = [
        [run_id, {k: v for k, v in meta.items() if k != "seq"}]
        for run_id, meta in store.summaries().items()
    ]
    return json.dumps(view, sort_keys=True, separators=(",", ":"))


def _verify_payloads(store: ExperimentStore) -> Optional[str]:
    """Every indexed payload must load and checksum-verify."""
    try:
        for run_id in store.list():
            store.load(run_id)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _apply(store: ExperimentStore, op: Tuple[str, object]) -> None:
    kind, arg = op
    if kind == "save":
        store.save(arg)
    elif kind == "overwrite":
        store.save(arg, overwrite=True)
    elif kind == "delete":
        store.delete(arg)
    elif kind == "compact":
        store.compact()
    else:  # pragma: no cover - schedule generator bug
        raise ValueError(f"unknown torture op {kind!r}")


def _make_ops(rng: random.Random, known: List[str]) -> List[Tuple[str, object]]:
    ops: List[Tuple[str, object]] = []
    next_id = len(known)
    for _ in range(rng.randint(3, 6)):
        roll = rng.random()
        if roll < 0.45 or not known:
            run_id = f"r{next_id}"
            ops.append(("save", _record(run_id, next_id)))
            known.append(run_id)
            next_id += 1
        elif roll < 0.65:
            run_id = rng.choice(known)
            ops.append(("overwrite", _record(run_id, 100 + next_id)))
            next_id += 1
        elif roll < 0.85:
            run_id = rng.choice(known)
            known.remove(run_id)
            ops.append(("delete", run_id))
        else:
            ops.append(("compact", None))
    return ops


def _build_base(root: Path, backend: str, records: Sequence[RunRecord]) -> None:
    store = _open(root, backend)
    for record in records:
        store.save(record)
    _close(store)


def run_schedule(backend: str, seed: int,
                 workdir: Optional[Path] = None) -> dict:
    """One torture schedule; returns its result dict (see module doc).

    Deterministic in (backend, seed): the op sequence, the fault plan,
    and every record payload derive from the seed alone.
    """
    owns_workdir = workdir is None
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-torture-"))
    tag = f"{backend}-{seed}"
    try:
        rng = random.Random(seed)
        initial = [_record(f"r{i}", i) for i in range(3)]
        base = workdir / f"{tag}-base"
        _build_base(base, backend, initial)

        roll = rng.random()
        if roll < 0.6:
            scenario = "ops"
        elif roll < 0.8:
            scenario = "migrate"
        elif backend == "file" and roll >= 0.9:
            scenario = "convert"
        else:
            scenario = "harvest"
        runner = {"ops": _schedule_ops,
                  "migrate": _schedule_migrate,
                  "harvest": _schedule_harvest,
                  "convert": _schedule_convert}[scenario]
        result = runner(backend, seed, rng, workdir, tag, base, initial)
        result.update({"backend": backend, "seed": seed, "scenario": scenario})
        result["divergent"] = (
            not result.pop("view_in_chain")
            or result["payload_error"] is not None
            or result["aggregate_error"] is not None
        )
        return result
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            for child in workdir.glob(f"{tag}-*"):
                shutil.rmtree(child, ignore_errors=True)


def _stress(roots: Dict[str, Tuple[Path, str]], seed: int, body) -> Tuple[str, list]:
    """Open resilient stores over *roots*, arm the seeded plan, run *body*.

    Returns ``(outcome, faults_fired)``.  The plan is armed strictly
    after the stores are opened so call indices count operations, not
    setup (a *body* that opens its own store puts the open under test),
    and is always disarmed on the way out.
    """
    policy = _fast_policy(seed)
    stores = {key: _open(root, backend, policy)
              for key, (root, backend) in roots.items()}
    plan = IOFaultPlan.random(seed, max_faults=3, horizon=24)
    outcome = "completed"
    with io_faults.injected(plan) as injector:
        try:
            body(stores)
        except SimulatedCrash as exc:
            outcome = f"crashed: {exc}"
        except Exception as exc:
            outcome = f"failed: {type(exc).__name__}: {exc}"
    for store in stores.values():
        _close(store)
    return outcome, list(injector.injected)


def _verify_aggregate(store: ExperimentStore) -> Optional[str]:
    """The persisted harvest aggregate is ``None`` (rescan) or exact."""
    try:
        persisted = store.backend.harvest_aggregate()
        if persisted is not None and persisted != HarvestAggregate.of_summaries(
                meta["summary"] for meta in store.summaries().values()):
            return "persisted harvest aggregate differs from the summary scan"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _check(root: Path, backend: str,
           chain: List[str]) -> Tuple[bool, Optional[str], Optional[str]]:
    """Re-open *root* as a fresh process would and judge its state:
    ``(view in chain, payload error, aggregate error)``."""
    reopened = _open(root, backend)
    in_chain = store_view(reopened) in chain
    payload_error = _verify_payloads(reopened)
    aggregate_error = _verify_aggregate(reopened)
    _close(reopened)
    return in_chain, payload_error, aggregate_error


def _verdict(ops: List[str], outcome: str, fired: list, chain_len: int,
             *checks: Tuple[bool, Optional[str], Optional[str]]) -> dict:
    """One schedule's result from its :func:`_check` verdicts: every
    view in its chain, the first payload and aggregate errors."""
    return {
        "ops": ops,
        "outcome": outcome,
        "faults_fired": fired,
        "chain_len": chain_len,
        "view_in_chain": all(c[0] for c in checks),
        "payload_error": next((c[1] for c in checks if c[1]), None),
        "aggregate_error": next((c[2] for c in checks if c[2]), None),
    }


def _schedule_ops(backend: str, seed: int, rng: random.Random, workdir: Path,
                  tag: str, base: Path, initial: Sequence[RunRecord]) -> dict:
    ops = _make_ops(rng, [r.run_id for r in initial])

    clean = workdir / f"{tag}-clean"
    shutil.copytree(base, clean)
    store = _open(clean, backend)
    chain = [store_view(store)]
    for op in ops:
        _apply(store, op)
        chain.append(store_view(store))
    _close(store)

    fault = workdir / f"{tag}-fault"
    shutil.copytree(base, fault)

    def body(stores):
        for op in ops:
            _apply(stores["store"], op)

    outcome, fired = _stress({"store": (fault, backend)}, seed, body)
    return _verdict([op[0] for op in ops], outcome, fired, len(chain),
                    _check(fault, backend, chain))


def _schedule_migrate(backend: str, seed: int, rng: random.Random,
                      workdir: Path, tag: str, base: Path,
                      initial: Sequence[RunRecord]) -> dict:
    dest_backend = rng.choice(TORTURE_BACKENDS)

    # clean chain: the destination view grows one record at a time
    clean_src = workdir / f"{tag}-clean-src"
    shutil.copytree(base, clean_src)
    src = _open(clean_src, backend)
    dest = _open(workdir / f"{tag}-clean-dest", dest_backend)
    chain = [store_view(dest)]
    for run_id in src.list():
        dest.save(src.load(run_id))
        chain.append(store_view(dest))
    _close(src)
    _close(dest)

    fault_src = workdir / f"{tag}-fault-src"
    shutil.copytree(base, fault_src)
    fault_dest = workdir / f"{tag}-fault-dest"

    def body(stores):
        migrate_store(stores["src"], stores["dest"])

    outcome, fired = _stress(
        {"src": (fault_src, backend), "dest": (fault_dest, dest_backend)},
        seed, body,
    )
    dest_check = _check(fault_dest, dest_backend, chain)
    src_probe = _open(fault_src, backend)
    src_check = (True, _verify_payloads(src_probe), None)
    _close(src_probe)
    return _verdict([f"migrate->{dest_backend}"], outcome, fired, len(chain),
                    dest_check, src_check)


def _schedule_harvest(backend: str, seed: int, rng: random.Random,
                      workdir: Path, tag: str, base: Path,
                      initial: Sequence[RunRecord]) -> dict:
    from ..facade import harvest  # local: facade imports this package

    peer_backend = rng.choice(TORTURE_BACKENDS)
    peer_base = workdir / f"{tag}-peer-base"
    _build_base(peer_base, peer_backend,
                [_record(f"p{i}", 10 + i) for i in range(2)])

    # harvest is read-only: the only legal post-state is the pre-state
    chains = {}
    for key, (root, b) in (("store", (base, backend)),
                           ("peer", (peer_base, peer_backend))):
        probe = _open(root, b)
        chains[key] = [store_view(probe)]
        _close(probe)

    fault = workdir / f"{tag}-fault"
    shutil.copytree(base, fault)
    fault_peer = workdir / f"{tag}-fault-peer"
    shutil.copytree(peer_base, fault_peer)

    def body(stores):
        harvest([stores["store"], stores["peer"]])

    outcome, fired = _stress(
        {"store": (fault, backend), "peer": (fault_peer, peer_backend)},
        seed, body,
    )
    return _verdict([f"harvest+{peer_backend}"], outcome, fired, 1,
                    _check(fault, backend, chains["store"]),
                    _check(fault_peer, peer_backend, chains["peer"]))


def _lay_down_oldest(root: Path, records: Sequence[RunRecord]) -> None:
    """A file store in the oldest layout the converter reads: a bare
    format-2 index without summaries, the first record a checksum-less
    format-1 dict, a format-1 sidecar (claiming, wrongly, to cover the
    base) and no claim file."""
    root.mkdir(parents=True)
    runs = {}
    for seq, record in enumerate(records):
        payload = record.to_dict()
        body = payload if seq == 0 else {
            "format": 2, "sha256": _checksum(payload), "record": payload}
        (root / f"{record.run_id}.json").write_text(json.dumps(body))
        runs[record.run_id] = {k: v for k, v in meta_for_record(record).items()
                               if k != "summary"} | {"seq": seq}
    (root / "index.json").write_text(json.dumps(runs))
    st = (root / "index.json").stat()
    (root / "index.aggregate").write_text(json.dumps({
        "format": 1, "base_sig": [st.st_ino, st.st_mtime_ns, st.st_size],
        "max_seq": -1, "all": HarvestAggregate().to_dict(), "by_app": {}}))


def _schedule_convert(backend: str, seed: int, rng: random.Random,
                      workdir: Path, tag: str, base: Path,
                      initial: Sequence[RunRecord]) -> dict:
    """The open that converts an oldest-layout store, faults armed
    before it: the only legal post-state is the converted one."""
    clean, fault = workdir / f"{tag}-clean", workdir / f"{tag}-fault"
    for root in (clean, fault):
        _lay_down_oldest(root, initial)
    probe = _open(clean, backend)
    chain = [store_view(probe)]
    _close(probe)

    def body(_stores):
        _open(fault, backend, _fast_policy(seed)).harvest_evidence()

    outcome, fired = _stress({}, seed, body)
    return _verdict(["convert"], outcome, fired, 1,
                    _check(fault, backend, chain))


@dataclass
class TortureReport:
    """Aggregate of one torture campaign."""

    schedules: List[dict] = field(default_factory=list)

    @property
    def divergences(self) -> List[dict]:
        return [s for s in self.schedules if s["divergent"]]

    @property
    def crashed(self) -> int:
        return sum(1 for s in self.schedules
                   if s["outcome"].startswith("crashed"))

    @property
    def completed(self) -> int:
        return sum(1 for s in self.schedules if s["outcome"] == "completed")

    def to_dict(self) -> dict:
        return {
            "schedules": len(self.schedules),
            "completed": self.completed,
            "crashed": self.crashed,
            "divergences": self.divergences,
            "results": self.schedules,
        }

    def __str__(self) -> str:
        lines = [
            f"{len(self.schedules)} schedule(s): {self.completed} completed, "
            f"{self.crashed} crashed, "
            f"{len(self.schedules) - self.completed - self.crashed} failed "
            f"mid-schedule, {len(self.divergences)} DIVERGENT"
        ]
        for bad in self.divergences:
            lines.append(
                f"  DIVERGENCE backend={bad['backend']} seed={bad['seed']} "
                f"scenario={bad['scenario']} outcome={bad['outcome']} "
                f"payload_error={bad['payload_error']} "
                f"aggregate_error={bad['aggregate_error']} — reproduce with "
                f"run_schedule({bad['backend']!r}, {bad['seed']})"
            )
        return "\n".join(lines)


def run_torture(
    backends: Sequence[str] = TORTURE_BACKENDS,
    seeds: Sequence[int] = range(20),
    workdir: Optional[Path] = None,
) -> TortureReport:
    """The full matrix: every backend × every seed, one report."""
    owns_workdir = workdir is None
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-torture-"))
    report = TortureReport()
    try:
        for backend in backends:
            for seed in seeds:
                report.schedules.append(run_schedule(backend, seed, workdir))
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
