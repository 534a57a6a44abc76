"""Crash-consistency torture: seeded fault/kill schedules vs the store.

The store's consistency claim is simple to state and easy to break: a
writer killed — or fed EIO/ENOSPC/a failed rename — at *any* I/O call
boundary leaves the merged index view equal to the state after some
prefix of the completed operations, never a third thing, and every
payload the surviving index references still loads and verifies.  This
module turns that claim into an executable check:

1. build a small seed store fault-free;
2. derive a deterministic operation schedule from the seed (saves,
   overwrites, deletes, compactions — or a federated harvest, or the
   open that converts a store laid down in the oldest layout or in the
   segmented layout 1 the previous release wrote, with the plan armed
   before it, or a small diagnosis campaign saving into the store);
3. replay the schedule **fault-free on a pristine clone**, recording
   the canonical index view after every operation — the *chain* of
   legal states;
4. replay it again on a second clone with a seeded
   :class:`~repro.faults.io.IOFaultPlan` armed, stopping at the first
   unrecovered failure (a :class:`SimulatedCrash` abandons the store
   object exactly as a killed process would);
5. re-open the stressed clone with a fresh store — the restarted
   process — and assert its view is *in the chain*, all its payloads
   verify, and the persisted harvest aggregate is absent or equal to a
   fold over the summary scan (never wrong).  A campaign schedule then
   resumes the campaign fault-free on the reopened store, which must
   land exactly on the chain's final state.

Views are compared without ``seq`` values (a retried save legitimately
burns sequence numbers; ordering still must match) and a divergence
report always carries the seed, so any failure replays with
``run_schedule(seed)``.

Transient faults (``times``-bounded EIO) are expected to be *absorbed*
by the store's one retry layer, the guarded call every
:class:`~repro.storage.store.ExperimentStore` operation goes through
(the backend never retries on its own) — schedules where retry recovers complete
end-to-end and must land exactly on the final chain state.

``tests/test_store_torture.py`` runs a slice of the matrix in tier 1.
Run as a script, this module is the CI-scale campaign:

    python tests/store_torture.py --seeds 80 --check

It writes ``results/TORTURE_store.json``; ``--check`` exits nonzero when
any schedule diverged (the report names the exact ``run_schedule(seed)``
call that reproduces it) or when the matrix is too small to mean
anything.  All schedules are deterministic in the seed, so a CI failure
replays locally bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: make ``repro`` importable
    sys.path.insert(0, str(REPO / "src"))

from repro.apps.synthetic import make_pingpong  # noqa: E402
from repro.campaign import Campaign, RunSpec  # noqa: E402
from repro.core import SearchConfig  # noqa: E402
from repro.core.extraction import HarvestAggregate  # noqa: E402
from repro.facade import harvest  # noqa: E402
from repro.faults import io as io_faults  # noqa: E402
from repro.faults.io import IOFaultPlan, SimulatedCrash  # noqa: E402
from repro.resilience import ResiliencePolicy  # noqa: E402
from repro.storage.file_backend import _envelope  # noqa: E402
from repro.storage.records import RunRecord  # noqa: E402
from repro.storage.store import ExperimentStore  # noqa: E402
from repro.storage.summary import meta_for_record  # noqa: E402

RESULTS_DIR = REPO / "results"

#: --check refuses matrices below this size: a handful of schedules
#: passing says nothing about crash consistency.
MIN_SCHEDULES = 80


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
    """A deterministic record whose payload (and summary) vary with *tag*:
    one true and one false ``[hypothesis, focus]`` pair, shared with
    some of the other tags, so index files carry a real pair table."""
    nodes = [
        {"id": i, "hypothesis": hyp, "focus": f"< /Code/f{(tag + i) % 3}.c >",
         "state": state, "priority": "medium", "persistent": False,
         "value": 0.5, "t_requested": 0.0, "t_concluded": 1.0,
         "quality": None, "parents": [], "children": []}
        for i, (hyp, state) in enumerate(
            (("CPUbound", "true"), ("ExcessiveSyncWaitingTime", "false")))
    ]
    return RunRecord(
        run_id=run_id,
        app_name=app,
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=nodes,
        profile={},
        finish_time=1.0 + tag,
        search_done_time=None,
        pairs_tested=tag,
        total_requests=tag,
        peak_cost=float(tag),
    )


def _open(root: Path,
          policy: Optional[ResiliencePolicy] = None) -> ExperimentStore:
    return ExperimentStore(
        root, auto_compact=0,
        resilience=policy if policy is not None else False,
    )


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


def _build_base(root: Path, records: Sequence[RunRecord]) -> None:
    store = _open(root)
    for record in records:
        store.save(record)


def run_schedule(seed: int, workdir: Optional[Path] = None) -> dict:
    """One torture schedule; returns its result dict (see module doc).

    Deterministic in *seed*: the op sequence, the fault plan, and every
    record payload derive from the seed alone.
    """
    owns_workdir = workdir is None
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-torture-"))
    tag = f"s{seed}"
    try:
        rng = random.Random(seed)
        initial = [_record(f"r{i}", i) for i in range(3)]
        base = workdir / f"{tag}-base"
        _build_base(base, initial)

        roll = rng.random()
        if roll < 0.5:
            scenario = "ops"
        elif roll < 0.6:
            scenario = "campaign-resume"
        elif roll < 0.9:
            scenario = "harvest"
        else:
            scenario = "convert"
        runner = {"ops": _schedule_ops,
                  "campaign-resume": _schedule_campaign_resume,
                  "harvest": _schedule_harvest,
                  "convert": _schedule_convert}[scenario]
        result = runner(seed, rng, workdir, tag, base, initial)
        result.update({"seed": seed, "scenario": scenario})
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


def _stress(roots: Dict[str, Path], seed: int, body) -> Tuple[str, list]:
    """Open resilient stores over *roots*, arm the seeded plan, run *body*.

    Returns ``(outcome, faults_fired)``.  The plan is armed strictly
    after the stores are opened so call indices count operations, not
    setup (a *body* that opens its own store puts the open under test),
    and is always disarmed on the way out.
    """
    policy = _fast_policy(seed)
    stores = {key: _open(root, policy) for key, root in roots.items()}
    plan = IOFaultPlan.random(seed, max_faults=3, horizon=24)
    outcome = "completed"
    with io_faults.injected(plan) as injector:
        try:
            body(stores)
        except SimulatedCrash as exc:
            outcome = f"crashed: {exc}"
        except Exception as exc:
            outcome = f"failed: {type(exc).__name__}: {exc}"
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


def _check(root: Path,
           chain: List[str]) -> Tuple[bool, Optional[str], Optional[str]]:
    """Re-open *root* as a fresh process would and judge its state:
    ``(view in chain, payload error, aggregate error)``."""
    reopened = _open(root)
    return (store_view(reopened) in chain, _verify_payloads(reopened),
            _verify_aggregate(reopened))


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


def _schedule_ops(seed: int, rng: random.Random, workdir: Path,
                  tag: str, base: Path, initial: Sequence[RunRecord]) -> dict:
    ops = _make_ops(rng, [r.run_id for r in initial])

    clean = workdir / f"{tag}-clean"
    shutil.copytree(base, clean)
    store = _open(clean)
    chain = [store_view(store)]
    for op in ops:
        _apply(store, op)
        chain.append(store_view(store))

    fault = workdir / f"{tag}-fault"
    shutil.copytree(base, fault)

    def body(stores):
        for op in ops:
            _apply(stores["store"], op)

    outcome, fired = _stress({"store": fault}, seed, body)
    return _verdict([op[0] for op in ops], outcome, fired, len(chain),
                    _check(fault, chain))


def _schedule_harvest(seed: int, rng: random.Random,
                      workdir: Path, tag: str, base: Path,
                      initial: Sequence[RunRecord]) -> dict:
    peer_base = workdir / f"{tag}-peer-base"
    _build_base(peer_base, [_record(f"p{i}", 10 + i) for i in range(2)])

    # harvest is read-only: the only legal post-state is the pre-state
    chains = {key: [store_view(_open(root))]
              for key, root in (("store", base), ("peer", peer_base))}

    fault = workdir / f"{tag}-fault"
    shutil.copytree(base, fault)
    fault_peer = workdir / f"{tag}-fault-peer"
    shutil.copytree(peer_base, fault_peer)

    def body(stores):
        harvest([stores["store"], stores["peer"]])

    outcome, fired = _stress({"store": fault, "peer": fault_peer}, seed, body)
    return _verdict(["harvest"], outcome, fired, 1,
                    _check(fault, chains["store"]),
                    _check(fault_peer, chains["peer"]))


def _lay_down_oldest(root: Path, records: Sequence[RunRecord]) -> None:
    """A file store in the oldest layout the converter reads: a bare
    format-2 index without summaries, the first record a checksum-less
    format-1 dict (the others as the current writer writes them), a
    format-1 sidecar (claiming, wrongly, to cover the base) and no claim
    file."""
    root.mkdir(parents=True)
    runs = {}
    for seq, record in enumerate(records):
        (root / f"{record.run_id}.json").write_text(
            json.dumps(record.to_dict()) if seq == 0
            else "".join(_envelope(record.encoded())))
        runs[record.run_id] = {k: v for k, v in meta_for_record(record).items()
                               if k != "summary"} | {"seq": seq}
    (root / "index.json").write_text(json.dumps(runs))
    st = (root / "index.json").stat()
    (root / "index.aggregate").write_text(json.dumps({
        "format": 1, "base_sig": [st.st_ino, st.st_mtime_ns, st.st_size],
        "max_seq": -1, "all": HarvestAggregate().to_dict(), "by_app": {}}))


def _lay_down_layout1(root: Path, records: Sequence[RunRecord]) -> None:
    """A file store in the segmented layout 1 an older release wrote
    (its records as the current writer writes them): a format-3 base
    holding the first record, one format-1 segment per further record
    with every pair spelled out as two strings, a format-2 sidecar
    covering them all and a claim file stamped 1."""
    (root / "segments").mkdir(parents=True)
    metas = [dict(meta_for_record(r), seq=seq) for seq, r in enumerate(records)]
    for record in records:
        (root / f"{record.run_id}.json").write_text(
            "".join(_envelope(record.encoded())))
    (root / "index.json").write_text(json.dumps({
        "format": 3, "generation": 1,
        "runs": {records[0].run_id: metas[0]}}))
    names = []
    for counter, (record, meta) in enumerate(zip(records[1:], metas[1:])):
        names.append(f"{counter:012d}.json")
        (root / "segments" / names[-1]).write_text(json.dumps({
            "format": 1,
            "ops": [{"op": "put", "run_id": record.run_id, "meta": meta}]}))
    (root / "segments" / "_state.json").write_text(json.dumps({
        "next_seq": len(records), "counter": len(names), "generation": 1,
        "format": 1}))
    by_app: Dict[str, list] = {}
    for meta in metas:
        by_app.setdefault(meta["app_name"], []).append(meta["summary"])
    st = (root / "index.json").stat()
    (root / "index.aggregate").write_text(json.dumps({
        "format": 2, "base_sig": [st.st_ino, st.st_mtime_ns, st.st_size],
        "through": names[-1], "max_seq": len(records) - 1,
        "all": HarvestAggregate.of_summaries(
            meta["summary"] for meta in metas).to_dict(),
        "by_app": {app: HarvestAggregate.of_summaries(s).to_dict()
                   for app, s in by_app.items()}}))


def _schedule_convert(seed: int, rng: random.Random,
                      workdir: Path, tag: str, base: Path,
                      initial: Sequence[RunRecord]) -> dict:
    """The open that converts a store of an older layout — the oldest or
    layout 1, drawn from the seed — faults armed before it: the only
    legal post-state is the converted one."""
    layout, lay_down = (("layout1", _lay_down_layout1) if rng.random() < 0.5
                        else ("oldest", _lay_down_oldest))
    clean, fault = workdir / f"{tag}-clean", workdir / f"{tag}-fault"
    for root in (clean, fault):
        lay_down(root, initial)
    chain = [store_view(_open(clean))]

    def body(_stores):
        _open(fault, _fast_policy(seed)).harvest_evidence()

    outcome, fired = _stress({}, seed, body)
    return _verdict([f"convert {layout}"], outcome, fired, 1,
                    _check(fault, chain))


def _campaign() -> Campaign:
    """Four short, deterministic diagnoses: equal runs save equal metas."""
    config = SearchConfig(min_interval=5.0, check_period=0.5,
                          insertion_latency=0.2, cost_limit=50.0)
    return Campaign(specs=[
        RunSpec(make_pingpong, builder_kwargs={"iterations": 20}, config=config)
        for _ in range(4)], name="camp", retries=0)


def _schedule_campaign_resume(seed: int, rng: random.Random,
                              workdir: Path, tag: str, base: Path,
                              initial: Sequence[RunRecord]) -> dict:
    """A campaign saving into the faulted clone, then — the restarted
    process — a fault-free ``resume=True`` on the reopened store: the
    post-crash view is in the chain (one state per saved run), and the
    resumed store is exactly its final state."""
    clean = workdir / f"{tag}-clean"
    shutil.copytree(base, clean)
    store = _open(clean)
    chain = [store_view(store)]

    def saved(event: dict) -> None:
        if event["event"] == "run-finished":
            chain.append(store_view(store))

    _campaign().run(store=store, progress=saved)

    fault = workdir / f"{tag}-fault"
    shutil.copytree(base, fault)
    outcome, fired = _stress(
        {"store": fault}, seed,
        lambda stores: _campaign().run(store=stores["store"]))
    crashed = _check(fault, chain)
    try:
        _campaign().run(store=_open(fault), resume=True)
        resumed = _check(fault, chain[-1:])
    except Exception as exc:
        resumed = (False, f"resume: {type(exc).__name__}: {exc}", None)
    return _verdict(["campaign", "resume"], outcome, fired, len(chain),
                    crashed, resumed)


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
                f"  DIVERGENCE seed={bad['seed']} "
                f"scenario={bad['scenario']} outcome={bad['outcome']} "
                f"payload_error={bad['payload_error']} "
                f"aggregate_error={bad['aggregate_error']} — reproduce with "
                f"run_schedule({bad['seed']})"
            )
        return "\n".join(lines)


def run_torture(
    seeds: Sequence[int] = range(20),
    workdir: Optional[Path] = None,
) -> TortureReport:
    """The full matrix: one schedule per seed, one report."""
    owns_workdir = workdir is None
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-torture-"))
    report = TortureReport()
    try:
        for seed in seeds:
            report.schedules.append(run_schedule(seed, workdir))
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-consistency torture campaign for the experiment store.")
    parser.add_argument("--seeds", type=int, default=80,
                        help="fault/kill schedules, one per seed (default 80)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the range (replay a CI window "
                             "locally by matching its base)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any divergence or when the "
                             f"matrix is smaller than {MIN_SCHEDULES}")
    args = parser.parse_args(argv)

    seeds = range(args.seed_base, args.seed_base + args.seeds)

    start = time.perf_counter()
    report = run_torture(seeds=seeds)
    wall = time.perf_counter() - start
    print(report)
    print(f"{len(report.schedules)} schedule(s) in {wall:.1f} s "
          f"({len(report.schedules) / wall:.1f}/s)")

    results = {
        "workload": {
            "seed_base": args.seed_base,
            "seeds": args.seeds,
        },
        "wall_s": wall,
        "report": report.to_dict(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "TORTURE_store.json"
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        if report.divergences:
            print(f"FAIL: {len(report.divergences)} divergent schedule(s)")
            return 1
        if len(report.schedules) < MIN_SCHEDULES:
            print(f"FAIL: only {len(report.schedules)} schedules; "
                  f"--check needs >= {MIN_SCHEDULES}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
