"""Command-line interface.

The workflows of the paper as shell commands around an experiment store::

    repro diagnose poisson --app-version C --store runs/            # base run
    repro extract --store runs/ poisson-C-0001 --out c.directives
    repro diagnose poisson --app-version C --store runs/ \\
          --directives c.directives                                  # directed
    repro report --store runs/ poisson-C-0002 --shg
    repro combine --union a.directives b.directives --out ab.directives
    repro automap --store runs/ poisson-A-0001 poisson-B-0001 --out ab.maps
    repro list --store runs/
    repro campaign poisson --runs 8 --workers 4 --directed --store runs/
    repro diagnose poisson --store runs/ --trace
    repro trace poisson-C-0002 --store runs/
    repro report --store runs/ poisson-C-0002 --metrics
    repro store verify --store runs/                    # scrub the archive
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import Table, comparison_report
from .apps.anneal import AnnealConfig, build_anneal
from .apps.base import Application
from .apps.catalog import build_catalog_app
from .apps.ocean import OceanConfig, build_ocean
from .apps.poisson import PoissonConfig, build_poisson
from .apps.tester import TesterConfig, build_tester
from .campaign import Campaign, CampaignError, RunSpec, Stage, default_executor
from .core import (
    DirectiveSet,
    SearchConfig,
    intersect_directives,
    run_diagnosis,
    union_directives,
)
from .core.automap import suggest_mappings_for_records
from .core.extraction import HarvestAggregate
from .core.postmortem import postmortem_summary
from .core.shg import NodeState
from .facade import diagnose, load_directives, resolve_store
from .faults import FaultPlan, FaultPlanError
from .obs import TraceError, metrics_to_json, metrics_to_prometheus, read_trace
from .simulator.errors import SimulationError
from .storage import RunRecord, StoreCorruption, StoreError
from .visualize import (
    bar_chart,
    render_shg,
    render_space,
    render_trace_timeline,
    sparkline,
)

__all__ = ["main"]

# Distinct exit codes per failure family, so scripts driving the CLI can
# branch without parsing stderr.  2 = store/usage problems (argparse also
# exits 2), 3 = on-disk corruption, 4 = the simulated program failed,
# 5 = campaign configuration.
EXIT_STORE = 2
EXIT_CORRUPTION = 3
EXIT_SIMULATION = 4
EXIT_CAMPAIGN = 5


def _build_app(name: str, version: Optional[str], iterations: Optional[int]) -> Application:
    try:
        return build_catalog_app(name, version, iterations)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_threshold(text: str):
    try:
        hyp, value = text.split("=", 1)
        return hyp, float(value)
    except ValueError:
        raise SystemExit(f"bad --threshold {text!r}; expected HYPOTHESIS=VALUE")


def _config_and_faults(args: argparse.Namespace):
    """The :class:`SearchConfig` and :class:`FaultPlan` (or ``None``)
    that ``diagnose`` and ``campaign`` build from the flags they share
    (``--stop-when-done``, ``--threshold``, ``--faults``)."""
    config = SearchConfig(stop_engine_when_done=args.stop_when_done,
                          threshold_overrides=dict(args.threshold or ()))
    return config, FaultPlan.load(args.faults) if args.faults else None


def _resilience_setting(args: argparse.Namespace):
    """Turn the ``--retry-*``/``--no-resilience`` flags into the
    ``resilience=`` argument of :func:`resolve_store`: ``False`` to open
    the raw backend, a :class:`~repro.resilience.policy.ResiliencePolicy`
    when any knob was set, ``None`` for the armed defaults.  A value the
    policy rejects raises ``ValueError``."""
    if getattr(args, "no_resilience", False):
        return False
    overrides = {}
    if getattr(args, "retry_attempts", None) is not None:
        overrides["attempts"] = args.retry_attempts
    if getattr(args, "retry_backoff", None) is not None:
        overrides["base_delay"] = args.retry_backoff
    if getattr(args, "retry_deadline", None) is not None:
        overrides["deadline_s"] = args.retry_deadline
    if not overrides:
        return None
    from .resilience import ResiliencePolicy

    return ResiliencePolicy(**overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_diagnose(args: argparse.Namespace) -> int:
    app = _build_app(args.application, args.app_version, args.iterations)
    config, faults = _config_and_faults(args)
    trace = args.trace
    if trace is True and not args.store:
        raise SystemExit("--trace without a PATH writes under the store; "
                         "add --store or give --trace a file path")
    record = diagnose(
        app,
        history=args.directives,
        store=args.store,
        run_id=args.run_id,
        overwrite=args.overwrite,
        config=config,
        discover_resources=args.discover,
        faults=faults,
        on_failure=args.on_failure,
        trace=trace,
        strict_history=args.strict_harvest,
    )
    t_all = record.time_to_find_all()
    print(f"run id          : {record.run_id}")
    print(f"application     : {record.app_name} version {record.version} "
          f"({record.n_processes} processes)")
    print(f"bottlenecks     : {record.bottleneck_count()}")
    print(f"pairs tested    : {record.pairs_tested}")
    print(f"time to find all: {t_all:.1f} s" if t_all else "time to find all: n/a")
    print(f"program ran     : {record.finish_time:.1f} s (simulated)")
    if record.degraded:
        print(f"status          : DEGRADED ({record.coverage:.0%} coverage)")
        if record.failure:
            print(f"failure         : {record.failure}")
    if args.store:
        print(f"stored in       : {args.store}")
    if trace is True:
        print(f"trace written   : "
              f"{Path(args.store) / 'traces' / (record.run_id + '.jsonl')}")
    elif trace:
        print(f"trace written   : {trace}")
    return 0


def _postmortem_summary_of(record: RunRecord) -> dict:
    """:func:`postmortem_summary` of a stored run's profile, as if its
    Search History Graph were not there."""
    return postmortem_summary(record.flat_profile(), record.space(), record.placement)


def cmd_extract(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    if args.postmortem:
        summaries = map(_postmortem_summary_of, store.load_many(args.runs))
    else:
        metas = store.summaries(run_ids=args.runs).values()
        summaries = (meta["summary"] for meta in metas)
    aggregate = HarvestAggregate.of_summaries(summaries)
    directives = aggregate.finalize(
        include_pair_prunes=not args.no_pair_prunes,
        include_priorities=not args.no_priorities,
        include_thresholds=args.thresholds,
    )
    text = directives.to_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(directives)} directives written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = resolve_store(args.store, resilience=args.resilience)
    # The header comes from the index summary in every mode; the record
    # is parsed only for the sections below that need it.
    meta = store.summaries(run_ids=[args.run])[args.run]
    summary = meta["summary"]
    t_all = summary["time_to_find_all"]
    print(f"run {args.run}: {meta['app_name']} v{meta['version']}, "
          f"{meta['n_processes']} processes on {summary['n_nodes']} nodes")
    table = Table("Search summary", ["quantity", "value"])
    table.add_row(["pairs tested", meta["pairs_tested"]])
    table.add_row(["bottlenecks (true)", meta["bottlenecks"]])
    for state, count in sorted(summary["state_counts"].items()):
        table.add_row([f"nodes {state}", count])
    table.add_row(["peak instrumentation cost", f"{summary['peak_cost']:.2f}"])
    table.add_row(["time to find all (s)", f"{t_all:.1f}" if t_all else "n/a"])
    table.add_row(["program duration (s)", f"{summary['duration']:.1f}"])
    print(table.render())
    if not (args.profile or args.shg or args.hierarchies or args.metrics):
        return 0
    record = store.load(args.run)
    if args.profile:
        prof = record.flat_profile()
        ranked = sorted(
            prof.by_code.items(), key=lambda kv: -sum(kv[1].values())
        )[: args.top]
        shares = prof.share_table(prof.by_code)
        ptable = Table("Profile (fraction of total execution time)",
                       ["resource", "compute", "sync", "io"])
        for name, _entry in ranked:
            row = shares.get(name, {})
            ptable.add_row([name] + [f"{row.get(activity, 0.0):.3f}"
                                     for activity in ("compute", "sync", "io")])
        print()
        print(ptable.render())
        print()
        print(bar_chart(
            [(name, prof.exec_share((entry,))) for name, entry in ranked]
        ))
    if args.shg:
        print()
        states = [NodeState.TRUE] if args.true_only else None
        print(render_shg(record.shg(), max_depth=args.depth, states=states))
    if args.hierarchies:
        print()
        print(render_space(record.space()))
    if args.metrics:
        print()
        if not record.metrics:
            print("(record has no observability metrics — stored by an "
                  "older version)")
        elif args.metrics_format == "json":
            print(metrics_to_json(record.metrics))
        elif args.metrics_format == "prom":
            sys.stdout.write(metrics_to_prometheus(
                record.metrics,
                labels={"run_id": record.run_id, "app": record.app_name},
            ))
            # Store-level retry/circuit-breaker counters, from the
            # guarded call the ops above went through.
            resilience = store.resilience_metrics()
            if resilience:
                sys.stdout.write(metrics_to_prometheus(
                    resilience,
                    prefix="repro_store",
                    labels={"backend": store.backend.name},
                ))
        else:
            mtable = Table("Run metrics", ["metric", "value"])
            for name in sorted(record.metrics):
                value = record.metrics[name]
                mtable.add_row([
                    name, "n/a" if value is None else f"{value:g}",
                ])
            print(mtable.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a stored (or free-standing) trace file as a timeline."""
    direct = Path(args.run)
    if direct.is_file():
        path = direct
    else:
        if not args.store:
            raise SystemExit(
                f"{args.run!r} is not a trace file; to resolve it as a run "
                "id, pass --store")
        path = Path(args.store) / "traces" / f"{args.run}.jsonl"
        if not path.is_file():
            raise SystemExit(
                f"no trace for run {args.run!r} under {path.parent} "
                "(was the run diagnosed with --trace?)")
        try:
            # One-line run header from the index summary — no record parse.
            meta = resolve_store(args.store).summaries(run_ids=[args.run])[args.run]
            summary = meta["summary"]
            print(f"run {args.run}: {meta.get('app_name', '?')} "
                  f"v{meta.get('version', '?')}, status {summary['status']}, "
                  f"{len(summary['true_pairs'])} bottleneck(s), "
                  f"duration {summary['duration']:.1f}s")
        except (StoreError, StoreCorruption, KeyError):
            pass  # trace files can outlive their run record
    events = read_trace(path)
    print(render_trace_timeline(events, verbose=args.verbose))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    entries = store.summaries(app_name=args.app)
    if not entries:
        print("(no stored runs)")
        return 0
    table = Table(f"Stored runs in {args.store}",
                  ["run id", "app", "version", "procs", "bottlenecks", "pairs"])
    for run_id, meta in entries.items():
        table.add_row([
            run_id, meta.get("app_name", "?"), meta.get("version", "?"),
            meta.get("n_processes", "?"), meta.get("bottlenecks", "?"),
            meta.get("pairs_tested", "?"),
        ])
    print(table.render())
    return 0


def cmd_combine(args: argparse.Namespace) -> int:
    sets = [load_directives(f) for f in args.files]
    combine = union_directives if args.mode == "union" else intersect_directives
    out = combine(*sets)
    text = out.to_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(out)} directives written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Render one of the paper's figures from a fresh (short) run."""
    from .apps.poisson import version_maps
    from .visualize import render_combined_spaces

    if args.number == 1:
        app = build_tester(TesterConfig(iterations=10))
        print("Figure 1: Representing program Tester.\n")
        print(render_space(app.make_space()))
    elif args.number == 2:
        rec = run_diagnosis(
            build_anneal(AnnealConfig(iterations=300)),
            config=SearchConfig(
                stop_engine_when_done=True,
                threshold_overrides={"CPUbound": 0.30},
            ),
        )
        print("Figure 2: A Performance Consultant search in progress.\n")
        print(render_shg(rec.shg(), max_depth=args.depth or 2))
    elif args.number == 3:
        cfg = PoissonConfig(iterations=5)
        a = build_poisson("A", cfg)
        b = build_poisson("B", cfg)
        maps = version_maps("A", "B", a, b)
        print("Figure 3: Mappings for Versions A and B.\n")
        print(render_combined_spaces(a.make_space(), b.make_space(), maps))
    else:
        raise SystemExit(f"unknown figure {args.number} (1, 2, or 3)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    old = store.load(args.old_run)
    new = store.load(args.new_run)
    mapper = None
    if args.maps:
        maps = DirectiveSet.from_text(Path(args.maps).read_text()).maps
        from .core import ResourceMapper

        mapper = ResourceMapper(maps)
    print(comparison_report(old, new, mapper=mapper, top=args.top))
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from .storage import resource_history

    store = resolve_store(args.store)
    history = resource_history(
        store, args.resource, activity=args.activity, app_name=args.app
    )
    if not history.points:
        print("(no stored runs)")
        return 0
    table = Table(
        f"{args.resource} — {args.activity} fraction across runs",
        ["run id", "fraction"],
    )
    for run_id, value in history.points:
        table.add_row([run_id, f"{value:.3f}"])
    table.add_footnote(f"trend (last - first): {history.trend():+.3f}")
    print(table.render())
    print(f"\n  {sparkline(history.values())}")
    return 0


def cmd_automap(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    old = store.load(args.old_run)
    new = store.load(args.new_run)
    suggestions = suggest_mappings_for_records(old, new, min_score=args.min_score)
    lines = [s.directive.as_line() for s in suggestions]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""))
        print(f"{len(lines)} mappings written to {args.out}")
    else:
        for s in suggestions:
            print(s.as_line())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    # Validate the application arguments eagerly (the workers would only
    # fail later, once per run).
    _build_app(args.application, args.app_version, args.iterations)
    config, faults = _config_and_faults(args)

    def specs() -> list:
        return [
            RunSpec(
                builder=_build_app,
                builder_args=(args.application, args.app_version, args.iterations),
                config=config,
                faults=faults,
            )
            for _ in range(args.runs)
        ]

    stages = [Stage("baseline", specs())]
    if args.directed:
        stages.append(Stage(
            "directed", specs(),
            directives_from="baseline",
            extract={"include_thresholds": args.thresholds},
            min_coverage=args.min_coverage,
        ))
    campaign = Campaign(stages, name=args.name, retries=args.retries)

    def progress(event: dict) -> None:
        if event["event"] == "stage-started":
            print(f"stage {event['stage']}: {event['runs']} runs "
                  f"on {event['executor']}"
                  + (f", {event['harvested_directives']} harvested directives"
                     if event["harvested_directives"] else ""))
        elif event["event"] == "run-finished":
            line = (f"  {event['run_id']}: {event['bottlenecks']} bottlenecks, "
                    f"{event['pairs_tested']} pairs ({event['wall']:.1f} s wall)")
            if event.get("status") == "degraded":
                line += f" [degraded, {event['coverage']:.0%} coverage]"
            print(line)
        elif event["event"] == "run-salvaged":
            print(f"  {event['run_id']}: salvaged as degraded "
                  f"({event['coverage']:.0%} coverage)")
        elif event["event"] == "run-skipped":
            print(f"  {event['run_id']}: already in store ({event['status']}), skipped")
        elif event["event"] == "run-retried":
            print(f"  {event['run_id']}: retry {event['attempt']} "
                  f"after {event['backoff']:.2f} s ({event['error']})")
        elif event["event"] == "run-failed":
            print(f"  {event['run_id']}: FAILED ({event['error']})")
        elif event["event"] == "store-degraded":
            print(f"  {event['run_id']}: record NOT stored ({event['error']})")

    result = campaign.run(
        default_executor(args.workers),
        store=args.store,
        progress=progress,
        overwrite=args.overwrite,
        resume=args.resume,
        run_timeout=args.run_timeout,
        on_store_failure=args.on_store_failure,
    )

    table = Table(
        f"Campaign {args.name}",
        ["stage", "ok", "degraded", "failed", "unsaved", "resumed", "wall (s)"],
    )
    for stage in result.stages.values():
        table.add_row([
            stage.name, len(stage.ok), len(stage.degraded), len(stage.failures),
            len(stage.store_failures), len(stage.resumed), f"{stage.wall:.1f}",
        ])
    print()
    print(table.render())
    if args.store:
        print(f"records stored in {args.store}")
        if result.store_failures:
            print(f"WARNING: {len(result.store_failures)} record(s) could not "
                  "be stored (see 'record NOT stored' lines above)")
    return 1 if result.failures else 0


def _parse_tenant(text: str):
    """``NAME=COST_LIMIT[:MAX_CONCURRENT]`` → (name, TenantPolicy)."""
    from .server import TenantPolicy

    try:
        name, spec = text.split("=", 1)
        cost_text, _, conc_text = spec.partition(":")
        cost = float(cost_text) if cost_text else None
        conc = int(conc_text) if conc_text else None
        return name, TenantPolicy(cost_limit=cost, max_concurrent=conc)
    except ValueError:
        raise SystemExit(
            f"bad --tenant {text!r}; expected NAME=COST_LIMIT[:MAX_CONCURRENT]"
        )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived diagnosis server until interrupted."""
    import asyncio

    from .campaign import default_executor
    from .server import DiagnosisService, StorePool, serve_forever

    try:
        service = DiagnosisService(
            StorePool(max_stores=args.pool_size),
            max_concurrent=args.max_concurrent,
            queue_limit=args.queue_limit,
            slice_events=args.slice_events,
            tenants=dict(args.tenant or ()),
            executor=default_executor(args.workers) if args.workers
            and args.workers > 1 else None,
            progress=(lambda event: print(json.dumps(event), flush=True))
            if args.verbose else None,
        )
    except ValueError as exc:
        # a bad numeric flag: one line before any port is bound
        print(f"error: bad serve flag: {exc}", file=sys.stderr)
        return EXIT_STORE

    def ready(bound) -> None:
        print(f"serving diagnoses on {bound[0]}:{bound[1]} "
              f"(max {args.max_concurrent} concurrent, "
              f"queue {args.queue_limit})", flush=True)

    try:
        asyncio.run(serve_forever(service, args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        print("server stopped")
    return 0


def cmd_store_stats(args: argparse.Namespace) -> int:
    info = resolve_store(args.store, resilience=args.resilience).info()
    table = Table(f"Store {args.store}", ["property", "value"])
    table.add_row(["backend", info.backend])
    table.add_row(["runs", info.runs])
    table.add_row(["index format", info.index_format])
    table.add_row(["index generation", info.generation])
    table.add_row(["unfolded segments", info.segments])
    table.add_row(["index bytes", info.index_bytes])
    table.add_row(["aggregated runs", f"{info.aggregated_runs}/{info.runs}"])
    table.add_row(["aggregated segments",
                   f"{info.aggregated_segments}/{info.segments}"])
    if info.runs and not info.aggregated_runs:
        table.add_row(["harvest fast path", "rescan until the next save "
                       "(a delete stopped the aggregate)"])
    print(table.render())
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    stats = resolve_store(
        args.store, resilience=args.resilience).compact()
    print(stats)
    return 0


def cmd_store_rebuild(args: argparse.Namespace) -> int:
    report = resolve_store(
        args.store, resilience=args.resilience).rebuild_index()
    print(report)
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    """Scrub the store: read back every indexed record, recompute its
    summary, and look for orphans.  Exit 0 when clean, 3 (corruption)
    otherwise, so cron jobs and CI can alert on a sick archive."""
    report = resolve_store(
        args.store, resilience=args.resilience).verify()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report)
    return 0 if report.clean else EXIT_CORRUPTION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def _add_retry_flags(p: argparse.ArgumentParser) -> None:
    """Store resilience knobs, taken by ``report`` and the four ``store``
    subcommands; every other command opens its stores with the default
    policy."""
    g = p.add_argument_group("store resilience")
    g.add_argument("--retry-attempts", type=int, default=None, metavar="N",
                   help="attempts per transient store failure (default 4)")
    g.add_argument("--retry-backoff", type=float, default=None,
                   metavar="SECONDS",
                   help="base delay of the exponential backoff (default 0.02)")
    g.add_argument("--retry-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget per store operation (default 2)")
    g.add_argument("--no-resilience", action="store_true",
                   help="open the raw backend: no retries, no circuit breaker")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="History-directed online performance diagnosis "
                    "(Karavanic & Miller, SC'99 reproduction).",
    )
    parser.add_argument("--debug", action="store_true",
                        help="re-raise errors with full tracebacks instead of "
                             "one-line messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="run the Performance Consultant on an application")
    p.add_argument("application", help="poisson | ocean | tester | anneal")
    p.add_argument("--app-version", help="poisson version A/B/C/D (default C)")
    p.add_argument("--iterations", type=int, help="workload iteration count")
    p.add_argument("--directives", action="append", metavar="PATH",
                   help="directive file or store directory to guide the "
                        "search; repeatable — multiple sources are "
                        "harvested independently and merged (federated)")
    p.add_argument("--store", help="experiment store directory to save the run in")
    p.add_argument("--run-id", help="explicit run id")
    p.add_argument("--overwrite", action="store_true", help="replace an existing stored run")
    p.add_argument("--stop-when-done", action="store_true",
                   help="stop the program once the search has concluded everything")
    p.add_argument("--discover", action="store_true",
                   help="register resources discovered during the run")
    p.add_argument("--threshold", action="append", type=_parse_threshold,
                   metavar="HYP=VALUE", help="override a hypothesis threshold")
    p.add_argument("--faults", help="JSON fault plan to inject into the run")
    p.add_argument("--on-failure", choices=("raise", "degrade"), default="raise",
                   help="degrade: return a partial record on simulator "
                        "failure instead of erroring out")
    p.add_argument("--trace", nargs="?", const=True, default=None, metavar="PATH",
                   help="record a structured search trace; with PATH write "
                        "the JSONL there, without PATH write it under the "
                        "store as traces/<run_id>.jsonl")
    p.add_argument("--strict-harvest", action="store_true",
                   help="abort when any --directives history source fails "
                        "instead of skipping it with a warning")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("campaign",
                       help="run a parallel set of diagnoses (optionally "
                            "baseline -> harvest -> directed)")
    p.add_argument("application", help="poisson | ocean | tester | anneal")
    p.add_argument("--app-version", help="poisson version A/B/C/D (default C)")
    p.add_argument("--iterations", type=int, help="workload iteration count")
    p.add_argument("--runs", type=int, default=4, help="diagnoses per stage")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--directed", action="store_true",
                   help="add a second stage that harvests directives from "
                        "the baseline stage and runs directed")
    p.add_argument("--thresholds", action="store_true",
                   help="include threshold directives in the harvest")
    p.add_argument("--store", help="experiment store directory to save runs in")
    p.add_argument("--overwrite", action="store_true",
                   help="replace existing stored runs")
    p.add_argument("--name", default="campaign", help="campaign (and run id) prefix")
    p.add_argument("--stop-when-done", action="store_true",
                   help="stop each program once its search has concluded everything")
    p.add_argument("--threshold", action="append", type=_parse_threshold,
                   metavar="HYP=VALUE", help="override a hypothesis threshold")
    p.add_argument("--faults", help="JSON fault plan injected into every run")
    p.add_argument("--retries", type=int, default=1,
                   help="re-executions per failed run (with exponential backoff)")
    p.add_argument("--run-timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget per run")
    p.add_argument("--resume", action="store_true",
                   help="skip runs the store already holds (needs --store)")
    p.add_argument("--min-coverage", type=float, default=0.0,
                   help="exclude records below this coverage from the "
                        "directed stage's harvest")
    p.add_argument("--on-store-failure", choices=("raise", "degrade"),
                   default="raise",
                   help="degrade: when saving a record to --store fails, "
                        "keep the in-memory record and continue instead of "
                        "aborting the campaign")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("extract", help="harvest search directives from stored runs")
    p.add_argument("runs", nargs="+", help="run ids to extract from")
    p.add_argument("--store", required=True)
    p.add_argument("--out", help="write directives to this file (default stdout)")
    p.add_argument("--thresholds", action="store_true", help="include threshold directives")
    p.add_argument("--no-pair-prunes", action="store_true")
    p.add_argument("--no-priorities", action="store_true")
    p.add_argument("--postmortem", action="store_true",
                   help="extract from the raw profile instead of the SHG")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("report", help="summarise a stored run")
    p.add_argument("run")
    p.add_argument("--store", required=True)
    p.add_argument("--shg", action="store_true", help="render the Search History Graph")
    p.add_argument("--true-only", action="store_true", help="only true nodes in the SHG")
    p.add_argument("--depth", type=int, default=None, help="SHG depth limit")
    p.add_argument("--profile", action="store_true", help="show the code profile")
    p.add_argument("--top", type=int, default=10, help="profile rows to show")
    p.add_argument("--hierarchies", action="store_true", help="render resource hierarchies")
    p.add_argument("--metrics", action="store_true",
                   help="show the run's observability metrics")
    p.add_argument("--metrics-format", choices=("table", "json", "prom"),
                   default="table",
                   help="metrics rendering: table (default), json, or "
                        "Prometheus text exposition (includes the store's "
                        "retry/circuit-breaker counters)")
    _add_retry_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace", help="render a recorded search trace as a timeline")
    p.add_argument("run", help="run id (with --store) or a trace file path")
    p.add_argument("--store", help="experiment store holding traces/<run>.jsonl")
    p.add_argument("--verbose", action="store_true",
                   help="list every event, not just milestones")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("list", help="list stored runs")
    p.add_argument("--store", required=True)
    p.add_argument("--app", help="filter by application name")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("combine", help="combine directive files")
    p.add_argument("files", nargs="+", help="directive files")
    p.add_argument("--mode", choices=("union", "intersect"), default="union")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("figure", help="render one of the paper's figures (1-3)")
    p.add_argument("number", type=int)
    p.add_argument("--depth", type=int, default=None, help="SHG depth for figure 2")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("compare", help="compare two stored runs")
    p.add_argument("old_run")
    p.add_argument("new_run")
    p.add_argument("--store", required=True)
    p.add_argument("--maps", help="directive file whose map lines translate old names")
    p.add_argument("--top", type=int, default=10, help="profile deltas to show")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("history", help="track a resource's cost across stored runs")
    p.add_argument("resource", help="resource name, e.g. /Code/exchng2.f/exchng2")
    p.add_argument("--store", required=True)
    p.add_argument("--activity", default="sync", choices=("compute", "sync", "io"))
    p.add_argument("--app", help="filter by application name")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("automap", help="suggest resource mappings between two runs")
    p.add_argument("old_run")
    p.add_argument("new_run")
    p.add_argument("--store", required=True)
    p.add_argument("--out", help="write map directives to this file")
    p.add_argument("--min-score", type=float, default=0.45)
    p.set_defaults(func=cmd_automap)

    p = sub.add_parser(
        "serve",
        help="run the long-lived diagnosis server (JSONL over TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=4077,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--max-concurrent", type=int, default=4,
                   help="sessions running at once")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="queued sessions before submissions are rejected")
    p.add_argument("--slice-events", type=int, default=2000,
                   help="engine events per scheduling slice")
    p.add_argument("--pool-size", type=int, default=8,
                   help="distinct stores kept open in the pool")
    p.add_argument("--workers", type=int, default=None,
                   help="N > 1: run each session whole in a child process "
                        "of its own instead of slicing it on the serving "
                        "loop; any N > 1 does the same, --max-concurrent "
                        "bounds how many run at once")
    p.add_argument("--tenant", action="append", type=_parse_tenant,
                   metavar="NAME=COST[:CONC]",
                   help="per-tenant policy: instrumentation cost cap and "
                        "optional concurrent-session cap (repeatable)")
    p.add_argument("--verbose", action="store_true",
                   help="print session progress events as JSONL")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("store", help="inspect and maintain an experiment store")
    ssub = p.add_subparsers(dest="store_command", required=True)

    sp = ssub.add_parser("stats", help="show a store's backend, size, and index shape")
    sp.add_argument("--store", required=True)
    _add_retry_flags(sp)
    sp.set_defaults(func=cmd_store_stats)

    sp = ssub.add_parser(
        "compact",
        help="fold accumulated index segments into a new base generation")
    sp.add_argument("--store", required=True)
    _add_retry_flags(sp)
    sp.set_defaults(func=cmd_store_compact)

    sp = ssub.add_parser(
        "rebuild",
        help="reconstruct the index from record files, quarantining corrupt ones")
    sp.add_argument("--store", required=True)
    _add_retry_flags(sp)
    sp.set_defaults(func=cmd_store_rebuild)

    sp = ssub.add_parser(
        "verify",
        help="scrub every stored record and report corruption, divergent "
             "summaries, and orphans (exit 3 when not clean)")
    sp.add_argument("--store", required=True)
    sp.add_argument("--json", action="store_true",
                    help="machine-readable scrub report on stdout")
    _add_retry_flags(sp)
    sp.set_defaults(func=cmd_store_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.resilience = _resilience_setting(args)
    except ValueError as exc:
        print(f"error: bad --retry-* value: {exc}", file=sys.stderr)
        return EXIT_STORE
    try:
        return args.func(args)
    except StoreCorruption as exc:
        if args.debug:
            raise
        print(f"corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPTION
    except (StoreError, FaultPlanError, TraceError,
            OSError) as exc:  # OSError: raw backend errors, --no-resilience
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except SimulationError as exc:
        if args.debug:
            raise
        print(f"simulation failed: {exc}", file=sys.stderr)
        print("hint: rerun with --on-failure degrade to keep the partial "
              "diagnosis, or --debug for the traceback", file=sys.stderr)
        return EXIT_SIMULATION
    except CampaignError as exc:
        if args.debug:
            raise
        print(f"campaign error: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
