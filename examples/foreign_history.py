#!/usr/bin/env python
"""Using history that did not come from the Performance Consultant.

The paper's future work (Section 6) imagines extracting search directives
from "results gathered with different monitoring tools" and automating
resource mapping. This example plays that full scenario:

1. version A of the Poisson solver runs under a *plain tracer* (no
   Performance Consultant attached) — the kind of raw trace any
   monitoring tool could produce;
2. the trace is aggregated into a postmortem profile, hypotheses are
   evaluated offline, and search directives are extracted from raw data
   alone;
3. version B (renamed modules!) is about to be diagnosed: the mapping
   between A's and B's resources is *suggested automatically* from the
   two runs' structure and behaviour;
4. B's diagnosis runs directed by the foreign-history directives.
"""

import tempfile
from pathlib import Path

from repro import (
    DirectiveSet,
    PoissonConfig,
    SearchConfig,
    build_poisson,
    run_diagnosis,
)
from repro.analysis import base_bottleneck_set, reduction, time_to_fraction
from repro.core.automap import suggest_mappings
from repro.core.postmortem import extract_directives_postmortem
from repro.metrics.profile import ProfileCollector
from repro.simulator import TraceWriter, profile_from_trace

CFG = PoissonConfig(iterations=300)


def main() -> None:
    # The trace lives for this run only: the directory goes when main ends.
    with tempfile.TemporaryDirectory(prefix="repro-foreign-") as workdir:
        scenario(Path(workdir))


def scenario(workdir: Path) -> None:
    trace_path = workdir / "versionA.trace"

    print("== 1. run version A under a plain tracer (no Consultant) ==")
    app_a = build_poisson("A", CFG)
    engine = app_a.make_engine()
    with TraceWriter(trace_path) as writer:
        engine.add_sink(writer)
        finish = engine.run()
    print(f"   {writer.count} trace records, {finish:.0f} simulated seconds")

    print("\n== 2. postmortem: profile the trace, extract directives ==")
    profile_a = profile_from_trace(trace_path)
    space_a = app_a.make_space()
    directives = extract_directives_postmortem(
        profile_a, space_a, dict(app_a.placement), include_pair_prunes=False
    )
    print(f"   {len(directives.priorities)} priorities, "
          f"{len(directives.prunes)} prunes from raw data alone")

    print("\n== 3. automatic resource mapping A -> B ==")
    app_b = build_poisson("B", CFG)
    profile_b_collector = ProfileCollector()
    probe_engine = app_b.make_engine()
    probe_engine.add_sink(profile_b_collector)
    probe_engine.run()  # a quick profiling run of B for behavioural matching
    suggestions = suggest_mappings(
        {name: h.names() for name, h in space_a.hierarchies.items()},
        {name: h.names() for name, h in app_b.make_space().hierarchies.items()},
        old_profile=profile_a,
        new_profile=profile_b_collector.profile,
    )
    for s in suggestions:
        print(f"   {s.as_line()}")
    maps = [s.directive for s in suggestions]
    # tag families 1/x stay 1/x between A and B, so no tag maps appear

    print("\n== 4. diagnose version B, directed by the foreign history ==")
    base_b = run_diagnosis(build_poisson("B", CFG), config=SearchConfig())
    solid = base_bottleneck_set(base_b, margin=0.075)
    base_t = time_to_fraction(base_b, solid)[1.0]

    directed = run_diagnosis(
        build_poisson("B", CFG),
        directives=directives.merged_with(DirectiveSet(maps=maps)),
        config=SearchConfig(stop_engine_when_done=True),
    )
    directed_t = time_to_fraction(directed, solid)[1.0]
    print(f"   undirected: {base_t:7.0f} s   ({base_b.pairs_tested} pairs)")
    print(f"   directed  : {directed_t:7.0f} s   ({directed.pairs_tested} pairs, "
          f"{reduction(base_t, directed_t):+.1f}%)")


if __name__ == "__main__":
    main()
