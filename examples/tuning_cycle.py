#!/usr/bin/env python
"""The profile-analyze-change tuning cycle across code versions.

Section 4.3 of the paper: "While tuning an application, a developer
repeats through a cycle of profile-analyze-change."  This example plays
that cycle over the four Poisson versions — A (1-D blocking), B (1-D
non-blocking), C (2-D), D (2-D on 8 nodes) — storing each diagnosis in an
experiment store and reusing the previous version's directives, with
resource mapping bridging the renamed modules/functions (Figure 3) and
the differently named machine nodes.
"""

import tempfile

from repro import (
    DirectiveSet,
    ExperimentStore,
    PoissonConfig,
    SearchConfig,
    build_poisson,
    extract_directives,
    run_diagnosis,
    version_maps,
)
from repro.analysis import base_bottleneck_set, reduction, time_to_fraction

CFG = PoissonConfig(iterations=300)
VERSIONS = ("A", "B", "C", "D")


def main() -> None:
    store = ExperimentStore(tempfile.mkdtemp(prefix="repro-tuning-"))
    previous = None  # (version label, Application)

    for version in VERSIONS:
        app = build_poisson(version, CFG)
        print(f"== version {version}: {app.description} ==")

        # Undirected reference run (defines this version's bottleneck set).
        base = run_diagnosis(app, config=SearchConfig(), run_id=f"cycle-{version}-base")
        store.save(base)
        solid = base_bottleneck_set(base, margin=0.075)
        base_t = time_to_fraction(base, solid)[1.0]
        print(f"   undirected: {base_t:7.0f} s to find {len(solid)} bottlenecks "
              f"({base.pairs_tested} pairs tested)")

        if previous is not None:
            prev_version, prev_app = previous
            prior = store.load(f"cycle-{prev_version}-base")
            directives = extract_directives(prior).without_pair_prunes()
            maps = version_maps(prev_version, version, prev_app, app)
            directives = directives.merged_with(DirectiveSet(maps=maps))
            directed = run_diagnosis(
                build_poisson(version, CFG),
                directives=directives,
                config=SearchConfig(stop_engine_when_done=True),
                run_id=f"cycle-{version}-directed",
            )
            store.save(directed)
            t = time_to_fraction(directed, solid)[1.0]
            print(f"   directed (history from {prev_version}): {t:7.0f} s "
                  f"({reduction(base_t, t):+.1f}%, {directed.pairs_tested} pairs)")
        previous = (version, app)

    print("\nruns stored:", ", ".join(store.list()))


if __name__ == "__main__":
    main()
