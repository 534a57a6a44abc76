"""A deterministic budget for the search's own work per (hypothesis : focus) pair.

The Performance Consultant is only useful online if what it spends per
pair stays small while it tests hundreds of them.  Wall-clock time is
too noisy to pin in a test, so this counts interpreter work instead:
every Python frame entered inside ``tick()`` whose code lives in the
``repro`` package, divided by the pairs the session instrumented, on a
short undirected Poisson-A run.  Frames of the standard library (enum,
contextlib, dataclass-generated code) are not counted, so the figure
moves only when this package's code does.

The bound is the count measured when the budget was set (59.7 frames
per pair on CPython 3.11) plus ~15 % headroom.  Newer interpreters that
inline comprehensions can only count fewer frames.
"""

import os
import sys

import repro
from repro.apps.catalog import build_catalog_app
from repro.core import DiagnosisSession, SearchConfig

#: ``repro`` frames per instrumented pair inside ``tick()``.
BUDGET = 69.0

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def frames_per_pair(iterations=200):
    """Run one undirected Poisson-A session, counting the ``repro``
    frames entered inside every tick; returns (frames per pair, pairs)."""
    active = DiagnosisSession(app=build_catalog_app("poisson", "A", iterations),
                              config=SearchConfig(stop_engine_when_done=True),
                              run_id="budget").begin()
    search = active.search
    frames = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            frames[0] += 1

    tick = search.tick

    def counted_tick():
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            tick()
        finally:
            sys.setprofile(outer)
    search.tick = counted_tick
    active.step()
    pairs = active.instr.total_requests
    return frames[0] / pairs, pairs


def test_search_frames_per_pair_within_budget():
    per_pair, pairs = frames_per_pair()
    assert pairs == 364  # the run this budget was measured on
    assert per_pair <= BUDGET, f"{per_pair:.1f} repro frames per pair inside tick()"
