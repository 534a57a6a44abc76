"""repro — a reproduction of Karavanic & Miller, "Improving Online
Performance Diagnosis by the Use of Historical Performance Data" (SC'99).

The package implements a Paradyn-style automated bottleneck search (the
Performance Consultant) over a deterministic discrete-event simulator of
message-passing programs, and extends it with the paper's contribution:
search directives — prunes, priorities, and thresholds — harvested from
stored records of previous executions, with resource mapping across runs.

The stable top-level API is the facade — :func:`diagnose`,
:func:`harvest` — plus :class:`Campaign` for parallel multi-run
workflows; everything underneath stays importable for fine-grained use.

Quickstart::

    from repro import build_poisson, diagnose, harvest

    base = diagnose(build_poisson("C"), store="runs/")   # undirected search
    directives = harvest("runs/", app="poisson")         # harvest history
    fast = diagnose(build_poisson("C"), history=directives)
    print(fast.time_to_find_all(), "vs", base.time_to_find_all())

Scale-out: fan a set of diagnoses over worker processes, with the
baseline → harvest → directed pipeline handled inside the campaign::

    from repro import Campaign, RunSpec, Stage, build_poisson

    specs = [RunSpec(build_poisson, ("C",)) for _ in range(8)]
    campaign = Campaign(stages=[
        Stage("baseline", specs),
        Stage("directed", specs, directives_from="baseline"),
    ])
    result = campaign.run(workers=4, store="runs/")
    print(result.summary())
"""

from .apps import (
    Application,
    PoissonConfig,
    VERSIONS,
    build_poisson,
    version_maps,
)
from .apps.anneal import AnnealConfig, build_anneal
from .apps.ocean import OceanConfig, build_ocean
from .apps.synthetic import make_compute_app, make_io_app, make_pingpong
from .apps.tester import TesterConfig, build_tester
from .core import (
    DiagnosisSession,
    DirectiveSet,
    MapDirective,
    PairPruneDirective,
    PerformanceConsultantSearch,
    Priority,
    PriorityDirective,
    PruneDirective,
    ResourceMapper,
    SearchConfig,
    SearchHistoryGraph,
    ThresholdDirective,
    apply_mappings,
    extract_directives,
    extract_priorities,
    extract_thresholds,
    intersect_directives,
    run_diagnosis,
    standard_tree,
    suggest_threshold,
    union_directives,
)
from .campaign import (
    Campaign,
    CampaignResult,
    PoolExecutor,
    RunSpec,
    SerialExecutor,
    Stage,
    StageResult,
)
from .facade import diagnose, harvest, resolve_store
from .metrics import CostModel, FlatProfile, InstrumentationManager
from .resources import Focus, ResourceSpace, parse_focus, whole_program
from .simulator import Engine, Machine
from .storage import ExperimentStore, RunRecord

__version__ = "1.0.0"

__all__ = [
    "diagnose",
    "harvest",
    "resolve_store",
    "Campaign",
    "CampaignResult",
    "PoolExecutor",
    "RunSpec",
    "SerialExecutor",
    "Stage",
    "StageResult",
    "Application",
    "PoissonConfig",
    "VERSIONS",
    "build_poisson",
    "version_maps",
    "AnnealConfig",
    "build_anneal",
    "OceanConfig",
    "build_ocean",
    "make_compute_app",
    "make_io_app",
    "make_pingpong",
    "TesterConfig",
    "build_tester",
    "DiagnosisSession",
    "DirectiveSet",
    "MapDirective",
    "PairPruneDirective",
    "PerformanceConsultantSearch",
    "Priority",
    "PriorityDirective",
    "PruneDirective",
    "ResourceMapper",
    "SearchConfig",
    "SearchHistoryGraph",
    "ThresholdDirective",
    "apply_mappings",
    "extract_directives",
    "extract_priorities",
    "extract_thresholds",
    "intersect_directives",
    "run_diagnosis",
    "standard_tree",
    "suggest_threshold",
    "union_directives",
    "CostModel",
    "FlatProfile",
    "InstrumentationManager",
    "Focus",
    "ResourceSpace",
    "parse_focus",
    "whole_program",
    "Engine",
    "Machine",
    "ExperimentStore",
    "RunRecord",
    "__version__",
]
