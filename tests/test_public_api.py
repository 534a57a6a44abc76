"""The public surface, pinned name by name.

``repro``, ``repro.campaign``, ``repro.core``, ``repro.core.extraction``,
``repro.facade``, ``repro.resilience``, ``repro.storage`` and
``repro.storage.api`` export exactly the names listed here, the ways into
the archive (a campaign's run among them) take exactly the parameters
listed in ``SIGNATURES``, a trace sink is the one method ``TRACE_SINK``
names, and the hot syscalls are the immutable values ``SYSCALLS``
describes.  A change that says "public facade
unchanged" leaves this file alone; one that adds or removes a public
name edits the list in the same commit, where a reviewer sees it.
"""

import importlib
import inspect
import pickle

import pytest

SURFACE = {
    "repro": [
        "AnnealConfig", "Application", "Campaign", "CampaignResult",
        "CostModel", "DiagnosisSession", "DirectiveSet", "Engine",
        "ExperimentStore", "FlatProfile", "Focus", "InstrumentationManager",
        "Machine", "MapDirective", "OceanConfig", "PairPruneDirective",
        "PerformanceConsultantSearch", "PoissonConfig", "PoolExecutor",
        "Priority", "PriorityDirective", "PruneDirective", "ResourceMapper",
        "ResourceSpace", "RunRecord", "RunSpec", "SearchConfig",
        "SearchHistoryGraph", "SerialExecutor", "Stage", "StageResult",
        "TesterConfig", "ThresholdDirective", "VERSIONS", "__version__",
        "apply_mappings", "build_anneal", "build_ocean", "build_poisson",
        "build_tester", "diagnose", "extract_directives",
        "extract_priorities", "extract_thresholds", "harvest",
        "intersect_directives", "make_compute_app",
        "make_io_app", "make_pingpong", "parse_focus", "resolve_store",
        "run_diagnosis", "standard_tree", "suggest_threshold",
        "union_directives", "version_maps", "whole_program"
    ],
    "repro.campaign": [
        "Campaign", "CampaignError", "CampaignResult", "PoolExecutor",
        "RunSpec", "RunTimeout", "SerialExecutor", "Stage", "StageResult",
        "default_executor"
    ],
    "repro.core": [
        "ANY_HYPOTHESIS", "DiagnosisSession", "DirectiveError",
        "DirectiveSet", "DiscoverySink", "Hypothesis", "HypothesisTree",
        "MapDirective", "MappingReport", "MappingSuggestion", "NodeState",
        "PairPruneDirective", "PerformanceConsultantSearch",
        "PostmortemConclusion", "Priority", "PriorityDirective",
        "PruneDirective", "ResourceMapper", "SHGNode", "SearchConfig",
        "SearchHistoryGraph", "TOP_LEVEL", "ThresholdDirective",
        "apply_mappings", "evaluate_postmortem", "extended_tree",
        "extract_directives", "extract_directives_postmortem",
        "extract_general_prunes", "extract_historic_prunes",
        "extract_pair_prunes", "extract_priorities", "extract_thresholds",
        "intersect_directives", "run_diagnosis", "standard_tree",
        "suggest_mappings", "suggest_mappings_for_records",
        "suggest_threshold", "union_directives"
    ],
    "repro.core.extraction": [
        "HarvestAggregate", "extract_directives", "extract_general_prunes",
        "extract_historic_prunes", "extract_pair_prunes",
        "extract_priorities", "extract_thresholds", "suggest_threshold"
    ],
    "repro.facade": [
        "HarvestWarning", "default_pool", "diagnose", "harvest",
        "load_directives", "resolve_history", "resolve_store"
    ],
    "repro.resilience": [
        "ResiliencePolicy", "ScrubReport", "is_transient", "verify_store"
    ],
    "repro.storage": [
        "CompactionStats", "ExperimentStore", "FileBackend",
        "RecoveryReport", "ResourceHistory", "RunRecord",
        "StoreCorruption", "StoreError", "StoreInfo",
        "StoreUnavailable", "best_run",
        "bottleneck_persistence", "resource_history",
        "select", "summarize_record"
    ],
    "repro.storage.api": [
        "CompactionStats", "RecoveryReport",
        "StoreCorruption", "StoreError", "StoreInfo", "StoreUnavailable"
    ],
}

#: ``inspect.signature`` of each way into the archive: how a store is
#: opened, how the pool opens and harvests one, how a campaign saves into
#: (and resumes from) one.
SIGNATURES = {
    "repro.campaign.runner:Campaign.run": (
        "(self, executor=None, *, "
        "store: 'Union[ExperimentStore, str, Path, None]' = None, "
        "progress: 'Optional[ProgressCallback]' = None, "
        "overwrite: 'bool' = False, workers: 'Optional[int]' = None, "
        "resume: 'bool' = False, run_timeout: 'Optional[float]' = None, "
        "on_store_failure: 'str' = 'raise') -> 'CampaignResult'"),
    "repro.facade:resolve_store": (
        "(store: 'StoreLike', *, "
        "resilience: 'Union[None, bool, ResiliencePolicy]' = None) "
        "-> 'ExperimentStore'"),
    "repro.server.pool:StorePool.get": (
        "(self, store: 'StoreLike') -> 'ExperimentStore'"),
    "repro.server.pool:StorePool.harvest": (
        "(self, store: 'StoreLike', *, app: 'Optional[str]' = None, "
        "**options) -> 'DirectiveSet'"),
    "repro.storage.store:ExperimentStore.__init__": (
        "(self, root: 'Union[str, Path]', *, cache_size: 'int' = 64, "
        "auto_compact: 'Optional[int]' = 64, "
        "resilience: 'Union[None, bool, ResiliencePolicy]' = None)"),
}


#: The syscalls a program yields most, as values: constructor
#: parameters, and the repr of ``cls(*args)``.
SYSCALLS = {
    "Compute": ("(seconds: 'float')", (1.5,), "Compute(seconds=1.5)"),
    "Send": ("(dest: 'str', tag: 'str', size: 'float' = 0.0)", ("p1", "1/0"),
             "Send(dest='p1', tag='1/0', size=0.0)"),
    "Recv": ("(src: 'str', tag: 'str')", ("p0", "1/0"),
             "Recv(src='p0', tag='1/0')"),
}


#: ``TraceSink``'s one method and its signature: the engine hands every
#: sink its flush batch of ``(prototype, start, duration)`` triples.
TRACE_SINK = {"record_batch": "(self, batch: 'Batch') -> 'None'"}


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_exported_names_are_pinned(module):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported), "duplicate export"
    assert sorted(exported) == SURFACE[module]


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in SURFACE[module]:
        assert hasattr(mod, name), name


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_archive_entry_signatures_are_pinned(path):
    module, qualname = path.split(":")
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert str(inspect.signature(obj)) == SIGNATURES[path]


def test_trace_sink_is_one_method():
    from repro.simulator.records import TraceSink

    methods = {
        name: str(inspect.signature(value))
        for name, value in vars(TraceSink).items()
        if callable(value) and not name.startswith("_")
    }
    assert methods == TRACE_SINK


@pytest.mark.parametrize("name", sorted(SYSCALLS))
def test_syscall_values_are_pinned(name):
    from repro import simulator

    cls = getattr(simulator, name)
    params, args, text = SYSCALLS[name]
    sig = inspect.signature(cls)
    assert str(sig.replace(return_annotation=sig.empty)) == params
    call = cls(*args)
    assert repr(call) == text
    twin = cls(*args)
    assert call == twin and hash(call) == hash(twin) and call is not twin
    assert call != cls(*args[:-1], "other")
    assert len({call, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(call, next(iter(sig.parameters)), args[0])
    with pytest.raises(AttributeError):
        call.extra = 1
    assert call == twin  # unchanged
    assert pickle.loads(pickle.dumps(call)) == call


def test_syscall_equality_is_class_aware():
    from repro.simulator import Compute, IoOp

    assert Compute(1.0) != IoOp(1.0)
    assert IoOp(1.0) != Compute(1.0)
