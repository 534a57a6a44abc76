"""The public surface, pinned name by name.

``repro``, ``repro.core``, ``repro.core.extraction``, ``repro.facade``,
``repro.storage`` and ``repro.storage.api`` export exactly the names
listed here, a storage backend implements exactly the abstract methods
listed in ``BACKEND_CONTRACT``, and the ways into the archive take
exactly the parameters listed in ``SIGNATURES``.  A change that says "public facade
unchanged" leaves this file alone; one that adds or removes a public
name edits the list in the same commit, where a reviewer sees it.
"""

import importlib
import inspect

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
        "intersect_directives", "machine_maps", "make_compute_app",
        "make_io_app", "make_pingpong", "parse_focus", "resolve_store",
        "run_diagnosis", "standard_tree", "suggest_threshold",
        "union_directives", "version_maps", "whole_program"
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
    "repro.storage": [
        "CompactionStats", "ExperimentStore", "FileBackend",
        "RecoveryReport", "ResourceHistory", "RunRecord", "SQLiteBackend",
        "StorageBackend", "StoreCorruption", "StoreError", "StoreInfo",
        "StoreUnavailable", "best_run",
        "bottleneck_persistence", "migrate_store", "resource_history",
        "select", "summarize_record"
    ],
    "repro.storage.api": [
        "CompactionStats", "RecoveryReport", "StorageBackend",
        "StoreCorruption", "StoreError", "StoreInfo", "StoreUnavailable"
    ],
}

#: ``StorageBackend``'s abstract methods, one per line.
BACKEND_CONTRACT = [
    "compact",
    "contains",
    "delete",
    "get",
    "info",
    "put",
    "query_summaries",
    "rebuild",
    "record_token",
]

#: ``inspect.signature`` of each way into the archive: how a store is
#: opened, how the pool opens and harvests one, how sqlite is opened.
SIGNATURES = {
    "repro.facade:resolve_store": (
        "(store: 'StoreLike', *, backend: 'Optional[str]' = None, "
        "resilience: 'Union[None, bool, ResiliencePolicy]' = None) "
        "-> 'ExperimentStore'"),
    "repro.server.pool:StorePool.get": (
        "(self, store: 'StoreLike') -> 'ExperimentStore'"),
    "repro.server.pool:StorePool.harvest": (
        "(self, store: 'StoreLike', *, app: 'Optional[str]' = None, "
        "**options) -> 'DirectiveSet'"),
    "repro.storage.sqlite_backend:SQLiteBackend.__init__": (
        "(self, root: 'str | Path')"),
}


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


def test_storage_backend_contract_is_pinned():
    from repro.storage.api import StorageBackend

    assert sorted(StorageBackend.__abstractmethods__) == BACKEND_CONTRACT


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_archive_entry_signatures_are_pinned(path):
    module, qualname = path.split(":")
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert str(inspect.signature(obj)) == SIGNATURES[path]
