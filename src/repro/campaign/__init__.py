"""Parallel diagnosis campaigns: staged fan-out over process pools.

The scale-out layer above single diagnosis sessions.  Declare *what* to
run (:class:`RunSpec`, grouped into :class:`Stage` barriers), pick an
execution backend (:class:`SerialExecutor` or :class:`PoolExecutor`), and
:class:`Campaign` handles fan-out, the between-stage directive-extraction
barrier, retries with exponential backoff, per-run wall-clock timeouts,
salvage of fault-stricken runs into degraded partial records, progress
streaming, and persistence into the concurrency-safe experiment store,
from which a killed campaign resumes without redoing finished runs.
"""

from .executors import PoolExecutor, RunTimeout, SerialExecutor, default_executor
from .runner import Campaign, CampaignError, CampaignResult, StageResult
from .spec import RunSpec, Stage

__all__ = [
    "PoolExecutor",
    "SerialExecutor",
    "RunTimeout",
    "default_executor",
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "StageResult",
    "RunSpec",
    "Stage",
]
