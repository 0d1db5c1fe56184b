"""Parallel experiment-campaign engine.

Declares Monte-Carlo scenario grids (array size x fill x algorithm x
loss model), executes every (cell, seed) trial exactly once with
deterministic ``SeedSequence``-spawned RNG streams — serially, over a
local process pool, or across ``repro worker --listen`` daemons via the
fault-tolerant dispatch fabric — caches per-trial results on disk,
records resumable JSONL run journals, and aggregates into the
``analysis`` table outputs.  See README.md ("Campaign engine") for the
spec format, the journal format, and the CLI.
"""

from repro.campaign.cache import TrialCache, default_cache_dir
from repro.campaign.dispatch import (
    DistributedExecutor,
    TcpWorkerTransport,
    WorkerSpec,
    WorkerTransport,
    parse_workers,
)
from repro.campaign.engine import (
    CampaignResult,
    CellAggregate,
    ExperimentCampaign,
    aggregate_cell,
    run_campaign,
)
from repro.campaign.executors import (
    CampaignExecutor,
    MultiprocessingExecutor,
    SerialExecutor,
    make_executor,
)
from repro.campaign.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalReplay,
    RunJournal,
    read_journal,
)
from repro.campaign.observer import (
    CampaignObserver,
    CompositeObserver,
    ConsoleObserver,
    InterruptingObserver,
    NullObserver,
)
from repro.campaign.spec import (
    CampaignSpec,
    ScenarioCell,
    stable_hash,
)
from repro.campaign.trial import (
    TrialFailure,
    TrialResult,
    TrialSpec,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "CampaignExecutor",
    "CampaignObserver",
    "CampaignResult",
    "CampaignSpec",
    "CellAggregate",
    "CompositeObserver",
    "ConsoleObserver",
    "DistributedExecutor",
    "ExperimentCampaign",
    "InterruptingObserver",
    "JournalReplay",
    "MultiprocessingExecutor",
    "NullObserver",
    "RunJournal",
    "ScenarioCell",
    "SerialExecutor",
    "TcpWorkerTransport",
    "TrialCache",
    "TrialFailure",
    "TrialResult",
    "TrialSpec",
    "WorkerSpec",
    "WorkerTransport",
    "aggregate_cell",
    "default_cache_dir",
    "make_executor",
    "parse_workers",
    "read_journal",
    "run_campaign",
    "stable_hash",
]
