"""Disk cache of per-trial results.

Each trial persists as one small JSON file keyed by its content hash
(cell parameters + master seed + seed index + schema version — see
:meth:`repro.campaign.trial.TrialSpec.key`).  Because the key carries
everything that determines the result, re-running a campaign is a pure
cache hit, while any spec change (fill, algorithm, loss model, seed)
misses exactly the trials it invalidates.  Extending a grid reuses all
previously executed cells.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.campaign.trial import TrialResult, TrialSpec
from repro.errors import ConfigurationError

#: Default cache root, overridable via the environment.
DEFAULT_CACHE_DIR = ".repro-cache/campaigns"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class TrialCache:
    """Content-addressed store of :class:`TrialResult` objects."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, trial: TrialSpec) -> TrialResult | None:
        """The cached result for ``trial``, or None on a miss.

        An unreadable, undecodable or malformed entry is a miss, and the
        trial's next :meth:`put` overwrites it.
        """
        path = self._path(trial.key())
        try:
            result = TrialResult.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, ConfigurationError):
            self.misses += 1
            return None
        if result.key != trial.key():
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, trial: TrialSpec, result: TrialResult) -> Path:
        """Persist ``result`` atomically (write + rename)."""
        path = self._path(trial.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(result.to_dict(), sort_keys=True))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
