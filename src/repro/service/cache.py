"""Warm per-geometry scheduler cache.

Scheduler construction is not free: a :class:`~repro.core.qrm.
QrmScheduler` derives four :class:`~repro.lattice.geometry.
QuadrantFrame` affine coefficient sets and resolves its scan limits.
The service therefore
keys live scheduler instances by the full scheduling identity —
geometry extents, algorithm name, parameter overrides — in a small
LRU, so steady-state requests for the hot geometries never re-derive
any of it.

:class:`SchedulerKey` is that identity as a hashable value object; it
doubles as the request vocabulary (clients ship its payload dict next
to the occupancy grid) and as the micro-batcher's grouping key — two
requests share a ``schedule_batch`` call exactly when their keys match.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping, NamedTuple

from repro.errors import ConfigurationError

#: The answer to a request that still names QRM overrides in ``qrm``.
QRM_FIELD_REFUSAL = (
    "'qrm' is not a request field; send QRM overrides in 'params', "
    "e.g. {\"params\": {\"scan_mode\": \"fresh\"}}"
)


class SchedulerKey(NamedTuple):
    """Hashable identity of one scheduler configuration.

    ``geometry`` is ``(width, height, target_width, target_height)``;
    ``params`` holds the registry factory's keyword arguments (QRM's
    :class:`~repro.config.QrmParameters` fields, PSCA's tweezer budget)
    as a sorted item tuple, so the key hashes while round-tripping to a
    plain dict for the wire.  ``mask`` is the
    :meth:`repro.lattice.mask.TargetMask.token` encoding of a
    non-rectangular target (or None for the paper's centred rectangle).
    """

    geometry: tuple[int, int, int, int]
    algorithm: str = "qrm"
    params: tuple[tuple[str, Any], ...] = ()
    mask: str | None = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SchedulerKey":
        """Build the key from a wire request dict."""
        try:
            geometry = tuple(int(v) for v in payload["geometry"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                "a schedule request needs a 4-tuple 'geometry'"
            ) from exc
        if len(geometry) != 4:
            raise ConfigurationError(
                f"geometry must be (width, height, target_width, "
                f"target_height), got {len(geometry)} values"
            )
        if payload.get("qrm") is not None:
            raise ConfigurationError(QRM_FIELD_REFUSAL)
        params = payload.get("params") or {}
        mask = payload.get("mask")
        try:
            key = cls(
                geometry=geometry,
                algorithm=str(payload.get("algorithm", "qrm")),
                params=tuple(sorted(params.items())),
                mask=str(mask) if mask is not None else None,
            )
            hash(key)  # the micro-batcher groups requests by key
        except (AttributeError, TypeError) as exc:
            raise ConfigurationError(
                "'params' must map names to hashable values"
            ) from exc
        return key

    def to_payload(self) -> dict[str, Any]:
        """The wire request dict (inverse of :meth:`from_payload`)."""
        payload = {
            "geometry": self.geometry,
            "algorithm": self.algorithm,
            "params": dict(self.params),
        }
        if self.mask is not None:
            payload["mask"] = self.mask
        return payload

    def to_geometry(self):
        """The :class:`~repro.lattice.geometry.ArrayGeometry` this key names.

        Decodes the mask token when present; the full constructor (not
        ``with_mask``) is used so a key whose rectangle extents disagree
        with the mask's bounding box is rejected.
        """
        from repro.lattice.geometry import ArrayGeometry

        if self.mask is None:
            return ArrayGeometry(*self.geometry)
        from repro.lattice.mask import TargetMask

        try:
            mask = TargetMask.from_token(self.mask)
        except Exception as exc:
            raise ConfigurationError(f"bad mask token: {exc}") from exc
        return ArrayGeometry(*self.geometry, mask=mask)


def resolve_scheduler(key: SchedulerKey):
    """Construct the scheduler a key names (the cache's factory)."""
    from repro.baselines.base import get_algorithm

    try:
        return get_algorithm(key.algorithm, key.to_geometry(), **dict(key.params))
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from exc


class SchedulerCache:
    """LRU of live scheduler instances keyed by :class:`SchedulerKey`."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[SchedulerKey, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: SchedulerKey) -> bool:
        return key in self._entries

    def get(self, key: SchedulerKey):
        """The scheduler for ``key``, constructing and evicting as needed."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = resolve_scheduler(key)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
