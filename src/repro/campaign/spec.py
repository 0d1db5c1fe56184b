"""Declarative campaign specifications and grid expansion.

A :class:`CampaignSpec` names a cartesian grid of scenarios — array
size, target geometry, loading fill fraction, rearrangement algorithm,
and optional atom-loss model — plus the number of seeded trials per
grid cell.  The spec is pure data: it can be hashed stably (for the
on-disk trial cache), serialised to JSON (for the ``repro campaign``
CLI), and expanded into :class:`ScenarioCell` objects that the engine
turns into trials.

Seeding contract
----------------
Per-trial RNG streams derive from ``numpy.random.SeedSequence`` with
entropy ``[master_seed, instance_entropy(cell)]`` where the *instance*
part of a cell deliberately excludes the algorithm and loss model.
Two consequences:

* algorithms compared within one campaign see **identical** loaded
  arrays (a paired design, like the paper's Fig. 7(b) comparison);
* extending a campaign with more seeds, algorithms, or grid cells
  never changes the seeds of the trials that already ran, so the disk
  cache stays valid incrementally.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.config import QrmParameters, is_int, known_fields
from repro.errors import ConfigurationError
from repro.physics.loss import LossModel

#: Bump to invalidate every cached trial when the metric schema changes.
TRIAL_SCHEMA_VERSION = 3

#: The random stream lossy replay draws from; bump it when replay's draws
#: change.  It enters the trial key and the spec hash of lossy cells only,
#: so lossy results drawn under another stream are neither served from a
#: cache nor resumed into one table with fresh ones, while loss-free keys
#: keep their bytes.
LOSS_STREAM_VERSION = 2


def stable_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stable_entropy(payload: Any) -> int:
    """A 128-bit integer digest usable as ``SeedSequence`` entropy."""
    return int(stable_hash(payload)[:32], 16)


def _is_kind(value: Any, kind: str) -> bool:
    """Does decoded JSON ``value`` have ``kind``?

    Kinds are ``int``, ``number``, ``str``, ``bool``, ``list``,
    ``object`` and ``pair`` (a list of two ints); a trailing ``?`` also
    admits null, and ``[kind]`` is a list of them.
    """
    if kind.startswith("["):
        return isinstance(value, (list, tuple)) and all(
            _is_kind(item, kind[1:-1]) for item in value
        )
    if kind == "pair":
        return _is_kind(value, "[int]") and len(value) == 2
    if kind.endswith("?"):
        return value is None or _is_kind(value, kind[:-1])
    if kind in ("int", "number"):
        return is_int(value) or (kind == "number" and isinstance(value, float))
    types = {"str": str, "bool": bool, "list": (list, tuple), "object": Mapping}
    return isinstance(value, types[kind])


def _decoded(cls: type, data: Any, **kinds: str) -> dict[str, Any]:
    """``data`` as keyword arguments of ``cls``, each field of its ``kind``."""
    payload = known_fields(cls, data)
    for name, kind in kinds.items():
        if name in payload and not _is_kind(payload[name], kind):
            raise ConfigurationError(
                f"{cls.__name__} field {name!r} must be {kind}, "
                f"got {payload[name]!r}"
            )
    return payload


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so params stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON rendering."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class MaskSpec:
    """Serialisable recipe for a :class:`repro.lattice.mask.TargetMask`.

    A campaign axis value: ``kind`` names a mask family and ``params``
    carries that family's knobs as sorted ``(name, value)`` pairs
    (tuples, so cells stay hashable).  The recipe is size-relative:
    :meth:`build` instantiates it for a concrete array size, which lets
    one spec sweep cleanly across a campaign's ``sizes`` axis.

    Families: ``ring`` (annulus; ``outer``/``inner`` radii, outer
    defaults to ``0.35 * size``), ``triangular`` (offset-row lattice;
    ``pitch``/``margin``), ``sparse`` (explicit ``sites`` list of
    ``(row, col)`` pairs), and ``rect`` (centred rectangle;
    ``height``/``width`` — the paper's special case, mainly for
    equivalence tests).
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    #: Each family's parameters, with the kind of value each takes.
    PARAMS = {
        "rect": {"height": "number", "width": "number"},
        "ring": {"outer": "number", "inner": "number"},
        "triangular": {"pitch": "number", "margin": "number"},
        "sparse": {"sites": "[pair]"},
    }

    def __post_init__(self) -> None:
        if self.kind not in self.PARAMS:
            raise ConfigurationError(
                f"unknown mask kind {self.kind!r}; known: {', '.join(self.PARAMS)}"
            )
        object.__setattr__(
            self,
            "params",
            tuple(sorted((str(key), _freeze(value)) for key, value in self.params)),
        )
        known = self.PARAMS[self.kind]
        for key, value in self.params:
            if key not in known:
                raise ConfigurationError(
                    f"a {self.kind} mask has no parameter {key!r}; "
                    f"known: {', '.join(known)}"
                )
            if not _is_kind(value, known[key]):
                raise ConfigurationError(
                    f"{self.kind} mask parameter {key!r} must be {known[key]}, "
                    f"got {_thaw(value)!r}"
                )
        if self.kind == "sparse" and not self.param_dict().get("sites"):
            raise ConfigurationError(
                "a sparse mask needs a non-empty 'sites' parameter"
            )

    @classmethod
    def of(cls, kind: str, **params: Any) -> "MaskSpec":
        """Keyword-argument convenience constructor."""
        return cls(kind=kind, params=tuple(params.items()))

    @classmethod
    def parse(cls, text: str) -> "MaskSpec":
        """Parse a CLI mask string: ``kind[:key=value,...]``.

        Examples: ``ring``, ``ring:outer=5,inner=2.5``,
        ``triangular:pitch=2,margin=1``, ``sparse:sites=1-2+3-4``
        (``row-col`` pairs joined by ``+``), ``rect:height=4,width=6``.
        """
        kind, _, rest = text.partition(":")
        params: dict[str, Any] = {}
        if rest:
            for item in rest.split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key:
                    raise ConfigurationError(
                        f"mask parameter {item!r} is not of the form key=value"
                    )
                if key == "sites":
                    sites = []
                    for pair in raw.split("+"):
                        row, sep, col = pair.partition("-")
                        if not sep:
                            raise ConfigurationError(
                                f"mask site {pair!r} is not of the form row-col"
                            )
                        sites.append((int(row), int(col)))
                    params[key] = tuple(sites)
                else:
                    try:
                        params[key] = int(raw)
                    except ValueError:
                        try:
                            params[key] = float(raw)
                        except ValueError:
                            raise ConfigurationError(
                                f"mask parameter {key}={raw!r} is not numeric"
                            ) from None
        return cls.of(kind, **params)

    def param_dict(self) -> dict[str, Any]:
        return {key: value for key, value in self.params}

    def build(self, size: int):
        """Instantiate the recipe as a ``TargetMask`` for a size x size array."""
        from repro.lattice.mask import TargetMask

        params = self.param_dict()
        if self.kind == "ring":
            outer = float(params.get("outer", max(1.0, size * 0.35)))
            inner = float(params.get("inner", 0.0))
            return TargetMask.ring(size, size, outer, inner)
        if self.kind == "triangular":
            return TargetMask.triangular_lattice(
                size,
                size,
                pitch=int(params.get("pitch", 2)),
                margin=int(params.get("margin", 1)),
            )
        if self.kind == "sparse":
            return TargetMask.sparse_sites(
                size, size, [(int(row), int(col)) for row, col in params["sites"]]
            )
        height = int(params.get("height", max(2, size // 2)))
        width = int(params.get("width", height))
        return TargetMask.rect(size, size, height, width)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "params": {key: _thaw(value) for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MaskSpec":
        payload = _decoded(cls, data, kind="str", params="object")
        return cls(
            kind=payload["kind"], params=tuple(payload.get("params", {}).items())
        )

    def label(self) -> str:
        if not self.params:
            return self.kind
        rendered = []
        for key, value in self.params:
            if key == "sites":
                rendered.append(f"sites={len(value)}")
            else:
                rendered.append(f"{key}={value:g}" if isinstance(value, float)
                                else f"{key}={value}")
        return f"{self.kind}({','.join(rendered)})"


@dataclass(frozen=True)
class ScenarioCell:
    """One grid point of a campaign: a fully specified scenario.

    ``fpga`` asks the trial to also run the cycle-level accelerator
    model (only meaningful for the ``qrm`` algorithm); ``timing`` adds
    measured Python wall-clock metrics, which are inherently
    non-deterministic and therefore excluded from both the engine's
    determinism guarantee and the on-disk trial cache (timing cells
    always re-execute).

    ``cycles > 1`` turns the trial into a closed-loop run through
    :mod:`repro.pipeline`: rearrange, apply losses, re-image, repair —
    up to ``cycles`` camera frames per trial, retiring early once
    detection sees a defect-free target.
    """

    algorithm: str = "qrm"
    size: int = 20
    target: int | None = None
    fill: float = 0.5
    loss: LossModel | None = None
    fpga: bool = False
    timing: bool = False
    qrm: QrmParameters | None = None
    cycles: int = 1
    mask: MaskSpec | None = None
    loading: str = "uniform"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"size must be positive, got {self.size}")
        if not 0.0 <= self.fill <= 1.0:
            raise ConfigurationError(f"fill must be in [0, 1], got {self.fill}")
        if self.cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {self.cycles}")
        if self.target is not None and not 0 < self.target <= self.size:
            raise ConfigurationError(
                f"target must be in [1, size], got {self.target} for size {self.size}"
            )
        if self.mask is not None and self.target is not None:
            raise ConfigurationError(
                "a cell takes either a rectangular 'target' size or a "
                "'mask' recipe, not both"
            )
        if self.loading != "uniform":
            from repro.lattice.loading import LOADERS

            if self.loading not in LOADERS:
                raise ConfigurationError(
                    f"unknown loading model {self.loading!r}; "
                    f"known: {', '.join(sorted(LOADERS))}"
                )
        if self.fpga and self.algorithm != "qrm":
            raise ConfigurationError(
                "the FPGA cycle model only implements the 'qrm' algorithm; "
                f"cell requested fpga metrics for '{self.algorithm}'"
            )
        if self.qrm is not None and self.algorithm != "qrm":
            raise ConfigurationError(
                "qrm parameter overrides only apply to the 'qrm' algorithm; "
                f"cell requested them for '{self.algorithm}'"
            )

    def instance_key(self) -> dict[str, Any]:
        """The part of the cell that defines the random *instance*.

        Excludes the algorithm and loss model so that every algorithm
        in a campaign is evaluated on identical loaded arrays.  The
        mask and loading keys appear only when non-default, so every
        pre-mask instance key (and thus every cached trial's seed
        stream) is untouched by the geometry generalisation.
        """
        key: dict[str, Any] = {
            "size": self.size,
            "target": self.target,
            "fill": self.fill,
        }
        if self.mask is not None:
            key["mask"] = self.mask.to_dict()
        if self.loading != "uniform":
            key["loading"] = self.loading
        return key

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "algorithm": self.algorithm,
            "size": self.size,
            "target": self.target,
            "fill": self.fill,
            "loss": self.loss.to_dict() if self.loss is not None else None,
            "fpga": self.fpga,
            "timing": self.timing,
            "qrm": self.qrm.to_dict() if self.qrm is not None else None,
            "cycles": self.cycles,
        }
        # Omitted at their defaults: rectangle cells keep byte-identical
        # dicts (and trial cache keys) across the mask generalisation.
        if self.mask is not None:
            payload["mask"] = self.mask.to_dict()
        if self.loading != "uniform":
            payload["loading"] = self.loading
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioCell":
        payload = _decoded(
            cls,
            data,
            algorithm="str",
            size="int",
            target="int?",
            fill="number",
            fpga="bool",
            timing="bool",
            cycles="int",
            loading="str",
        )
        for name, model in (
            ("loss", LossModel), ("qrm", QrmParameters), ("mask", MaskSpec)
        ):
            if payload.get(name) is not None:
                payload[name] = model.from_dict(payload[name])
        return cls(**payload)

    def label(self) -> str:
        parts = [self.algorithm, f"{self.size}x{self.size}", f"fill={self.fill:g}"]
        if self.target is not None:
            parts.insert(2, f"target={self.target}")
        if self.mask is not None:
            parts.insert(2, self.mask.label())
        if self.loading != "uniform":
            parts.append(f"loading={self.loading}")
        if self.qrm is not None:
            parts.append(self.qrm.label())
        if self.loss is not None:
            parts.append("loss")
        if self.cycles > 1:
            parts.append(f"cycles={self.cycles}")
        return " ".join(parts)


@dataclass(frozen=True)
class CampaignSpec:
    """A named cartesian scenario grid plus its trial count and seed.

    The grid expands in declared axis order — algorithms outermost,
    then sizes, fills, and loss models — so the row order of every
    aggregate table is deterministic.
    """

    name: str
    algorithms: tuple[str, ...] = ("qrm",)
    sizes: tuple[int, ...] = (20,)
    fills: tuple[float, ...] = (0.5,)
    targets: tuple[int | None, ...] = (None,)
    loss_models: tuple[LossModel | None, ...] = (None,)
    masks: tuple[MaskSpec | None, ...] = (None,)
    loading: str = "uniform"
    n_seeds: int = 1
    master_seed: int = 0
    fpga: bool = False
    timing: bool = False
    cycles: int = 1
    extra_cells: tuple[ScenarioCell, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a campaign needs a non-empty name")
        if self.n_seeds < 0:
            raise ConfigurationError(f"n_seeds must be >= 0, got {self.n_seeds}")
        if self.cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {self.cycles}")
        self.expand()  # every cell is checked here, not at its first trial

    def expand(self) -> list[ScenarioCell]:
        """Expand the grid into scenario cells (may be empty).

        The ``targets`` and ``masks`` axes merge into one geometry axis
        (a mask already *is* a target).  A ``None`` entry in ``masks``
        stands for "the rectangular ``targets`` axis"; non-``None``
        entries add one masked geometry each.  So ``masks=(ring,)``
        replaces the rectangle leg outright, ``masks=(None, ring)``
        runs both, and the default ``masks=(None,)`` expands to exactly
        the pre-mask grid, cell for cell.
        """
        geometries: list[tuple[int | None, MaskSpec | None]] = []
        if None in self.masks:
            geometries.extend((target, None) for target in self.targets)
        geometries.extend(
            (None, mask) for mask in self.masks if mask is not None
        )
        cells = [
            ScenarioCell(
                algorithm=algorithm,
                size=size,
                target=target,
                fill=fill,
                loss=loss,
                fpga=self.fpga and algorithm == "qrm",
                timing=self.timing,
                cycles=self.cycles,
                mask=mask,
                loading=self.loading,
            )
            for algorithm, size, (target, mask), fill, loss in itertools.product(
                self.algorithms,
                self.sizes,
                geometries,
                self.fills,
                self.loss_models,
            )
        ]
        cells.extend(self.extra_cells)
        return cells

    @property
    def n_cells(self) -> int:
        return len(self.expand())

    @property
    def n_trials(self) -> int:
        return self.n_cells * self.n_seeds

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "sizes": list(self.sizes),
            "fills": list(self.fills),
            "targets": list(self.targets),
            "loss_models": [
                loss.to_dict() if loss is not None else None
                for loss in self.loss_models
            ],
            "n_seeds": self.n_seeds,
            "master_seed": self.master_seed,
            "fpga": self.fpga,
            "timing": self.timing,
            "cycles": self.cycles,
            "extra_cells": [cell.to_dict() for cell in self.extra_cells],
        }
        # Omitted at their defaults so pre-mask specs keep their hashes.
        if self.masks != (None,):
            payload["masks"] = [
                mask.to_dict() if mask is not None else None
                for mask in self.masks
            ]
        if self.loading != "uniform":
            payload["loading"] = self.loading
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        payload = _decoded(
            cls,
            data,
            name="str",
            algorithms="[str]",
            sizes="[int]",
            fills="[number]",
            targets="[int?]",
            loss_models="list",
            masks="list",
            loading="str",
            n_seeds="int",
            master_seed="int",
            fpga="bool",
            timing="bool",
            cycles="int",
            extra_cells="list",
        )
        for axis in ("algorithms", "sizes", "fills", "targets"):
            if axis in payload:
                payload[axis] = tuple(payload[axis])
        for axis, model in (("loss_models", LossModel), ("masks", MaskSpec)):
            if axis in payload:
                payload[axis] = tuple(
                    model.from_dict(item) if item is not None else None
                    for item in payload[axis]
                )
        if "extra_cells" in payload:
            payload["extra_cells"] = tuple(
                ScenarioCell.from_dict(cell) for cell in payload["extra_cells"]
            )
        return cls(**payload)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable digest of everything that affects campaign results."""
        payload = self.to_dict()
        payload["version"] = TRIAL_SCHEMA_VERSION
        if any(cell.loss is not None for cell in self.expand()):
            payload["loss_stream"] = LOSS_STREAM_VERSION
        return stable_hash(payload)[:16]

