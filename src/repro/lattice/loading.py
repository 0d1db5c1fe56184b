"""Stochastic atom loading models.

Real neutral-atom machines load each optical trap independently with a
probability of roughly 50 % (collisional blockade).  The paper evaluates
on "a randomly generated matrix representing a random distribution of
atoms", which :func:`load_uniform` reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LoadingError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry

#: Loading probability assumed throughout the paper.
DEFAULT_FILL = 0.5


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed/generator/None into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def load_uniform(
    geometry: ArrayGeometry,
    fill: float = DEFAULT_FILL,
    rng: int | np.random.Generator | None = None,
) -> AtomArray:
    """Independent Bernoulli loading with probability ``fill`` per trap."""
    if not 0.0 <= fill <= 1.0:
        raise LoadingError(f"fill probability must be in [0, 1], got {fill}")
    gen = as_rng(rng)
    grid = gen.random(geometry.shape) < fill
    return AtomArray(geometry, grid)


def load_poisson_clusters(
    geometry: ArrayGeometry,
    fill: float = DEFAULT_FILL,
    rng: int | np.random.Generator | None = None,
    cluster_rate: float = 0.02,
    cluster_sigma: float = 1.5,
) -> AtomArray:
    """Spatially clustered loading (a Thomas cluster process).

    Uniform Bernoulli loading assumes independent traps, but real MOT
    loading shows spatial correlation: density ripples from the cooling
    beams load patches of neighbouring traps together.  This model draws
    Poisson-distributed cluster centres (``cluster_rate`` per site) and
    boosts the loading probability near each centre with a Gaussian
    kernel of width ``cluster_sigma``, normalised so the *expected* fill
    stays ``fill`` — campaigns can swap ``uniform`` for ``poisson``
    loading without changing the mean atom budget.
    """
    if not 0.0 <= fill <= 1.0:
        raise LoadingError(f"fill probability must be in [0, 1], got {fill}")
    if cluster_rate <= 0:
        raise LoadingError(f"cluster_rate must be positive, got {cluster_rate}")
    if cluster_sigma <= 0:
        raise LoadingError(f"cluster_sigma must be positive, got {cluster_sigma}")
    gen = as_rng(rng)
    n_clusters = int(gen.poisson(cluster_rate * geometry.n_sites))
    boost = np.zeros(geometry.shape, dtype=float)
    if n_clusters:
        centres_r = gen.uniform(0, geometry.height, size=n_clusters)
        centres_c = gen.uniform(0, geometry.width, size=n_clusters)
        rows = np.arange(geometry.height)[:, None, None]
        cols = np.arange(geometry.width)[None, :, None]
        sq = (rows - centres_r[None, None, :]) ** 2
        sq = sq + (cols - centres_c[None, None, :]) ** 2
        boost = np.exp(-sq / (2.0 * cluster_sigma**2)).sum(axis=2)
    prob = fill * (1.0 + boost)
    mean = float(prob.mean())
    if mean > 0:
        prob *= fill / mean
    np.clip(prob, 0.0, 1.0, out=prob)
    grid = gen.random(geometry.shape) < prob
    return AtomArray(geometry, grid)


#: Registered loading models selectable by name (campaign ``loading`` axis).
LOADERS = {
    "uniform": load_uniform,
    "poisson": load_poisson_clusters,
}


def load_named(
    name: str,
    geometry: ArrayGeometry,
    fill: float = DEFAULT_FILL,
    rng: int | np.random.Generator | None = None,
) -> AtomArray:
    """Dispatch to a registered loader by name (``uniform``/``poisson``)."""
    try:
        loader = LOADERS[name]
    except KeyError:
        raise LoadingError(
            f"unknown loading model {name!r}; known: {sorted(LOADERS)}"
        ) from None
    return loader(geometry, fill, rng)

