"""Unit tests for repro.lattice.loading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ScenarioCell
from repro.errors import ConfigurationError, LoadingError
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import (
    LOADERS,
    as_rng,
    load_named,
    load_poisson_clusters,
    load_uniform,
)


def _neighbour_correlation(grids: list[np.ndarray]) -> float:
    """Pearson correlation of horizontally adjacent sites, pooled."""
    left = np.concatenate([grid[:, :-1].ravel() for grid in grids])
    right = np.concatenate([grid[:, 1:].ravel() for grid in grids])
    return float(np.corrcoef(left, right)[0, 1])


class TestUniform:
    def test_seed_reproducible(self, geo20):
        a = load_uniform(geo20, 0.5, rng=7)
        b = load_uniform(geo20, 0.5, rng=7)
        assert a == b

    def test_different_seeds_differ(self, geo20):
        assert load_uniform(geo20, 0.5, rng=1) != load_uniform(geo20, 0.5, rng=2)

    def test_fill_statistics(self):
        geo = ArrayGeometry.square(50, 30)
        array = load_uniform(geo, 0.5, rng=3)
        # Binomial(2500, 0.5): five sigma is +-125.
        assert 1125 <= array.n_atoms <= 1375

    def test_extreme_fills(self, geo20):
        assert load_uniform(geo20, 0.0, rng=0).n_atoms == 0
        assert load_uniform(geo20, 1.0, rng=0).n_atoms == geo20.n_sites

    def test_invalid_fill_rejected(self, geo20):
        with pytest.raises(LoadingError):
            load_uniform(geo20, 1.5)
        with pytest.raises(LoadingError):
            load_uniform(geo20, -0.1)


class TestPoissonClusters:
    def test_seed_reproducible(self, geo20):
        assert load_poisson_clusters(geo20, 0.5, rng=7) == load_poisson_clusters(
            geo20, 0.5, rng=7
        )

    def test_different_seeds_differ(self, geo20):
        assert load_poisson_clusters(geo20, 0.5, rng=1) != load_poisson_clusters(
            geo20, 0.5, rng=2
        )

    def test_mean_fill_is_kept(self):
        # The boost is normalised so the expected fill stays ``fill``:
        # 20 loads of 2500 sites pool to within a few standard errors.
        geo = ArrayGeometry.square(50, 30)
        for fill in (0.3, 0.5):
            atoms = [load_poisson_clusters(geo, fill, rng=s).n_atoms for s in range(20)]
            assert abs(np.mean(atoms) / geo.n_sites - fill) < 0.01

    def test_neighbours_are_correlated(self):
        # Clusters load neighbouring traps together, which independent
        # Bernoulli loading never does.
        geo = ArrayGeometry.square(50, 30)
        seeds = range(20)
        clustered = [load_poisson_clusters(geo, 0.5, rng=s).grid for s in seeds]
        uniform = [load_uniform(geo, 0.5, rng=s).grid for s in seeds]
        assert _neighbour_correlation(clustered) > 0.04
        assert abs(_neighbour_correlation(uniform)) < 0.02

    def test_zero_fill_is_empty(self, geo20):
        assert load_poisson_clusters(geo20, 0.0, rng=0).n_atoms == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fill": 1.5},
            {"fill": -0.1},
            {"cluster_rate": 0.0},
            {"cluster_sigma": 0.0},
        ],
        ids=["fill-above-1", "fill-below-0", "no-clusters", "no-width"],
    )
    def test_invalid_parameters_rejected(self, geo20, kwargs):
        with pytest.raises(LoadingError):
            load_poisson_clusters(geo20, **kwargs)


class TestLoadNamed:
    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_dispatches_to_the_registered_loader(self, geo20, name):
        assert load_named(name, geo20, 0.4, rng=5) == LOADERS[name](geo20, 0.4, 5)

    def test_registry_names_the_campaign_models(self):
        assert LOADERS == {"uniform": load_uniform, "poisson": load_poisson_clusters}

    def test_unknown_model_rejected(self, geo20):
        with pytest.raises(LoadingError, match="known: \\['poisson', 'uniform'\\]"):
            load_named("gradient", geo20)

    def test_campaign_cells_accept_only_registered_models(self):
        assert ScenarioCell(size=8, loading="poisson").loading == "poisson"
        with pytest.raises(ConfigurationError, match="unknown loading model"):
            ScenarioCell(size=8, loading="gradient")


class TestAsRng:
    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_int_seed(self):
        assert isinstance(as_rng(5), np.random.Generator)

    def test_none(self):
        assert isinstance(as_rng(None), np.random.Generator)
