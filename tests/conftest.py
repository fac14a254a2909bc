import numpy as np
import pytest

from hbspace.catalog import (
    cusp_symbol,
    dirichlet_origin,
    dirichlet_pair,
    h2_symbol,
    inner_symbol,
    rank1_half_symbol,
)
from hbspace.harmonic import DiskFunction
from hbspace.model import SpaceHandle
from hbspace.symbols import RowSymbol, weighted_space_symbol

N_GRID = 1024


@pytest.fixture(scope="session")
def h2():
    return SpaceHandle(h2_symbol(), n_grid=N_GRID)


@pytest.fixture(scope="session")
def rank1_half():
    return SpaceHandle(rank1_half_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def cusp():
    return SpaceHandle(cusp_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def two_term():
    """Rank-2 symbol (z / sqrt(2), z^2 / 2)."""
    return SpaceHandle(RowSymbol([
        DiskFunction([0.0, 1.0 / np.sqrt(2.0)], n_boundary=N_GRID),
        DiskFunction([0.0, 0.0, 0.5], n_boundary=N_GRID),
    ]), n_grid=N_GRID)


@pytest.fixture(scope="session")
def weighted():
    """Weighted Hardy space with weights (1, 2, 2.5, 3, 3, ...), a rank-3 symbol."""
    return SpaceHandle(weighted_space_symbol([1.0, 2.0, 2.5, 3.0], n_boundary=N_GRID),
                       n_grid=N_GRID)


@pytest.fixture(scope="session")
def inner_space():
    return SpaceHandle(inner_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def d_origin():
    return dirichlet_origin()


@pytest.fixture(scope="session")
def d_pair():
    return dirichlet_pair()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_interior(rng, count, radius=0.85):
    return rng.uniform(0.05, radius, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))
