import tracemalloc

import numpy as np
import pytest

from dissipwave import Field, gaussian_bump, make_grid


@pytest.fixture
def grid1d():
    return make_grid(1, 64, 8.0)


@pytest.fixture
def grid2d():
    return make_grid(2, 32, 8.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def bump1d(grid1d):
    return gaussian_bump(grid1d, 1.0, 1.0)


def zero_field(grid):
    return Field(grid, np.zeros(grid.shape))


def traced_peak(run) -> int:
    """The most memory, in bytes, that tracemalloc sees allocated from
    the start of tracing through run(); tracing is stopped however run
    ends.  run may read tracemalloc itself (marks at snapshot times, or
    what is left when it returns)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
