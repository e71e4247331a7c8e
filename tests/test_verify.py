import math

import numpy as np
import pytest

from hjwave import Grid
from hjwave.verify import random_mode_field


def dense_random_mode_field(grid, seed, modes=3, amplitude=1e-3):
    """Reference: the same draws summed on a full meshgrid, out of place."""
    rng = np.random.default_rng(seed)
    values = np.ones(grid.shape, dtype=np.complex128)
    coords = grid.meshgrid()
    for _ in range(modes):
        alpha = rng.integers(-2, 3, size=grid.ndim)
        while not np.any(alpha):
            alpha = rng.integers(-2, 3, size=grid.ndim)
        amp = amplitude * (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        phase = sum(a * x for a, x in zip(alpha, coords))
        values = values + amp * np.exp(1j * phase)
    return values


@pytest.mark.parametrize("shape", [(64,), (128, 128), (12, 12, 12), (16, 8)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_mode_field_matches_dense_reference_bitwise(shape, seed):
    grid = Grid(shape, (2 * math.pi,) * len(shape))
    got = random_mode_field(grid, seed).values
    assert got.tobytes() == dense_random_mode_field(grid, seed).tobytes()
