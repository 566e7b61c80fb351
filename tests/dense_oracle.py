"""Test-local oracle: the dense correlation matrix C of a model over a grid.

The library never forms C; ``gaussfield.low_rank_factor`` builds a factor
L with L L' close to C, and the tests check that factor against this matrix.
"""

import numpy as np


def per_block_reference(model, grid, scale=None):
    """C over the flattened grid at lags scaled by the (s, t) pair ``scale``:
    one rho call per block of the lower block triangle, mirrored by
    transposition."""
    s_scale, t_scale = (1.0, 1.0) if scale is None else scale
    pts = grid.spatial_points * float(s_scale)
    times = grid.time_points * float(t_scale)
    ns = grid.n_space
    spatial_lags = pts[:, None, :] - pts[None, :, :]
    out = np.empty((grid.size, grid.size))
    for i in range(grid.n_time):
        for j in range(i + 1):
            block = np.asarray(model.rho(spatial_lags, times[i] - times[j]), dtype=float)
            out[i * ns:(i + 1) * ns, j * ns:(j + 1) * ns] = block
            if i != j:
                out[j * ns:(j + 1) * ns, i * ns:(i + 1) * ns] = block.T
    return out
