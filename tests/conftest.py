import numpy as np
import pytest

import gammaops as g


@pytest.fixture(scope="session")
def corpus500():
    """500 random symmetrized pairs with solved fundamental operators.

    Shared across the fundamental-side suites and the acceptance module;
    building it once keeps the whole run inside the desk-scale budget.
    """
    out = []
    for k in range(500):
        pair = g.random_pure_gamma(1 + k % 12, seed=1000 + k)
        out.append((pair, g.solve_fundamental(pair)))
    return out


@pytest.fixture(scope="session")
def pure100():
    """100 small pure pairs kept light enough for auto-truncated models."""
    return [g.random_pure_gamma(1 + k % 6, seed=9000 + k, max_norm=0.8)
            for k in range(100)]


def _dense_toeplitz(coeffs):
    """Oracle: the lower block Toeplitz array with block (i, j) = Theta_{i-j}."""
    n_blocks, r_star, r = coeffs.shape
    out = np.zeros((n_blocks * r_star, n_blocks * r), dtype=complex)
    for i in range(n_blocks):
        for j in range(i + 1):
            out[i * r_star:(i + 1) * r_star, j * r:(j + 1) * r] = coeffs[i - j]
    return out


@pytest.fixture(scope="session")
def dense_toeplitz():
    """The dense block layout of ``toeplitz_mult``, built entry by entry."""
    return _dense_toeplitz
