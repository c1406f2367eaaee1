"""Shared quadrature rules and spectral sums."""

import numpy as np

from gamow_lab.quadrature import _SINE_CHUNK, sine_sum


def test_sine_sum_matches_one_product_across_chunks():
    rng = np.random.default_rng(7)
    n = 2 * _SINE_CHUNK + 17
    k = rng.uniform(0.0, 300.0, n)
    c = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(n)
    x = np.linspace(0.0, 1.0, 9)
    naive = c @ np.sin(np.outer(k, x))
    assert np.max(np.abs(sine_sum(c, k, x) - naive)) < 1e-13
