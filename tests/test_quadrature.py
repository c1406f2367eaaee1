"""Shared quadrature rules and spectral sums."""

import numpy as np
import pytest

from gamow_lab.exceptions import QuadratureNotConverged
from gamow_lab.quadrature import _SINE_CHUNK, adaptive_gl, sine_sum


def test_sine_sum_matches_one_product_across_chunks():
    rng = np.random.default_rng(7)
    n = 2 * _SINE_CHUNK + 17
    k = rng.uniform(0.0, 300.0, n)
    c = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(n)
    x = np.linspace(0.0, 1.0, 9)
    naive = c @ np.sin(np.outer(k, x))
    assert np.max(np.abs(sine_sum(c, k, x) - naive)) < 1e-13


def test_adaptive_gl_raises_when_rounds_run_out():
    # the step at 1/3 never lands on a panel edge, so no round reaches
    # tol; the panels split on the last round are part of the estimate
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gl(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0,
                    tol=1e-14)
    assert info.value.estimate > 1e-14

