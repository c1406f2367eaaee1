"""Quadrature helpers: panelized Gauss-Legendre rules for oscillatory and
resonance-spiked integrands on the half line, and the sine sums that turn
spectral nodes into wave functions.

The spectral integrals this package evaluates have two hostile features:
extremely narrow Lorentzian spikes at the resonance positions, and a phase
exp(-i k^2 t) whose local frequency grows linearly in k.  Both are handled
by panel construction (analytic phase-budget edges plus geometric refinement
around each spike) rather than by blind global adaptivity.

Every Gauss-Legendre rule in the package comes from panel_nodes, so each
order is computed once per process.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .exceptions import QuadratureNotConverged

#: Gauss-Legendre orders of a main rule and of its error control on the
#: same panels (the direct route's k panels and the rotated route's ray)
MAIN_ORDER, CONTROL_ORDER = 16, 12
#: phase advance per panel of phase_budget_edges (radians)
_PHASE_BUDGET = 8.0
#: growth factor of spike_edges' panels away from the peak
_SPIKE_RATIO = 1.35
#: adaptive_gl: rule order (control at half of it), first panels, rounds
_ADAPTIVE_ORDER, _ADAPTIVE_PANELS, _ADAPTIVE_DEPTH = 16, 8, 30
#: nodes per block of sine_sum (bounds the outer-product workspace)
_SINE_CHUNK = 32768


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    x, w = legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each [edges[i], edges[i+1]] panel,
    flattened into single arrays."""
    x, w = _gl_rule(order)
    lo = edges[:-1]
    h = np.diff(edges)
    nodes = lo[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)
    weights = 0.5 * h[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def sine_sum(c: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c_j sin(k_j x) at each point x, over real nodes k_j taken in
    blocks of _SINE_CHUNK."""
    out = np.zeros(x.shape, dtype=complex)
    for i in range(0, k.size, _SINE_CHUNK):
        sl = slice(i, i + _SINE_CHUNK)
        out += c[sl] @ np.sin(np.multiply.outer(k[sl], x))
    return out


def phase_budget_edges(k_max: float, t: float, base_rate: float) -> np.ndarray:
    """Panel edges on [0, k_max] so the integrand phase advance per panel,
    with local frequency 2 k t + base_rate, stays below _PHASE_BUDGET."""
    if k_max <= 0.0:
        raise ValueError("k_max must be positive")
    t = max(t, 0.0)
    # cumulative phase N(k) = (t k^2 + base_rate k) / _PHASE_BUDGET
    n_total = int(np.ceil((t * k_max ** 2 + base_rate * k_max) / _PHASE_BUDGET))
    n_total = max(n_total, 4)
    i = np.arange(n_total + 1, dtype=float)
    target = i * (t * k_max ** 2 + base_rate * k_max) / n_total
    if t > 0.0:
        edges = (-base_rate + np.sqrt(base_rate ** 2 + 4.0 * t * target)) / (2.0 * t)
    else:
        edges = target / base_rate
    edges[0], edges[-1] = 0.0, k_max
    return edges


def spike_edges(center: float, width: float, reach: float) -> np.ndarray:
    """Geometric panel edges resolving a Lorentzian-like spike.

    Covers [center - reach, center + reach], with panel size shrinking
    geometrically from the outside down to ~width/2 at the peak, so both
    the core and the slowly decaying wings are resolved.
    """
    offs = [width / 2.0]
    while offs[-1] < reach:
        offs.append(offs[-1] * _SPIKE_RATIO)
    offs = np.asarray(offs)
    return np.sort(np.concatenate([
        center - offs, [center], center + offs
    ]))


def merge_edges(base: np.ndarray, extra: np.ndarray, lo: float,
                hi: float) -> np.ndarray:
    """Merge two edge sets on [lo, hi], dropping duplicate edges."""
    e = np.concatenate([base, extra])
    e = e[(e >= lo) & (e <= hi)]
    return np.unique(np.concatenate([[lo, hi], e]))


def adaptive_gl(f, a: float, b: float, tol: float):
    """Adaptive panel-splitting Gauss-Legendre quadrature.

    ``f`` maps a node array (n,) to values of shape (n,) or (n, m); the
    integral is taken along axis 0.  Per-panel error is estimated from the
    order vs order//2 difference; panels are split until the summed estimate
    is below ``tol`` (absolute, per output component).

    Returns (value, error_estimate); raises QuadratureNotConverged, with
    the summed estimate of the last evaluated panels, when the rounds run
    out or no panel is over its share of ``tol``.
    """
    edges = np.linspace(a, b, _ADAPTIVE_PANELS + 1)
    panels = [(edges[i], edges[i + 1]) for i in range(_ADAPTIVE_PANELS)]

    def _panel_val(lo, hi):
        n_hi, w_hi = panel_nodes(np.array([lo, hi]), _ADAPTIVE_ORDER)
        n_lo, w_lo = panel_nodes(np.array([lo, hi]), _ADAPTIVE_ORDER // 2)
        v_hi = np.tensordot(w_hi, np.asarray(f(n_hi)), axes=(0, 0))
        v_lo = np.tensordot(w_lo, np.asarray(f(n_lo)), axes=(0, 0))
        return v_hi, float(np.max(np.abs(v_hi - v_lo)))

    results = []
    for _ in range(_ADAPTIVE_DEPTH):
        for lo, hi in panels:
            val, err = _panel_val(lo, hi)
            results.append((lo, hi, val, err))
        results.sort(key=lambda r: -r[3])
        total_err = sum(r[3] for r in results)
        if total_err < tol:
            return sum(r[2] for r in results), total_err
        # split the offending panels, keep the rest
        budget = tol / len(results)
        worst = [r for r in results if r[3] > budget]
        if not worst:
            break
        results = [r for r in results if r[3] <= budget]
        panels = []
        for lo, hi, _, _ in worst:
            mid = 0.5 * (lo + hi)
            panels.extend([(lo, mid), (mid, hi)])
    raise QuadratureNotConverged(
        f"adaptive quadrature error estimate {total_err:.3e} > {tol:.1e}",
        estimate=total_err)
