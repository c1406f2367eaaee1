"""Quadrature helpers: panelized Gauss-Legendre rules for oscillatory and
resonance-spiked integrands on the half line.

The spectral integrals this package evaluates have two hostile features:
extremely narrow Lorentzian spikes at the resonance positions, and a phase
exp(-i k^2 t) whose local frequency grows linearly in k.  Both are handled
by panel construction (analytic phase-budget edges plus geometric refinement
around each spike) rather than by blind global adaptivity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    x, w = legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int = 16):
    """Gauss-Legendre nodes/weights on each [edges[i], edges[i+1]] panel,
    flattened into single arrays."""
    x, w = _gl_rule(order)
    lo = edges[:-1]
    h = np.diff(edges)
    nodes = lo[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)
    weights = 0.5 * h[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def phase_budget_edges(k_max: float, t: float, base_rate: float,
                       theta_max: float = 6.0) -> np.ndarray:
    """Panel edges on [0, k_max] so the integrand phase advance per panel,
    with local frequency 2 k t + base_rate, stays below theta_max."""
    if k_max <= 0.0:
        raise ValueError("k_max must be positive")
    t = max(t, 0.0)
    # cumulative phase N(k) = (t k^2 + base_rate k) / theta_max
    n_total = int(np.ceil((t * k_max ** 2 + base_rate * k_max) / theta_max))
    n_total = max(n_total, 4)
    i = np.arange(n_total + 1, dtype=float)
    target = i * (t * k_max ** 2 + base_rate * k_max) / n_total
    if t > 0.0:
        edges = (-base_rate + np.sqrt(base_rate ** 2 + 4.0 * t * target)) / (2.0 * t)
    else:
        edges = target / base_rate
    edges[0], edges[-1] = 0.0, k_max
    return edges


def spike_edges(center: float, width: float, reach: float,
                ratio: float = 1.35) -> np.ndarray:
    """Geometric panel edges resolving a Lorentzian-like spike.

    Covers [center - reach, center + reach], with panel size shrinking
    geometrically from the outside down to ~width/2 at the peak, so both
    the core and the slowly decaying wings are resolved.
    """
    offs = [width / 2.0]
    while offs[-1] < reach:
        offs.append(offs[-1] * ratio)
    offs = np.asarray(offs)
    return np.sort(np.concatenate([
        center - offs, [center], center + offs
    ]))


def merge_edges(base: np.ndarray, extra: np.ndarray, lo: float, hi: float,
                min_gap: float = 0.0) -> np.ndarray:
    """Merge two edge sets on [lo, hi], dropping near-duplicate edges."""
    e = np.concatenate([base, extra])
    e = e[(e >= lo) & (e <= hi)]
    e = np.unique(np.concatenate([[lo, hi], e]))
    if min_gap > 0.0:
        keep = np.concatenate([[True], np.diff(e) > min_gap])
        keep[-1] = True
        e = e[keep]
        if e[0] != lo:
            e = np.concatenate([[lo], e])
    return e


def adaptive_gl(f, a: float, b: float, tol: float, order: int = 16,
                max_depth: int = 30, initial_panels: int = 8):
    """Adaptive panel-splitting Gauss-Legendre quadrature.

    ``f`` maps a node array (n,) to values of shape (n,) or (n, m); the
    integral is taken along axis 0.  Per-panel error is estimated from the
    order vs order//2 difference; panels are split until the summed estimate
    is below ``tol`` (absolute, per output component).

    Returns (value, error_estimate).
    """
    edges = np.linspace(a, b, initial_panels + 1)
    panels = [(edges[i], edges[i + 1]) for i in range(initial_panels)]

    def _panel_val(lo, hi):
        n_hi, w_hi = panel_nodes(np.array([lo, hi]), order)
        n_lo, w_lo = panel_nodes(np.array([lo, hi]), order // 2)
        v_hi = np.tensordot(w_hi, np.asarray(f(n_hi)), axes=(0, 0))
        v_lo = np.tensordot(w_lo, np.asarray(f(n_lo)), axes=(0, 0))
        return v_hi, float(np.max(np.abs(v_hi - v_lo)))

    acc = None
    results = []
    for depth in range(max_depth):
        new_panels = []
        for lo, hi in panels:
            val, err = _panel_val(lo, hi)
            results.append((lo, hi, val, err))
        results.sort(key=lambda r: -r[3])
        total_err = sum(r[3] for r in results)
        if total_err < tol:
            break
        # split the offending panels, keep the rest
        worst, rest = [], []
        budget = tol / max(len(results), 1)
        for r in results:
            (worst if r[3] > budget else rest).append(r)
        if not worst:
            break
        panels = []
        for lo, hi, _, _ in worst:
            mid = 0.5 * (lo + hi)
            panels.extend([(lo, mid), (mid, hi)])
        results = rest
    value = sum(r[2] for r in results) if results else 0.0
    err = sum(r[3] for r in results)
    return value, err

