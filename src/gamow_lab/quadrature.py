"""Quadrature helpers: panelized Gauss-Legendre rules for oscillatory and
resonance-spiked integrands on the half line, and the panel sine sums that
turn spectral nodes into wave functions and profiles into their sine
transforms.

The spectral integrals this package evaluates have two hostile features:
extremely narrow Lorentzian spikes at the resonance positions, and a phase
exp(-i k^2 t) whose local frequency grows linearly in k.  Both are handled
by panel construction (analytic phase-budget edges plus geometric refinement
around each spike) rather than by blind global adaptivity.

Every Gauss-Legendre rule in the package comes from panel_nodes, so each
order is computed once per process.

A sine matrix sin(k_j x_m) over panel-grouped nodes is summed by
panel_sine_sum (over the nodes k_j: psi at x_m) or panel_sine_transform
(over the points x_m: phi at k_j), never formed.  Both expand each node
about its panel centre, k_j = K_p + delta_j, so sin and cos are taken once
per panel and point rather than once per node, as in the low-rank panels
of the nonuniform FFT (Greengard & Lee, SIAM Rev. 46, 2004).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .exceptions import QuadratureNotConverged

#: Gauss-Legendre orders of a main rule and of its error control on the
#: same panels (the direct route's k panels and the rotated route's ray)
MAIN_ORDER, CONTROL_ORDER = 16, 12
#: Gauss-Legendre order of the x rules on [0, a]: well_rule is one panel
#: of it, a profile's rule eight (see profiles._profile_rule)
WELL_ORDER = 128
#: phase advance per panel of phase_budget_edges (radians)
_PHASE_BUDGET = 8.0
#: growth factor of spike_edges' panels away from the peak
_SPIKE_RATIO = 1.35
#: adaptive_gl: rule order (control at half of it), first panels, rounds
_ADAPTIVE_ORDER, _ADAPTIVE_PANELS, _ADAPTIVE_DEPTH = 16, 8, 30
#: nodes per block of the panel sine sums (bounds their workspace)
_BLOCK_NODES = 32768
#: most Taylor terms of the panel sine sums; wider panels are refused
_MAX_TERMS = 24


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


def midpoint_panels(dk: float, n: int, a: float):
    """The midpoints (j + 1/2) dk, j < n, grouped by panel for the panel
    sine sums: (k, centres) with k of shape (P, q), padded past the n-th
    midpoint to whole panels, and each panel's half-width (q - 1) dk / 2
    at most 1/a, as on the direct route's panels."""
    q = 1 + int(2.0 / (a * dk))
    rows = -(-n // q)
    k = ((np.arange(rows * q) + 0.5) * dk).reshape(rows, q)
    return k, (np.arange(rows) + 0.5) * q * dk


def _taylor_terms(r: float) -> int:
    """Terms n < N of sum_n r^n / n! such that the first dropped term is
    below 2^-56, a sixteenth of double-precision rounding."""
    n, term = 0, 1.0
    while term > 2.0 ** -56:
        n += 1
        term *= r / n
        if n > _MAX_TERMS:
            raise ValueError(
                f"panel too wide for the sine expansion: max |(k - K) x| = "
                f"{r:.3g} needs more than {_MAX_TERMS} Taylor terms")
    return n


def _expansion(ks, centres, x):
    """The node sets' scaled offsets u = (k - K_p) X from their panel
    centres, v = x / X with X = max |x|, and the term count for max |u|;
    scaling keeps every (u v)^n / n! at most r^n / n!."""
    scale = float(np.max(np.abs(x), initial=0.0)) or 1.0
    us = [(np.asarray(k, dtype=float) - centres[:, None]) * scale for k in ks]
    r = max(float(np.max(np.abs(u), initial=0.0)) for u in us)
    return us, x / scale, _taylor_terms(r)


def _panel_blocks(centres, x, nodes_per_panel):
    """(rows, sin(K_p x), cos(K_p x)) over blocks of panels holding at most
    _BLOCK_NODES nodes (one panel at least)."""
    step = max(1, _BLOCK_NODES // max(nodes_per_panel, 1))
    for i in range(0, centres.size, step):
        rows = slice(i, i + step)
        kx = np.multiply.outer(centres[rows], x)
        yield rows, np.sin(kx), np.cos(kx)


def _real_pairs(z):
    """Complex (rows, m) as real (rows, 2m), re and im side by side: a
    real matrix product acts on both, and .view(complex) on the product
    gives the complex one."""
    return np.ascontiguousarray(z, dtype=complex).view(float)


def _taylor_signs(n: int) -> np.ndarray:
    """sign_j / j! for j < n, with sin(theta + j pi/2) = sign_j times sin
    (j even) or cos (j odd) of theta: sign = +1, +1, -1, -1, ..."""
    sign = np.where(np.arange(n) % 4 < 2, 1.0, -1.0)
    return sign / np.cumprod(np.r_[1.0, np.arange(1.0, n)])


def panel_sine_sum(cs, ks, centres, x):
    """sum_j c_j sin(k_j x) at each point x, for each real node set k in
    ks with its coefficients c in cs.  Every node set is grouped by panel,
    shape (P, q), around the same panel centres K_p, shape (P,).  Returns
    one complex array shaped like x per node set.

    With k = K_p + delta, sin(k x) = sum_n (delta x)^n / n!
    sin(K_p x + n pi/2): sines and cosines of K_p x are formed once per
    panel and point and shared by the node sets, whose nodes enter through
    the panel moments sum_i c_i delta_i^n; the sums over panels are matrix
    products.  The term count follows from max |delta x| (ValueError past
    _MAX_TERMS), and the work goes in blocks of panels.
    """
    x = np.asarray(x, dtype=float)
    centres = np.asarray(centres, dtype=float)
    us, v, n = _expansion(ks, centres, x)
    cs = [np.asarray(c, dtype=complex) for c in cs]
    coeff = _taylor_signs(n)
    # by parity of n: (x.size, node sets, terms), summed over the panels
    acc = [np.zeros((x.size, len(us), (n + 1 - p) // 2), dtype=complex)
           for p in (0, 1)]
    for rows, sin_kx, cos_kx in _panel_blocks(centres, x,
                                              sum(u.shape[1] for u in us)):
        moments = []
        for c, u in zip(cs, us):
            u = u[rows]
            term = c[rows]
            mom = np.empty((u.shape[0], n), dtype=complex)
            for j in range(n):
                mom[:, j] = term.sum(axis=1)
                term = term * u
            moments.append(mom * coeff)
        for p, trig in enumerate((sin_kx, cos_kx)):
            both = np.concatenate([m[:, p::2] for m in moments], axis=1)
            acc[p] += (trig.T @ _real_pairs(both)).view(complex).reshape(
                acc[p].shape)
    powers = np.power.outer(v, np.arange(n))
    return [np.einsum("mj,mj->m", acc[0][:, r], powers[:, 0::2])
            + np.einsum("mj,mj->m", acc[1][:, r], powers[:, 1::2])
            for r in range(len(us))]


def panel_sine_transform(coef, x, ks, centres):
    """sum_m coef_m sin(k x_m) at every real node k of each node set in
    ks, grouped by panel as for panel_sine_sum.  Returns one complex array
    shaped like each node set.

    The same expansion, summed the other way: one matrix product per block
    of panels gives sum_m coef_m x_m^n sin(K_p x_m + n pi/2) / n!, and
    each node takes a Horner sum in its offset delta.
    """
    x = np.asarray(x, dtype=float)
    centres = np.asarray(centres, dtype=float)
    us, v, n = _expansion(ks, centres, x)
    scaled = (np.asarray(coef, dtype=complex)[:, None]
              * np.power.outer(v, np.arange(n)) * _taylor_signs(n))
    halves = [_real_pairs(scaled[:, p::2]) for p in (0, 1)]
    outs = [np.empty(u.shape, dtype=complex) for u in us]
    for rows, sin_kx, cos_kx in _panel_blocks(centres, x,
                                              sum(u.shape[1] for u in us)):
        g = np.empty((sin_kx.shape[0], n), dtype=complex)
        g[:, 0::2] = (sin_kx @ halves[0]).view(complex)
        g[:, 1::2] = (cos_kx @ halves[1]).view(complex)
        for out, u in zip(outs, us):
            u = u[rows]
            acc = g[:, n - 1, None] * np.ones_like(u)
            for j in range(n - 2, -1, -1):
                acc = acc * u + g[:, j, None]
            out[rows] = acc
    return outs


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


def spike_edges(centers: np.ndarray, widths: np.ndarray,
                reach: float) -> np.ndarray:
    """Geometric panel edges resolving Lorentzian-like spikes, all spikes
    at once (unsorted).

    Each covers [center - reach, center + reach], with panel size shrinking
    geometrically from the outside down to ~width/2 at the peak, so both
    the core and the slowly decaying wings are resolved.
    """
    offs = [widths / 2.0]
    while np.any(offs[-1] < reach):
        offs.append(offs[-1] * _SPIKE_RATIO)
    offs = np.stack(offs, axis=1)
    # each spike's offsets stop at the first one past reach
    keep = np.cumsum(offs >= reach, axis=1) <= 1
    c = centers[:, None]
    return np.concatenate([centers, (c - offs)[keep], (c + offs)[keep]])


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
