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

A sine matrix sin(k_j x_m) is summed by panel_sine_sum (over real nodes
k_j: psi at x_m) or panel_sine_transform (over the points x_m: phi at real
nodes k_j, or at the rotated route's complex ones), never formed.  Both
take flat nodes and sort them into cells of a fixed k lattice of width
2 / max|x| (dyadic cells near k = 0), whatever quadrature panels they came
from, and expand each node about its cell's centre, k_j = K_c + delta_j.
So sin and cos are taken once per cell and point, about k_max max|x| / 2
cells rather than once per node or per panel, as in the low-rank panels
of the nonuniform FFT (Greengard & Lee, SIAM Rev. 46, 2004; Dutt &
Rokhlin, SIAM J. Sci. Comput. 14, 1993); every product is a real matrix
product.  Each call takes its nodes in one pass, so its workspace grows
with them; a caller with many nodes passes them in chunks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .exceptions import QuadratureNotConverged

#: Gauss-Legendre orders of a main rule and of its error control on the
#: same panels (the direct route's k panels and the rotated route's ray)
MAIN_ORDER, CONTROL_ORDER = 16, 12
#: Gauss-Legendre order of the x rules on [0, 1]: well_rule is one panel
#: of it, a profile's rule eight (see profiles._profile_rule)
WELL_ORDER = 128
#: phase advance per panel of phase_budget_edges (radians)
_PHASE_BUDGET = 8.0
#: growth factor of spike_edges' panels away from the peak
_SPIKE_RATIO = 1.35
#: adaptive_gl: rule order (control at half of it), first panels, rounds
_ADAPTIVE_ORDER, _ADAPTIVE_PANELS, _ADAPTIVE_DEPTH = 16, 8, 30
#: how far past its cell's half-width a node may round before it counts as
#: off one ray (relative; 1.000001^19 / 19! is still below 2^-56)
_OFF_RAY = 1e-6


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    x, w = legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each [edges[i], edges[i+1]] panel,
    flattened into single arrays."""
    nodes, weights = _panel_rule(edges[:-1], np.diff(edges), order)
    return nodes.ravel(), weights.ravel()


def _panel_rule(lo, h, order: int):
    """Gauss-Legendre nodes/weights, shape (P, order), on the panels
    [lo, lo + h]."""
    x, w = _gl_rule(order)
    nodes = lo[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)
    weights = 0.5 * h[:, None] * w[None, :]
    return nodes, weights


def _taylor_terms(r: float) -> int:
    """Terms n < N of sum_n r^n / n! such that the first dropped term is
    below 2^-56, a sixteenth of double-precision rounding: 19 at r = 1."""
    n, term = 0, 1.0
    while term > 2.0 ** -56:
        n += 1
        term *= r / n
    return n


def _run_starts(sorted_values):
    """Index of the first element of each run of equal values."""
    new = np.ones(sorted_values.size, dtype=bool)
    new[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(new)


def _cell_floors(r, h):
    """Lower edge of each radius r's cell: m h on the lattice cells
    [m h, (m + 1) h), m >= 1; h 2^(e - 1) on the dyadic cells
    [h 2^(e - 1), h 2^e) below h; 0 at r = 0.  It increases with r, so
    equal floors mean one cell."""
    floors = np.floor(r / h)
    floors *= h
    low = np.flatnonzero(r < h)
    dyadic = np.ldexp(h, np.frexp(r[low] / h)[1] - 1)
    floors[low] = np.where(r[low] > 0.0, dyadic, 0.0)
    return floors


def _expansion(ks, x):
    """The cells that every node set in ks (real nodes, or complex ones on
    one ray from 0) shares, and each set's nodes in them.

    A node's cell depends on |k| alone (see _cell_floors, with h = 2 / X
    and X = max |x|), and its centre K_c sits at the cell's mid-radius on
    the nodes' ray, so every offset has |k - K_c| X <= r, the largest
    half-width times X of the cells present: 1 with a lattice cell, less
    with dyadic ones alone.  The dyadic cells keep the expansion exact to
    rounding relative to phi near k = 0.

    Returns (centres, sets, X, r): the cell centres in increasing radius,
    per node set (idx, rows, u, at) -- the stable permutation that sorts
    its flat nodes by cell, each sorted node's cell, its scaled offset
    u = (k - K_c) X, and the first sorted node of each run of nodes in one
    cell -- and X and r.  ValueError on nodes off one ray (|u| past r).
    """
    scale = float(np.max(np.abs(x), initial=0.0)) or 1.0
    h = 2.0 / scale
    ks = [np.ravel(k) for k in ks]
    ray = 1.0
    if any(np.iscomplexobj(k) for k in ks):
        far = max((complex(k[np.argmax(np.abs(k))]) for k in ks if k.size),
                  key=abs, default=0j)
        ray = far / abs(far) if far else 1.0 + 0j
    runs = []
    for k in ks:
        floors = _cell_floors(np.abs(k), h)
        idx = np.argsort(floors, kind="stable")
        floors = floors[idx]
        runs.append((idx, floors, _run_starts(floors)))
    cells = np.sort(np.concatenate([f[at] for _, f, at in runs]))
    cells = cells[_run_starts(cells)]
    half = np.where(cells >= h, 0.5 * h, 0.5 * cells)
    centres = (cells + half) * ray
    reach = float(np.max(half, initial=0.0)) * scale
    sets = []
    for k, (idx, floors, at) in zip(ks, runs):
        rows = np.repeat(np.searchsorted(cells, floors[at]),
                         np.diff(np.append(at, k.size)))
        u = (k[idx] - centres[rows]) * scale
        if not np.max(np.abs(u), initial=0.0) <= reach * (1.0 + _OFF_RAY):
            raise ValueError("the sine expansion needs nodes on one ray "
                             "from 0: real k >= 0, or complex k of one "
                             "phase")
        sets.append((idx, rows, u, at))
    return centres, sets, scale, reach


def _cell_trig(centres, x):
    """sin(K_c x) and cos(K_c x) at every cell centre and point, each as a
    tuple of real parts: (value,) at real centres, (re, im) at complex
    ones.

    Complex centres take sin(u + iv) = sin u cosh v + i cos u sinh v and
    cos(u + iv) = cos u cosh v - i sin u sinh v from real kernels, accurate
    near v = 0 (unlike (e^{iz} - e^{-iz}) / 2i) and clear of numpy's
    complex sin (see complex_sin)."""
    kx = np.multiply.outer(centres, x)
    if np.isrealobj(kx):
        return (np.sin(kx),), (np.cos(kx),)
    sin_u, cos_u = np.sin(kx.real), np.cos(kx.real)
    cosh_v, sinh_v = np.cosh(kx.imag), np.sinh(kx.imag)
    return ((sin_u * cosh_v, cos_u * sinh_v),
            (cos_u * cosh_v, -sin_u * sinh_v))


def complex_sin(z):
    """sin z at complex z from real kernels, sin u cosh v + i cos u sinh v,
    as _cell_trig takes it: numpy's complex sin runs up to ten times
    slower in a process that has done a complex matrix product.  At v = 0
    it is sin u + 0i, the real sine."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    out.real = np.sin(z.real)
    out.real *= np.cosh(z.imag)
    out.imag = np.cos(z.real)
    out.imag *= np.sinh(z.imag)
    return out


def _trig_product(trig, pairs):
    """trig @ z for a trig matrix in _cell_trig's real parts and z given
    as _real_pairs(z): one real matrix product per part."""
    out = (trig[0] @ pairs).view(complex)
    if len(trig) > 1:
        out = out + 1j * (trig[1] @ pairs).view(complex)
    return out


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


def panel_sine_sum(cs, ks, x):
    """sum_j c_j sin(k_j x) at each point x, for each real node set k in
    ks with its coefficients c in cs (any order, any shape).  Returns one
    complex array shaped like x per node set.

    With k = K_c + delta about its cell's centre (see _expansion),
    sin(k x) = sum_n (delta x)^n / n! sin(K_c x + n pi/2): sines and
    cosines of K_c x are formed once per cell and point and shared by the
    node sets, whose nodes enter through the cell moments
    sum_i c_i delta_i^n (sums over runs of sorted nodes); the sums over
    cells are one matrix product per parity of n.
    """
    x = np.asarray(x, dtype=float)
    centres, sets, scale, reach = _expansion(ks, x)
    cs = [np.ravel(np.asarray(c, dtype=complex)) for c in cs]
    n = _taylor_terms(reach)
    coeff = _taylor_signs(n)
    moments = []
    for c, (idx, rows, u, at) in zip(cs, sets):
        mom = np.zeros((centres.size, n), dtype=complex)
        if idx.size:
            term = c[idx]
            sums = np.empty((at.size, n), dtype=complex)
            for j in range(n):
                sums[:, j] = np.add.reduceat(term, at)
                term *= u
            mom[rows[at]] = sums * coeff
        moments.append(mom)
    # by parity of n: (x.size, node sets, terms), summed over the cells
    acc = []
    for p, (trig,) in enumerate(_cell_trig(centres, x)):
        both = np.concatenate([m[:, p::2] for m in moments], axis=1)
        acc.append((trig.T @ _real_pairs(both)).view(complex).reshape(
            x.size, len(sets), -1))
    powers = np.power.outer(x / scale, np.arange(n))
    return [np.einsum("mj,mj->m", acc[0][:, r], powers[:, 0::2])
            + np.einsum("mj,mj->m", acc[1][:, r], powers[:, 1::2])
            for r in range(len(sets))]


def panel_sine_transform(coef, x, ks):
    """sum_m coef_m sin(k x_m) at every node k of each node set in ks: real
    nodes, or complex ones on one ray from 0, in any order and shape.
    Returns one complex array shaped like each node set.

    The expansion of panel_sine_sum, summed the other way: one matrix
    product per trig matrix gives
    g_n = sum_m coef_m x_m^n sin(K_c x_m + n pi/2) / n! at every cell, and
    each node takes a Horner sum in its offset delta over its cell's g.
    The products are real (two per trig matrix at complex centres), never
    complex ones.
    """
    x = np.asarray(x, dtype=float)
    centres, sets, scale, reach = _expansion(ks, x)
    n = _taylor_terms(reach)
    scaled = (np.asarray(coef, dtype=complex)[:, None]
              * np.power.outer(x / scale, np.arange(n)) * _taylor_signs(n))
    g = np.empty((n, centres.size), dtype=complex)
    for p, trig in enumerate(_cell_trig(centres, x)):
        g[p::2] = _trig_product(trig, _real_pairs(scaled[:, p::2])).T
    outs = []
    for k, (idx, rows, u, _) in zip(ks, sets):
        acc = g[n - 1, rows]
        for j in range(n - 2, -1, -1):
            acc *= u
            acc += g[j, rows]
        out = np.empty(np.shape(k), dtype=complex)
        out.reshape(-1)[idx] = acc
        outs.append(out)
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
    """Merge two edge sets on [lo, hi], dropping duplicate edges.

    Sorted once, keeping the first edge of each run of equal ones:
    np.unique's values, without the numpy.ma import its first call costs.
    """
    e = np.concatenate([base, extra])
    e = np.sort(np.concatenate([[lo, hi], e[(e >= lo) & (e <= hi)]]))
    return e[_run_starts(e)]


def adaptive_gl(f, a: float, b: float, tol: float):
    """Adaptive panel-splitting Gauss-Legendre quadrature.

    ``f`` maps a node array (n,) to real or complex values (n,).
    Per-panel error is estimated from the order vs order//2 difference;
    panels are split until the summed estimate is below ``tol``
    (absolute).  Each round takes every new panel's nodes in one call of
    ``f`` per order.

    Returns (value, error_estimate); raises QuadratureNotConverged, with
    the summed estimate of the last evaluated panels, when the rounds run
    out or no panel is over its share of ``tol``.
    """
    edges = np.linspace(a, b, _ADAPTIVE_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    results = []
    for _ in range(_ADAPTIVE_DEPTH):
        sums = []
        for order in (_ADAPTIVE_ORDER, _ADAPTIVE_ORDER // 2):
            nodes, weights = _panel_rule(lo, hi - lo, order)
            vals = np.asarray(f(nodes.ravel())).reshape(lo.size, order, 1)
            # per panel: weights (1, order) @ values (order, 1)
            sums.append((weights[:, None, :] @ vals)[:, 0, 0])
        v_hi, v_lo = sums
        errs = np.abs(v_hi - v_lo)
        results.extend(zip(lo, hi, v_hi, errs.tolist()))
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
        lo = np.array([r[0] for r in worst])
        hi = np.array([r[1] for r in worst])
        mid = 0.5 * (lo + hi)
        lo, hi = (np.stack([lo, mid], axis=1).ravel(),
                  np.stack([mid, hi], axis=1).ravel())
    raise QuadratureNotConverged(
        f"adaptive quadrature error estimate {total_err:.3e} > {tol:.1e}",
        estimate=total_err)
