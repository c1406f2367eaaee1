"""Exact time evolution through the continuum spectrum (real-axis route).

Inside the well the evolved packet is

    psi(x, t) = (1/2pi) int_0^inf exp(-i k^2 t) phi(k) |A(k)|^2 sin(kx) dk,

where phi is the profile's sine transform.  |A(k)|^2 is a train of very
narrow Lorentzian spikes at the resonance positions, and the exponential
phase oscillates ever faster in k as t grows; the quadrature panels resolve
both features explicitly (see quadrature.py) and the truncated tail beyond
k_max is restored with a two-term stationary-phase endpoint correction.

Both sine sums on those panels, phi(k) at the nodes and psi(x) over them,
go through the cell expansion of quadrature.panel_sine_sum and
panel_sine_transform, which the main and control rules share; so does the
interior sum of unitarity_audit, on its flat midpoint rule.

The node count grows like 1/t (the phase panels like k_max^2 t = 3600/t),
so the direct sum walks the panels in chunks of at most 32,768 nodes of
both rules, one panel sine sum each, and adds each chunk's sums into the
result: its memory is flat in t, and only its time grows.  A chunk's
coefficients take real arithmetic, one sine and cosine of ka per node for
|A|^2 and a box mode's phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft

from .exceptions import QuadratureNotConverged
from .potential_model import (
    A_from_trig,
    B_from_trig,
    Poles,
    WellParameters,
    enumerate_poles,
    interior_weight,
    real_trig,
    weight_from_trig,
)
from .profiles import (
    InitialProfile,
    box_overlap,
    overlap_panels,
    overlap_transform,
)
from .quadrature import (
    CONTROL_ORDER,
    MAIN_ORDER,
    WELL_ORDER,
    adaptive_gl,
    merge_edges,
    panel_nodes,
    panel_sine_sum,
    phase_budget_edges,
    spike_edges,
)

#: default spectral cutoff (units of 1/a)
DEFAULT_KMAX = 40.0
#: cutoff used for the t = 0 completeness reconstruction, where there is no
#: phase damping and the profile kink makes the tail decay only like 1/k^2
T0_KMAX = 800.0

#: largest direct-route error estimate evolve_direct accepts (absolute)
_QUAD_TOL = 1e-7
#: panels per chunk of the direct sum: at most 32,768 nodes of both rules,
#: which bounds the panel sine kernels' workspace
_CHUNK_PANELS = 32768 // (MAIN_ORDER + CONTROL_ORDER)
#: zero padding of unitarity_audit's exterior FFT: any even length
#: nf >= 4n samples the 4n-1 modes of |psi_out|^2 without aliasing, and
#: _fft_length takes the smallest with no prime factor above 5
_FFT_PAD = 4
#: |phi|^2 (units of a) that a smooth profile's spectrum stays below beyond
#: unitarity_audit's cutoff
_PHI_FLOOR = 1e-14


@dataclass(frozen=True)
class WaveState:
    """Wave function samples on a spatial grid at one instant."""

    x: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("wave function values must be finite")


def well_grid(w: WellParameters, n: int) -> np.ndarray:
    """Equispaced grid on [0, a] with n nodes."""
    return np.linspace(0.0, w.a, n)


def well_rule(w: WellParameters):
    """The WELL_ORDER-point Gauss-Legendre rule (nodes, weights) on [0, a]
    that integrates |psi|^2 over the well wherever P is computed (psi is
    entire on [0, a])."""
    return panel_nodes(np.array([0.0, w.a]), WELL_ORDER)


@lru_cache(maxsize=64)
def resonances(w: WellParameters, k_max: float) -> Poles:
    """Memoized pole enumeration (pure function of lam, a, k_max); every
    caller shares the one read-only table."""
    return enumerate_poles(w, k_max)


def pole_cutoff(w: WellParameters, t: float) -> float:
    """Pole cutoff so the poles above it have decayed below ~1e-15 of the
    initial norm by time t; both routes drop them.

    A pole at k decays like exp(-2 Re(k) |Im(k)| t).  From
    e^{2ika} = 1 - 2ika/lam, |Im(k)| ~ ln(1 + (2ka/lam)^2) / (4a): about
    (ka/lam)^2 / a below ka = lam and ln(2ka/lam) / (2a) above it.  Solve
    the exponent = 35 for k, with a floor at 40/a.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    k = DEFAULT_KMAX / w.a
    for _ in range(60):
        expo = k * math.log1p((2.0 * k * w.a / w.lam) ** 2) * t / (2.0 * w.a)
        if expo >= 35.0:
            break
        k *= 1.3
    return k


def direct_cutoff(w: WellParameters, t: float) -> float:
    """Spectral cutoff for the real-axis route.

    For t > 0, chosen so the endpoint-correction expansion parameter
    (internal oscillation rate over 2 k_max t) stays small, and above every
    resonance spike that has not yet decayed (the endpoint correction
    assumes a smooth envelope); at t = 0 a much larger cutoff compensates
    for the absence of phase damping.
    """
    if t == 0.0:
        return T0_KMAX / w.a
    return max(pole_cutoff(w, abs(t)), 60.0 * w.a / abs(t))


def _spectral_edges(w: WellParameters, t: float, k_max: float) -> np.ndarray:
    """Panel edges on [0, k_max] resolving both the exp(-ik^2 t) phase and
    every resonance spike below the cutoff.  The poles come first, so a
    cutoff past enumerate_poles' bound fails before any panel exists."""
    k = resonances(w, k_max).k
    base = phase_budget_edges(k_max, abs(t), base_rate=4.0 * w.a)
    spacing = math.pi * w.lam / (1.0 + w.lam) / w.a
    extra = spike_edges(k.real, np.maximum(-k.imag, 1e-9 / w.a),
                        reach=0.45 * spacing)
    return merge_edges(base, extra, 0.0, k_max)


def _spectrum(p: InitialProfile, ks, w: WellParameters):
    """real_trig(k, w) and phi(k) for each real node set k in ks: a box
    mode's phi reads the same sine (box_overlap) when the profile spans
    the well; other profiles take one overlap_panels call for all sets."""
    trigs = [real_trig(k, w) for k in ks]
    if p.mode is None:
        phis = overlap_panels(p, ks)
    else:
        phis = [box_overlap(p, trig[0], trig[1]) if p.a == w.a
                else overlap_transform(p, k) for trig, k in zip(trigs, ks)]
    return trigs, phis


def _chirped(z, k, t):
    """z e^{-ik^2 t} at real k, from a real cos/sin pair of k^2 t written
    into one complex array (no complex exp or its temporaries)."""
    theta = k * k * t
    cos, sin = np.cos(theta), np.sin(theta)
    re, im = z.real, z.imag
    out = np.empty(k.shape, dtype=complex)
    out.real = re * cos + im * sin
    out.imag = im * cos - re * sin
    return out


def _tail_correction(p: InitialProfile, k_max: float, t: float,
                     grid: np.ndarray, w: WellParameters) -> np.ndarray:
    """Two-term integration-by-parts estimate of the truncated tail
    int_{k_max}^inf f(k, x) exp(-i k^2 t) dk for t != 0."""
    h = 1e-4 / w.a
    ks = np.array([k_max, k_max + h, k_max - h])
    g0, g_hi, g_lo = (overlap_transform(p, ks) * interior_weight(ks, w)
                      / (2.0 * math.pi))
    gp = (g_hi - g_lo) / (2.0 * h)
    sin_x = np.sin(k_max * grid)
    cos_x = np.cos(k_max * grid)
    f0 = g0 * sin_x
    f1 = gp * sin_x + g0 * grid * cos_x
    damp = 2j * k_max * t
    return np.exp(-1j * k_max ** 2 * t) / damp * (f0 + f1 / damp - f0 / (damp * k_max))


def _kink_tail_t0(p: InitialProfile, k_max: float,
                  grid: np.ndarray) -> np.ndarray:
    """Analytic tail of the t = 0 completeness integral beyond k_max.

    The profile's derivative jump at x = p.a makes phi(k) fall off only
    like psi'(a-) sin(ka)/k^2; with |A|^2 -> 4 the truncated tail reduces
    to cosine integrals, evaluated here in closed form via Si(z).
    """
    from scipy.special import sici

    def J(b):
        b = np.abs(b)
        si, _ = sici(k_max * b)
        return np.cos(k_max * b) / k_max - b * (0.5 * np.pi - si)

    return ((2.0 / math.pi) * p.barrier_slope * 0.5
            * (J(p.a - grid) - J(p.a + grid)))


def evolve_direct(p: InitialProfile, t: float, grid,
                  w: WellParameters) -> WaveState:
    """Evolve the initial profile to time t >= 0 on grid points in [0, a].

    Raises QuadratureNotConverged (with the achieved estimate) when the
    internal error estimate exceeds 1e-7.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be >= 0; the time-reversal identity "
                         "psi(x,-t) = conj(psi(x,t)) covers negative times")
    if t > 50.0 * w.a ** 2:
        warnings.warn(
            "direct spectral route at t > 50 a^2: the k-space oscillation "
            "period shrinks like 1/(2kt), so cost grows linearly in t; "
            "the rotated representation is cheaper and equally accurate here",
            RuntimeWarning, stacklevel=2)
    psi, est = _evolve_direct_raw(p, t, np.asarray(grid, dtype=float), w)
    if est > _QUAD_TOL:
        raise QuadratureNotConverged(
            f"direct spectral quadrature error estimate {est:.3e} > {_QUAD_TOL:.1e}",
            estimate=est,
        )
    return WaveState(x=np.asarray(grid, dtype=float), psi=psi)


def _evolve_direct_raw(p: InitialProfile, t: float, grid: np.ndarray,
                       w: WellParameters):
    """Real-axis spectral integral on [0, a]; also accepts t < 0 (used by
    the time-reversal property check).  Returns (psi, error_estimate).

    The main and control rules share one set of panels."""
    if np.any(grid < 0.0) or np.any(grid > w.a * (1.0 + 1e-12)):
        raise ValueError("direct evolution grid must lie in [0, a]")
    k_max = direct_cutoff(w, t)
    edges = _spectral_edges(w, t, k_max)
    psi_main, psi_ctrl = _direct_sum(p, t, grid, w, edges)
    est = float(np.max(np.abs(psi_main - psi_ctrl)))
    if t != 0.0:
        psi_main = psi_main + _tail_correction(p, k_max, t, grid, w)
    else:
        psi_main = psi_main + _kink_tail_t0(p, k_max, grid)
    return psi_main, est


def _direct_sum(p, t, grid, w, edges):
    """(1/2pi) int e^{-ik^2 t} phi(k) |A(k)|^2 sin(kx) dk on the panels,
    by the main and by the control rule.

    The panels are walked in chunks of _CHUNK_PANELS, whose nodes of both
    rules make one panel sine sum call; each chunk's sums are added
    into the two results, so no array grows with the node count and the
    memory is flat in t (the node count grows like 1/t).  A chunk's
    coefficients w phi |A|^2 / 2pi e^{-ik^2 t} take real arithmetic: one
    sine and cosine of ka per node for |A|^2 and a box mode's phi, and one
    of k^2 t for the phase.
    """
    psi = [np.zeros(grid.shape, dtype=complex) for _ in range(2)]
    for i in range(0, edges.size - 1, _CHUNK_PANELS):
        rules = [panel_nodes(edges[i:i + _CHUNK_PANELS + 1], order)
                 for order in (MAIN_ORDER, CONTROL_ORDER)]
        ks = [k for k, _ in rules]
        trigs, phis = _spectrum(p, ks, w)
        cs = [_chirped(phi * (weights * weight_from_trig(trig, w)
                              / (2.0 * math.pi)), k, t)
              for (k, weights), trig, phi in zip(rules, trigs, phis)]
        for acc, part in zip(psi, panel_sine_sum(cs, ks, grid)):
            acc += part
    return psi


def spectral_tail_mass(p: InitialProfile, w: WellParameters,
                       k_max: float) -> float:
    """Probability carried by spectral components above k_max,

        M_tail = int_{k_max}^inf (1/2pi) |A(k)|^2 |phi(k)|^2 dk,

    time independent.  Numeric quadrature up to k_far = 10 k_max
    (resonance spikes are broad there) plus the analytic remainder from
    the kink envelope |phi|^2 ~ |psi0'(a-)|^2 sin^2(ka)/k^4, |A|^2 -> 4.
    """
    k_far = 10.0 * k_max

    def dens(k):
        return (interior_weight(k, w) * np.abs(overlap_transform(p, k)) ** 2
                / (2.0 * math.pi))

    val, _ = adaptive_gl(dens, k_max, k_far, tol=1e-13)
    remainder = abs(p.barrier_slope) ** 2 / (3.0 * math.pi * k_far ** 3)
    return float(val) + remainder


def audit_cutoff(p: InitialProfile, w: WellParameters) -> float:
    """unitarity_audit's spectral cutoff: DEFAULT_KMAX / a, raised in steps
    of DEFAULT_KMAX / a (up to T0_KMAX / a) while |phi|^2 on the next step
    exceeds _PHI_FLOOR a.

    Only a profile with no kink at the barrier is raised: a kink makes
    |phi|^2 fall like |psi0'(a-)|^2 / k^4, too slowly to reach the floor,
    and spectral_tail_mass carries that tail in closed form instead.
    """
    step = DEFAULT_KMAX / w.a
    if abs(p.barrier_slope) ** 2 / step ** 4 >= _PHI_FLOOR * w.a:
        return step
    m = 1
    while m * step < T0_KMAX / w.a:
        window = step * np.linspace(m, m + 1, 129)
        if np.max(np.abs(overlap_transform(p, window)) ** 2) < _PHI_FLOOR * w.a:
            break
        m += 1
    return m * step


def _fft_length(m: int) -> int:
    """The smallest even 2^i 3^j 5^l >= m: the FFT's fast lengths."""
    best = max(2, 1 << (m - 1).bit_length())
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power of two, at least 2, with odd * two >= m
            two = max(2, 1 << (-(-m // odd) - 1).bit_length())
            best = min(best, odd * two)
            odd *= 3
        odd5 *= 5
    return best


def _audit_series(p: InitialProfile, t: float, w: WellParameters,
                  dk: float, n: int, x_in: np.ndarray):
    """unitarity_audit's midpoint series at k_j = (j + 1/2) dk, j < n:
    the interior psi on x_in and the exterior coefficients
    c = (dk/2pi) e^{-ik^2 t} conj(A) phi and c B, with A, B (and a box
    mode's phi) from one sine and cosine of ka per midpoint.  A, B and
    their sines die on return, before the exterior FFTs.  B is named so
    that c B is always taken in that order: numpy may reuse a temporary
    right operand and swap the factors, which moves the last bit of a
    complex product."""
    k = (np.arange(n) + 0.5) * dk
    (trig,), (phi,) = _spectrum(p, [k], w)
    A = A_from_trig(trig, w)
    c = _chirped(np.conj(A) * (dk / (2.0 * math.pi)) * phi, k, t)
    psi_in, = panel_sine_sum([A * c], [k], x_in)
    del A
    B = B_from_trig(trig, w)
    return psi_in, c, c * B


def _unit_phases(theta: float, m: int) -> np.ndarray:
    """e^{i nu theta} for nu = 1 .. m, as the products of two tables of
    about sqrt(m) exponentials each, e^{i q b theta} e^{i r theta} with
    nu = q b + r: one complex product per mode instead of a sine and a
    cosine."""
    b = math.isqrt(m) + 1
    r = theta * np.arange(b)
    q = (b * theta) * np.arange(m // b + 1)
    small = np.cos(r) + 1j * np.sin(r)
    big = np.cos(q) + 1j * np.sin(q)
    return np.multiply.outer(big, small).ravel()[1:m + 1]


def unitarity_audit(p: InitialProfile, t: float, w: WellParameters) -> dict:
    """Decompose total probability at time t into inside + outside + tail.

    One shared midpoint rule on [0, k_max] feeds both regions: the interior
    series (1/2pi) e^{-ik^2 t} |A|^2 phi sin(kx), summed on well_rule's
    nodes by panel_sine_sum (phi by overlap_panels, both at the flat
    midpoints k_j = (j + 1/2) dk) and integrated with its weights, and the
    exterior branch (1/2pi) e^{-ik^2 t} conj(A) phi (e^{-ikx} + B e^{ikx}),
    the latter synthesized by one zero-padded complex FFT of even 5-smooth
    length (both moving pieces in one array), its |psi|^2 taken to Fourier
    modes by one real FFT and integrated over the window mode by mode.
    The step resolves both the narrowest resonance spike (10 points per
    width) and the chirp e^{-ik^2 t} (the wrap length 2pi/dk exceeds 2.2x
    the ballistic range 2 k_max t, so nothing aliases back); the exterior integral stops at the wavefront
    x_hi = 2.2 k_max t + 50 a, beyond which the signal has no support and
    only the periodic image of the x < 0 continuation lives.

    The rule covers k up to audit_cutoff(p, w).  Returns {'inside',
    'outside', 'tail', 'total', 'dk', 'x_hi'}.
    """
    if not (0.0 <= t < math.inf):
        raise ValueError("t must be finite and >= 0")
    k_max = audit_cutoff(p, w)
    dk = float(np.min(-resonances(w, k_max).k.imag)) / 10.0
    if t > 0.0:
        dk = min(dk, math.pi / (2.2 * k_max * t))
    n = int(math.ceil(k_max / dk))
    dk = k_max / n
    x_in, wx = well_rule(w)
    psi_in, c, c_b = _audit_series(p, t, w, dk, n, x_in)
    inside = float(wx @ np.abs(psi_in) ** 2)

    # exterior on x_j = 2pi j / (nf dk), with k_m = (m + 1/2) dk:
    #   e^{-ik_m x_j} = e^{-i pi j/nf} e^{-2pi i j m/nf},
    #   e^{+ik_m x_j} = e^{-i pi j/nf} e^{-2pi i j (nf-1-m)/nf},
    # so with c B reversed into the top of d, psi_out = e^{-i pi j/nf} fft(d)
    # and |psi_out|^2 = |fft(d)|^2
    nf = _fft_length(_FFT_PAD * n)
    d = np.zeros(nf, dtype=complex)
    d[:n] = c
    d[nf - n:] = c_b[::-1]
    del c, c_b
    # no out= on numpy.fft (it needs numpy >= 2.0; the pin is numpy >= 1.24):
    # each nf-length array is dropped as soon as the next one exists
    f = fft.fft(d)
    del d
    g = np.abs(f)
    del f
    g *= g
    g_hat = fft.rfft(g)
    del g
    g_hat /= nf
    x_hi = 2.2 * k_max * t + 50.0 * w.a
    # d lives on the cyclic indices -n .. n-1, so |fft(d)|^2 has modes
    # |nu| <= 2n-1 < nf/2 (nf >= 4n): its sampled Fourier series is
    # exact and the window integral over [a, x_hi] is taken in closed form
    # per mode, Re(g_hat_nu int_a^x_hi e^{i nu dk x} dx) -- no endpoint
    # error.  g is real and nf even, so the modes nu and -nu pair up and
    # those in 1 .. nf/2-1 count twice.
    # e^{i nu dk x} at both window ends from _unit_phases' tables
    m = g_hat.size - 1
    ends = _unit_phases(dk * x_hi, m)
    ends -= _unit_phases(dk * w.a, m)
    terms = g_hat.real[1:] * ends.imag
    terms += g_hat.imag[1:] * ends.real
    del ends
    terms /= dk * np.arange(1, m + 1)
    terms[:-1] *= 2.0
    outside = float(g_hat[0].real * (x_hi - w.a) + np.sum(terms))

    tail = spectral_tail_mass(p, w, k_max)
    return {
        "inside": inside,
        "outside": outside,
        "tail": tail,
        "total": inside + outside + tail,
        "dk": dk,
        "x_hi": x_hi,
    }
