"""Exact time evolution through the continuum spectrum (real-axis route).

Inside the well the evolved packet is

    psi(x, t) = (1/2pi) int_0^inf exp(-i k^2 t) phi(k) |A(k)|^2 sin(kx) dk,

where phi is the profile's sine transform.  |A(k)|^2 is a train of very
narrow Lorentzian spikes at the resonance positions, and the exponential
phase oscillates ever faster in k as t grows; the quadrature panels resolve
both features explicitly (see quadrature.py) and the truncated tail beyond
k_max is restored with a two-term stationary-phase endpoint correction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from .exceptions import GridTooCoarse, QuadratureNotConverged
from .potential_model import (
    Resonance,
    WellParameters,
    coefficient_A,
    coefficient_B,
    enumerate_poles,
)
from .profiles import InitialProfile, overlap_transform
from .quadrature import merge_edges, panel_nodes, phase_budget_edges, spike_edges

#: default spectral cutoff (units of 1/a)
DEFAULT_KMAX = 40.0
#: cutoff used for the t = 0 completeness reconstruction, where there is no
#: phase damping and the profile kink makes the tail decay only like 1/k^2
T0_KMAX = 800.0

_GL_MAIN = 16
_GL_CONTROL = 12
_THETA_MAX = 8.0


@dataclass(frozen=True)
class WaveState:
    """Wave function samples on a spatial grid at one instant."""

    x: np.ndarray
    psi: np.ndarray
    t: float
    method: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("wave function values must be finite")


def well_grid(w: WellParameters, n: int = 257) -> np.ndarray:
    """Equispaced grid on [0, a] with n nodes (odd n suits Simpson)."""
    return np.linspace(0.0, w.a, n)


def continuum_eigenfunction(k: float, x, w: WellParameters):
    """Continuum eigenfunction phi_k(x) at real k > 0, energy E = k^2.

    (1/sqrt(2pi)) A(k) sin(kx) inside the well, incoming plus reflected
    plane waves outside; the interior branch is used at x = a.
    """
    x = np.asarray(x, dtype=float)
    A = coefficient_A(k, w)
    B = coefficient_B(k, w)
    pref = 1.0 / math.sqrt(2.0 * math.pi)
    inside = A * np.sin(k * x)
    outside = np.exp(-1j * k * x) + B * np.exp(1j * k * x)
    out = pref * np.where(x <= w.a, inside, outside)
    return complex(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _cached_poles(lam: float, a: float, k_max: float) -> tuple[Resonance, ...]:
    return tuple(enumerate_poles(WellParameters(lam=lam, a=a), k_max))


def resonances(w: WellParameters, k_max: float) -> tuple[Resonance, ...]:
    """Memoized pole enumeration (pure function of lam, a, k_max)."""
    return _cached_poles(w.lam, w.a, k_max)


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


def _spectral_nodes(w: WellParameters, t: float, k_max: float, order: int):
    """Panel nodes/weights on [0, k_max] resolving both the exp(-ik^2 t)
    phase and every resonance spike below the cutoff."""
    base = phase_budget_edges(k_max, abs(t), base_rate=4.0 * w.a,
                              theta_max=_THETA_MAX)
    spacing = math.pi * w.lam / (1.0 + w.lam) / w.a
    extra = []
    for r in resonances(w, k_max):
        width = max(-r.k.imag, 1e-9 / w.a)
        extra.append(spike_edges(r.k.real, width, reach=0.45 * spacing))
    extra = np.concatenate(extra) if extra else np.array([])
    edges = merge_edges(base, extra, 0.0, k_max)
    return panel_nodes(edges, order)


def _direct_weight(p: InitialProfile, k: np.ndarray, t: float,
                   w: WellParameters) -> np.ndarray:
    """c(k) = (1/2pi) exp(-i k^2 t) phi(k) |A(k)|^2 on real nodes."""
    A = coefficient_A(k, w)
    phi = overlap_transform(p, k)
    return np.exp(-1j * k * k * t) * phi * (A * np.conj(A)).real / (2.0 * math.pi)


def _tail_correction(p: InitialProfile, k_max: float, t: float,
                     grid: np.ndarray, w: WellParameters) -> np.ndarray:
    """Two-term integration-by-parts estimate of the truncated tail
    int_{k_max}^inf f(k, x) exp(-i k^2 t) dk for t != 0."""
    h = 1e-4 / w.a

    def envelope(k):
        A = coefficient_A(k, w)
        return overlap_transform(p, k) * (A * np.conj(A)).real / (2.0 * math.pi)

    g0 = envelope(np.array([k_max]))[0]
    gp = (envelope(np.array([k_max + h]))[0]
          - envelope(np.array([k_max - h]))[0]) / (2.0 * h)
    sin_x = np.sin(k_max * grid)
    cos_x = np.cos(k_max * grid)
    f0 = g0 * sin_x
    f1 = gp * sin_x + g0 * grid * cos_x
    damp = 2j * k_max * t
    return np.exp(-1j * k_max ** 2 * t) / damp * (f0 + f1 / damp - f0 / (damp * k_max))


def _kink_tail_t0(p: InitialProfile, k_max: float, grid: np.ndarray,
                  w: WellParameters) -> np.ndarray:
    """Analytic tail of the t = 0 completeness integral beyond k_max.

    The profile's derivative jump at x = a makes phi(k) fall off only like
    psi'(a) sin(ka)/k^2; with |A|^2 -> 4 the truncated tail reduces to
    cosine integrals, evaluated here in closed form via Si(z).
    """
    from scipy.special import sici

    # one-sided 2nd-order stencil for psi'(a-)
    h = 1e-6 * w.a
    psi_prime_a = (3 * complex(p(w.a)) - 4 * complex(p(w.a - h))
                   + complex(p(w.a - 2 * h))) / (2.0 * h)

    def J(b):
        b = np.abs(b)
        si, _ = sici(k_max * b)
        return np.cos(k_max * b) / k_max - b * (0.5 * np.pi - si)

    return (2.0 / math.pi) * psi_prime_a * 0.5 * (J(w.a - grid) - J(w.a + grid))


def evolve_direct(p: InitialProfile, t: float, grid, w: WellParameters,
                  k_max: float | None = None, quad_tol: float = 1e-7,
                  check: bool = True) -> WaveState:
    """Evolve the initial profile to time t >= 0 on grid points in [0, a].

    Raises QuadratureNotConverged (with the achieved estimate) when the
    internal error estimate exceeds ``quad_tol`` and ``check`` is set.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0; the time-reversal identity "
                         "psi(x,-t) = conj(psi(x,t)) covers negative times")
    if t > 50.0 * w.a ** 2:
        warnings.warn(
            "direct spectral route at t > 50 a^2: the k-space oscillation "
            "period shrinks like 1/(2kt), so cost grows linearly in t; "
            "the rotated representation is cheaper and equally accurate here",
            RuntimeWarning, stacklevel=2)
    psi, est = _evolve_direct_raw(p, t, np.asarray(grid, dtype=float), w, k_max)
    if check and est > quad_tol:
        raise QuadratureNotConverged(
            f"direct spectral quadrature error estimate {est:.3e} > {quad_tol:.1e}",
            estimate=est,
        )
    return WaveState(x=np.asarray(grid, dtype=float), psi=psi, t=t,
                     method="direct")


def _evolve_direct_raw(p: InitialProfile, t: float, grid: np.ndarray,
                       w: WellParameters, k_max: float | None = None):
    """Real-axis spectral integral on [0, a]; also accepts t < 0 (used by
    the time-reversal property check).  Returns (psi, error_estimate)."""
    if np.any(grid < 0.0) or np.any(grid > w.a * (1.0 + 1e-12)):
        raise ValueError("direct evolution grid must lie in [0, a]")
    if k_max is None:
        k_max = direct_cutoff(w, t)

    psi_main = _direct_sum(p, t, grid, w, k_max, _GL_MAIN)
    psi_ctrl = _direct_sum(p, t, grid, w, k_max, _GL_CONTROL)
    est = float(np.max(np.abs(psi_main - psi_ctrl)))
    if t != 0.0:
        psi_main = psi_main + _tail_correction(p, k_max, t, grid, w)
    else:
        psi_main = psi_main + _kink_tail_t0(p, k_max, grid, w)
    return psi_main, est


def _direct_sum(p, t, grid, w, k_max, order, chunk: int = 32768):
    nodes, weights = _spectral_nodes(w, t, k_max, order)
    c = weights * _direct_weight(p, nodes, t, w)
    psi = np.zeros(grid.shape, dtype=complex)
    for i in range(0, nodes.size, chunk):
        sl = slice(i, i + chunk)
        psi += c[sl] @ np.sin(np.multiply.outer(nodes[sl], grid))
    return psi


def spectral_tail_mass(p: InitialProfile, w: WellParameters,
                       k_max: float, k_far: float | None = None) -> float:
    """Probability carried by spectral components above k_max,

        M_tail = int_{k_max}^inf (1/2pi) |A(k)|^2 |phi(k)|^2 dk,

    time independent.  Numeric quadrature up to ``k_far`` (default
    10 k_max; resonance spikes are broad there) plus the analytic
    remainder from the kink envelope |phi|^2 ~ C sin^2(ka)/k^4, |A|^2 -> 4.
    """
    from .quadrature import adaptive_gl

    if k_far is None:
        k_far = 10.0 * k_max

    def dens(k):
        A = coefficient_A(k, w)
        phi = overlap_transform(p, k)
        return np.abs(A) ** 2 * np.abs(phi) ** 2 / (2.0 * math.pi)

    val, _ = adaptive_gl(dens, k_max, k_far, tol=1e-13, order=16)
    ks = np.linspace(0.9 * k_far, k_far, 400)
    envelope = 2.0 * float(np.mean(np.abs(overlap_transform(p, ks)) ** 2 * ks ** 4))
    remainder = (envelope / math.pi) / (3.0 * k_far ** 3)
    return float(val) + remainder


def unitarity_audit(p: InitialProfile, t: float, w: WellParameters,
                    k_max: float | None = None, pad: int = 8) -> dict:
    """Decompose total probability at time t into inside + outside + tail.

    One shared midpoint rule on [0, k_max] feeds both regions: the interior
    series (1/2pi) e^{-ik^2 t} |A|^2 phi sin(kx) and the exterior branch
    (1/2pi) e^{-ik^2 t} conj(A) phi (e^{-ikx} + B e^{ikx}), the latter
    synthesized by zero-padded FFTs.  The step resolves both the narrowest
    resonance spike (10 points per width) and the chirp e^{-ik^2 t}
    (the wrap length 2pi/dk exceeds 2.2x the ballistic range 2 k_max t, so
    nothing aliases back); the exterior integral stops at the wavefront
    x_hi = 2.2 k_max t + 50 a, beyond which the signal has no support and
    only the periodic image of the x < 0 continuation lives.

    Returns {'inside', 'outside', 'tail', 'total', 'dk', 'x_hi'}.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if k_max is None:
        k_max = DEFAULT_KMAX / w.a
    poles = resonances(w, k_max)
    dk = min(-r.k.imag for r in poles) / 10.0
    if t > 0.0:
        dk = min(dk, math.pi / (2.2 * k_max * t))
    n = int(math.ceil(k_max / dk))
    dk = k_max / n
    k = (np.arange(n) + 0.5) * dk
    A = coefficient_A(k, w)
    B = coefficient_B(k, w)
    phi = overlap_transform(p, k)
    c = np.exp(-1j * k * k * t) * np.conj(A) * phi * dk / (2.0 * math.pi)

    # interior: same rule, sine series against A(k) c(k)
    x_in = well_grid(w, 257)
    coef = A * c
    psi_in = np.zeros(x_in.shape, dtype=complex)
    for i in range(0, n, 32768):
        sl = slice(i, i + 32768)
        psi_in += coef[sl] @ np.sin(np.multiply.outer(k[sl], x_in))
    inside = float(simpson(np.abs(psi_in) ** 2, x=x_in))

    # exterior: left- and right-moving pieces on the FFT grid
    nf = 1 << int(pad * n - 1).bit_length()
    cm = np.zeros(nf, dtype=complex)
    cm[:n] = c
    cp = np.zeros(nf, dtype=complex)
    cp[:n] = c * B
    dx = 2.0 * math.pi / (nf * dk)
    x = np.arange(nf) * dx
    psi_out = (np.exp(-0.5j * dk * x) * np.fft.fft(cm)
               + np.exp(0.5j * dk * x) * (np.fft.ifft(cp) * nf))
    x_hi = 2.2 * k_max * t + 50.0 * w.a
    # |psi_out|^2 is band-limited to 2 k_max < Nyquist (pad >= 8), so its
    # sampled Fourier series is exact and the window integral over
    # [a, x_hi] can be taken in closed form per mode -- no endpoint error.
    g_hat = np.fft.fft(np.abs(psi_out) ** 2) / nf
    nu = np.fft.fftfreq(nf, d=1.0 / nf)  # signed mode index
    mu = nu * dk
    kern = np.empty(nf, dtype=complex)
    nz = mu != 0.0
    kern[nz] = (np.exp(1j * mu[nz] * x_hi) - np.exp(1j * mu[nz] * w.a)) \
        / (1j * mu[nz])
    kern[~nz] = x_hi - w.a
    outside = float(np.real(np.sum(g_hat * kern)))

    tail = spectral_tail_mass(p, w, k_max)
    return {
        "inside": inside,
        "outside": outside,
        "tail": tail,
        "total": inside + outside + tail,
        "dk": dk,
        "x_hi": x_hi,
    }


def norm_inside(ws: WaveState, w: WellParameters) -> float:
    """Probability inside the well, int_0^a |psi|^2 dx, from grid samples."""
    mask = ws.x <= w.a * (1.0 + 1e-12)
    x_in = ws.x[mask]
    if x_in.size < 64:
        raise GridTooCoarse(
            f"need at least 64 nodes in [0, a], got {x_in.size}"
        )
    if x_in[0] > 1e-12 * w.a or x_in[-1] < w.a * (1.0 - 1e-12):
        raise GridTooCoarse("grid must cover [0, a] to integrate the well")
    val = float(simpson(np.abs(ws.psi[mask]) ** 2, x=x_in))
    return max(val, 0.0)
