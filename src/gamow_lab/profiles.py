"""Initial wave packets confined to the well and their overlap transform.

An admissible profile psi0 lives on [0, 1] (x in units of the well width
a, psi0 in units of a^-1/2), is continuous, vanishes at the hard wall (and,
for physically clean short-time behaviour, at the barrier), and carries
unit norm.  Its sine transform

    phi(k) = int_0^1 psi0(x) sin(kx) dx

is an entire function of k and is everything the spectral machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import WELL_ORDER, complex_sin, panel_nodes

_NORM_TOL = 1e-10
_EDGE_TOL = 1e-8
#: terms of _faddeeva's rational approximation
_FADDEEVA_TERMS = 40
#: pi = _PI_HI + _PI_MID + _PI_LO: the first two hold at most 27 bits, so
#: n times either is exact for n < 2^26, and _PI_LO is pi - math.pi
_PI_HI = math.pi - math.pi % 2.0 ** -24
_PI_MID = math.pi - _PI_HI
_PI_LO = 1.2246467991473532e-16


@dataclass(frozen=True)
class InitialProfile:
    """Initial wave function psi0 on [0, 1], built by :func:`box_mode` or
    :func:`truncated_gaussian`.

    ``mode`` is the box index n of sqrt(2) sin(n pi x), or None for a
    Gaussian, whose ``center`` and ``width`` (None for a box mode) give
    its closed-form phi (see overlap_transform); ``nodes`` and ``coef``
    (= weights * psi0) are the profile rule on [0, 1] (see _profile_rule),
    read only for first_moment and the constructor's norm check;
    ``barrier_slope`` is psi0'(1-).
    """

    label: str
    amplitude: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mode: int | None
    center: float | None
    width: float | None
    nodes: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    barrier_slope: complex

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= 1.0),
                       self.amplitude(np.clip(x, 0.0, 1.0)), 0.0)
        return out if out.ndim else complex(out)

    def first_moment(self) -> complex:
        """phi'(0) = int_0^1 psi0(x) x dx, the small-k slope of the transform."""
        return complex(np.sum(self.coef * self.nodes))


def _checked(amplitude, label, mode, center, width) -> InitialProfile:
    """The one constructor: rejects a profile whose norm is not 1 or whose
    edge values are not 0 (NaN fails both), and takes psi0'(1-) from a
    one-sided second-order stencil."""
    xs, wts = _profile_rule()
    # a degenerate profile evaluates to nan here and is rejected below
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.asarray(amplitude(xs), dtype=complex)
        h = 1e-6
        edge0, edgea, near, far = (complex(amplitude(np.asarray(x)))
                                   for x in (0.0, 1.0, 1.0 - h, 1.0 - 2 * h))
    norm = float(np.sum(wts * np.abs(vals) ** 2))
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"profile norm is {norm}, not 1")
    if not abs(edge0) <= _EDGE_TOL:
        raise ValueError(f"profile must vanish at the wall, psi(0)={edge0}")
    if not abs(edgea) <= _EDGE_TOL:
        raise ValueError(f"profile must vanish at the barrier, psi(a)={edgea}")
    return InitialProfile(label=label, amplitude=amplitude, mode=mode,
                          center=center, width=width, nodes=xs,
                          coef=wts * vals,
                          barrier_slope=(3 * edgea - 4 * near + far) / (2.0 * h))


def box_mode(n: int) -> InitialProfile:
    """Closed-box eigenmode sqrt(2) sin(n pi x), n = 1, 2, ..."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    amp = lambda x: np.sqrt(2.0) * np.sin(n * np.pi * x)
    return _checked(amp, f"box:{n}", n, None, None)


def truncated_gaussian(center: float, width: float) -> InitialProfile:
    """Normalized Gaussian bump N exp(-(x - center)^2 / (2 width^2)) on
    [0, 1], N from _gauss_norm.

    center and width must keep the tails below the boundary tolerance at
    x = 0 and x = 1, otherwise the constructor rejects the profile.
    """
    if not (0.0 < center < 1.0):
        raise ValueError("center must lie inside (0, a)")
    if width <= 0.0:
        raise ValueError("width must be positive")
    norm = _gauss_norm(center, width)
    amp = lambda x: norm * np.exp(-0.5 * ((np.asarray(x) - center)
                                          / width) ** 2)
    return _checked(amp, f"gauss:{center:g},{width:g}", None, center, width)


def _gauss_norm(center: float, width: float) -> float:
    """N with int_0^1 |N exp(-(x - c)^2 / (2 s^2))|^2 dx = 1, from
    int_0^1 exp(-(x - c)^2 / s^2) dx = s sqrt(pi)/2 (erf((1 - c)/s)
    + erf(c/s)); NaN for a NaN width, which the constructor rejects."""
    mass = width * (0.5 * math.sqrt(math.pi)) * (
        math.erf((1.0 - center) / width) + math.erf(center / width))
    return 1.0 / math.sqrt(mass)


def _profile_rule():
    """Gauss-Legendre nodes and weights for profile integrals: eight
    WELL_ORDER-point panels on [0, 1], 1024 nodes.  psi0 is smooth on
    [0, 1], so the rule converges to machine precision; it gives the norm
    check and first_moment, not phi, so its limit in k (it resolves
    sin(kx) only to k ~ 3200) bounds nothing."""
    return panel_nodes(np.linspace(0.0, 1.0, 9), WELL_ORDER)


def overlap_transform(p: InitialProfile, k):
    """Sine transform phi(k) = int_0^1 psi0(x) sin(kx) dx at real or complex
    k (any shape), in closed form for every profile: box modes by
    box_overlap, Gaussians by gauss_overlap at real k and _gauss_overlap
    at complex k.  Real k takes real sines (and a Gaussian two Faddeeva
    values per node), complex k sin u cosh v + i cos u sinh v (and four).
    """
    k = np.asarray(k, dtype=float if np.isrealobj(k) else complex)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if p.mode is not None:
        sin = np.sin if np.isrealobj(k) else complex_sin
        out = box_overlap(p, k, sin(k)).astype(complex)
    elif np.isrealobj(k):
        out = gauss_overlap(p, k, np.sin(k), np.cos(k)).astype(complex)
    else:
        out = _gauss_overlap(p, k)
    return complex(out[0]) if scalar else out


def _gauss_overlap(p: InitialProfile, k):
    """A Gaussian's phi(k) = N (I(k) - I(-k)) / 2i at complex k, with
    N = _gauss_norm and (Abramowitz & Stegun 7.1.3, 7.4.2)

        I(k) = int_0^1 e^{-(x-c)^2/(2s^2)} e^{ikx} dx
             = s sqrt(pi/2) [2 e^{-b^2 + ikc} - e^{-u0^2} w(-i u0 - b)
                             - e^{-u1^2} e^{ik} w(i u1 + b)],

    u0 = -c/(s sqrt 2) < 0, u1 = (1 - c)/(s sqrt 2) > 0, b = k s/sqrt 2.
    The full-line terms of I(k) - I(-k) are paired into 4i e^{-b^2} sin kc,
    so phi keeps its relative accuracy near k = 0.  Complex k takes all
    four w, by _scaled_faddeeva; real k takes two (gauss_overlap).
    """
    u0, u1, b, scale = _gauss_terms(p, k)
    edges = (_scaled_faddeeva(-u0 * u0, 1j * -u0 - b)
             - _scaled_faddeeva(-u0 * u0, 1j * -u0 + b)
             + _scaled_faddeeva(1j * k - u1 * u1, 1j * u1 + b)
             - _scaled_faddeeva(-1j * k - u1 * u1, 1j * u1 - b))
    out = 2.0 * np.exp(-b * b) * complex_sin(k * p.center) - edges / 2j
    return scale * out


def gauss_overlap(p: InitialProfile, k, sin_k, cos_k):
    """A Gaussian's phi at real k from sin_k = sin k and cos_k = cos k, so
    that the direct route and the audit share the sine and cosine of
    |A|^2 (potential_model.real_trig).  At real k both w arguments of
    _gauss_overlap lie above the real axis and the edge terms of I(-k)
    are the conjugates of those of I(k), so

        phi = N s sqrt(pi/2) [2 e^{-b^2} sin kc - e^{-u0^2} Im W0
                              - e^{-u1^2} Im(e^{ik} W1)]

    takes two w per node, W0 = w(-i u0 - b) and W1 = w(i u1 + b).
    """
    u0, u1, b, scale = _gauss_terms(p, k)
    w0 = _faddeeva(1j * -u0 - b)
    w1 = _faddeeva(1j * u1 + b)
    out = 2.0 * np.exp(-b * b) * np.sin(k * p.center)
    out -= math.exp(-u0 * u0) * w0.imag
    out -= math.exp(-u1 * u1) * (sin_k * w1.real + cos_k * w1.imag)
    return scale * out


def _gauss_terms(p: InitialProfile, k):
    """u0, u1 and b of _gauss_overlap's form at k, and phi's factor
    N s sqrt(pi/2)."""
    c, s = p.center, p.width
    u0, u1 = -c / (s * math.sqrt(2.0)), (1.0 - c) / (s * math.sqrt(2.0))
    return (u0, u1, k * (s / math.sqrt(2.0)),
            _gauss_norm(c, s) * s * math.sqrt(0.5 * math.pi))


def _scaled_faddeeva(a, z):
    """e^a w(z) at any z: _faddeeva above the real axis and, below it,
    w(z) = 2 e^{-z^2} - w(-z) with e^{-z^2} taken into the exponent,
    2 e^{a - z^2}, where e^a e^{-z^2} alone would overflow."""
    a = np.broadcast_to(a, z.shape)
    below = z.imag < 0.0
    out = np.exp(a) * _faddeeva(np.where(below, -z, z))
    out[below] = 2.0 * np.exp(a[below] - z[below] ** 2) - out[below]
    return out


@lru_cache(maxsize=1)
def _weideman():
    """L and the coefficients (highest degree first) of Weideman's
    rational approximation of w with _FADDEEVA_TERMS terms (SIAM J.
    Numer. Anal. 31, 1497, 1994): the FFT of e^{-t^2} (L^2 + t^2) at
    t = L tan(theta/2)."""
    n = _FADDEEVA_TERMS
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * (0.5 * math.pi / m))
    f = np.r_[0.0, np.exp(-t * t) * (L * L + t * t)]
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1]


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0,

        w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),
        Z = (L + iz) / (L - iz),

    p by Horner's rule (Weideman's algorithm, numpy only); within 2.4e-14
    relative of scipy.special.wofz there."""
    L, coef = _weideman()
    den = L - 1j * z
    Z = (2.0 * L) / den
    Z -= 1.0
    p = np.full(Z.shape, coef[0], dtype=complex)
    for a in coef[1:]:
        p *= Z
        p += a
    p *= 2.0
    p /= den
    p += 1.0 / math.sqrt(math.pi)
    p /= den
    return p


def box_overlap(p: InitialProfile, z, s):
    """A box mode's phi(z) from s = sin z, so that the direct route and the
    audit share the sine of |A|^2 (potential_model.real_trig):

        phi_n = sqrt(2) (-1)^n n pi sin z / ((z - n pi)(z + n pi)).

    z - n pi is taken with n pi split in three (Cody and Waite), so it is
    accurate to rounding however near z lies to n pi, as sin z is, and
    never 0 at a double z: the removable point phi_n(n pi) = sqrt(1/2)
    needs no branch.
    """
    n = p.mode
    lead = math.sqrt(2.0) * n * math.pi * (-1.0) ** n
    near = ((z - n * _PI_HI) - n * _PI_MID) - n * _PI_LO
    return lead * s / (near * (z + n * math.pi))


def sine_overlap(p, q):
    """int_0^1 sin(p x) sin(q x) dx in closed form, at real or complex p, q
    (broadcast against each other)."""
    return _sinc_diff(p - q) - _sinc_diff(p + q)


def _sinc_diff(q):
    """sin(q) / (2 q) with its removable limit 1/2 at q = 0, in real
    arithmetic at real q."""
    q = np.asarray(q, dtype=float if np.isrealobj(q) else complex)
    small = np.abs(q) < 1e-8
    safe = np.where(small, 1.0, q)
    return np.where(small, 0.5, np.sin(safe) / (2.0 * safe))


def parse_profile(spec: str, a: float = 1.0) -> InitialProfile:
    """Parse a CLI profile spec: 'box:n' or 'gauss:center,width', the
    Gaussian's center and width in the units of a well of width a (they
    are divided by a; the label keeps the spec's values)."""
    kind, _, rest = spec.partition(":")
    if kind == "box":
        return box_mode(int(rest))
    if kind == "gauss":
        center, width = (float(v) for v in rest.split(","))
        return replace(truncated_gaussian(center / a, width / a),
                       label=f"gauss:{center:g},{width:g}")
    raise ValueError(f"unknown profile spec {spec!r}")
