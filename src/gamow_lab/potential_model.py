"""Delta-shell well: scattering coefficients, quantization condition, Gamow poles.

The model is a hard wall at x = 0 plus a repulsive delta barrier of
dimensionless strength ``lam`` at x = a,

    V(x) = (lam / a) * delta(x - a),   V(x < 0) = +inf,

in units hbar = 2m = 1 (so E = k^2 and times carry length^2).

Resonances are the fourth-quadrant zeros k_n of the entire quantization
function

    F(k) = k a cos(k a) + (lam - i k a) sin(k a),

which are simultaneously the poles of the scattering coefficients A(k), B(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CountMismatch,
    NoConvergence,
    PoleProximity,
    SeedOutOfRegime,
    WrongQuadrant,
)

#: |F| convergence threshold for pole refinement, relative to max(1, |ka|).
POLE_TOLERANCE = 1e-12

_DENOM_FLOOR = 1e-300
_SMALL_KA = 1e-8
#: Newton iterations refine_pole allows
_NEWTON_ITERATIONS = 50
#: audit contour: radius of the indent at k = 0, points per rectangle edge
_AUDIT_INDENT = 1e-6
_AUDIT_POINTS = 1024
#: phase-tracking bisection rounds: 52 halvings reach the double-precision
#: spacing along an edge; only segments whose phase jumps are split
_WINDING_ROUNDS = 52
#: most poles enumerate_poles will refine (one seed each)
MAX_POLES = 1 << 20


@dataclass(frozen=True)
class WellParameters:
    """Barrier opacity ``lam`` (dimensionless) and well width ``a``."""

    lam: float
    a: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"opacity lam must be finite and > 0, got {self.lam}")
        if not (0.0 < self.a < math.inf):
            raise ValueError(f"width a must be finite and > 0, got {self.a}")

    @property
    def metastable(self) -> bool:
        """True in the opaque-barrier regime where the asymptotic pole and
        lifetime formulas are meaningful (lam >= 10).

        The leading-order lifetime (lam a)^2 / (4 pi^3) is still off by
        about 4/lam at large lam (4.3% at lam = 100) and by 62% at
        lam = 10.
        """
        return self.lam >= 10.0


@dataclass(frozen=True, eq=False)
class Poles:
    """Gamow poles k_n, n = 1, 2, ... in order of Re k, as read-only arrays,
    with |F(k_n)| in ``residual``; ``E = k**2``, ``gamma = -2 Im E`` and
    ``tau = 1/gamma``.  Raises WrongQuadrant unless every k has
    -pi/4 < arg k < 0 and -2 Im k^2 > 0 (NaN fails), and CountMismatch
    unless Re k strictly increases (a root found twice)."""

    k: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=complex)
        residual = np.array(self.residual, dtype=float)
        bad = ~((k.imag < 0.0) & (k.real > -k.imag) & ((k * k).imag < 0.0))
        if np.any(bad):
            raise WrongQuadrant(f"root {k[bad][0]} outside -pi/4 < arg k < 0")
        repeat = np.flatnonzero(np.diff(k.real) <= 0.0)
        if repeat.size:
            raise CountMismatch(f"duplicate root near k={k[repeat[0] + 1]}")
        for name, value in (("k", k), ("residual", residual)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.k.size

    @property
    def E(self) -> np.ndarray:
        """k**2 rounded once: Re E = kr^2 - ki^2 from exact products and an
        exact difference (Dekker; Knuth's two-sum), Im E = 2 kr ki.  The
        plain product rounds Re E three times and misses the last bit for
        about a quarter of the poles, which the residue phases exp(-i E t)
        magnify with t."""
        kr, ki = self.k.real, self.k.imag
        sr, er = _exact_square(kr)
        si, ei = _exact_square(ki)
        d = sr - si
        b = d - sr
        ed = (sr - (d - b)) - (si + b)
        return (d + (ed + (er - ei))) + 1j * (2.0 * kr * ki)

    @property
    def gamma(self) -> np.ndarray:
        return -2.0 * self.E.imag

    @property
    def tau(self) -> np.ndarray:
        return 1.0 / self.gamma


def _exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * x as p + e exactly: Dekker's product on Veltkamp's split."""
    p = x * x
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _denominator(k, w):
    """D(k) = ka + lam e^{ika} sin(ka); poles of A and B are its zeros."""
    ka = np.asarray(k) * w.a
    return ka + w.lam * np.exp(1j * ka) * np.sin(ka)


def _denominator_bar(k, w):
    """Reflected-conjugate denominator: conj(D(conj(k)))."""
    ka = np.asarray(k) * w.a
    return ka + w.lam * np.exp(-1j * ka) * np.sin(ka)


def _like_input(k, out):
    """``out`` as a Python complex when ``k`` is a scalar, else the array."""
    if np.isscalar(k) or np.ndim(k) == 0:
        return complex(out)
    return out


def _coefficient(k, ka, num, den, limit, name: str):
    """num/den with the removable value ``limit`` where |ka| is tiny;
    raises PoleProximity where den vanishes elsewhere."""
    small = np.abs(ka) < _SMALL_KA
    if np.any(~small & (np.abs(den) < _DENOM_FLOOR)):
        raise PoleProximity(f"{name} evaluated at a pole of the denominator")
    return _like_input(k, np.where(small, limit,
                                   num / np.where(small, 1.0, den)))


def coefficient_A(k, w: WellParameters):
    """Interior scattering amplitude A(k) = -2ika / (ka + lam e^{ika} sin ka).

    Accepts scalar or ndarray ``k`` (real or complex).  The k = 0 limit is
    removable and evaluates to -2i/(1 + lam).
    """
    ka = np.asarray(k, dtype=complex) * w.a
    return _coefficient(k, ka, -2j * ka, _denominator(ka / w.a, w),
                        -2j / (1.0 + w.lam), "A(k)")


def coefficient_A_bar(k, w: WellParameters):
    """Analytic continuation of conj(A(k)) off the real axis.

    Abar(k) = +2ika / (ka + lam e^{-ika} sin ka).  Equals conj(A(k)) for real
    k; its poles are the conjugates of the Gamow poles, so it is regular on
    and below the 45-degree rotated contour.
    """
    ka = np.asarray(k, dtype=complex) * w.a
    return _coefficient(k, ka, 2j * ka, _denominator_bar(ka / w.a, w),
                        2j / (1.0 + w.lam), "Abar(k)")


def coefficient_B(k, w: WellParameters):
    """Exterior reflection amplitude B(k) = -Dbar(k)/D(k); |B| = 1 for real k."""
    ka = np.asarray(k, dtype=complex) * w.a
    return _coefficient(k, ka, -_denominator_bar(ka / w.a, w),
                        _denominator(ka / w.a, w), -1.0 + 0j, "B(k)")


def quantization_residual(k, w: WellParameters):
    """Entire quantization function F(k) = ka cos ka + (lam - ika) sin ka.

    F(k) = 0 exactly at the poles of A and B, and D(k) = e^{ika} F(k).
    """
    ka = np.asarray(k, dtype=complex) * w.a
    return _like_input(k, ka * np.cos(ka) + (w.lam - 1j * ka) * np.sin(ka))


def quantization_derivative(k, w: WellParameters):
    """dF/dk, used by the Newton refinement."""
    a = w.a
    ka = np.asarray(k, dtype=complex) * a
    return _like_input(k, a * np.cos(ka)
                       - ka * a * np.sin(ka)
                       - 1j * a * np.sin(ka)
                       + (w.lam - 1j * ka) * a * np.cos(ka))


def asymptotic_pole_seed(n: int, w: WellParameters) -> complex:
    """Closed-form pole seed k_n a ~ n pi lam/(1+lam) - i (n pi / lam)^2.

    Valid for n pi < lam; raises SeedOutOfRegime beyond.
    """
    if n < 1:
        raise SeedOutOfRegime(f"pole index must be >= 1, got {n}")
    npi = n * math.pi
    if npi >= w.lam:
        raise SeedOutOfRegime(
            f"seed formula requires n*pi < lam (n={n}, lam={w.lam})"
        )
    return (npi * w.lam / (1.0 + w.lam) - 1j * (npi / w.lam) ** 2) / w.a


def _newton(k, w: WellParameters):
    """Safeguarded Newton on F from every seed in k at once: each element
    halves its own step while |F| fails to decrease, and stops once
    |F(k)| < POLE_TOLERANCE * max(1, |ka|).  Returns the roots and their
    |F|; a non-finite iterate never decreases |F|, so it never converges."""
    k = np.array(k, dtype=complex)
    with np.errstate(all="ignore"):
        f = quantization_residual(k, w)
        for _ in range(_NEWTON_ITERATIONS):
            tol = POLE_TOLERANCE * np.maximum(1.0, np.abs(k * w.a))
            live = np.flatnonzero(~(np.abs(f) < tol))
            if live.size == 0:
                return k, np.abs(f)
            step = f[live] / quantization_derivative(k[live], w)
            for _ in range(60):
                trial = k[live] - step
                f_trial = quantization_residual(trial, w)
                down = np.abs(f_trial) < np.abs(f[live])
                k[live[down]], f[live[down]] = trial[down], f_trial[down]
                live, step = live[~down], 0.5 * step[~down]
                if live.size == 0:
                    break
            else:
                i = live[0]
                raise NoConvergence(f"stalled at k={k[i]}, |F|={abs(f[i]):.3e}")
    raise NoConvergence(f"no convergence after {_NEWTON_ITERATIONS} iterations")


def refine_pole(seed: complex, w: WellParameters) -> Poles:
    """Safeguarded Newton iteration on F(k) from one seed wavenumber, the
    one-seed case of enumerate_poles' refinement, as a one-pole table
    (so WrongQuadrant unless it lands in -pi/4 < arg k < 0)."""
    return Poles(*_newton([seed], w))


def _winding_adaptive(path: np.ndarray, w: WellParameters) -> int:
    """Adaptive phase-tracking winding number along a closed polyline."""
    path = np.asarray(path, dtype=complex)
    for _ in range(_WINDING_ROUNDS):
        vals = quantization_residual(path, w)
        if np.any(np.abs(vals) == 0.0):
            raise CountMismatch("F vanishes on the audit contour")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dphi) > np.pi / 2
        if not np.any(bad):
            return int(round(float(np.sum(dphi)) / (2.0 * np.pi)))
        mids = 0.5 * (path[:-1] + path[1:])
        path = np.insert(path, np.flatnonzero(bad) + 1, mids[bad])
    raise CountMismatch("winding-number phase tracking did not converge")


def _seeded_roots(w: WellParameters, k_max: float):
    """The roots k of F with Re k < k_max, and their |F|, refined together
    from one closed-form seed per index.

    F(k) = 0 reads ka = n pi - arctan(ka / (lam - ika)), so the seeds are
    k_n a = n pi - arctan(n pi / (lam - i n pi)), n = 1 .. k_max a/pi + 1.
    """
    npi = math.pi * np.arange(1, int(k_max * w.a / math.pi) + 2)
    k, residual = _newton((npi - np.arctan(npi / (w.lam - 1j * npi))) / w.a, w)
    keep = k.real < k_max
    return k[keep], residual[keep]


def enumerate_poles(w: WellParameters, k_max: float) -> Poles:
    """All fourth-quadrant Gamow poles with Re k < k_max, sorted by Re k.

    The roots come from _seeded_roots, checked by the Poles constructor;
    their count is audited with the argument principle over the enclosing
    rectangle and a CountMismatch is raised on disagreement.  A cutoff past
    MAX_POLES seeds raises ValueError before any array is allocated.
    """
    if not (0.0 < k_max < math.inf):
        raise ValueError(f"k_max must be finite and positive, got {k_max}")
    if k_max * w.a / math.pi >= MAX_POLES:
        raise ValueError(f"k_max a = {k_max * w.a:g} needs more than "
                         f"{MAX_POLES} poles")
    found = Poles(*_seeded_roots(w, k_max))

    im_max = math.log1p(2.0 * k_max * w.a / w.lam) / (2.0 * w.a) + 0.5 / w.a
    # the audit contour runs clockwise around the fourth-quadrant rectangle
    wind = -_winding_adaptive(_audit_contour(k_max, im_max), w)
    if wind != len(found):
        raise CountMismatch(f"argument principle counts {wind} poles, "
                            f"found {len(found)}")
    return found


def _audit_contour(k_max: float, im_max: float) -> np.ndarray:
    """Closed rectangle boundary in the fourth quadrant, indented at 0."""
    n = _AUDIT_POINTS
    return np.concatenate([
        _AUDIT_INDENT * np.exp(1j * np.linspace(-np.pi / 2, 0.0, 64)),
        np.linspace(_AUDIT_INDENT, k_max, n),
        k_max + 1j * np.linspace(0.0, -im_max, n),
        np.linspace(k_max, 0.0, n) - 1j * im_max,
        1j * np.linspace(-im_max, -_AUDIT_INDENT, n),
    ])
