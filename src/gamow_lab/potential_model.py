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

import cmath
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Resonance:
    """One Gamow pole: complex wavenumber plus derived energy quantities.

    ``E = k**2`` always; ``gamma = -2 Im E`` and ``tau = 1/gamma``.
    ``residual`` is |F(k)| at the refined root.
    """

    n: int
    k: complex
    residual: float
    E: complex = field(init=False)
    gamma: float = field(init=False)
    tau: float = field(init=False)

    def __post_init__(self):
        E = self.k * self.k
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "gamma", -2.0 * E.imag)
        object.__setattr__(self, "tau", 1.0 / (-2.0 * E.imag))

    def validate(self) -> None:
        k = self.k
        if not (k.real > 0.0 and k.imag < 0.0):
            raise WrongQuadrant(f"root {k} is not in the fourth quadrant")
        if not (-math.pi / 4 < cmath.phase(k) < 0.0):
            raise WrongQuadrant(f"root {k} lies outside -pi/4 < arg k < 0")
        if not (self.gamma > 0.0):
            raise WrongQuadrant(f"root {k} has nonpositive width")


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
    if n * math.pi >= w.lam:
        raise SeedOutOfRegime(
            f"seed formula requires n*pi < lam (n={n}, lam={w.lam})"
        )
    return _seed(n, w)


def _seed(n: int, w: WellParameters) -> complex:
    """k_n a = n pi lam/(1+lam) - i (n pi / lam)^2, without the regime check."""
    npi = n * math.pi
    return (npi * w.lam / (1.0 + w.lam) - 1j * (npi / w.lam) ** 2) / w.a


def refine_pole(seed: complex, w: WellParameters) -> Resonance:
    """Safeguarded Newton iteration on F(k) from a seed wavenumber.

    Halves the step while |F| fails to decrease; converges when
    |F(k)| < POLE_TOLERANCE * max(1, |ka|).  The result must land in the
    fourth quadrant with arg k > -pi/4, else WrongQuadrant is raised.
    """
    k = complex(seed)
    fval = quantization_residual(k, w)
    for _ in range(_NEWTON_ITERATIONS):
        tol = POLE_TOLERANCE * max(1.0, abs(k * w.a))
        if abs(fval) < tol:
            break
        deriv = quantization_derivative(k, w)
        if deriv == 0:
            raise NoConvergence(f"zero derivative at k={k}")
        step = fval / deriv
        # damp by halves until |F| decreases
        for _ in range(60):
            k_new = k - step
            f_new = quantization_residual(k_new, w)
            if abs(f_new) < abs(fval):
                break
            step *= 0.5
        else:
            raise NoConvergence(f"stalled at k={k}, |F|={abs(fval):.3e}")
        k, fval = k_new, f_new
    else:
        raise NoConvergence(
            f"no convergence after {_NEWTON_ITERATIONS} iterations from seed {seed}"
        )
    res = Resonance(n=0, k=k, residual=abs(fval))
    res.validate()
    return res


def _winding_adaptive(path: np.ndarray, w: WellParameters) -> int:
    """Adaptive phase-tracking winding number along a closed polyline."""
    path = np.asarray(path, dtype=complex)
    for _ in range(16):
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


def enumerate_poles(w: WellParameters, k_max: float) -> list[Resonance]:
    """All fourth-quadrant Gamow poles with Re k < k_max, sorted by Re k.

    Seeds come from the asymptotic formula while n pi < lam/2 and from
    continuation (previous root plus the local spacing) beyond; the count is
    audited with the argument principle over the enclosing rectangle and a
    CountMismatch is raised on disagreement.
    """
    if not (0.0 < k_max < math.inf):
        raise ValueError(f"k_max must be finite and positive, got {k_max}")
    found: list[Resonance] = []
    spacing = math.pi * w.lam / (1.0 + w.lam) / w.a
    n = 1
    while True:
        npi = n * math.pi
        if npi < 0.5 * w.lam:
            seed = asymptotic_pole_seed(n, w)
        elif found:
            if len(found) >= 2:
                spacing = found[-1].k.real - found[-2].k.real
            seed = found[-1].k + spacing
        else:
            # lam too small for even one asymptotic seed: start from the
            # formula anyway (it still lands in the n=1 basin for lam >~ 4).
            seed = _seed(n, w)
        if seed.real >= k_max:
            break
        try:
            res = refine_pole(seed, w)
        except (NoConvergence, WrongQuadrant):
            # retry from a slightly deeper seed before giving up on this n
            res = refine_pole(seed - 0.05j / w.a, w)
        if res.k.real >= k_max:
            break
        if found and abs(res.k - found[-1].k) < 1e-8 / w.a:
            raise CountMismatch(f"duplicate root near k={res.k}")
        found.append(res)
        n += 1
    found.sort(key=lambda r: r.k.real)
    found = [Resonance(n=i + 1, k=r.k, residual=r.residual)
             for i, r in enumerate(found)]

    im_max = math.log1p(2.0 * k_max * w.a / w.lam) / (2.0 * w.a) + 0.5 / w.a
    # the audit contour runs clockwise around the fourth-quadrant rectangle
    wind = -_winding_adaptive(_audit_contour(k_max, im_max), w)
    if wind != len(found):
        raise CountMismatch(
            f"argument principle counts {wind} poles, found {len(found)}"
        )
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
