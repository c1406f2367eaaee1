"""Rotated-contour representation: Gamow residues plus background integral.

For t > 0 the real-axis spectral integral can be rotated 45 degrees
clockwise in the k plane, picking up the residues of the poles in the
sector -pi/4 < arg k < 0:

    psi(x, t) = e^{-i pi/4} int_0^inf e^{-k^2 t} f(e^{-i pi/4} k, x) dk
                + sum_n C(k_n, x) e^{-i k_n^2 t},

    f(k, x) = (1/2pi) phi(k) A(k) Abar(k) sin(kx).

|A(k)|^2 is continued off the real axis as A(k) * Abar(k), the unique
analytic function matching it for real k; Abar's poles are the conjugates
of the Gamow poles and never obstruct the rotated contour.  The closed-form
small-k asymptotics of the background integral yield the t^-3 tail of the
nonescape probability and the exponential-to-power-law crossover estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NoCrossing, QuadratureNotConverged, ResidueMismatch
from .potential_model import (
    Poles,
    WellParameters,
    coefficient_A,
    coefficient_A_bar,
)
from .profiles import InitialProfile, overlap_transform, sine_overlap
from .quadrature import CONTROL_ORDER, MAIN_ORDER, panel_nodes
from .spectral_evolution import DEFAULT_KMAX, WaveState, pole_cutoff, resonances

_ROT = np.exp(-1j * math.pi / 4.0)
#: trapezoid nodes on verify_residue's circle
_RESIDUE_NODES = 128
#: residue functions in gram_matrix
GRAM_TERMS = 3


@dataclass(frozen=True)
class Residues:
    """Gamow-pole contributions C_n(x) exp(-i k_n^2 t) of the poles below a
    cutoff, as arrays over the poles.

    C_n(x) = prefactors[n] sin(k_n x), and weights[n] = c_n =
    int_0^a |C_n(x)|^2 dx (raw residue weights, no renormalization).
    """

    poles: Poles
    prefactors: np.ndarray  # (n_poles,) complex
    weights: np.ndarray     # (n_poles,) real

    def modes(self, x) -> np.ndarray:
        """C_n(x_j) with shape (n_poles, n_x)."""
        return self.prefactors[:, None] * np.sin(np.outer(self.poles.k, x))


def integrand_f(k, x, p: InitialProfile, w: WellParameters):
    """f(k, x) = (1/2pi) phi(k) A(k) Abar(k) sin(kx) at real or complex k."""
    k = np.asarray(k, dtype=complex)
    scal = np.asarray(overlap_transform(p, k) * coefficient_A(k, w)
                      * coefficient_A_bar(k, w)) / (2.0 * math.pi)
    osc = np.sin(np.multiply.outer(k, np.asarray(x)))
    return scal.reshape(scal.shape + (1,) * np.ndim(x)) * osc


def residue_prefactor(k, p: InitialProfile, w: WellParameters):
    """Pole strength of C(k_n, x) = -2 pi i Res_{k_n} f(k, x) / sin(k_n x),
    at one pole wavenumber or an array of them.

    With A = N/D, N = -2ika and D'(k) = a (1 + lam e^{2ika}), the residue of
    f picks up N(k_n)/D'(k_n) in place of A.
    """
    k = np.asarray(k, dtype=complex)
    N = -2j * k * w.a
    Dp = w.a * (1.0 + w.lam * np.exp(2j * k * w.a))
    out = -1j * overlap_transform(p, k) * coefficient_A_bar(k, w) * N / Dp
    return complex(out) if np.ndim(out) == 0 else out


def verify_residue(k: complex, p: InitialProfile, w: WellParameters,
                   x: float | None = None, rtol: float = 1e-6) -> float:
    """Check the analytic residue at the pole wavenumber k against a
    small-circle contour integral.

    Integrates f around k on a circle of radius min(1e-3, |Im k|/10)
    (trapezoid rule, exponentially convergent) and compares with the closed
    form; raises ResidueMismatch beyond ``rtol``.  Returns the relative error.
    """
    if x is None:
        x = 0.5 * w.a
    k = complex(k)
    radius = min(1e-3 / w.a, abs(k.imag) / 10.0)
    theta = 2.0 * math.pi * np.arange(_RESIDUE_NODES) / _RESIDUE_NODES
    ring = k + radius * np.exp(1j * theta)
    dk = 1j * radius * np.exp(1j * theta) * (2.0 * math.pi / _RESIDUE_NODES)
    contour = -np.sum(integrand_f(ring, x, p, w).ravel() * dk)
    analytic = residue_prefactor(k, p, w) * np.sin(k * x)
    rel = abs(contour - analytic) / abs(analytic)
    if rel > rtol:
        raise ResidueMismatch(
            f"pole k={k}: contour residue deviates by {rel:.3e}"
        )
    return float(rel)


def residue_terms(p: InitialProfile, w: WellParameters,
                  k_max: float) -> Residues:
    """Residues of the poles below k_max (all lie in the sector
    -pi/4 < arg k < 0; enumerate_poles enforces that).

    |sin(k x)|^2 = sin(conj(k) x) sin(k x), so each weight is |prefactor|^2
    times a closed-form sine overlap.
    """
    poles = resonances(w, k_max)
    k = poles.k
    prefactors = residue_prefactor(k, p, w)
    weights = (np.abs(prefactors) ** 2 * sine_overlap(np.conj(k), k, w.a)).real
    return Residues(poles=poles, prefactors=prefactors, weights=weights)


#: ray panels: the first is [0, _RAY_START / sqrt(t_max)], then each edge
#: is _RAY_RATIO times the one before, until panels are _RAY_PANEL / a long
_RAY_START = 0.5
_RAY_RATIO = 1.5
_RAY_PANEL = 2.0
#: f is evaluated on this many ray nodes at a time (bounds the workspace)
_RAY_BLOCK = 128
#: below this time (units a^2) the rotated route is dear (the ray rule's
#: node count grows like 1/t_min), so shorter times take the direct route
DIRECT_TIME_LIMIT = 0.02
#: largest background error estimate accepted (absolute, on psi)
BACKGROUND_TOLERANCE = 1e-10


def _ray_edges(w: WellParameters, t_min: float, t_max: float) -> np.ndarray:
    """Panel edges in s on the ray k = e^{-i pi/4} s for t in [t_min, t_max].

    On the ray exp(-i k^2 t) = exp(-s^2 t).  The first panel is
    [0, 0.5/sqrt(t_max)], on which exp(-s^2 t_max) is a smooth bump; the
    panels then grow geometrically, at most to 2/a (f varies on the scale
    1/a), up to where the Gaussian at t_min has beaten the
    exp(sqrt(2) a s) growth of f by e^-40.
    """
    if not (0.0 < t_min <= t_max < math.inf):
        raise ValueError("need 0 < t_min <= t_max < inf")
    c = math.sqrt(2.0) * w.a / math.sqrt(t_min)
    top = 0.5 * (c + math.sqrt(c * c + 160.0)) / math.sqrt(t_min)
    widest = _RAY_PANEL / w.a
    edges = [0.0, min(_RAY_START / math.sqrt(t_max), widest, top)]
    while edges[-1] < top:
        step = min(edges[-1] * (_RAY_RATIO - 1.0), widest)
        edges.append(min(edges[-1] + step, top))
    return np.asarray(edges)


def _gauss_sum(s2: np.ndarray, F: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_j exp(-s_j^2 t) F_j for each t; the real Gaussians multiply the
    interleaved re/im parts of F in one real product."""
    return (np.exp(-np.outer(times, s2)) @ F.view(np.float64)).view(complex)


class RotatedExpansion:
    """psi(x_j, t) = sum_n C_n(x_j) exp(-i k_n^2 t) + I(x_j, t) at fixed
    points x_j for every t in [t_min, t_max].

    Holds the residues of the poles below pole_cutoff(w, t_min), their
    modes C_n(x_j) and the background's ray rule, all computed once, so
    each time costs a few small matrix products.  With k = e^{-i pi/4} s
    the background is I(x, t) = sum_j exp(-s_j^2 t) F_j(x), where
    F_j(x) = w_j e^{-i pi/4} f(e^{-i pi/4} s_j, x); a control rule (lower
    order, same panels) gives its error estimate.
    """

    def __init__(self, x, p: InitialProfile, w: WellParameters,
                 t_min: float, t_max: float):
        if t_min < DIRECT_TIME_LIMIT * w.a ** 2:
            warnings.warn(
                f"rotated background at t < {DIRECT_TIME_LIMIT:g} a^2: the "
                "transform grows like exp(k a / sqrt(2)) before the Gaussian "
                "damping wins, so the quadrature cost rises sharply; prefer "
                "the direct route here", RuntimeWarning, stacklevel=2)
        x = np.asarray(x, dtype=float).ravel()
        edges = _ray_edges(w, t_min, t_max)
        self.residues = residue_terms(p, w, pole_cutoff(w, t_min))
        self.energies = self.residues.poles.E
        self.mode_values = self.residues.modes(x)
        rules = []
        for order in (MAIN_ORDER, CONTROL_ORDER):
            s, ws = panel_nodes(edges, order)
            F = np.empty((s.size, x.size), dtype=complex)
            for i in range(0, s.size, _RAY_BLOCK):
                sl = slice(i, i + _RAY_BLOCK)
                F[sl] = (integrand_f(_ROT * s[sl], x, p, w)
                         * (_ROT * ws[sl])[:, None])
            rules.append((s * s, F))
        self._main, self._control = rules

    def background(self, times) -> tuple[np.ndarray, np.ndarray]:
        """I(x_j, t) with shape (n_t, n_x), and the error estimate per time
        (largest |main - control| over x).  An estimate above
        BACKGROUND_TOLERANCE raises QuadratureNotConverged.  The work space
        grows like n_t n_s, so long time grids are passed in blocks.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        main = _gauss_sum(*self._main, times)
        err = np.max(np.abs(main - _gauss_sum(*self._control, times)), axis=1)
        if np.any(err > BACKGROUND_TOLERANCE):
            raise QuadratureNotConverged(
                f"rotated background error estimate {err.max():.3e}",
                estimate=float(err.max()))
        return main, err

    def residue_sum(self, times) -> np.ndarray:
        """sum_n C_n(x_j) exp(-i k_n^2 t) with shape (n_t, n_x)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return np.exp(-1j * np.outer(times, self.energies)) @ self.mode_values

    def psi(self, times) -> np.ndarray:
        """psi with shape (n_t, n_x); raises QuadratureNotConverged as
        background does."""
        return self.background(times)[0] + self.residue_sum(times)


def background_integral(x, t: float, p: InitialProfile, w: WellParameters):
    """45-degree rotated background I(x, t) for t > 0.

    The ray rule of :class:`RotatedExpansion` at the single time t.  ``x``
    may be a scalar or a grid; an error estimate above BACKGROUND_TOLERANCE
    raises QuadratureNotConverged.
    """
    if not (t > 0.0):
        raise ValueError("background integral requires t > 0 (no rotation at t = 0)")
    val, _ = RotatedExpansion(x, p, w, t, t).background(t)
    return val[0].reshape(np.shape(x)) if np.ndim(x) else complex(val[0, 0])


def evolve_rotated(p: InitialProfile, t: float, grid,
                   w: WellParameters) -> WaveState:
    """Gamow expansion of psi(x, t) for t > 0: residues plus background."""
    if not (t > 0.0):
        raise ValueError("rotated representation requires t > 0")
    grid = np.asarray(grid, dtype=float)
    psi = RotatedExpansion(grid, p, w, t, t).psi(t)[0]
    return WaveState(x=grid, psi=psi)


def asymptotic_background(x, t: float, p: InitialProfile,
                          w: WellParameters):
    """Leading small-k closed form of the background integral,

        I(x, t) ~ (e^{-i pi/4} / 2pi) phi'(0) |A(0)|^2 x sqrt(pi)/(4 t^{3/2}),

    exact power law used for the long-time tail."""
    if not (t > 0.0):
        raise ValueError("t must be positive")
    pref = _asym_prefactor(p, w)
    return pref * np.asarray(x) / t ** 1.5


def _asym_prefactor(p: InitialProfile, w: WellParameters) -> complex:
    # rotation contributes e^{-i pi/4} from dk and -i from k^2 = -i u^2 / t
    phi_p0 = p.first_moment()
    A0_sq = 4.0 / (1.0 + w.lam) ** 2
    return complex(-1j * _ROT / (2.0 * math.pi) * phi_p0 * A0_sq
                   * math.sqrt(math.pi) / 4.0)


def nonescape_asymptote(t, p: InitialProfile, w: WellParameters):
    """Closed-form long-time tail P(t) = |prefactor|^2 a^3 / (3 t^3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    pref = abs(_asym_prefactor(p, w)) ** 2 * w.a ** 3 / 3.0
    out = pref / t ** 3
    return float(out) if out.ndim == 0 else out


#: 1/e as the double math.exp(-1) plus its rounding error, so that
#: e z + 1 keeps its relative accuracy as z approaches -1/e
_INV_E = math.exp(-1.0)
_INV_E_LO = -1.2428753672788363e-17
#: below this e z + 1 the Lambert W root is taken in u = W + 1
#: (|u| < 1 there)
_BRANCH_ZONE = 0.25
#: Halley steps allowed per Lambert W root (three or four suffice)
_HALLEY_STEPS = 12
#: beyond this |W| the root is taken from W + ln|W| = ln|z|, where e^W
#: would under- or overflow
_LOG_FORM = 500.0


def _branch_series(u: float) -> float:
    """g(u) = (u - 1) e^u + 1 = sum_{n>=2} (n - 1) u^n / n!, summed
    term by term so that it keeps its relative accuracy near u = 0."""
    term = 0.5 * u * u
    total = term
    n = 2
    while abs(term) * n > 1e-17 * abs(total):
        n += 1
        term *= u / n
        total += (n - 1) * term
    return total


def _lambert_w(z: float, branch: int) -> float:
    """Real Lambert W, the root of W e^W = z, on branch 0 (z >= -1/e) or
    branch -1 (-1/e <= z < 0); nan outside that domain or for non-finite z.

    Halley's iteration (Corless et al., Adv. Comput. Math. 5, 329 (1996)).
    Near the branch point it starts from the series in p = +-sqrt(2(ez+1))
    and solves g(u) = e z + 1 for u = W + 1, so the root keeps its
    relative accuracy where W e^W = z is ill-conditioned.  Elsewhere it
    starts from log forms and solves W e^W = z, or W + ln|W| = ln|z| for
    |W| > _LOG_FORM.
    """
    if not (math.isfinite(z) and z >= -_INV_E) or (branch == -1 and z >= 0.0):
        return math.nan
    ez1 = math.e * ((z + _INV_E) + _INV_E_LO)
    if ez1 < _BRANCH_ZONE:
        if ez1 <= 0.0:
            return -1.0
        p = math.sqrt(2.0 * ez1) * (1.0 if branch == 0 else -1.0)
        u = p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
        for _ in range(_HALLEY_STEPS):
            f = _branch_series(u) - ez1
            e = math.exp(u)
            d1 = u * e
            step = f / (d1 - 0.5 * f * (1.0 + u) * e / d1)
            u -= step
            if abs(step) <= 1e-16 * abs(u):
                break
        return u - 1.0
    if branch == 0:
        lz = math.log1p(z)
        w = lz * (1.0 - math.log1p(lz) / (2.0 + lz))
    else:
        l1 = math.log(-z)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    if abs(w) < _LOG_FORM:
        for _ in range(_HALLEY_STEPS):
            e = math.exp(w)
            f = w * e - z
            step = f / (e * (w + 1.0) - 0.5 * (w + 2.0) * f / (w + 1.0))
            w -= step
            if abs(step) <= 1e-16 * abs(w):
                break
        return w
    log_z = math.log(abs(z))
    for _ in range(_HALLEY_STEPS):
        h = w + math.log(abs(w)) - log_z
        d1 = 1.0 + 1.0 / w
        step = h / (d1 + 0.5 * h / (w * w * d1))
        w -= step
        if abs(step) <= 1e-16 * abs(w):
            break
    return w


def crossing_time(log_c: float, rate: float, log_k: float, s: float,
                  lo: float, hi: float) -> float:
    """Time t in [lo, hi] where the exponential branch log c - rate t meets
    the power law log K + s ln t, in closed form:

        t = (s / rate) W(z),  z = (rate / s) e^{(log c - log K) / s},

    on the Lambert-W branch -1 for s < 0 (the later of the two crossings)
    and branch 0 for s > 0.  Raises NoCrossing unless the exponential lies
    above the power law at lo and below it at hi, and also when W is nan
    (z off the branch's real domain) or the root falls outside [lo, hi] (a
    nearly flat power law far from the exponential pushes z beyond the
    doubles' range).
    """
    def gap(t):
        return log_c - rate * t - log_k - s * math.log(t)

    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        raise NoCrossing(f"exponential and power-law branches do not cross "
                         f"in [{lo:g}, {hi:g}]")
    with np.errstate(over="ignore"):
        z = rate / s * np.exp((log_c - log_k) / s)
    W = _lambert_w(z, -1 if s < 0.0 else 0)
    t = s / rate * W
    if not (lo <= t <= hi):
        raise NoCrossing(f"closed-form crossing W = {W} gives no root in "
                         f"[{lo:g}, {hi:g}]")
    return float(t)


def crossover_time(p: InitialProfile, w: WellParameters) -> dict:
    """Intersection t* of the leading exponential branch c1 e^{-t/tau1}
    with the power-law tail K t^-3, plus the order-of-magnitude
    rule-of-thumb estimate 10 tau1 ln(lam).

    Returns {'t_star', 'rule_of_thumb', 'tau1', 'c1'}; t* is the
    crossing_time root in [tau1, 1e4 tau1].
    """
    if not w.metastable:
        raise ValueError("crossover estimate requires the metastable regime "
                         "(lam >= 10)")
    residues = residue_terms(p, w, DEFAULT_KMAX / w.a)
    tau1 = float(residues.poles.tau[0])
    c1 = float(residues.weights[0])
    # the tail is K t^-3 with K its value at t = 1
    t_star = crossing_time(math.log(c1), 1.0 / tau1,
                           math.log(nonescape_asymptote(1.0, p, w)), -3.0,
                           tau1, 1e4 * tau1)
    return {
        "t_star": t_star,
        "rule_of_thumb": 10.0 * tau1 * math.log(w.lam),
        "tau1": tau1,
        "c1": c1,
    }


def gram_matrix(p: InitialProfile, w: WellParameters) -> np.ndarray:
    """Normalized Gram matrix of the first GRAM_TERMS residue functions
    C(k_n, .).

    Off-diagonal magnitudes quantify how close the Gamow functions are to
    orthogonal (they are only approximately so)."""
    residues = residue_terms(p, w, DEFAULT_KMAX / w.a)
    k, c = residues.poles.k[:GRAM_TERMS], residues.prefactors[:GRAM_TERMS]
    g = (np.conj(c)[:, None] * c[None, :]
         * sine_overlap(np.conj(k)[:, None], k[None, :], w.a))
    d = np.sqrt(np.real(np.diag(g)))
    return g / np.outer(d, d)
