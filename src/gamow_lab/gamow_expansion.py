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
from scipy.integrate import simpson
from scipy.optimize import brentq

from .exceptions import NoCrossing, QuadratureNotConverged, ResidueMismatch
from .potential_model import (
    Resonance,
    WellParameters,
    coefficient_A,
    coefficient_A_bar,
)
from .profiles import InitialProfile, overlap_transform
from .quadrature import panel_nodes
from .spectral_evolution import WaveState, pole_cutoff, resonances

_ROT = np.exp(-1j * math.pi / 4.0)


@dataclass(frozen=True)
class ResidueTerm:
    """One Gamow-pole contribution C(k_n, x) exp(-i k_n^2 t)."""

    resonance: Resonance
    prefactor: complex  # C(k_n, x) = prefactor * sin(k_n x)
    weight: float       # c_n = int_0^a |C(k_n, x)|^2 dx

    def coefficient(self, x) -> np.ndarray:
        return self.prefactor * np.sin(self.resonance.k * np.asarray(x))


@dataclass(frozen=True)
class RotatedDecomposition:
    """Background integral plus residue sum; total equals their pointwise sum."""

    background: np.ndarray
    residues: tuple[ResidueTerm, ...]
    total: WaveState

    def residue_sum(self, t: float) -> np.ndarray:
        acc = np.zeros_like(self.background)
        for term in self.residues:
            kn = term.resonance.k
            acc = acc + term.coefficient(self.total.x) * np.exp(-1j * kn * kn * t)
        return acc


def integrand_f(k, x, p: InitialProfile, w: WellParameters):
    """f(k, x) = (1/2pi) phi(k) A(k) Abar(k) sin(kx) at real or complex k."""
    k = np.asarray(k, dtype=complex)
    scal = np.asarray(overlap_transform(p, k) * coefficient_A(k, w)
                      * coefficient_A_bar(k, w)) / (2.0 * math.pi)
    osc = np.sin(np.multiply.outer(k, np.asarray(x)))
    return scal.reshape(scal.shape + (1,) * np.ndim(x)) * osc


def residue_prefactor(r: Resonance, p: InitialProfile, w: WellParameters) -> complex:
    """Pole strength of C(k_n, x) = -2 pi i Res_{k_n} f(k, x) / sin(k_n x).

    With A = N/D, N = -2ika and D'(k) = a (1 + lam e^{2ika}), the residue of
    f picks up N(k_n)/D'(k_n) in place of A.
    """
    kn = r.k
    N = -2j * kn * w.a
    Dp = w.a * (1.0 + w.lam * np.exp(2j * kn * w.a))
    phi = overlap_transform(p, kn)
    abar = coefficient_A_bar(kn, w)
    return complex(-1j * phi * abar * N / Dp)


def residue_C(r: Resonance, x, p: InitialProfile, w: WellParameters):
    """Residue coefficient C(k_n, x) on [0, a]."""
    return residue_prefactor(r, p, w) * np.sin(r.k * np.asarray(x))


def verify_residue(r: Resonance, p: InitialProfile, w: WellParameters,
                   x: float | None = None, n_nodes: int = 128,
                   rtol: float = 1e-6) -> float:
    """Check the analytic residue against a small-circle contour integral.

    Integrates f around k_n on a circle of radius min(1e-3, |Im k_n|/10)
    (trapezoid rule, exponentially convergent) and compares with the closed
    form; raises ResidueMismatch beyond ``rtol``.  Returns the relative error.
    """
    if x is None:
        x = 0.5 * w.a
    radius = min(1e-3 / w.a, abs(r.k.imag) / 10.0)
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    ring = r.k + radius * np.exp(1j * theta)
    dk = 1j * radius * np.exp(1j * theta) * (2.0 * math.pi / n_nodes)
    contour = -np.sum(integrand_f(ring, x, p, w).ravel() * dk)
    analytic = residue_prefactor(r, p, w) * np.sin(r.k * x)
    rel = abs(contour - analytic) / abs(analytic)
    if rel > rtol:
        raise ResidueMismatch(
            f"pole n={r.n}: contour residue deviates by {rel:.3e}"
        )
    return float(rel)


def residue_weight(r: Resonance, p: InitialProfile, w: WellParameters,
                   n_nodes: int = 513) -> float:
    """c_n = int_0^a |C(k_n, x)|^2 dx (raw residue weight, no renormalization)."""
    x = np.linspace(0.0, w.a, n_nodes)
    c = residue_C(r, x, p, w)
    return float(simpson(np.abs(c) ** 2, x=x))


def residue_terms(p: InitialProfile, w: WellParameters,
                  k_max: float) -> tuple[ResidueTerm, ...]:
    """All residue terms for poles below k_max (all lie in the sector
    -pi/4 < arg k < 0; enumerate_poles enforces that)."""
    terms = []
    for r in resonances(w, k_max):
        terms.append(ResidueTerm(
            resonance=r,
            prefactor=residue_prefactor(r, p, w),
            weight=residue_weight(r, p, w),
        ))
    return tuple(terms)


#: Gauss-Legendre orders of the ray rule: main rule and error control
_RAY_MAIN = 16
_RAY_CONTROL = 12
#: ray panels: the first is [0, _RAY_START / sqrt(t_max)], then each edge
#: is _RAY_RATIO times the one before, until panels are _RAY_PANEL / a long
_RAY_START = 0.5
_RAY_RATIO = 1.5
_RAY_PANEL = 2.0
#: f is evaluated on this many ray nodes at a time (bounds the workspace)
_RAY_BLOCK = 128


def _ray_edges(w: WellParameters, t_min: float, t_max: float) -> np.ndarray:
    """Panel edges in s on the ray k = e^{-i pi/4} s for t in [t_min, t_max].

    On the ray exp(-i k^2 t) = exp(-s^2 t).  The first panel is
    [0, 0.5/sqrt(t_max)], on which exp(-s^2 t_max) is a smooth bump; the
    panels then grow geometrically, at most to 2/a (f varies on the scale
    1/a), up to where the Gaussian at t_min has beaten the
    exp(sqrt(2) a s) growth of f by e^-40.
    """
    if not (0.0 < t_min <= t_max):
        raise ValueError("need 0 < t_min <= t_max")
    c = math.sqrt(2.0) * w.a / math.sqrt(t_min)
    top = 0.5 * (c + math.sqrt(c * c + 160.0)) / math.sqrt(t_min)
    widest = _RAY_PANEL / w.a
    edges = [0.0, min(_RAY_START / math.sqrt(t_max), widest, top)]
    while edges[-1] < top:
        step = min(edges[-1] * (_RAY_RATIO - 1.0), widest)
        edges.append(min(edges[-1] + step, top))
    return np.asarray(edges)


@dataclass(frozen=True)
class RayBackground:
    """Background integral on the 45-degree ray, for all t of one range.

    With k = e^{-i pi/4} s the background is
    I(x, t) = sum_j exp(-s_j^2 t) F_j(x), F_j(x) = w_j e^{-i pi/4}
    f(e^{-i pi/4} s_j, x), so f is evaluated once and each time costs one
    matrix product.  The control rule (lower order, same panels) gives the
    error estimate.
    """

    s2: np.ndarray       # (n_s,) squared main nodes
    F: np.ndarray        # (n_s, n_x) weighted integrand on the main rule
    s2_ctrl: np.ndarray
    F_ctrl: np.ndarray

    def at(self, times, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        """I(x, t) with shape (n_t, n_x), and the error estimate per time
        (largest |main - control| over x).  ``tol`` is absolute; an
        estimate above 100 tol raises QuadratureNotConverged.  The work
        space grows like n_t n_s, so long time grids are passed in blocks.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        main = _gauss_sum(self.s2, self.F, times)
        ctrl = _gauss_sum(self.s2_ctrl, self.F_ctrl, times)
        err = np.max(np.abs(main - ctrl), axis=1)
        if np.any(err > 100.0 * tol):
            raise QuadratureNotConverged(
                f"rotated background error estimate {err.max():.3e}",
                estimate=float(err.max()))
        return main, err


def _gauss_sum(s2: np.ndarray, F: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_j exp(-s_j^2 t) F_j for each t; the real Gaussians multiply the
    interleaved re/im parts of F in one real product."""
    return (np.exp(-np.outer(times, s2)) @ F.view(np.float64)).view(complex)


def ray_background(x, p: InitialProfile, w: WellParameters, t_min: float,
                   t_max: float) -> RayBackground:
    """Evaluate f on the ray rule for [t_min, t_max] at the points x."""
    if t_min < 0.02 * w.a ** 2:
        warnings.warn(
            "rotated background at t < 0.02 a^2: the transform grows like "
            "exp(k a / sqrt(2)) before the Gaussian damping wins, so the "
            "quadrature cost rises sharply; prefer the direct route here",
            RuntimeWarning, stacklevel=3)
    x = np.asarray(x, dtype=float).ravel()
    edges = _ray_edges(w, t_min, t_max)
    parts = []
    for order in (_RAY_MAIN, _RAY_CONTROL):
        s, ws = panel_nodes(edges, order)
        F = np.empty((s.size, x.size), dtype=complex)
        for i in range(0, s.size, _RAY_BLOCK):
            sl = slice(i, i + _RAY_BLOCK)
            F[sl] = integrand_f(_ROT * s[sl], x, p, w) * (_ROT * ws[sl])[:, None]
        parts += [s * s, F]
    return RayBackground(*parts)


def background_integral(x, t: float, p: InitialProfile, w: WellParameters,
                        tol: float = 1e-12):
    """45-degree rotated background I(x, t) for t > 0.

    The ray rule of :func:`ray_background` at the single time t.  ``x`` may
    be a scalar or a grid; ``tol`` is absolute, and an error estimate above
    100 tol raises QuadratureNotConverged.
    """
    if not (t > 0.0):
        raise ValueError("background integral requires t > 0 (no rotation at t = 0)")
    val, _ = ray_background(x, p, w, t, t).at(t, tol)
    return val[0].reshape(np.shape(x)) if np.ndim(x) else complex(val[0, 0])


def evolve_rotated(p: InitialProfile, t: float, grid, w: WellParameters,
                   k_max: float | None = None) -> RotatedDecomposition:
    """Gamow expansion of psi(x, t) for t > 0: residues plus background."""
    if not (t > 0.0):
        raise ValueError("rotated representation requires t > 0")
    if k_max is None:
        k_max = pole_cutoff(w, t)
    grid = np.asarray(grid, dtype=float)
    terms = residue_terms(p, w, k_max)
    background = background_integral(grid, t, p, w)
    total = background.astype(complex).copy()
    for term in terms:
        kn = term.resonance.k
        total += term.coefficient(grid) * np.exp(-1j * kn * kn * t)
    ws = WaveState(x=grid, psi=total, t=t, method="rotated")
    return RotatedDecomposition(background=background, residues=terms, total=ws)


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


def crossover_time(p: InitialProfile, w: WellParameters,
                   k_max: float = 40.0) -> dict:
    """Intersection t* of the leading exponential branch c1 e^{-t/tau1}
    with the power-law tail, plus the order-of-magnitude rule-of-thumb estimate 10 tau1 ln(lam).

    Returns {'t_star', 'rule_of_thumb', 'tau1', 'c1'}; bisection bracket is
    [tau1, 1e4 tau1].
    """
    if not w.metastable:
        raise ValueError("crossover estimate requires the metastable regime "
                         "(lam >= 10)")
    terms = residue_terms(p, w, k_max)
    first = terms[0]
    tau1 = first.resonance.tau
    c1 = first.weight

    def diff(t):
        return (math.log(c1) - t / tau1
                - math.log(nonescape_asymptote(t, p, w)))

    lo, hi = tau1, 1e4 * tau1
    if diff(lo) <= 0.0 or diff(hi) >= 0.0:
        raise NoCrossing(
            f"exponential and tail branches do not cross in [{lo:g}, {hi:g}]")
    t_star = brentq(diff, lo, hi, xtol=1e-10 * tau1)
    return {
        "t_star": float(t_star),
        "rule_of_thumb": 10.0 * tau1 * math.log(w.lam),
        "tau1": tau1,
        "c1": c1,
    }


def gram_matrix(p: InitialProfile, w: WellParameters, k_max: float = 40.0,
                n_terms: int = 3, n_nodes: int = 513) -> np.ndarray:
    """Normalized Gram matrix of the residue functions C(k_n, .).

    Off-diagonal magnitudes quantify how close the Gamow functions are to
    orthogonal (they are only approximately so)."""
    terms = residue_terms(p, w, k_max)[:n_terms]
    x = np.linspace(0.0, w.a, n_nodes)
    funcs = [t.coefficient(x) for t in terms]
    g = np.empty((len(funcs), len(funcs)), dtype=complex)
    for i, fi in enumerate(funcs):
        for j, fj in enumerate(funcs):
            g[i, j] = simpson(np.conj(fi) * fj, x=x)
    d = np.sqrt(np.real(np.diag(g)))
    return g / np.outer(d, d)
