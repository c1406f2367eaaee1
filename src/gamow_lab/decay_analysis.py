"""Nonescape probability curves, flux-based decay rates, and regime fits.

The probability of finding the particle inside the well,
P(t) = int_0^a |psi(x,t)|^2 dx, passes through three regimes: a flat start
(dP/dt = 0 at t = 0), a long quasi-exponential stretch governed by the
first resonance, and a power-law t^-3 tail once the rotated background
integral overtakes the last surviving exponential.  This module samples
P(t), fits the two straight-line regimes in their natural coordinates,
and locates the crossover between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.optimize import brentq

from . import gamow_expansion
from .exceptions import (
    GridTooCoarse,
    NoCrossing,
    WindowBeforeCrossover,
    WindowTooSmall,
)
from .gamow_expansion import crossover_time, nonescape_asymptote
from .potential_model import WellParameters
from .profiles import InitialProfile
from .spectral_evolution import (
    WaveState,
    evolve_direct,
    pole_cutoff,
    resonances,
)

#: below this time (units a^2) the rotated route is expensive; go direct
DIRECT_TIME_LIMIT = 0.02
#: default geometric sampling density for fits
POINTS_PER_DECADE = 25
#: Gauss-Legendre nodes in x on [0, a] for P(t)
X_NODES = 128
#: rotated-route times evaluated together (bounds the workspace)
TIME_BLOCK = 64


@dataclass(frozen=True)
class DecayCurve:
    """Sampled nonescape probability P(t) with per-point provenance."""

    times: np.ndarray
    P: np.ndarray
    methods: tuple[str, ...]
    w: WellParameters
    profile: InitialProfile

    def __post_init__(self):
        t, P = self.times, self.P
        if np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
            raise ValueError("times must be strictly ascending and >= 0")
        if np.any(P < -1e-12) or np.any(P > 1.0 + 1e-6):
            raise ValueError("P values must lie in [0, 1 + 1e-6]")
        if t[0] == 0.0 and abs(P[0] - 1.0) > 1e-10:
            raise ValueError(f"P(0) = {P[0]} deviates from 1 beyond 1e-10")

    @property
    def label(self) -> str:
        return self.profile.label


@dataclass(frozen=True)
class RegimeReport:
    """Fits of the exponential and power-law regimes plus their crossover."""

    gamma_fit: float
    c_fit: float
    exp_window: tuple[float, float]
    exp_residual: float
    s_fit: float
    s_halfwidth: float
    tail_window: tuple[float, float]
    tail_residual: float
    t_star_measured: float
    log10_P_at_t_star: float
    gamma1_exact: float
    tau1: float
    crossover_estimate: float

    def as_dict(self) -> dict:
        return {
            "gamma_fit": self.gamma_fit,
            "c_fit": self.c_fit,
            "exp_window": list(self.exp_window),
            "exp_residual": self.exp_residual,
            "s_fit": self.s_fit,
            "s_halfwidth": self.s_halfwidth,
            "tail_window": list(self.tail_window),
            "tail_residual": self.tail_residual,
            "t_star_measured": self.t_star_measured,
            "log10_P_at_t_star": self.log10_P_at_t_star,
            "gamma1_exact": self.gamma1_exact,
            "tau1": self.tau1,
            "crossover_estimate": self.crossover_estimate,
        }


def geometric_times(start: float, stop: float,
                    per_decade: int = POINTS_PER_DECADE) -> np.ndarray:
    """Geometric time grid with a fixed point density per decade."""
    if not (0.0 < start < stop):
        raise ValueError("need 0 < start < stop")
    n = max(int(math.ceil(per_decade * math.log10(stop / start))) + 1, 2)
    return np.geomspace(start, stop, n)


class DecayPlan:
    """What P(t) needs from one profile and well, computed once per curve.

    P(t) = sum_j w_j |psi(x_j, t)|^2 on a fixed Gauss-Legendre rule in x
    (psi is entire on [0, a]).  The rotated route serves times in
    [t_min, t_max]: it keeps the residue modes c_n sin(k_n x_j) of the
    poles below pole_cutoff(w, t_min) and the background's ray
    rule (see RayBackground), so each time costs two small matrix
    products; both are built on the first rotated request only.  The
    direct route runs one evolve_direct per time on the x rule.
    """

    def __init__(self, p: InitialProfile, w: WellParameters,
                 t_min: float, t_max: float):
        self.p, self.w = p, w
        self.t_min, self.t_max = t_min, t_max
        x, wx = legendre.leggauss(X_NODES)
        self.x = 0.5 * w.a * (x + 1.0)
        self.wx = 0.5 * w.a * wx
        self._rotated = None

    def direct(self, t: float) -> float:
        psi = evolve_direct(self.p, t, self.x, self.w).psi
        return float(self.wx @ np.abs(psi) ** 2)

    def rotated(self, times) -> np.ndarray:
        """P at each time in [t_min, t_max] from residues plus background,
        in blocks of times; raises QuadratureNotConverged when the
        background's error estimate exceeds 1e-10 (absolute, on psi)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < self.t_min) or np.any(times > self.t_max):
            raise ValueError("times outside the plan's range")
        if self._rotated is None:
            self._rotated = self._rotated_parts()
        energies, modes, background = self._rotated
        P = np.empty(times.shape)
        for i in range(0, times.size, TIME_BLOCK):
            tb = times[i:i + TIME_BLOCK]
            psi, _ = background.at(tb)
            psi += np.exp(-1j * np.outer(tb, energies)) @ modes
            P[i:i + tb.size] = (np.abs(psi) ** 2) @ self.wx
        return P

    def _rotated_parts(self):
        p, w = self.p, self.w
        poles = resonances(w, pole_cutoff(w, self.t_min))
        k = np.array([r.k for r in poles], dtype=complex)
        coef = np.array([gamow_expansion.residue_prefactor(r, p, w)
                         for r in poles], dtype=complex)
        modes = coef[:, None] * np.sin(np.outer(k, self.x))
        background = gamow_expansion.ray_background(self.x, p, w,
                                                     self.t_min, self.t_max)
        return k * k, modes, background


def nonescape_curve(p: InitialProfile, times, w: WellParameters,
                    policy: str = "auto") -> DecayCurve:
    """Sample P(t) on the given times with the stated method policy.

    ``policy``: 'auto' (direct below t = 0.02 a^2, rotated beyond),
    'direct', 'rotated', or 'asymptotic' (closed-form tail overlay).
    The t = 0 point is always taken from the (normalized) profile itself.
    One DecayPlan serves all times.
    """
    if policy not in ("auto", "direct", "rotated", "asymptotic"):
        raise ValueError(f"unknown policy {policy!r}")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be >= 0")
    P = np.ones(times.shape)
    methods = np.full(times.shape, "direct", dtype=object)
    later = times > 0.0
    if policy == "asymptotic":
        P[later] = nonescape_asymptote(times[later], p, w)
        methods[later] = "asymptotic"
    elif np.any(later):
        if policy == "auto":
            direct = later & (times < DIRECT_TIME_LIMIT * w.a ** 2)
        else:
            direct = later & (policy == "direct")
        rotated = later & ~direct
        span = times[rotated] if np.any(rotated) else times[later]
        plan = DecayPlan(p, w, span.min(), span.max())
        for i in np.flatnonzero(direct):
            P[i] = plan.direct(times[i])
        if np.any(rotated):
            P[rotated] = plan.rotated(times[rotated])
            methods[rotated] = "rotated"
    return DecayCurve(times=times, P=np.maximum(P, 0.0),
                      methods=tuple(methods), w=w, profile=p)


def flux_derivative(ws: WaveState, w: WellParameters) -> float:
    """dP/dt from the probability current at the barrier,
    dP/dt = -2 Im[psi* d_x psi] at x = a (one-sided interior stencil)."""
    x, psi = ws.x, ws.psi
    i_a = int(np.argmin(np.abs(x - w.a)))
    if abs(x[i_a] - w.a) > 1e-12 * w.a or i_a < 2:
        raise GridTooCoarse("grid must contain x = a with two interior "
                            "neighbors")
    h1 = x[i_a] - x[i_a - 1]
    h2 = x[i_a] - x[i_a - 2]
    if h1 > w.a / 512.0 + 1e-12:
        raise GridTooCoarse(
            f"stencil spacing {h1:.3e} exceeds a/512 = {w.a / 512.0:.3e}")
    # one-sided second-order derivative on a (possibly nonuniform) stencil
    d = (psi[i_a] * (1.0 / h1 + 1.0 / h2)
         - psi[i_a - 1] * h2 / (h1 * (h2 - h1))
         + psi[i_a - 2] * h1 / (h2 * (h2 - h1)))
    return float(-2.0 * np.imag(np.conj(psi[i_a]) * d))


def fit_exponential(curve: DecayCurve, window) -> tuple[float, float, float]:
    """Least squares of ln P against t on the window.

    Returns (rate, intercept, max log residual)."""
    lo, hi = window
    mask = (curve.times >= lo) & (curve.times <= hi) & (curve.P > 1e-14)
    if int(np.sum(mask)) < 8:
        raise WindowTooSmall(
            f"exponential fit needs >= 8 usable points, got {int(np.sum(mask))}")
    t = curve.times[mask]
    y = np.log(curve.P[mask])
    slope, icept = np.polyfit(t, y, 1)
    resid = float(np.max(np.abs(y - (slope * t + icept))))
    return float(-slope), float(math.exp(icept)), resid


def fit_tail_exponent(curve: DecayCurve, window,
                      crossover: float | None = None) -> tuple[float, float]:
    """Least squares of ln P against ln t; expected exponent near -3.

    The window must lie entirely beyond the exponential-to-power-law
    crossover (computed from the curve's parameters when not supplied).
    Returns (exponent, max log residual)."""
    lo, hi = window
    if crossover is None:
        crossover = crossover_time(curve.profile, curve.w)["t_star"]
    if lo < crossover:
        raise WindowBeforeCrossover(
            f"window starts at {lo:g}, before the crossover {crossover:g}")
    mask = (curve.times >= lo) & (curve.times <= hi) & (curve.P > 0.0)
    if int(np.sum(mask)) < 8:
        raise WindowTooSmall(
            f"tail fit needs >= 8 usable points, got {int(np.sum(mask))}")
    x = np.log(curve.times[mask])
    y = np.log(curve.P[mask])
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (slope * x + icept)
    return float(slope), float(np.max(np.abs(resid)))


def _fit_tail_full(curve: DecayCurve, window, crossover: float):
    """Tail fit returning (s, intercept, max residual, 2-sigma halfwidth)."""
    lo, hi = window
    mask = (curve.times >= lo) & (curve.times <= hi) & (curve.P > 0.0)
    x = np.log(curve.times[mask])
    y = np.log(curve.P[mask])
    slope, icept = np.polyfit(x, y, 1)
    r = y - (slope * x + icept)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(r ** 2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), float(icept), float(np.max(np.abs(r))), 2.0 * se


def regime_report(p: InitialProfile, w: WellParameters) -> RegimeReport:
    """Fit both regimes, measure the crossover, compare with references."""
    if not w.metastable:
        raise ValueError("regime analysis requires the metastable regime "
                         "(lam >= 10)")
    r1 = resonances(w, 40.0 / w.a)[0]
    tau1, gamma1 = r1.tau, r1.gamma

    exp_window = (tau1, 5.0 * tau1)
    curve_exp = nonescape_curve(p, geometric_times(*exp_window), w,
                                policy="rotated")
    gamma_fit, c_fit, exp_resid = fit_exponential(curve_exp, exp_window)

    t_star = crossover_time(p, w)["t_star"]
    tail_window = (10.0 * t_star, 100.0 * t_star)
    curve_tail = nonescape_curve(p, geometric_times(*tail_window), w,
                                 policy="rotated")
    s_fit, s_icept, tail_resid, s_half = _fit_tail_full(
        curve_tail, tail_window, t_star)

    # measured crossover: intersection of the two fitted straight lines
    def gap(t):
        return (math.log(c_fit) - gamma_fit * t) - (s_icept + s_fit * math.log(t))

    lo, hi = tau1, 1e6 * tau1
    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        raise NoCrossing("fitted exponential and tail branches do not cross")
    t_star_meas = float(brentq(gap, lo, hi, xtol=1e-9 * tau1))
    log10_p_star = (math.log(c_fit) - gamma_fit * t_star_meas) / math.log(10.0)

    return RegimeReport(
        gamma_fit=gamma_fit,
        c_fit=c_fit,
        exp_window=exp_window,
        exp_residual=exp_resid,
        s_fit=s_fit,
        s_halfwidth=s_half,
        tail_window=tail_window,
        tail_residual=tail_resid,
        t_star_measured=t_star_meas,
        log10_P_at_t_star=log10_p_star,
        gamma1_exact=gamma1,
        tau1=tau1,
        crossover_estimate=10.0 * tau1 * math.log(w.lam),
    )
