"""Nonescape probability curves, flux-based decay rates, and regime fits.

The probability of finding the particle inside the well,
P(t) = int_0^1 |psi(x,t)|^2 dx, passes through three regimes: a flat start
(dP/dt = 0 at t = 0), a long quasi-exponential stretch governed by the
first resonance, and a power-law t^-3 tail once the rotated background
integral overtakes the last surviving exponential.  This module samples
P(t), fits the two straight-line regimes in their natural coordinates,
and locates the crossover between them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import (
    GridTooCoarse,
    WindowBeforeCrossover,
    WindowTooSmall,
)
from .gamow_expansion import (
    DIRECT_TIME_LIMIT,
    RotatedExpansion,
    crossing_time,
    crossover_time,
    nonescape_asymptote,
)
from .potential_model import WellParameters
from .profiles import InitialProfile
from .spectral_evolution import (
    DEFAULT_KMAX,
    WaveState,
    evolve_direct,
    resonances,
    well_rule,
)

#: default geometric sampling density for fits
POINTS_PER_DECADE = 25
#: rotated-route times evaluated together (bounds the workspace)
TIME_BLOCK = 64


@dataclass(frozen=True)
class DecayCurve:
    """Sampled nonescape probability P(t) with per-point provenance."""

    times: np.ndarray
    P: np.ndarray
    methods: tuple[str, ...]

    def __post_init__(self):
        t, P = self.times, self.P
        if np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
            raise ValueError("times must be strictly ascending and >= 0")
        if not np.all((P >= -1e-12) & (P <= 1.0 + 1e-6)):
            raise ValueError("P values must be finite and lie in [0, 1 + 1e-6]")
        if t[0] == 0.0 and abs(P[0] - 1.0) > 1e-10:
            raise ValueError(f"P(0) = {P[0]} deviates from 1 beyond 1e-10")


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
        return asdict(self)


def geometric_times(start: float, stop: float,
                    per_decade: int = POINTS_PER_DECADE) -> np.ndarray:
    """Geometric time grid with a fixed point density per decade."""
    if not (0.0 < start < stop < math.inf):
        raise ValueError("need 0 < start < stop < inf")
    if per_decade < 1:
        raise ValueError("points per decade must be >= 1")
    n = max(int(math.ceil(per_decade * math.log10(stop / start))) + 1, 2)
    return np.geomspace(start, stop, n)


def nonescape_curve(p: InitialProfile, times, w: WellParameters,
                    policy: str = "auto") -> DecayCurve:
    """Sample P(t) = sum_j w_j |psi(x_j, t)|^2 (well_rule in x) on the
    given times with the stated method policy.

    ``policy``: 'auto' (direct below t = DIRECT_TIME_LIMIT, rotated
    beyond), 'direct', 'rotated', or 'asymptotic' (closed-form tail
    overlay).  The t = 0 point is always taken from the (normalized)
    profile itself.  Direct times run one evolve_direct each; all rotated
    times are read from one RotatedExpansion, TIME_BLOCK at a time.
    """
    if policy not in ("auto", "direct", "rotated", "asymptotic"):
        raise ValueError(f"unknown policy {policy!r}")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite and not empty")
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
            direct = later & (times < DIRECT_TIME_LIMIT)
        else:
            direct = later & (policy == "direct")
        rotated = later & ~direct
        x, wx = well_rule()
        for i in np.flatnonzero(direct):
            P[i] = wx @ np.abs(evolve_direct(p, times[i], x, w).psi) ** 2
        if np.any(rotated):
            tr = times[rotated]
            rot = RotatedExpansion(x, p, w, tr.min(), tr.max())
            P[rotated] = np.concatenate([
                np.abs(rot.psi(tr[i:i + TIME_BLOCK])) ** 2 @ wx
                for i in range(0, tr.size, TIME_BLOCK)])
            methods[rotated] = "rotated"
    return DecayCurve(times=times, P=np.maximum(P, 0.0),
                      methods=tuple(methods))


def flux_derivative(ws: WaveState) -> float:
    """dP/dt from the probability current at the barrier,
    dP/dt = -2 Im[psi* d_x psi] at x = 1 (one-sided interior stencil)."""
    x, psi = ws.x, ws.psi
    i_a = int(np.argmin(np.abs(x - 1.0)))
    if abs(x[i_a] - 1.0) > 1e-12 or i_a < 2:
        raise GridTooCoarse("grid must contain x = 1 with two interior "
                            "neighbors")
    h1 = x[i_a] - x[i_a - 1]
    h2 = x[i_a] - x[i_a - 2]
    if h1 > 1.0 / 512.0 + 1e-12:
        raise GridTooCoarse(
            f"stencil spacing {h1:.3e} exceeds 1/512 = {1.0 / 512.0:.3e}")
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


def fit_tail_exponent(curve: DecayCurve, window, crossover: float):
    """Least squares of ln P against ln t; expected exponent near -3.

    The window must lie entirely beyond the exponential-to-power-law
    crossover.  Returns (exponent, intercept, max log residual, 2-sigma
    half-width of the exponent)."""
    lo, hi = window
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
    r = y - (slope * x + icept)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(r ** 2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), float(icept), float(np.max(np.abs(r))), 2.0 * se


def regime_report(p: InitialProfile, w: WellParameters) -> RegimeReport:
    """Fit both regimes, measure the crossover, compare with references.

    One rotated curve samples both fit windows, (tau1, 5 tau1) and
    (10 t*, 100 t*) with t* the theory crossover; they are disjoint since
    t* > tau1.  The measured crossover is where the two fitted lines meet.
    """
    if not w.metastable:
        raise ValueError("regime analysis requires the metastable regime "
                         "(lam >= 10)")
    poles = resonances(w, DEFAULT_KMAX)
    tau1, gamma1 = float(poles.tau[0]), float(poles.gamma[0])
    cross = crossover_time(p, w)
    t_star = cross["t_star"]

    exp_window = (tau1, 5.0 * tau1)
    tail_window = (10.0 * t_star, 100.0 * t_star)
    times = np.concatenate([geometric_times(*exp_window),
                            geometric_times(*tail_window)])
    curve = nonescape_curve(p, times, w, policy="rotated")
    gamma_fit, c_fit, exp_resid = fit_exponential(curve, exp_window)
    s_fit, s_icept, tail_resid, s_half = fit_tail_exponent(
        curve, tail_window, t_star)

    t_star_meas = crossing_time(math.log(c_fit), gamma_fit, s_icept, s_fit,
                                tau1, 1e6 * tau1)
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
        crossover_estimate=cross["rule_of_thumb"],
    )
