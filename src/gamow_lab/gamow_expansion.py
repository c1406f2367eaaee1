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

from .exceptions import NoCrossing, QuadratureNotConverged
from .potential_model import (
    DEFAULT_KMAX,
    Poles,
    WellParameters,
    coefficient_A,
    coefficient_A_bar,
    enumerate_poles,
    pole_cutoff,
)
from .profiles import (
    InitialProfile,
    overlap_transform,
    sine_overlap,
)
from .quadrature import CONTROL_ORDER, MAIN_ORDER, complex_sin, panel_nodes
from .spectral_evolution import WaveState, evolve_direct

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
    int_0^1 |C_n(x)|^2 dx (raw residue weights, no renormalization).
    """

    poles: Poles
    prefactors: np.ndarray  # (n_poles,) complex
    weights: np.ndarray     # (n_poles,) real

    def modes(self, x) -> np.ndarray:
        """C_n(x_j) with shape (n_poles, n_x)."""
        return (self.prefactors[:, None]
                * complex_sin(np.outer(self.poles.k, x)))


def integrand_f(k, x, p: InitialProfile, w: WellParameters):
    """f(k, x) = (1/2pi) phi(k) A(k) Abar(k) sin(kx) at real or complex k."""
    k = np.asarray(k, dtype=complex)
    return _integrand(k, overlap_transform(p, k), x, w)


def _integrand(k, phi, x, w: WellParameters):
    """f(k, x) from phi(k), at complex k (any shape) and x."""
    scal = np.asarray(phi * coefficient_A(k, w)
                      * coefficient_A_bar(k, w)) / (2.0 * math.pi)
    osc = complex_sin(np.multiply.outer(k, np.asarray(x)))
    return scal.reshape(scal.shape + (1,) * np.ndim(x)) * osc


def residue_prefactor(k, p: InitialProfile, w: WellParameters):
    """Pole strength of C(k_n, x) = -2 pi i Res_{k_n} f(k, x) / sin(k_n x),
    at one pole wavenumber or an array of them.

    With A = N/D, N = -2ik and D'(k) = 1 + lam e^{2ik}, the residue of
    f picks up N(k_n)/D'(k_n) in place of A.
    """
    k = np.asarray(k, dtype=complex)
    N = -2j * k
    Dp = 1.0 + w.lam * np.exp(2j * k)
    out = -1j * overlap_transform(p, k) * coefficient_A_bar(k, w) * N / Dp
    return complex(out) if np.ndim(out) == 0 else out


def verify_residue(k: complex, p: InitialProfile, w: WellParameters) -> float:
    """Relative error of the analytic residue at the pole wavenumber k
    against a small-circle contour integral, both at x = 1/2.

    Integrates f around k on a circle of radius min(1e-3, |Im k|/10)
    (trapezoid rule, exponentially convergent) and compares with the
    closed form.
    """
    x = 0.5
    k = complex(k)
    radius = min(1e-3, abs(k.imag) / 10.0)
    theta = 2.0 * math.pi * np.arange(_RESIDUE_NODES) / _RESIDUE_NODES
    ring = k + radius * np.exp(1j * theta)
    dk = 1j * radius * np.exp(1j * theta) * (2.0 * math.pi / _RESIDUE_NODES)
    contour = -np.sum(integrand_f(ring, x, p, w).ravel() * dk)
    analytic = residue_prefactor(k, p, w) * np.sin(k * x)
    return float(abs(contour - analytic) / abs(analytic))


def residue_terms(p: InitialProfile, w: WellParameters,
                  k_max: float) -> Residues:
    """Residues of the poles below k_max (all lie in the sector
    -pi/4 < arg k < 0; enumerate_poles enforces that).

    |sin(k x)|^2 = sin(conj(k) x) sin(k x), so each weight is |prefactor|^2
    times a closed-form sine overlap.
    """
    poles = enumerate_poles(w, k_max)
    k = poles.k
    prefactors = residue_prefactor(k, p, w)
    weights = (np.abs(prefactors) ** 2 * sine_overlap(np.conj(k), k)).real
    return Residues(poles=poles, prefactors=prefactors, weights=weights)


#: ray panels: the first is [0, _RAY_START / sqrt(t_max)], at most
#: _RAY_PANEL long; from an edge s in [1, _RAY_FAR) the next panel is
#: min(s/2, _RAY_PANEL) long, and from any other edge s it is s long
_RAY_START = 0.5
_RAY_PANEL = 2.0
_RAY_FAR = 8.0
#: the ray's top is where e^{-s^2 t_min} max(s, 1) falls to e^{-_RAY_DECAY}
_RAY_DECAY = 40.0
#: f is evaluated on this many ray nodes at a time (bounds the workspace)
_RAY_BLOCK = 128
#: below this time the direct route takes over.  The rotated route's ray
#: ends near sqrt(40 / t_min), so its rule stays cheap below it too (3-12
#: ms a call at t in [0.0016, 0.02), lam = 10), but its residues need the
#: poles below pole_cutoff(w, t_min), whose audit fails once that passes
#: about 3600/a (t below about 0.0016 a^2 at lam = 10, 0.004 at lam = 100)
DIRECT_TIME_LIMIT = 0.02
#: rotated-route times evaluated together (bounds the workspace)
TIME_BLOCK = 64
#: largest background error estimate accepted (absolute, on psi)
BACKGROUND_TOLERANCE = 1e-10


def _ray_edges(t_min: float, t_max: float) -> np.ndarray:
    """Panel edges in s on the ray k = e^{-i pi/4} s for t in [t_min, t_max].

    On the ray exp(-i k^2 t) = exp(-s^2 t), and f grows no faster than
    s: with kappa = e^{-i pi/4} and x in [0, 1],
      - |sin(kappa s x)| <= cosh(s x/sqrt 2) <= e^{s x/sqrt 2};
      - so |phi(kappa s)| <= e^{s/sqrt 2} ||psi_0||_1;
      - A Abar = 4k^2 / (D Dbar) with |D(kappa s)| ~ lam e^{sqrt 2 s}/2
        and |Dbar(kappa s)| >~ s/sqrt 2, so
        |A Abar(kappa s)| <~ 8 sqrt 2 s e^{-sqrt 2 s} / lam;
    the exponentials cancel and |f(kappa s, x)| <~ C s (measured below
    0.32 max(s, 1) for lam >= 0.5).  The ray stops at the smallest s with
    s^2 t_min >= 40 + ln max(s, 1), where exp(-s^2 t_min) |f| has fallen
    by e^-40; a t_min whose top is not a finite double is a ValueError.

    The first panel is [0, 0.5/sqrt(t_max)], at most 2 long, on which
    exp(-s^2 t_max) is a smooth bump.  Below s = 1 (no Gamow pole has
    |k| < pi/2) and from s = 8 on, no pole comes near the ray, so there
    each edge doubles the one before.  On [1, 8] the first pole lies
    within 0.30 |k| of the ray at lam = 0.5, so there each edge is 1.5
    times the one before and panels are at most 2 long (f varies on the
    scale 1).
    """
    if not (0.0 < t_min <= t_max < math.inf):
        raise ValueError("need 0 < t_min <= t_max < inf")
    top = 0.0
    for _ in range(64):
        new = math.sqrt((_RAY_DECAY + math.log(max(top, 1.0))) / t_min)
        if not new > top:
            break
        top = new
    if not top < math.inf:
        raise ValueError(f"the rotated route at t = {t_min:g} a^2 needs a "
                         "ray past the largest double")
    edges = [0.0, min(_RAY_START / math.sqrt(t_max), _RAY_PANEL, top)]
    while edges[-1] < top:
        e = edges[-1]
        step = min(0.5 * e, _RAY_PANEL) if 1.0 <= e < _RAY_FAR else e
        edges.append(min(e + step, top))
    return np.asarray(edges)


def _ray_rule(s, ws, phi, x, w: WellParameters):
    """(s^2, F) for the ray nodes s with weights ws and phi(e^{-i pi/4} s):
    F_j(x) = ws_j e^{-i pi/4} f(e^{-i pi/4} s_j, x), _RAY_BLOCK nodes at a
    time."""
    F = np.empty((s.size, x.size), dtype=complex)
    for i in range(0, s.size, _RAY_BLOCK):
        sl = slice(i, i + _RAY_BLOCK)
        F[sl] = (_integrand(_ROT * s[sl], phi[sl], x, w)
                 * (_ROT * ws[sl])[:, None])
    return s * s, F


def _in_blocks(f, times) -> np.ndarray:
    """f(times), stacked from calls on at most TIME_BLOCK times each."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.concatenate([f(times[i:i + TIME_BLOCK])
                           for i in range(0, times.size, TIME_BLOCK)])


def _gauss_sum(s2: np.ndarray, F: np.ndarray, times) -> np.ndarray:
    """sum_j exp(-s_j^2 t) F_j for each t; the real Gaussians multiply the
    interleaved re/im parts of F in one real product per block of times."""
    return _in_blocks(lambda tb: (np.exp(-np.outer(tb, s2))
                                  @ F.view(np.float64)).view(complex), times)


class RotatedExpansion:
    """psi(x_j, t) = sum_n C_n(x_j) exp(-i k_n^2 t) + I(x_j, t) at fixed
    points x_j for every t in [t_min, t_max].

    Holds the residues of the poles below pole_cutoff(w, t_min), their
    modes C_n(x_j) and the background's ray rule, all computed once, so
    each time costs a few small matrix products.  With k = e^{-i pi/4} s
    the background is I(x, t) = sum_j exp(-s_j^2 t) F_j(x), where
    F_j(x) = w_j e^{-i pi/4} f(e^{-i pi/4} s_j, x); a control rule (lower
    order, same panels) gives its error estimate.  phi at each rule's
    nodes is one closed-form overlap_transform call.
    """

    def __init__(self, x, p: InitialProfile, w: WellParameters,
                 t_min: float, t_max: float):
        if t_min < DIRECT_TIME_LIMIT:
            warnings.warn(
                f"rotated background at t < {DIRECT_TIME_LIMIT:g} a^2: the "
                "residues need the poles below pole_cutoff(w, t_min), whose "
                "audit fails once that passes about 3600/a (t below about "
                "0.0016 a^2 at lam = 10); prefer the direct route here",
                RuntimeWarning, stacklevel=2)
        x = np.asarray(x, dtype=float).ravel()
        edges = _ray_edges(t_min, t_max)
        self.residues = residue_terms(p, w, pole_cutoff(w, t_min))
        self.energies = self.residues.poles.E
        self.mode_values = self.residues.modes(x)
        rules = [panel_nodes(edges, order)
                 for order in (MAIN_ORDER, CONTROL_ORDER)]
        self._main, self._control = [
            _ray_rule(s, ws, overlap_transform(p, _ROT * s), x, w)
            for s, ws in rules]

    def background(self, times) -> tuple[np.ndarray, np.ndarray]:
        """I(x_j, t) with shape (n_t, n_x), and the error estimate per time
        (largest |main - control| over x).  An estimate above
        BACKGROUND_TOLERANCE, or NaN, raises QuadratureNotConverged.
        """
        main = _gauss_sum(*self._main, times)
        err = np.max(np.abs(main - _gauss_sum(*self._control, times)), axis=1)
        if not np.all(err <= BACKGROUND_TOLERANCE):
            raise QuadratureNotConverged(
                f"rotated background error estimate {err.max():.3e}",
                estimate=float(err.max()))
        return main, err

    def residue_sum(self, times) -> np.ndarray:
        """sum_n C_n(x_j) exp(-i k_n^2 t) with shape (n_t, n_x)."""
        return _in_blocks(lambda tb: np.exp(-1j * np.outer(tb, self.energies))
                          @ self.mode_values, times)

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


def evolve(p: InitialProfile, times, x, w: WellParameters, policy: str):
    """psi(x_j, t) with shape (n_t, n_x), and each time's route as a list;
    under 'auto', direct below DIRECT_TIME_LIMIT and rotated from there on.
    Rotated times must be > 0 (ValueError before any evolution) and are
    read from one RotatedExpansion over their range."""
    if policy not in ("auto", "direct", "rotated"):
        raise ValueError(f"unknown policy {policy!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rotated = (times >= DIRECT_TIME_LIMIT if policy == "auto"
               else np.full(times.shape, policy == "rotated"))
    if not np.all(times[rotated] > 0.0):
        raise ValueError("rotated representation requires t > 0")
    psi = np.empty((times.size, np.size(x)), dtype=complex)
    for i in np.flatnonzero(~rotated):
        psi[i] = evolve_direct(p, times[i], x, w).psi
    if np.any(rotated):
        tr = times[rotated]
        psi[rotated] = RotatedExpansion(x, p, w, tr.min(), tr.max()).psi(tr)
    return psi, np.where(rotated, "rotated", "direct").tolist()


def evolve_rotated(p: InitialProfile, t: float, grid,
                   w: WellParameters) -> WaveState:
    """Gamow expansion of psi(x, t) for t > 0: residues plus background."""
    grid = np.asarray(grid, dtype=float)
    return WaveState(x=grid, psi=evolve(p, t, grid, w, "rotated")[0][0])


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
    """Closed-form long-time tail P(t) = |prefactor|^2 / (3 t^3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    pref = abs(_asym_prefactor(p, w)) ** 2 / 3.0
    out = pref / t ** 3
    return float(out) if out.ndim == 0 else out


def crossing_time(log_c: float, rate: float, log_k: float, s: float,
                  lo: float, hi: float) -> float:
    """Time t in [lo, hi] where the exponential branch log c - rate t meets
    the power law log K + s ln t: the root of the gap

        g(t) = (log c - log K) - rate t - s ln t,

    with log c - log K formed first, so that small rate t and s ln t are
    not rounded against the larger log c and log K.

    g'' = s / t^2: g is concave for s < 0 and convex for s >= 0, so if it
    is positive at lo and negative at hi it has exactly one root in
    between, where g' < 0.  Newton's iteration started at hi (s < 0) or
    lo (s >= 0) then moves monotonically toward the root; it stops once a
    step no longer moves t toward it (rounding has taken over) or no
    longer changes t.  Raises NoCrossing unless the exponential lies
    above the power law at lo and below it at hi (NaN inputs included).
    """
    def gap(t):
        return (log_c - log_k) - rate * t - s * math.log(t)

    if not (gap(lo) > 0.0 > gap(hi)):
        raise NoCrossing(f"exponential and power-law branches do not cross "
                         f"in [{lo:g}, {hi:g}]")
    t = hi if s < 0.0 else lo
    for _ in range(100):
        new = t + gap(t) / (rate + s / t)
        if not (new < t if s < 0.0 else new > t):
            break
        t = new
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
    residues = residue_terms(p, w, DEFAULT_KMAX)
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
    residues = residue_terms(p, w, DEFAULT_KMAX)
    k, c = residues.poles.k[:GRAM_TERMS], residues.prefactors[:GRAM_TERMS]
    g = (np.conj(c)[:, None] * c[None, :]
         * sine_overlap(np.conj(k)[:, None], k[None, :]))
    d = np.sqrt(np.real(np.diag(g)))
    return g / np.outer(d, d)
