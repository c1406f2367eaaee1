"""Delta-shell well: scattering coefficients, quantization condition, Gamow poles.

The model is a hard wall at x = 0 plus a repulsive delta barrier of
dimensionless strength ``lam`` at x = a,

    V(x) = (lam / a) * delta(x - a),   V(x < 0) = +inf,

in units hbar = 2m = a = 1 (so E = k^2, k is in 1/a and t in a^2).

Resonances are the fourth-quadrant zeros k_n of the entire quantization
function

    F(k) = k a cos(k a) + (lam - i k a) sin(k a),

which are simultaneously the poles of the scattering coefficients A(k), B(k).

One root per strip: with z = ka, F = 0 reads e^{2iz} = w(z) := 1 - 2iz/lam.
For Re z > 0, Arg w lies in (-pi, 0) (Im w = -2 Re z/lam), so each such zero
is a fixed point of g_n(z) = n pi - (i/2) Log w(z) for exactly one n >= 1.
g_n maps the strip n pi - pi/2 <= Re z <= n pi into itself, with
|g_n'| = 1/(lam |w|) = 1/|lam - 2iz| <= 1/(2 Re z) <= 1/pi there, so by
Banach's theorem each strip holds exactly one zero, for every lam > 0, and
iterating g_n from any start with Re z > 0 reaches it.  It lies below the
real axis: Im z >= 0 gives |w| > 1 and so Im g_n(z) < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    CountMismatch,
    PoleProximity,
    SeedOutOfRegime,
    WrongQuadrant,
)

_DENOM_FLOOR = 1e-300
_SMALL_KA = 1e-8
#: fixed-point steps _contract allows: L <= 1/pi shrinks any start on a
#: strip below 1e-30 of its width in 64
_CONTRACTION_STEPS = 64
#: audit contour: radius of the indent at k = 0, points per rectangle edge
_AUDIT_INDENT = 1e-6
_AUDIT_POINTS = 1024
#: phase-tracking bisection rounds: 52 halvings reach the double-precision
#: spacing along an edge; only segments whose phase jumps are split
_WINDING_ROUNDS = 52
#: most poles enumerate_poles will refine (one seed each)
MAX_POLES = 1 << 20
#: default pole cutoff (1/a), and the floor of pole_cutoff
DEFAULT_KMAX = 40.0


@dataclass(frozen=True)
class WellParameters:
    """Barrier opacity ``lam``, the one parameter of a well of unit width."""

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"opacity lam must be finite and > 0, got {self.lam}")

    @property
    def metastable(self) -> bool:
        """True in the opaque-barrier regime where the asymptotic pole and
        lifetime formulas are meaningful (lam >= 10).

        The leading-order lifetime lam^2 / (4 pi^3) is still off by
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
    """D(k) = k + lam e^{ik} sin(k); poles of A and B are its zeros."""
    return k + w.lam * np.exp(1j * k) * np.sin(k)


def _denominator_bar(k, w):
    """Reflected-conjugate denominator: conj(D(conj(k)))."""
    return k + w.lam * np.exp(-1j * k) * np.sin(k)


def _like_input(k, out):
    """``out`` as a Python complex when ``k`` is a scalar, else the array."""
    if np.isscalar(k) or np.ndim(k) == 0:
        return complex(out)
    return out


def _coefficient(k, num, den, limit, name: str):
    """num/den with the removable value ``limit`` where |k| is tiny;
    raises PoleProximity where den vanishes elsewhere."""
    small = np.abs(k) < _SMALL_KA
    if np.any(~small & (np.abs(den) < _DENOM_FLOOR)):
        raise PoleProximity(f"{name} evaluated at a pole of the denominator")
    return _like_input(k, np.where(small, limit,
                                   num / np.where(small, 1.0, den)))


def real_trig(k):
    """(k, sin k, cos k) at real k: the one sine and cosine per node that
    A, B and |A|^2 at real k (and a box mode's phi, see
    profiles.box_overlap) are built from."""
    k = np.asarray(k, dtype=float)
    return k, np.sin(k), np.cos(k)


def _real_denominator(trig, w):
    """(Re D, Im D, |D|^2) from real_trig's (k, s, c):
    D = (k + lam s c) + i lam s^2."""
    k, s, c = trig
    re = k + w.lam * s * c
    im = w.lam * s * s
    return re, im, re * re + im * im


def A_from_trig(trig, w: WellParameters):
    """A = -2k (Im D + i Re D) / |D|^2 from real_trig(k), with its
    removable value -2i/(1 + lam) at k = 0."""
    k = trig[0]
    re, im, d2 = _real_denominator(trig, w)
    return _coefficient(k, -2.0 * k * (im + 1j * re), d2,
                        -2j / (1.0 + w.lam), "A(k)")


def B_from_trig(trig, w: WellParameters):
    """B = -conj(D)^2 / |D|^2 from real_trig(k), with its removable
    value -1 at k = 0."""
    re, im, d2 = _real_denominator(trig, w)
    return _coefficient(trig[0], (im * im - re * re) + 2j * (re * im), d2,
                        -1.0 + 0j, "B(k)")


def weight_from_trig(trig, w: WellParameters):
    """|A|^2 = 4 k^2 / |D|^2 from real_trig(k), with its removable
    value 4/(1 + lam)^2 at k = 0: the spectral weight of the continuum
    inside the well."""
    k = trig[0]
    d2 = _real_denominator(trig, w)[2]
    small = np.abs(k) < _SMALL_KA
    return np.where(small, 4.0 / (1.0 + w.lam) ** 2,
                    4.0 * k * k / np.where(small, 1.0, d2))


def coefficient_A(k, w: WellParameters):
    """Interior scattering amplitude A(k) = -2ik / (k + lam e^{ik} sin k).

    Accepts scalar or ndarray ``k`` (real or complex); real k takes real
    arithmetic (A_from_trig).  The k = 0 limit is removable and evaluates
    to -2i/(1 + lam).
    """
    if np.isrealobj(k):
        return A_from_trig(real_trig(k), w)
    z = np.asarray(k, dtype=complex)
    return _coefficient(k, -2j * z, _denominator(z, w),
                        -2j / (1.0 + w.lam), "A(k)")


def interior_weight(k, w: WellParameters):
    """|A(k)|^2 at real k, in real arithmetic (weight_from_trig)."""
    return weight_from_trig(real_trig(k), w)


def coefficient_A_bar(k, w: WellParameters):
    """Analytic continuation of conj(A(k)) off the real axis.

    Abar(k) = +2ik / (k + lam e^{-ik} sin k).  Equals conj(A(k)) for real
    k; its poles are the conjugates of the Gamow poles, so it is regular on
    and below the 45-degree rotated contour.
    """
    z = np.asarray(k, dtype=complex)
    return _coefficient(k, 2j * z, _denominator_bar(z, w),
                        2j / (1.0 + w.lam), "Abar(k)")


def coefficient_B(k, w: WellParameters):
    """Exterior reflection amplitude B(k) = -Dbar(k)/D(k); |B| = 1 for real
    k, where it takes real arithmetic (B_from_trig)."""
    if np.isrealobj(k):
        return B_from_trig(real_trig(k), w)
    z = np.asarray(k, dtype=complex)
    return _coefficient(k, -_denominator_bar(z, w), _denominator(z, w),
                        -1.0 + 0j, "B(k)")


def quantization_residual(k, w: WellParameters):
    """Entire quantization function F(k) = k cos k + (lam - ik) sin k.

    F(k) = 0 exactly at the poles of A and B, and D(k) = e^{ik} F(k).
    """
    z = np.asarray(k, dtype=complex)
    return _like_input(k, z * np.cos(z) + (w.lam - 1j * z) * np.sin(z))


def asymptotic_pole_seed(n: int, w: WellParameters) -> complex:
    """Closed-form pole seed k_n ~ n pi lam/(1+lam) - i (n pi / lam)^2.

    Valid for n pi < lam; raises SeedOutOfRegime beyond.
    """
    if n < 1:
        raise SeedOutOfRegime(f"pole index must be >= 1, got {n}")
    npi = n * math.pi
    if npi >= w.lam:
        raise SeedOutOfRegime(
            f"seed formula requires n*pi < lam (n={n}, lam={w.lam})"
        )
    return npi * w.lam / (1.0 + w.lam) - 1j * (npi / w.lam) ** 2


def _contract(z, npi, lam: float):
    """Iterate z <- g_n(z), z = k (module docstring), from every start in
    z at once, n pi from npi, in real parts: Re g_n = n pi -
    atan2(2x, lam + 2y)/2, Im g_n = -log1p(4 (y + |z|^2/lam)/lam)/4.  An
    iterate is within (L |z_{m+1} - z_m| + eps |z|)/(1 - L) of the fixed
    point, L = 1/|lam - 2iz| at z_{m+1} and eps |z| one rounding of g_n;
    each element stops once that bound is 2 eps |z|, and L <= 1/pi makes
    _CONTRACTION_STEPS a cap, not a failure path.  Returns the iterates
    and their bounds."""
    x, y = z.real.copy(), z.imag.copy()
    bound = np.full(x.shape, np.inf)
    live = np.arange(x.size)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        for _ in range(_CONTRACTION_STEPS):
            xl, yl = x[live], y[live]
            xn = npi[live] - 0.5 * np.arctan2(2.0 * xl, lam + 2.0 * yl)
            yn = -0.25 * np.log1p(4.0 * (yl + (xl * xl + yl * yl) / lam) / lam)
            size = np.hypot(xn, yn)
            lip = 1.0 / np.hypot(lam + 2.0 * yn, 2.0 * xn)
            b = (lip * np.hypot(xn - xl, yn - yl) + eps * size) / (1.0 - lip)
            x[live], y[live], bound[live] = xn, yn, b
            live = live[~(b <= 2.0 * eps * size)]
            if live.size == 0:
                break
    return x + 1j * y, bound


def refine_pole(seed: complex, w: WellParameters) -> Poles:
    """The root on the seed's strip n = ceil(Re(seed)/pi), by the
    contraction from the seed, as a one-pole table; WrongQuadrant for a
    seed with Re k <= 0, which lies on no strip."""
    z = np.array([complex(seed)])
    if not 0.0 < z.real[0] < math.inf:
        raise WrongQuadrant(f"seed {seed} lies on no strip: Re k <= 0")
    npi = math.pi * np.ceil(z.real / math.pi)
    k = _contract(z, npi, w.lam)[0]
    return Poles(k, np.abs(quantization_residual(k, w)))


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

    F(k) = 0 reads k = n pi - arctan(k / (lam - ik)), so the seeds are
    k_n = n pi - arctan(n pi / (lam - i n pi)), n = 1 .. k_max/pi + 1.
    """
    npi = math.pi * np.arange(1, int(k_max / math.pi) + 2)
    z = _contract(npi - np.arctan(npi / (w.lam - 1j * npi)), npi, w.lam)[0]
    k = z[z.real < k_max]
    return k, np.abs(quantization_residual(k, w))


@lru_cache(maxsize=64)
def enumerate_poles(w: WellParameters, k_max: float) -> Poles:
    """All fourth-quadrant Gamow poles with Re k < k_max, sorted by Re k.

    The roots come from _seeded_roots, checked by the Poles constructor;
    their count is audited with the argument principle over the enclosing
    rectangle and a CountMismatch is raised on disagreement.  A cutoff past
    MAX_POLES seeds raises ValueError before any array is allocated.
    The table is memoized (a pure function of lam and k_max), so every
    caller of one (w, k_max) shares the one read-only table.
    """
    if not (0.0 < k_max < math.inf):
        raise ValueError(f"k_max must be finite and positive, got {k_max}")
    if k_max / math.pi >= MAX_POLES:
        raise ValueError(f"k_max a = {k_max:g} needs more than "
                         f"{MAX_POLES} poles")
    found = Poles(*_seeded_roots(w, k_max))

    im_max = math.log1p(2.0 * k_max / w.lam) / 2.0 + 0.5
    # the audit contour runs clockwise around the fourth-quadrant rectangle
    wind = -_winding_adaptive(_audit_contour(k_max, im_max), w)
    if wind != len(found):
        raise CountMismatch(f"argument principle counts {wind} poles, "
                            f"found {len(found)}")
    return found


def pole_cutoff(w: WellParameters, t: float) -> float:
    """Pole cutoff so the poles above it have decayed below ~1e-15 of the
    initial norm by time t; both routes drop them.

    A pole at k decays like exp(-2 Re(k) |Im(k)| t).  From
    e^{2ik} = 1 - 2ik/lam, |Im(k)| ~ ln(1 + (2k/lam)^2) / 4: about
    (k/lam)^2 below k = lam and ln(2k/lam) / 2 above it.  Solve the
    exponent = 35 for k, with a floor at DEFAULT_KMAX.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    k = DEFAULT_KMAX
    for _ in range(60):
        expo = k * math.log1p((2.0 * k / w.lam) ** 2) * t / 2.0
        if expo >= 35.0:
            break
        k *= 1.3
    return k


def _audit_contour(k_max: float, im_max: float) -> np.ndarray:
    """Closed rectangle boundary in the fourth quadrant, indented at 0 by
    _AUDIT_INDENT."""
    n, r = _AUDIT_POINTS, _AUDIT_INDENT
    return np.concatenate([
        r * np.exp(1j * np.linspace(-np.pi / 2, 0.0, 64)),
        np.linspace(r, k_max, n),
        k_max + 1j * np.linspace(0.0, -im_max, n),
        np.linspace(k_max, 0.0, n) - 1j * im_max,
        1j * np.linspace(-im_max, -r, n),
    ])
