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
from typing import Callable

import numpy as np

from .quadrature import (
    WELL_ORDER,
    complex_sin,
    panel_nodes,
    panel_sine_transform,
)

_NORM_TOL = 1e-10
_EDGE_TOL = 1e-8
#: pi = _PI_HI + _PI_MID + _PI_LO: the first two hold at most 27 bits, so
#: n times either is exact for n < 2^26, and _PI_LO is pi - math.pi
_PI_HI = math.pi - math.pi % 2.0 ** -24
_PI_MID = math.pi - _PI_HI
_PI_LO = 1.2246467991473532e-16


@dataclass(frozen=True)
class InitialProfile:
    """Initial wave function psi0 on [0, 1], built by :func:`box_mode`,
    :func:`truncated_gaussian` or :func:`custom_samples`.

    ``mode`` is the box index n of sqrt(2) sin(n pi x), or None;
    ``nodes`` and ``coef`` (= weights * psi0) are the profile rule on
    [0, 1] (see _profile_rule); ``barrier_slope`` is psi0'(1-).
    """

    label: str
    amplitude: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mode: int | None
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


def _checked(amplitude, label, mode) -> InitialProfile:
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
                          nodes=xs, coef=wts * vals,
                          barrier_slope=(3 * edgea - 4 * near + far) / (2.0 * h))


def box_mode(n: int) -> InitialProfile:
    """Closed-box eigenmode sqrt(2) sin(n pi x), n = 1, 2, ..."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    amp = lambda x: np.sqrt(2.0) * np.sin(n * np.pi * x)
    return _checked(amp, f"box:{n}", n)


def truncated_gaussian(center: float, width: float) -> InitialProfile:
    """Normalized Gaussian bump on [0, 1].

    center and width must keep the tails below the boundary tolerance at
    x = 0 and x = 1, otherwise the constructor rejects the profile.
    """
    if not (0.0 < center < 1.0):
        raise ValueError("center must lie inside (0, a)")
    if width <= 0.0:
        raise ValueError("width must be positive")
    shape = lambda x: np.exp(-0.5 * ((np.asarray(x) - center) / width) ** 2)
    return _checked(_normalized(shape), f"gauss:{center:g},{width:g}", None)


def custom_samples(x: np.ndarray, values: np.ndarray) -> InitialProfile:
    """Profile defined by samples on [0, 1], x[0] = 0 and x[-1] = 1,
    cubic-interpolated and renormalized."""
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=complex)
    if x[0] != 0.0 or x[-1] != 1.0:
        raise ValueError("samples must span the well, from x = 0 to x = 1")
    spline_re = CubicSpline(x, values.real)
    spline_im = CubicSpline(x, values.imag)
    shape = lambda t: spline_re(np.asarray(t)) + 1j * spline_im(np.asarray(t))
    return _checked(_normalized(shape), "custom", None)


def _profile_rule():
    """Gauss-Legendre nodes and weights for profile integrals: eight
    WELL_ORDER-point panels on [0, 1], 1024 nodes.  psi0 is smooth on
    [0, 1], so the rule converges to machine precision.  It resolves
    sin(kx) to k ~ 3200, the direct route's cutoff 60/t at t ~ 0.019;
    four panels alias from k ~ 1600 and move the direct route's psi for
    a Gaussian by ~1e-8 at t in [0.018, 0.03]."""
    return panel_nodes(np.linspace(0.0, 1.0, 9), WELL_ORDER)


def _normalized(shape):
    """shape divided by its norm on the profile rule over [0, 1]."""
    xs, wts = _profile_rule()
    norm = math.sqrt(float(np.sum(wts * np.abs(shape(xs)) ** 2)))
    return lambda x: shape(x) / norm


def overlap_transform(p: InitialProfile, k):
    """Sine transform phi(k) = int_0^1 psi0(x) sin(kx) dx at real or complex k.

    Box modes use the closed form of box_overlap; other profiles use the
    cached Gauss-Legendre rule (entire integrand, so the fixed rule is
    superalgebraically accurate for |Im k| below ~40).  Both take real
    sines when k is real, and sin u cosh v + i cos u sinh v when it is
    not.  Many nodes are cheaper through overlap_panels.
    """
    k = np.asarray(k, dtype=float if np.isrealobj(k) else complex)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    sin = np.sin if np.isrealobj(k) else complex_sin
    if p.mode is not None:
        out = box_overlap(p, k, sin(k)).astype(complex)
    else:
        # nodes: (m,), k chunked to bound the outer-product workspace (at
        # complex k, complex_sin's real factors add half of it again);
        # real k takes real sines, with the same sums
        flat = k.ravel()
        out = np.empty(flat.shape, dtype=complex)
        step = 128
        for i in range(0, flat.size, step):
            blk = flat[i:i + step]
            out[i:i + step] = sin(np.multiply.outer(blk, p.nodes)) @ p.coef
        out = out.reshape(k.shape)
    return complex(out[0]) if scalar else out


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


def overlap_panels(p: InitialProfile, ks):
    """overlap_transform at every node set in ks, real nodes or complex
    ones on one ray from 0, as panel_sine_transform takes them.  Box modes
    take the closed form; other profiles the cell expansion of their
    profile rule.  One array per node set."""
    if p.mode is not None:
        return [overlap_transform(p, k) for k in ks]
    return panel_sine_transform(p.coef, p.nodes, ks)


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
