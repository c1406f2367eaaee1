"""Initial wave packets confined to the well and their overlap transform.

An admissible profile psi0 lives on [0, a], is continuous, vanishes at the
hard wall (and, for physically clean short-time behaviour, at the barrier),
and carries unit norm.  Its sine transform

    phi(k) = int_0^a psi0(x) sin(kx) dx

is an entire function of k and is everything the spectral machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import WELL_ORDER, panel_nodes, panel_sine_transform

_NORM_TOL = 1e-10
_EDGE_TOL = 1e-8


@dataclass(frozen=True)
class InitialProfile:
    """Initial wave function psi0 on [0, a], built by :func:`box_mode`,
    :func:`truncated_gaussian` or :func:`custom_samples`.

    ``mode`` is the box index n of sqrt(2/a) sin(n pi x / a), or None;
    ``nodes`` and ``coef`` (= weights * psi0) are the profile rule on
    [0, a] (see _profile_rule); ``barrier_slope`` is psi0'(a-).
    """

    a: float
    label: str
    amplitude: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mode: int | None
    nodes: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    barrier_slope: complex

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= self.a),
                       self.amplitude(np.clip(x, 0.0, self.a)), 0.0)
        return out if out.ndim else complex(out)

    def first_moment(self) -> complex:
        """phi'(0) = int_0^a psi0(x) x dx, the small-k slope of the transform."""
        return complex(np.sum(self.coef * self.nodes))


def _checked(a, amplitude, label, mode) -> InitialProfile:
    """The one constructor: rejects a profile whose norm is not 1 or whose
    edge values are not 0 (NaN fails both), and takes psi0'(a-) from a
    one-sided second-order stencil."""
    xs, wts = _profile_rule(a)
    # a degenerate profile evaluates to nan here and is rejected below
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.asarray(amplitude(xs), dtype=complex)
        h = 1e-6 * a
        edge0, edgea, near, far = (complex(amplitude(np.asarray(x)))
                                   for x in (0.0, a, a - h, a - 2 * h))
    norm = float(np.sum(wts * np.abs(vals) ** 2))
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"profile norm is {norm}, not 1")
    if not abs(edge0) <= _EDGE_TOL:
        raise ValueError(f"profile must vanish at the wall, psi(0)={edge0}")
    if not abs(edgea) <= _EDGE_TOL:
        raise ValueError(f"profile must vanish at the barrier, psi(a)={edgea}")
    return InitialProfile(a=a, label=label, amplitude=amplitude, mode=mode,
                          nodes=xs, coef=wts * vals,
                          barrier_slope=(3 * edgea - 4 * near + far) / (2.0 * h))


def box_mode(n: int, a: float = 1.0) -> InitialProfile:
    """Closed-box eigenmode sqrt(2/a) sin(n pi x / a), n = 1, 2, ..."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    amp = lambda x: np.sqrt(2.0 / a) * np.sin(n * np.pi * x / a)
    return _checked(a, amp, f"box:{n}", n)


def truncated_gaussian(center: float, width: float, a: float = 1.0) -> InitialProfile:
    """Normalized Gaussian bump on [0, a].

    center and width must keep the tails below the boundary tolerance at
    x = 0 and x = a, otherwise the constructor rejects the profile.
    """
    if not (0.0 < center < a):
        raise ValueError("center must lie inside (0, a)")
    if width <= 0.0:
        raise ValueError("width must be positive")
    shape = lambda x: np.exp(-0.5 * ((np.asarray(x) - center) / width) ** 2)
    return _checked(a, _normalized(a, shape), f"gauss:{center:g},{width:g}",
                    None)


def custom_samples(x: np.ndarray, values: np.ndarray) -> InitialProfile:
    """Profile defined by samples on [0, a] with a = x[-1], cubic-interpolated
    and renormalized."""
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=complex)
    if x[0] != 0.0:
        raise ValueError("samples must start at x = 0")
    a = float(x[-1])
    spline_re = CubicSpline(x, values.real)
    spline_im = CubicSpline(x, values.imag)
    shape = lambda t: spline_re(np.asarray(t)) + 1j * spline_im(np.asarray(t))
    return _checked(a, _normalized(a, shape), "custom", None)


def _profile_rule(a):
    """Gauss-Legendre nodes and weights for profile integrals: eight
    WELL_ORDER-point panels on [0, a], 1024 nodes.  psi0 is smooth on
    [0, a], so the rule converges to machine precision.  It resolves
    sin(kx) to ka ~ 3200, the direct route's cutoff 60 a/t at t ~ 0.019
    a^2; four panels alias from ka ~ 1600 and move the direct route's
    psi for a Gaussian by ~1e-8 at t in [0.018, 0.03] a^2."""
    return panel_nodes(np.linspace(0.0, a, 9), WELL_ORDER)


def _normalized(a, shape):
    """shape divided by its norm on the profile rule over [0, a]."""
    xs, wts = _profile_rule(a)
    norm = math.sqrt(float(np.sum(wts * np.abs(shape(xs)) ** 2)))
    return lambda x: shape(x) / norm


def overlap_transform(p: InitialProfile, k):
    """Sine transform phi(k) = int_0^a psi0(x) sin(kx) dx at real or complex k.

    Box modes use the closed form with removable limits at k = +-n pi/a;
    other profiles use the cached Gauss-Legendre rule (entire integrand, so
    the fixed rule is superalgebraically accurate for |Im k| a below ~40),
    with real sines when k is real.  Many nodes grouped by panel are
    cheaper through overlap_panels.
    """
    real = np.isrealobj(k)
    k = np.asarray(k, dtype=complex)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if p.mode is not None:
        kn = p.mode * np.pi / p.a
        amp = math.sqrt(2.0 / p.a)
        out = amp * sine_overlap(k, kn, p.a)
    else:
        # nodes: (m,), k chunked to bound the outer-product workspace;
        # real k takes real sines, with the same sums
        flat = k.real.ravel() if real else k.ravel()
        out = np.empty(flat.shape, dtype=complex)
        step = 8192
        for i in range(0, flat.size, step):
            blk = flat[i:i + step]
            out[i:i + step] = np.sin(np.multiply.outer(blk, p.nodes)) @ p.coef
        out = out.reshape(k.shape)
    return complex(out[0]) if scalar else out


def overlap_panels(p: InitialProfile, ks, centres):
    """overlap_transform at real or complex nodes grouped by panel: each
    node set in ks is (P, q), around the panel centres (P,), as
    panel_sine_transform takes them.  Box modes take the closed form;
    other profiles the panel expansion of their profile rule.  One array
    per node set."""
    if p.mode is not None:
        return [overlap_transform(p, k) for k in ks]
    return panel_sine_transform(p.coef, p.nodes, ks, centres)


def sine_overlap(p, q, a):
    """int_0^a sin(p x) sin(q x) dx in closed form, at real or complex p, q
    (broadcast against each other)."""
    return _sinc_diff(p - q, a) - _sinc_diff(p + q, a)


def _sinc_diff(q, a):
    """sin(q a) / (2 q) with its removable limit a/2 at q = 0."""
    q = np.asarray(q, dtype=complex)
    small = np.abs(q) * a < 1e-8
    safe = np.where(small, 1.0, q)
    return np.where(small, a / 2.0, np.sin(safe * a) / (2.0 * safe))


def parse_profile(spec: str, a: float = 1.0) -> InitialProfile:
    """Parse a CLI profile spec: 'box:n' or 'gauss:center,width'."""
    kind, _, rest = spec.partition(":")
    if kind == "box":
        return box_mode(int(rest), a=a)
    if kind == "gauss":
        center, width = (float(v) for v in rest.split(","))
        return truncated_gaussian(center, width, a=a)
    raise ValueError(f"unknown profile spec {spec!r}")
