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

from .quadrature import panel_nodes

_NORM_TOL = 1e-10
_EDGE_TOL = 1e-8

# Gauss-Legendre rule used for profile integrals; psi0 is smooth on [0, a]
# so a fixed high-order rule converges to machine precision.  The order must
# also resolve sin(kx) at the largest spectral cutoff in use (ka up to ~800),
# which needs roughly ka/2 nodes.
_GL_ORDER = 520


def _gl_nodes(a: float):
    return panel_nodes(np.array([0.0, a]), _GL_ORDER)


@dataclass(frozen=True)
class InitialProfile:
    """Initial wave function on [0, a].

    Construct through :func:`box_mode`, :func:`truncated_gaussian` or
    :func:`custom_samples`; the constructor validates support, boundary
    values and normalization.
    """

    kind: str
    a: float
    amplitude: Callable[[np.ndarray], np.ndarray]
    label: str
    mode: int | None = None
    _nodes: np.ndarray = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)
    _values: np.ndarray = field(repr=False, default=None)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= self.a),
                       self.amplitude(np.clip(x, 0.0, self.a)), 0.0)
        return out if out.ndim else complex(out)

    def validate(self) -> None:
        norm = float(np.sum(self._weights * np.abs(self._values) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"profile norm is {norm}, not 1")
        edge0 = abs(complex(np.asarray(self.amplitude(np.array([0.0])))[0]))
        edgea = abs(complex(np.asarray(self.amplitude(np.array([self.a])))[0]))
        if edge0 > _EDGE_TOL:
            raise ValueError(f"profile must vanish at the wall, psi(0)={edge0}")
        if edgea > _EDGE_TOL:
            raise ValueError(f"profile must vanish at the barrier, psi(a)={edgea}")

    def first_moment(self) -> complex:
        """phi'(0) = int_0^a psi0(x) x dx, the small-k slope of the transform."""
        if self.kind == "box_mode":
            n = self.mode
            val = math.sqrt(2.0 / self.a) * self.a ** 2 * (-1.0) ** (n + 1) / (n * math.pi)
            return complex(val)
        return complex(np.sum(self._weights * self._values * self._nodes))


def _finalize(kind, a, amplitude, label, mode=None) -> InitialProfile:
    xs, wts = _gl_nodes(a)
    vals = np.asarray(amplitude(xs), dtype=complex)
    p = InitialProfile(kind=kind, a=a, amplitude=amplitude, label=label,
                       mode=mode, _nodes=xs, _weights=wts, _values=vals)
    p.validate()
    return p


def box_mode(n: int, a: float = 1.0) -> InitialProfile:
    """Closed-box eigenmode sqrt(2/a) sin(n pi x / a), n = 1, 2, ..."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    amp = lambda x: np.sqrt(2.0 / a) * np.sin(n * np.pi * x / a)
    return _finalize("box_mode", a, amp, f"box:{n}", mode=n)


def truncated_gaussian(center: float, width: float, a: float = 1.0) -> InitialProfile:
    """Normalized Gaussian bump on [0, a].

    center and width must keep the tails below the boundary tolerance at
    x = 0 and x = a, otherwise validation rejects the profile.
    """
    if not (0.0 < center < a):
        raise ValueError("center must lie inside (0, a)")
    if width <= 0.0:
        raise ValueError("width must be positive")
    xs, wts = _gl_nodes(a)
    raw = np.exp(-0.5 * ((xs - center) / width) ** 2)
    norm = math.sqrt(float(np.sum(wts * raw ** 2)))
    amp = lambda x: np.exp(-0.5 * ((np.asarray(x) - center) / width) ** 2) / norm
    return _finalize("truncated_gaussian", a, amp,
                     f"gauss:{center:g},{width:g}")


def custom_samples(x: np.ndarray, values: np.ndarray, a: float = 1.0) -> InitialProfile:
    """Profile defined by samples on [0, a], cubic-interpolated and renormalized."""
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=complex)
    if x[0] != 0.0 or x[-1] != a:
        raise ValueError("samples must span [0, a] exactly")
    spline_re = CubicSpline(x, values.real)
    spline_im = CubicSpline(x, values.imag)
    xs, wts = _gl_nodes(a)
    raw = spline_re(xs) + 1j * spline_im(xs)
    norm = math.sqrt(float(np.sum(wts * np.abs(raw) ** 2)))
    amp = lambda t: (spline_re(np.asarray(t)) + 1j * spline_im(np.asarray(t))) / norm
    return _finalize("custom_samples", a, amp, "custom")


def overlap_transform(p: InitialProfile, k):
    """Sine transform phi(k) = int_0^a psi0(x) sin(kx) dx at real or complex k.

    Box modes use the closed form with removable limits at k = +-n pi/a;
    other profiles use the cached Gauss-Legendre rule (entire integrand, so
    the fixed rule is superalgebraically accurate for |Im k| a below ~40).
    """
    k = np.asarray(k, dtype=complex)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if p.kind == "box_mode":
        kn = p.mode * np.pi / p.a
        amp = math.sqrt(2.0 / p.a)
        out = amp * sine_overlap(k, kn, p.a)
    else:
        # nodes: (m,), k chunked to bound the outer-product workspace
        coef = p._weights * p._values
        flat = k.ravel()
        out = np.empty(flat.shape, dtype=complex)
        step = 8192
        for i in range(0, flat.size, step):
            blk = flat[i:i + step]
            out[i:i + step] = np.sin(np.multiply.outer(blk, p._nodes)) @ coef
        out = out.reshape(k.shape)
    return complex(out[0]) if scalar else out


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
