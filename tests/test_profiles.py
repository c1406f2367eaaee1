"""Initial packet construction, validation, and the sine overlap transform."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre

from gamow_lab import quadrature
from gamow_lab.potential_model import WellParameters, enumerate_poles
from gamow_lab.profiles import (
    box_mode,
    box_overlap,
    overlap_transform,
    parse_profile,
    sine_overlap,
    truncated_gaussian,
)
from gamow_lab.spectral_evolution import _spectrum


def mp_overlap_box(n, k):
    """Arbitrary-precision sine transform of the n-th closed-box mode."""
    with mpmath.workdps(40):
        k = mpmath.mpc(k)
        amp = mpmath.sqrt(2.0)
        val = mpmath.quad(
            lambda x: amp * mpmath.sin(n * mpmath.pi * x) * mpmath.sin(k * x),
            [0, 1])
        return complex(val)


class TestConstruction:
    def test_box_mode_normalized(self):
        p = box_mode(1)
        x = np.linspace(0, 1, 2001)
        norm = np.trapezoid(np.abs(p(x)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_box_mode_rejects_bad_index(self):
        with pytest.raises(ValueError):
            box_mode(0)

    def test_support_clipped(self):
        p = box_mode(1)
        assert p(1.5) == 0.0
        assert p(-0.2) == 0.0

    def test_gaussian_normalized_and_vanishing_at_edges(self):
        p = truncated_gaussian(0.5, 0.08)
        assert abs(p(0.0)) < 1e-8 and abs(p(1.0)) < 1e-8

    def test_gauss_legendre_rule_built_once(self, monkeypatch):
        # profiles take the cached rule from quadrature.panel_nodes
        calls = []
        leggauss = legendre.leggauss

        def counting(order):
            calls.append(order)
            return leggauss(order)

        quadrature._gl_rule.cache_clear()
        monkeypatch.setattr(legendre, "leggauss", counting)
        truncated_gaussian(0.5, 0.08)
        truncated_gaussian(0.4, 0.06)
        assert len(calls) <= 1

    def test_gaussian_with_fat_tails_rejected(self):
        with pytest.raises(ValueError):
            truncated_gaussian(0.5, 0.2)

    @pytest.mark.parametrize("make", [
        lambda: parse_profile("gauss:0.5,1e-10"),
        lambda: parse_profile("gauss:0.5,nan"),
    ], ids=["gauss-underflow", "gauss-nan"])
    def test_degenerate_profiles_rejected(self, make):
        # a NaN norm or edge value must fail the constructor's check
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_barrier_slope(self, n):
        # psi0'(1-) = sqrt(2) n pi cos(n pi) for the box modes
        p = box_mode(n)
        exact = math.sqrt(2.0) * n * math.pi * (-1.0) ** n
        assert p.barrier_slope == pytest.approx(exact, rel=1e-8)

    def test_first_moment_closed_form(self):
        # int_0^1 sqrt(2) sin(pi x) x dx = sqrt(2)/pi
        p = box_mode(1)
        assert p.first_moment() == pytest.approx(math.sqrt(2.0) / math.pi,
                                                 rel=1e-12)

    def test_profile_rule_exact_for_box_mode(self):
        # the profile rule (eight 128-point panels) reproduces the box mode's
        # norm 1 and first moment sqrt(2)/pi to rounding
        p = box_mode(1)
        norm = np.sum(p.coef * np.conj(p(p.nodes)))
        assert abs(norm - 1.0) < 1e-15
        assert abs(p.first_moment() - math.sqrt(2.0) / math.pi) < 1e-15


class TestOverlapTransform:
    def test_self_overlap(self):
        assert overlap_transform(box_mode(1), math.pi) == pytest.approx(
            math.sqrt(0.5), rel=1e-12)

    def test_mode_orthogonality(self):
        assert abs(overlap_transform(box_mode(1), 2 * math.pi)) < 1e-14

    def test_complex_argument_matches_quadrature(self):
        k = 1.0 - 0.5j
        assert overlap_transform(box_mode(1), k) == pytest.approx(
            mp_overlap_box(1, k), rel=1e-12)

    def test_generic_profile_matches_quadrature(self):
        p = truncated_gaussian(0.5, 0.08)
        with mpmath.workdps(40):
            for k in (0.7, 3.0, 2.0 - 1.0j):
                ref = complex(mpmath.quad(
                    lambda x: complex(p(float(x))) * mpmath.sin(mpmath.mpc(k) * x),
                    [0, 1]))
                assert overlap_transform(p, k) == pytest.approx(ref, abs=1e-12)

    def test_vectorized_over_k(self):
        rng = np.random.default_rng(3)
        ks = rng.uniform(0.1, 30.0, 50)
        p = box_mode(2)
        vec = overlap_transform(p, ks)
        scal = np.array([overlap_transform(p, k) for k in ks])
        assert np.allclose(vec, scal, rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 127, 128, 5000])
    def test_midpoints_match_transform(self, n):
        # the audit's rule, n midpoints on [0, 120]: its phi pass
        # (_spectrum) is overlap_transform bit for bit, a box mode's from
        # the sine of |A|^2, and a Gaussian's closed form matches the
        # profile rule's dense sum, which resolves sin(kx) there (measured
        # <= 3.0e-15 absolute, on |phi| <= 0.5)
        k = (np.arange(n) + 0.5) * (120.0 / n)
        for p in (truncated_gaussian(0.45, 0.06), box_mode(2)):
            phi = _spectrum(p, k)[1]
            assert np.array_equal(phi, overlap_transform(p, k))
        p = truncated_gaussian(0.45, 0.06)
        dense = np.sin(np.multiply.outer(k, p.nodes)) @ p.coef
        assert np.max(np.abs(overlap_transform(p, k) - dense)) < 3e-14

    def test_real_k_matches_the_complex_form(self):
        # the real path (two w per node, by conjugate symmetry) against
        # the complex one (four w) at the same k (measured <= 6e-17
        # absolute, on |phi| <= 0.5)
        p = truncated_gaussian(0.45, 0.06)
        k = np.random.default_rng(2).uniform(0.0, 800.0, 8192 + 100)
        real = overlap_transform(p, k)
        assert real.dtype == complex and np.all(real.imag == 0.0)
        assert np.max(np.abs(real - overlap_transform(
            p, k.astype(complex)))) < 1e-15
        assert overlap_transform(p, 3.0) == pytest.approx(
            overlap_transform(p, 3.0 + 0j), rel=1e-14)

    def test_box_mode_real_k_takes_real_sines(self):
        # the closed form at real k, k = 0 and k = n pi / a included,
        # against the complex path (measured <= 2.3e-16)
        p = box_mode(2)
        k = np.r_[0.0, 1e-9, 2.0 * np.pi, np.linspace(0.0, 200.0, 2001)]
        real = overlap_transform(p, k)
        assert real.dtype == complex
        assert np.max(np.abs(real - overlap_transform(p, k.astype(complex)))) \
            < 1e-15
        assert overlap_transform(p, 2.0 * np.pi) == pytest.approx(
            math.sqrt(0.5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_sine_box_form(self, n):
        # box_overlap from sin(k) alone against sine_overlap's two-sine
        # form and against the closed form in 40 digits, at k_n = n pi,
        # one part in 1e9 either side of it, near k = 0, at k ~ 3000 and
        # on the ray e^{-i pi/4} s.  sine_overlap's difference of two
        # sines cancels near k = 0, at large |k| and on the ray, so it is
        # held to rounding of its terms' size, sqrt(1/2) cosh(Im k);
        # mpmath to 2e-15 relative (measured <= 3.5e-16).
        p = box_mode(n)
        kn = n * math.pi
        ray = np.exp(-0.25j * math.pi)
        ks = [kn, kn * (1 + 1e-9), kn * (1 - 1e-9), np.nextafter(kn, 0.0),
              1e-9, 3000.0, 2999.7, ray * 1e-6, ray * 0.3,
              ray * 5.0, ray * 50.0, ray * 300.0]
        for k in ks:
            got = overlap_transform(p, k)
            if np.isrealobj(k):
                assert got == box_overlap(p, k, np.sin(k))
            two_sines = math.sqrt(2.0) * complex(sine_overlap(k, kn))
            assert abs(got - two_sines) <= (
                1e-15 * math.sqrt(0.5) * math.cosh(np.imag(k)))
            with mpmath.workdps(40):
                kk, mkn = mpmath.mpmathify(k), n * mpmath.pi
                ref = complex(mpmath.sqrt(2) * (
                    mpmath.sin(kk - mkn) / (2 * (kk - mkn))
                    - mpmath.sin(kk + mkn) / (2 * (kk + mkn))))
            assert abs(got - ref) <= 2e-15 * abs(ref)

    def test_box_mode_at_its_own_wavenumber(self):
        # phi_n(n pi) = sqrt(1/2) with no branch: z - n pi is formed to
        # rounding of itself, so it is never 0 at a double z
        for n in (1, 3, 7):
            got = overlap_transform(box_mode(n), n * math.pi)
            assert got == pytest.approx(math.sqrt(0.5), rel=1e-15)


def mp_overlap_gauss(c, s, k):
    """truncated_gaussian(c, s)'s phi(k) = N (I(k) - I(-k)) / 2i in 40
    digits, with I(k) = s sqrt(pi/2) e^{ikc - b^2} (erf(u1 - ib)
    - erf(u0 - ib)), b = k s / sqrt 2, u0 = -c / (s sqrt 2) and
    u1 = (1 - c) / (s sqrt 2): erf, not quadrature."""
    with mpmath.workdps(40):
        c, s, k = mpmath.mpf(c), mpmath.mpf(s), mpmath.mpmathify(k)
        r2 = mpmath.sqrt(2)
        u0, u1 = -c / (s * r2), (1 - c) / (s * r2)
        norm = 1 / mpmath.sqrt(s * mpmath.sqrt(mpmath.pi) / 2 * (
            mpmath.erf((1 - c) / s) + mpmath.erf(c / s)))

        def I(k):
            b = k * s / r2
            return (s * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(1j * k * c - b * b)
                    * (mpmath.erf(u1 - 1j * b) - mpmath.erf(u0 - 1j * b)))

        return complex(norm * (I(k) - I(-k)) / 2j)


#: (center, width) of the closed-form checks, the last with edge values
#: 8.7e-9, next to the constructor's 1e-8
GAUSSIANS = {"gauss:0.5,0.06": (0.5, 0.06), "gauss:0.4,0.05": (0.4, 0.05),
             "edge-near-tol": (0.5, 0.08)}


def ray_points(c, s):
    """e^{-i pi/4} s' for s' <= 300, and 1% either side of each s' = 2u/s
    (u = -u0, u1) on it, where a w argument crosses the real axis and
    _scaled_faddeeva's reflection takes over."""
    turns = [f * 2.0 * u / s for u in (c / (s * math.sqrt(2.0)),
                                       (1.0 - c) / (s * math.sqrt(2.0)))
             for f in (0.99, 1.01)]
    radii = np.r_[np.geomspace(1e-6, 300.0, 60), 177.0,
                  [r for r in turns if r <= 300.0]]
    return np.exp(-0.25j * math.pi) * radii


class TestGaussianClosedForm:
    """overlap_transform's erf/Faddeeva form against mp_overlap_gauss,
    relative error.  Measured maxima over the three GAUSSIANS: 4.6e-14 on
    the real axis (next to a zero of sin kc), 4.4e-14 on the ray and
    5.9e-15 at the poles; each bar is ten times that.  k = 5000 and
    s = 177 on the ray are where a 1024-node Gauss-Legendre rule for phi
    is off by 8.3e-3 absolute and by 1.3e-6 relative (gauss:0.4,0.05)."""

    @pytest.mark.parametrize("c,s", GAUSSIANS.values(), ids=GAUSSIANS)
    def test_real_k(self, c, s):
        # 1e-9 to 3000, past the rule's k ~ 3200, to the direct route's
        # cutoffs at short times
        k = np.r_[np.geomspace(1e-9, 3000.0, 80), 5000.0, 20000.0]
        got = overlap_transform(truncated_gaussian(c, s), k)
        ref = np.array([mp_overlap_gauss(c, s, kk) for kk in k])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 5e-13

    @pytest.mark.parametrize("c,s", GAUSSIANS.values(), ids=GAUSSIANS)
    def test_ray(self, c, s):
        k = ray_points(c, s)
        got = overlap_transform(truncated_gaussian(c, s), k)
        ref = np.array([mp_overlap_gauss(c, s, kk) for kk in k])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 5e-13

    @pytest.mark.parametrize("c,s", GAUSSIANS.values(), ids=GAUSSIANS)
    def test_pole_wavenumbers(self, c, s):
        # the first poles at lambda = 10 and 100, where residue_prefactor
        # reads phi
        k = np.concatenate([enumerate_poles(WellParameters(lam), 40.0).k
                            for lam in (10.0, 100.0)])
        got = overlap_transform(truncated_gaussian(c, s), k)
        ref = np.array([mp_overlap_gauss(c, s, kk) for kk in k])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 6e-14


class TestParseProfile:
    def test_box(self):
        p = parse_profile("box:2")
        assert p.mode == 2

    def test_gauss(self):
        p = parse_profile("gauss:0.5,0.08")
        assert p.mode is None

    def test_gauss_in_units_of_the_width(self):
        # centre and width are divided by a; the label keeps the spec's
        p = parse_profile("gauss:1,0.16", 2.0)
        q = truncated_gaussian(0.5, 0.08)
        assert p.label == "gauss:1,0.16"
        assert np.array_equal(p.coef, q.coef)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_profile("ramp:1")
