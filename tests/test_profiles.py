"""Initial packet construction, validation, and the sine overlap transform."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre

from gamow_lab import quadrature
from gamow_lab.profiles import (
    box_mode,
    box_overlap,
    custom_samples,
    overlap_panels,
    overlap_transform,
    parse_profile,
    sine_overlap,
    truncated_gaussian,
)


def mp_overlap_box(n, k, a=1.0):
    """Arbitrary-precision sine transform of the n-th closed-box mode."""
    with mpmath.workdps(40):
        k = mpmath.mpc(k)
        amp = mpmath.sqrt(2.0 / a)
        val = mpmath.quad(
            lambda x: amp * mpmath.sin(n * mpmath.pi * x / a) * mpmath.sin(k * x),
            [0, a])
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

    def test_custom_samples_renormalized(self):
        x = np.linspace(0.0, 1.0, 101)
        vals = np.sin(np.pi * x) * (1.0 + 0.3 * np.sin(2 * np.pi * x))
        p = custom_samples(x, vals)
        xs = np.linspace(0, 1, 4001)
        assert np.trapezoid(np.abs(p(xs)) ** 2, xs) == pytest.approx(1.0, abs=1e-6)

    def test_custom_samples_width_is_last_sample(self):
        x = np.linspace(0.0, 2.0, 101)
        p = custom_samples(x, np.sin(np.pi * x / 2.0))
        # the rule spans [0, 2]: int_0^2 sin(pi x / 2) x dx = 4 / pi
        assert p.a == 2.0
        assert p.first_moment() == pytest.approx(4.0 / math.pi, rel=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: custom_samples(np.linspace(0.0, 1.0, 11), np.zeros(11)),
        lambda: parse_profile("gauss:0.5,1e-10"),
        lambda: parse_profile("gauss:0.5,nan"),
    ], ids=["zero-samples", "gauss-underflow", "gauss-nan"])
    def test_degenerate_profiles_rejected(self, make):
        # a NaN norm or edge value must fail the constructor's check
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_barrier_slope(self, n):
        # psi0'(a-) = sqrt(2/a) (n pi / a) cos(n pi) for the box modes
        a = 1.5
        p = box_mode(n, a=a)
        exact = math.sqrt(2.0 / a) * n * math.pi / a * (-1.0) ** n
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
        # the audit's rule: n midpoints on [0, 120]
        k = (np.arange(n) + 0.5) * (120.0 / n)
        for p in (truncated_gaussian(0.45, 0.06), custom_samples(
                np.linspace(0.0, 1.0, 41),
                np.sin(np.pi * np.linspace(0.0, 1.0, 41)) ** 3)):
            phi, = overlap_panels(p, [k])
            assert np.max(np.abs(phi - overlap_transform(p, k))) < 1e-14
        # box modes take the closed form on the same nodes
        phi, = overlap_panels(box_mode(2), [k])
        assert np.array_equal(phi, overlap_transform(box_mode(2), k))

    def test_real_k_takes_real_sines_bit_identically(self):
        # the real-sine path sums the same products as the complex one
        p = truncated_gaussian(0.45, 0.06)
        k = np.random.default_rng(2).uniform(0.0, 800.0, 8192 + 100)
        assert np.array_equal(overlap_transform(p, k),
                              overlap_transform(p, k.astype(complex)))
        assert overlap_transform(p, 3.0) == overlap_transform(p, 3.0 + 0j)

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
        # box_overlap from sin(ka) alone against sine_overlap's two-sine
        # form and against the closed form in 40 digits, at k_n = n pi / a,
        # one part in 1e9 either side of it, near k = 0, at ka ~ 3000 and
        # on the ray e^{-i pi/4} s.  sine_overlap's difference of two
        # sines cancels near k = 0, at large |k| and on the ray, so it is
        # held to rounding of its terms' size, sqrt(a/2) cosh(Im ka);
        # mpmath to 2e-15 relative (measured <= 3.5e-16).
        a = 1.0
        p = box_mode(n, a=a)
        kn = n * math.pi / a
        ray = np.exp(-0.25j * math.pi)
        ks = [kn, kn * (1 + 1e-9), kn * (1 - 1e-9), np.nextafter(kn, 0.0),
              1e-9 / a, 3000.0 / a, 2999.7 / a, ray * 1e-6, ray * 0.3,
              ray * 5.0, ray * 50.0, ray * 300.0]
        for k in ks:
            z = k * a
            got = overlap_transform(p, k)
            if np.isrealobj(z):
                assert got == box_overlap(p, z, np.sin(z))
            two_sines = math.sqrt(2.0 / a) * complex(sine_overlap(k, kn, a))
            assert abs(got - two_sines) <= (
                1e-15 * math.sqrt(a / 2.0) * math.cosh(np.imag(z)))
            with mpmath.workdps(40):
                kk, mkn = mpmath.mpmathify(k), n * mpmath.pi / a
                ref = complex(mpmath.sqrt(2 / mpmath.mpf(a)) * (
                    mpmath.sin((kk - mkn) * a) / (2 * (kk - mkn))
                    - mpmath.sin((kk + mkn) * a) / (2 * (kk + mkn))))
            assert abs(got - ref) <= 2e-15 * abs(ref)

    def test_box_mode_at_its_own_wavenumber(self):
        # phi_n(n pi / a) = sqrt(a/2) with no branch: z - n pi is formed to
        # rounding of itself, so it is never 0 at a double z
        for n, a in ((1, 1.0), (3, 0.7), (7, 2.0)):
            got = overlap_transform(box_mode(n, a=a), n * math.pi / a)
            assert got == pytest.approx(math.sqrt(a / 2.0), rel=1e-15)


class TestParseProfile:
    def test_box(self):
        p = parse_profile("box:2")
        assert p.mode == 2

    def test_gauss(self):
        p = parse_profile("gauss:0.5,0.08")
        assert p.mode is None

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_profile("ramp:1")
