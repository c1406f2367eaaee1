"""Scattering coefficients, quantization function, and pole enumeration."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from gamow_lab import potential_model
from gamow_lab.exceptions import CountMismatch, SeedOutOfRegime, WrongQuadrant
from gamow_lab.potential_model import (
    Resonance,
    WellParameters,
    asymptotic_pole_seed,
    coefficient_A,
    coefficient_A_bar,
    coefficient_B,
    enumerate_poles,
    quantization_residual,
    refine_pole,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def mp_A(k, lam, a=1.0):
    """Arbitrary-precision evaluation of A(k), the independent oracle."""
    with mpmath.workdps(50):
        k = mpmath.mpc(k)
        den = k * a + lam * mpmath.exp(1j * k * a) * mpmath.sin(k * a)
        return complex(-2j * k * a / den)


class TestWellParameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WellParameters(lam=-1.0)
        with pytest.raises(ValueError):
            WellParameters(lam=10.0, a=0.0)

    def test_metastable_predicate(self):
        assert W100.metastable
        assert W10.metastable
        assert not WellParameters(lam=0.5).metastable


class TestCoefficientA:
    def test_removable_limit_at_origin(self):
        assert coefficient_A(0.0, W100) == pytest.approx(-2j / 101.0)

    def test_magnitude_at_k1(self):
        # oracle: 50-digit evaluation gives |A(1)| = 0.023615...
        val = coefficient_A(1.0, W100)
        assert abs(val) == pytest.approx(abs(mp_A(1.0, 100.0)), rel=1e-12)
        assert abs(val) == pytest.approx(0.02362, abs=5e-5)

    def test_blows_up_near_first_pole(self):
        k1 = enumerate_poles(W100, 4.0)[0].k
        assert abs(coefficient_A(k1 + 1e-6, W100)) > 1e3

    def test_matches_oracle_on_complex_samples(self):
        rng = np.random.default_rng(7)
        ks = rng.uniform(-5, 5, 20) + 1j * rng.uniform(-2, 2, 20)
        for k in ks:
            assert coefficient_A(complex(k), W10) == pytest.approx(
                mp_A(complex(k), 10.0), rel=1e-12)


class TestCoefficientB:
    def test_unimodular_on_real_axis(self):
        rng = np.random.default_rng(11)
        ks = rng.uniform(1e-6, 20.0, 200)
        assert np.max(np.abs(np.abs(coefficient_B(ks, W100)) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(coefficient_B(ks, W10)) - 1.0)) < 1e-12

    def test_limit_at_origin(self):
        assert coefficient_B(0.0, W10) == pytest.approx(-1.0)

    def test_conjugate_denominator_identity(self):
        k = 2.5
        d = k + 10.0 * cmath.exp(1j * k) * cmath.sin(k)
        assert coefficient_B(k, W10) == pytest.approx(-np.conj(d) / d, rel=1e-14)


class TestCoefficientABar:
    def test_is_conjugate_on_real_axis(self):
        rng = np.random.default_rng(13)
        ks = rng.uniform(1e-3, 20.0, 100)
        a_bar = coefficient_A_bar(ks, W10)
        assert np.allclose(a_bar, np.conj(coefficient_A(ks, W10)), rtol=1e-14)

    def test_limit_at_origin(self):
        assert coefficient_A_bar(0.0, W100) == pytest.approx(2j / 101.0)

    def test_regular_on_rotated_ray(self):
        # poles of the continued conjugate sit at conj(k_n) in the upper
        # half plane, so the 45-degree ray stays clear of them
        k = cmath.exp(-1j * math.pi / 4) * 2.0
        val = coefficient_A_bar(k, W100)
        assert np.isfinite(val)
        for r in enumerate_poles(W100, 8.0):
            assert abs(k - np.conj(r.k)) > 0.1


class TestQuantizationResidual:
    def test_nonzero_at_sine_nodes(self):
        for n in (1, 2, 3):
            val = quantization_residual(n * math.pi, W100)
            assert val == pytest.approx(n * math.pi * (-1.0) ** n, rel=1e-12)

    def test_vanishes_at_refined_pole(self):
        r = enumerate_poles(W100, 4.0)[0]
        assert abs(quantization_residual(r.k, W100)) < 1e-12

    def test_explicit_value(self):
        val = quantization_residual(3.0, W10)
        expect = 3 * math.cos(3.0) + (10 - 3j) * math.sin(3.0)
        assert val == pytest.approx(expect, rel=1e-14)

    def test_exp_factorization_of_denominator(self):
        # the entire form F and the scattering denominator D obey
        # D(k) = e^{ika} F(k) everywhere
        rng = np.random.default_rng(17)
        z = rng.uniform(-1, 1, (100, 2))
        ks = 20.0 * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        for k in ks:
            k = complex(k)
            D = k + 10.0 * cmath.exp(1j * k) * cmath.sin(k)
            F = quantization_residual(k, W10)
            assert D == pytest.approx(cmath.exp(1j * k) * F, rel=1e-12)


class TestAsymptoticSeed:
    def test_seed_values(self):
        s1 = asymptotic_pole_seed(1, W100)
        assert s1 == pytest.approx(
            math.pi * 100 / 101 - 1j * (math.pi / 100) ** 2, rel=1e-12)
        # closed form n pi lam/(1+lam) - i (n pi/lam)^2 evaluates to
        # 3.1104878 - 0.00098696i; quoted reference values are good to ~2e-5
        assert s1 == pytest.approx(3.110467 - 0.000986960j, abs=5e-5)
        assert asymptotic_pole_seed(2, W100) == pytest.approx(
            6.220934 - 0.003947842j, abs=1e-4)
        assert asymptotic_pole_seed(1, W10) == pytest.approx(
            2.855993 - 0.098696j, abs=1e-6)

    def test_out_of_regime(self):
        with pytest.raises(SeedOutOfRegime):
            asymptotic_pole_seed(4, W10)  # 4 pi > 10


class TestRefinePole:
    def test_postcondition_residual(self):
        r = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert abs(quantization_residual(r.k, W100)) < 1e-12

    def test_near_seed(self):
        r = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert abs(r.k - (3.110467 - 0.000986960j)) < 5e-3

    def test_lifetime_near_inverse_cube_law(self):
        r = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert r.tau == pytest.approx(1e4 / (4 * math.pi ** 3), rel=0.05)

    def test_rejects_wrong_quadrant(self):
        # a seed near the mirror root converges outside the sector
        r = enumerate_poles(W100, 4.0)[0]
        with pytest.raises(WrongQuadrant):
            refine_pole(-np.conj(r.k), W100)


class TestEnumeratePoles:
    def test_five_poles_below_16(self):
        poles = enumerate_poles(W100, 16.0)
        assert len(poles) == 5
        for r in poles:
            expect = r.n * math.pi * 100 / 101
            assert abs(r.k.real - expect) / expect < 0.01

    def test_empty_below_first_pole(self):
        assert enumerate_poles(W100, 3.0) == []

    def test_derived_quantities(self):
        poles = enumerate_poles(W100, 16.0)
        gammas = [r.gamma for r in poles]
        for r in poles:
            assert r.E == r.k ** 2
            assert r.E.real > 0 and r.gamma > 0
            assert -math.pi / 4 < cmath.phase(r.k) < 0
        assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_mirror_roots(self):
        # each decaying root has a growing partner at -conj(k)
        for r in enumerate_poles(W10, 10.0):
            assert abs(quantization_residual(-np.conj(r.k), W10)) < 1e-10

    def test_count_agrees_with_winding_number(self):
        # enumeration audits itself; reaching here means counts agreed
        poles = enumerate_poles(W10, 10.0)
        assert len(poles) == 3

    def test_closed_form_seeds_beyond_asymptotic_regime(self):
        poles = enumerate_poles(W10, 40.0)
        assert len(poles) == 12
        spacings = np.diff([r.k.real for r in poles])
        assert np.all(spacings > 2.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_weak_barrier_poles_audited(self, lam, a):
        # a thin barrier's poles sit far below the real axis; each closed-form
        # seed still finds its own root, and the audit agrees with the count
        w = WellParameters(lam=lam, a=a)
        poles = enumerate_poles(w, 40.0 / a)
        assert [r.n for r in poles] == list(range(1, 13))
        for r in poles:
            r.validate()
            assert r.residual < 1e-12 * max(1.0, abs(r.k * a))

    def test_steep_first_root_rejected(self):
        # at lam = 0.1 the first root lies below arg k = -pi/4
        with pytest.raises(WrongQuadrant):
            enumerate_poles(WellParameters(lam=0.1), 40.0)

    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_one_pass_refinement_to_short_time_cutoffs(self, lam):
        # k_max a = 6e4 is the reach of the short-time cutoffs 60a/t; the
        # argument-principle audit is not run here
        w = WellParameters(lam=lam)
        k, residual = potential_model._seeded_roots(w, 6e4)
        n = np.arange(1, k.size + 1)
        assert k.size == 19098
        assert np.all(np.diff(k.real) > 0.0)
        assert np.all(residual < 1e-12 * np.maximum(1.0, np.abs(k)))
        # the n-th seed converges to the n-th root
        assert np.all((k.real > (n - 0.5) * math.pi) & (k.real < n * math.pi))


class TestResonanceInvariants:
    def test_validate_rejects_upper_half_plane(self):
        with pytest.raises(WrongQuadrant):
            Resonance(n=1, k=3.0 + 0.1j, residual=0.0).validate()

    def test_validate_rejects_steep_sector(self):
        with pytest.raises(WrongQuadrant):
            Resonance(n=1, k=1.0 - 2.0j, residual=0.0).validate()
