"""Scattering coefficients, quantization function, and pole enumeration."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gamow_lab import potential_model
from gamow_lab.exceptions import (
    CountMismatch,
    SeedOutOfRegime,
    WrongQuadrant,
)
from gamow_lab.potential_model import (
    MAX_POLES,
    Poles,
    WellParameters,
    asymptotic_pole_seed,
    coefficient_A,
    coefficient_A_bar,
    coefficient_B,
    enumerate_poles,
    interior_weight,
    quantization_residual,
    refine_pole,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def mp_A(k, lam):
    """Arbitrary-precision evaluation of A(k), the independent oracle."""
    with mpmath.workdps(50):
        k = mpmath.mpc(k)
        den = k + lam * mpmath.exp(1j * k) * mpmath.sin(k)
        return complex(-2j * k / den)


class TestWellParameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WellParameters(lam=-1.0)
        with pytest.raises(ValueError):
            WellParameters(lam=0.0)

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
        k1 = enumerate_poles(W100, 4.0).k[0]
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


@pytest.mark.parametrize("w", [W10, W100], ids=["lam10", "lam100"])
def test_real_k_takes_real_arithmetic(w):
    # A and B from D = (ka + lam sin ka cos ka) + i lam sin^2 ka agree with
    # the complex path, at k = 0, near it, across [0, 60] and on each
    # resonance peak Re k_n (measured <= 4.7e-15 relative); scalars stay
    # Python complex
    k = np.r_[0.0, 1e-9, 1e-7, np.linspace(1e-3, 60.0, 4001),
              enumerate_poles(w, 60.0).k.real]
    for f in (coefficient_A, coefficient_B):
        real, cplx = f(k, w), f(k.astype(complex), w)
        assert real.dtype == complex
        assert np.max(np.abs(real - cplx) / np.abs(cplx)) < 2e-14
        assert isinstance(f(2.5, w), complex)
    assert coefficient_A(0.0, w) == -2j / (1.0 + w.lam)
    assert coefficient_B(1e-9, w) == -1.0
    # |A|^2 = 4 (ka)^2 / |D|^2 directly, and its limit at k = 0
    A = coefficient_A(k.astype(complex), w)
    weight = interior_weight(k, w)
    assert np.max(np.abs(weight - np.abs(A) ** 2) / np.abs(A) ** 2) < 2e-14
    assert weight[0] == 4.0 / (1.0 + w.lam) ** 2


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
        for k_n in enumerate_poles(W100, 8.0).k:
            assert abs(k - np.conj(k_n)) > 0.1


class TestQuantizationResidual:
    def test_nonzero_at_sine_nodes(self):
        for n in (1, 2, 3):
            val = quantization_residual(n * math.pi, W100)
            assert val == pytest.approx(n * math.pi * (-1.0) ** n, rel=1e-12)

    def test_vanishes_at_refined_pole(self):
        k1 = enumerate_poles(W100, 4.0).k[0]
        assert abs(quantization_residual(k1, W100)) < 1e-12

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
        pole = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert len(pole) == 1
        assert abs(quantization_residual(pole.k[0], W100)) < 1e-12

    def test_near_seed(self):
        pole = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert abs(pole.k[0] - (3.110467 - 0.000986960j)) < 5e-3

    def test_lifetime_near_inverse_cube_law(self):
        pole = refine_pole(asymptotic_pole_seed(1, W100), W100)
        assert pole.tau[0] == pytest.approx(1e4 / (4 * math.pi ** 3),
                                            rel=0.05)

    def test_rejects_wrong_quadrant(self):
        # a seed near the mirror root converges outside the sector
        k1 = enumerate_poles(W100, 4.0).k[0]
        with pytest.raises(WrongQuadrant):
            refine_pole(-np.conj(k1), W100)


class TestEnumeratePoles:
    def test_five_poles_below_16(self):
        poles = enumerate_poles(W100, 16.0)
        assert len(poles) == 5
        expect = np.arange(1, 6) * math.pi * 100 / 101
        assert np.all(np.abs(poles.k.real - expect) / expect < 0.01)

    def test_empty_below_first_pole(self):
        poles = enumerate_poles(W100, 3.0)
        assert len(poles) == 0
        assert poles.k.shape == poles.residual.shape == (0,)

    def test_derived_quantities(self):
        poles = enumerate_poles(W100, 16.0)
        assert np.all(poles.E.real > 0) and np.all(poles.gamma > 0)
        assert np.array_equal(poles.gamma, -2.0 * poles.E.imag)
        assert np.array_equal(poles.tau, 1.0 / poles.gamma)
        for k in poles.k:
            assert -math.pi / 4 < cmath.phase(k) < 0
        assert np.all(np.diff(poles.gamma) > 0)

    @pytest.mark.parametrize("lam,k_max", [(100.0, 16.0), (10.0, 300.0),
                                           (1.0, 300.0)])
    def test_energies_rounded_once(self, lam, k_max):
        # E = k**2 to the nearest double in both parts, against exact
        # rational arithmetic; Python's k * k misses Re E by an ulp on
        # some of these poles
        poles = enumerate_poles(WellParameters(lam), k_max)
        exact = [complex(float(Fraction(z.real) ** 2 - Fraction(z.imag) ** 2),
                         float(2 * Fraction(z.real) * Fraction(z.imag)))
                 for z in poles.k.tolist()]
        assert poles.E.tolist() == exact

    def test_mirror_roots(self):
        # each decaying root has a growing partner at -conj(k)
        for k in enumerate_poles(W10, 10.0).k:
            assert abs(quantization_residual(-np.conj(k), W10)) < 1e-10

    def test_count_agrees_with_winding_number(self):
        # enumeration audits itself; reaching here means counts agreed
        poles = enumerate_poles(W10, 10.0)
        assert len(poles) == 3

    def test_closed_form_seeds_beyond_asymptotic_regime(self):
        poles = enumerate_poles(W10, 40.0)
        assert len(poles) == 12
        spacings = np.diff(poles.k.real)
        assert np.all(spacings > 2.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("reach", [1.0, 2.0])
    def test_weak_barrier_poles_audited(self, lam, reach):
        # a thin barrier's poles sit far below the real axis; each closed-form
        # seed still finds its own root, and the audit agrees with the count,
        # at the cutoff 40 and twice it
        poles = enumerate_poles(WellParameters(lam=lam), 40.0 * reach)
        assert len(poles) == {1.0: 12, 2.0: 25}[reach]
        for k, residual in zip(poles.k, poles.residual):
            assert -math.pi / 4 < cmath.phase(k) < 0
            assert residual < 1e-12 * max(1.0, abs(k))

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

    @pytest.mark.parametrize("k_max", [1000.0, 3000.0])
    def test_opaque_barrier_audit(self, k_max):
        # at lam = 1000 the audit's phase tracking needs 17 and 18
        # bisection rounds; the winding then equals the root count
        w = WellParameters(lam=1000.0)
        count = {1000.0: 318, 3000.0: 955}[k_max]
        assert len(enumerate_poles(w, k_max)) == count

    def test_pole_bound_checked_before_refinement(self, monkeypatch):
        class Reached(Exception):
            pass

        def refine(w, k_max):
            raise Reached

        monkeypatch.setattr(potential_model, "_seeded_roots", refine)
        # the cutoff whose seeds just fit reaches the refinement; the
        # next one is refused before any seed exists
        with pytest.raises(Reached):
            enumerate_poles(W10, (MAX_POLES - 1) * math.pi)
        for k_max in (MAX_POLES * math.pi, 1e12):
            with pytest.raises(ValueError, match="poles"):
                enumerate_poles(W10, k_max)


#: the strips n pi - pi/2 <= Re ka <= n pi probed against mpmath (from
#: _seeded_roots: the argument-principle audit fails at 5000 pi)
STRIPS = [*range(1, 11), 100, 5000]


def _mp_root(z, lam):
    """A root of F(z) = z cos z + (lam - iz) sin z from the start z, at 40
    digits (Muller's method: the secant diverges from some strip edges at
    lam = 1000)."""
    with mpmath.workdps(40):
        return mpmath.findroot(
            lambda z: z * mpmath.cos(z) + (lam - 1j * z) * mpmath.sin(z),
            mpmath.mpc(z), solver="muller")


@pytest.mark.parametrize("lam", [0.5, 10.0, 1000.0])
class TestStripContraction:
    """Each strip n pi - pi/2 <= Re ka <= n pi holds exactly one root of F,
    the fixed point of g_n (module docstring), and the package finds it."""

    def test_one_root_per_strip(self, lam):
        # findroot from both sides of each strip's two edges, at the height
        # of that strip's pole: every root found lies inside a strip, and
        # the roots found on one strip are one root
        k = potential_model._seeded_roots(WellParameters(lam),
                                          STRIPS[-1] * math.pi)[0]
        roots = {}
        for n in STRIPS:
            im = k[n - 1].imag
            for edge in (n * math.pi - math.pi / 2, n * math.pi):
                for side in (-1e-3, 1e-3):
                    r = _mp_root(complex(edge + side, im), lam)
                    m = int(mpmath.ceil(r.real / mpmath.pi))
                    assert 0 < m * mpmath.pi - r.real < mpmath.pi / 2
                    roots.setdefault(m, []).append(r)
        assert set(STRIPS) <= set(roots)
        for found in roots.values():
            assert max(abs(r - found[0]) for r in found) < 1e-30 * abs(
                found[0])

    def test_pole_is_the_strip_root(self, lam):
        # the package's pole on each strip is that strip's root to a few
        # ulp, and _contract's distance bound covers the true error
        npi = math.pi * np.array(STRIPS, dtype=float)
        seeds = npi - np.arctan(npi / (lam - 1j * npi))
        z, bound = potential_model._contract(seeds, npi, lam)
        k = potential_model._seeded_roots(WellParameters(lam),
                                          STRIPS[-1] * math.pi)[0]
        assert np.array_equal(z, k[np.array(STRIPS) - 1])
        eps = np.finfo(float).eps
        for zn, b in zip(z.tolist(), bound):
            err = float(abs(_mp_root(zn, lam) - mpmath.mpc(zn)))
            assert err <= b <= 2.0 * eps * abs(zn)

    def test_refine_pole_takes_the_seed_strip(self, lam):
        # any seed with (n - 1) pi < Re ka <= n pi reaches root n
        w = WellParameters(lam=lam)
        poles = enumerate_poles(w, 4 * math.pi).k
        for n, pole in enumerate(poles, start=1):
            for re in ((n - 1) * math.pi + 1e-9, n * math.pi):
                k = refine_pole(complex(re, -1.0), w).k[0]
                assert abs(k - pole) <= 4e-16 * abs(pole)
        with pytest.raises(WrongQuadrant):
            refine_pole(0.0 - 0.1j, w)


class TestPolesInvariants:
    def test_rejects_upper_half_plane(self):
        with pytest.raises(WrongQuadrant):
            Poles(k=[3.0 + 0.1j], residual=[0.0])

    def test_rejects_steep_sector(self):
        with pytest.raises(WrongQuadrant):
            Poles(k=[1.0 - 2.0j], residual=[0.0])

    def test_rejects_nan(self):
        with pytest.raises(WrongQuadrant):
            Poles(k=[complex(math.nan, -0.1)], residual=[0.0])

    @pytest.mark.parametrize("k", [[3.0 - 0.01j, 3.0 - 0.01j],
                                   [6.0 - 0.01j, 3.0 - 0.01j]],
                             ids=["repeated", "descending"])
    def test_rejects_repeated_root(self, k):
        with pytest.raises(CountMismatch, match="duplicate root"):
            Poles(k=k, residual=[0.0, 0.0])

    def test_cached_table_is_read_only(self):
        poles = enumerate_poles(W100, 16.0)
        assert len(poles) == poles.k.size == 5
        for column in (poles.k, poles.residual):
            with pytest.raises(ValueError):
                column[0] = 0.0
        assert enumerate_poles(W100, 16.0) is poles

    def test_copies_its_input(self):
        k = np.array([3.0 - 0.01j])
        poles = Poles(k=k, residual=[0.0])
        k[0] = 1.0 + 1.0j
        assert poles.k[0] == 3.0 - 0.01j
