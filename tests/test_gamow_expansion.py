"""Residue calculus, rotated background integral, and closed-form
long-time asymptotics."""

import cmath
import math

import numpy as np
import pytest

from gamow_lab.exceptions import QuadratureNotConverged, ResidueMismatch
from gamow_lab.gamow_expansion import (
    asymptotic_background,
    background_integral,
    crossover_time,
    evolve_rotated,
    gram_matrix,
    integrand_f,
    nonescape_asymptote,
    ray_background,
    residue_C,
    residue_terms,
    residue_weight,
    verify_residue,
)
from gamow_lab.potential_model import WellParameters, coefficient_A
from gamow_lab.profiles import box_mode, overlap_transform
from gamow_lab.spectral_evolution import (
    evolve_direct,
    norm_inside,
    resonances,
    well_grid,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)
W30 = WellParameters(lam=30.0)


def tau1(w):
    return resonances(w, 40.0)[0].tau


class TestIntegrandF:
    def test_matches_modulus_form_on_real_axis(self):
        k, x = 1.7, 0.4
        p = box_mode(1)
        direct = (overlap_transform(p, k) * abs(coefficient_A(k, W10)) ** 2
                  * math.sin(k * x)) / (2 * math.pi)
        assert complex(integrand_f(k, x, p, W10)) == pytest.approx(
            direct, rel=1e-12)

    def test_zero_at_origin(self):
        assert abs(complex(integrand_f(0.0, 0.7, box_mode(1), W10))) < 1e-30

    def test_finite_on_rotated_ray(self):
        k = cmath.exp(-1j * math.pi / 4) * 1.0
        val = complex(integrand_f(k, 0.5, box_mode(1), W100))
        assert np.isfinite(val) and abs(val) > 0


class TestResidues:
    def test_zero_at_wall(self):
        r1 = resonances(W100, 4.0)[0]
        assert residue_C(r1, 0.0, box_mode(1), W100) == 0.0

    def test_contour_self_check(self):
        r1 = resonances(W100, 4.0)[0]
        rel = verify_residue(r1, box_mode(1), W100, x=0.5, rtol=1e-8)
        assert rel < 1e-8

    def test_all_poles_verify(self):
        for w in (W10, W100):
            for r in resonances(w, 40.0):
                assert verify_residue(r, box_mode(1), w, rtol=1e-6) < 1e-6

    def test_mismatch_raises(self):
        r1 = resonances(W100, 4.0)[0]
        with pytest.raises(ResidueMismatch):
            verify_residue(r1, box_mode(1), W100, rtol=1e-18)

    def test_first_weight_near_unity(self):
        c1 = residue_weight(resonances(W100, 4.0)[0], box_mode(1), W100)
        assert c1 == pytest.approx(1.0, rel=0.05)

    def test_gram_offdiagonals_small(self):
        g = gram_matrix(box_mode(1), W100, n_terms=3)
        off = np.abs(g - np.diag(np.diag(g)))
        assert np.max(off) < 0.05


class TestBackgroundIntegral:
    def test_zero_at_wall(self):
        assert abs(background_integral(0.0, 5.0, box_mode(1), W10)) < 1e-14

    def test_t_minus_three_halves_law(self):
        # at long times the background magnitude follows t^{-3/2}
        p = box_mode(1)
        b1 = abs(background_integral(0.5, 5000.0, p, W10))
        b2 = abs(background_integral(0.5, 40000.0, p, W10))
        assert b1 / b2 == pytest.approx(8.0 ** 1.5, rel=0.10)

    def test_negligible_against_residues_at_tau1(self):
        p = box_mode(1)
        t = tau1(W100)
        dec = evolve_rotated(p, t, np.array([0.5]), W100)
        bg = abs(dec.background[0])
        res = abs(dec.residue_sum(t)[0])
        assert bg / res < 1e-2

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            background_integral(0.5, 0.0, box_mode(1), W10)

    def test_small_time_warns(self):
        with pytest.warns(RuntimeWarning):
            background_integral(0.5, 0.01, box_mode(1), W10)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureNotConverged) as info:
            background_integral(0.5, 5.0, box_mode(1), W10, tol=1e-30)
        assert info.value.estimate > 1e-28

    def test_error_estimate_small(self):
        # the control rule agrees with the main rule far below the default
        # tolerance over the whole range of one ray rule
        times = np.geomspace(0.02, 1e6, 9)
        bg = ray_background(np.linspace(0.0, 1.0, 9), box_mode(1), W100,
                            times[0], times[-1])
        values, err = bg.at(times)
        assert np.all(err < 1e-12)
        assert np.all(err <= 1e-10 * np.max(np.abs(values), axis=1))

    def test_range_rule_matches_single_time_rule(self):
        x = np.linspace(0.1, 1.0, 4)
        bg = ray_background(x, box_mode(3), W30, 0.05, 1e4)
        for t in (0.05, 3.0, 1e4):
            single = background_integral(x, t, box_mode(3), W30)
            assert np.allclose(bg.at(t)[0][0], single, rtol=1e-11, atol=0.0)


class TestEvolveRotated:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_matches_direct_representation(self, lam):
        w = WellParameters(lam=lam)
        p = box_mode(1)
        grid = well_grid(w, 65)
        t = tau1(w)
        d = evolve_direct(p, t, grid, w, check=False)
        r = evolve_rotated(p, t, grid, w)
        assert np.max(np.abs(d.psi - r.total.psi)) < 1e-6

    def test_single_residue_gives_exponential(self):
        # at 5 tau1 the n=1 term alone carries the whole inside norm
        w, p = W100, box_mode(1)
        t = 5.0 * tau1(w)
        grid = well_grid(w, 257)
        dec = evolve_rotated(p, t, grid, w)
        term = dec.residues[0]
        kn = term.resonance.k
        psi1 = term.coefficient(grid) * np.exp(-1j * kn * kn * t)
        from gamow_lab.spectral_evolution import WaveState
        P1 = norm_inside(WaveState(x=grid, psi=psi1, t=t, method="rotated"), w)
        expect = term.weight * math.exp(-t / term.resonance.tau)
        assert P1 == pytest.approx(expect, rel=0.01)
        P_full = norm_inside(dec.total, w)
        assert P_full == pytest.approx(expect, rel=0.01)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError,
                           match=r"^rotated representation requires t > 0$"):
            evolve_rotated(box_mode(1), 0.0, well_grid(W100, 65), W100)

    def test_total_is_background_plus_residues(self):
        t = tau1(W10)
        grid = well_grid(W10, 65)
        dec = evolve_rotated(box_mode(1), t, grid, W10)
        rebuilt = dec.background + dec.residue_sum(t)
        assert np.allclose(rebuilt, dec.total.psi, rtol=0, atol=1e-15)

    def test_sector_discipline(self):
        for term in residue_terms(box_mode(1), W10, 40.0):
            assert -math.pi / 4 < cmath.phase(term.resonance.k) < 0


class TestAsymptotics:
    def test_proportional_to_x(self):
        assert asymptotic_background(0.0, 10.0, box_mode(1), W10) == 0.0

    def test_exact_power_law(self):
        p = box_mode(1)
        a1 = abs(asymptotic_background(0.5, 7.0, p, W10))
        a2 = abs(asymptotic_background(0.5, 56.0, p, W10))
        assert a1 / a2 == pytest.approx(8.0 ** 1.5, abs=1e-10)

    def test_matches_full_background_at_long_time(self):
        p = box_mode(1)
        t = 5000.0
        full = background_integral(0.5, t, p, W10)
        asym = asymptotic_background(0.5, t, p, W10)
        assert abs(full - asym) / abs(full) < 0.10

    def test_nonescape_cube_law(self):
        p = box_mode(1)
        assert nonescape_asymptote(20.0, p, W10) / nonescape_asymptote(
            10.0, p, W10) == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_nonescape_matches_full_curve(self):
        p = box_mode(1)
        t = 2000.0
        grid = well_grid(W10, 257)
        dec = evolve_rotated(p, t, grid, W10)
        P_full = norm_inside(dec.total, W10)
        assert nonescape_asymptote(t, p, W10) == pytest.approx(P_full, rel=0.25)

    def test_lambda_scaling(self):
        p = box_mode(1)
        w20 = WellParameters(lam=20.0)
        ratio = nonescape_asymptote(100.0, p, w20) / nonescape_asymptote(
            100.0, p, W10)
        assert ratio == pytest.approx((11.0 / 21.0) ** 4, rel=1e-12)


class TestCrossover:
    def test_lambda100_reference_arithmetic(self):
        res = crossover_time(box_mode(1), W100)
        assert res["rule_of_thumb"] / res["tau1"] == pytest.approx(
            10.0 * math.log(100.0), rel=1e-12)

    def test_lambda10_within_factor_two(self):
        res = crossover_time(box_mode(1), W10)
        est = res["rule_of_thumb"]
        assert est / 2.0 < res["t_star"] < est * 2.0

    def test_monotone_in_lambda(self):
        r10 = crossover_time(box_mode(1), W10)
        r100 = crossover_time(box_mode(1), W100)
        assert (r100["t_star"] / r100["tau1"]) > (r10["t_star"] / r10["tau1"])

    def test_requires_metastable(self):
        with pytest.raises(ValueError):
            crossover_time(box_mode(1), WellParameters(lam=2.0))
