"""Residue calculus, rotated background integral, and closed-form
long-time asymptotics."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from gamow_lab.exceptions import NoCrossing, QuadratureNotConverged
from gamow_lab import gamow_expansion
from gamow_lab.gamow_expansion import (
    TIME_BLOCK,
    RotatedExpansion,
    _ray_edges,
    asymptotic_background,
    background_integral,
    crossing_time,
    crossover_time,
    evolve_rotated,
    gram_matrix,
    integrand_f,
    nonescape_asymptote,
    residue_prefactor,
    residue_terms,
    verify_residue,
)
from gamow_lab.potential_model import (
    WellParameters,
    coefficient_A,
    enumerate_poles,
)
from gamow_lab.profiles import box_mode, overlap_transform, truncated_gaussian
from gamow_lab.spectral_evolution import evolve_direct, well_rule

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)
W30 = WellParameters(lam=30.0)


def tau1(w):
    return enumerate_poles(w, 40.0).tau[0]


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
        residues = residue_terms(box_mode(1), W100, 4.0)
        assert residues.modes([0.0])[0, 0] == 0.0

    def test_contour_self_check(self):
        k1 = enumerate_poles(W100, 4.0).k[0]
        assert verify_residue(k1, box_mode(1), W100) < 1e-8

    def test_all_poles_verify(self):
        for w in (W10, W100):
            for k in enumerate_poles(w, 40.0).k:
                assert verify_residue(k, box_mode(1), w) < 1e-6

    def test_first_weight_near_unity(self):
        c1 = residue_terms(box_mode(1), W100, 4.0).weights[0]
        assert c1 == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("p", [box_mode(1), truncated_gaussian(0.5, 0.06)],
                             ids=["box", "gauss"])
    def test_arrays_match_per_pole_reference(self, p):
        # one array call reproduces the per-pole prefactors, and the
        # closed-form weights match a high-order quadrature of |C_n|^2
        residues = residue_terms(p, W30, 80.0)
        single = [residue_prefactor(k, p, W30) for k in residues.poles.k]
        assert np.allclose(residues.prefactors, single, rtol=1e-14, atol=1e-15)
        x, wx = np.polynomial.legendre.leggauss(1024)
        quad = np.abs(residues.modes(0.5 * (x + 1.0))) ** 2 @ (0.5 * wx)
        assert np.allclose(residues.weights, quad, rtol=1e-11, atol=0.0)

    def test_gram_offdiagonals_small(self):
        g = gram_matrix(box_mode(1), W100)
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
        rot = RotatedExpansion(np.array([0.5]), p, W100, t, t)
        bg = abs(rot.background(t)[0][0, 0])
        res = abs(rot.residue_sum(t)[0, 0])
        assert bg / res < 1e-2

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            background_integral(0.5, 0.0, box_mode(1), W10)

    @pytest.mark.parametrize("t_min,t_max", [(1.0, math.inf),
                                             (math.nan, 1.0)])
    def test_ray_rejects_non_finite_times(self, t_min, t_max):
        with pytest.raises(ValueError):
            _ray_edges(t_min, t_max)

    def test_ray_panel_bound(self):
        # the ray ends near sqrt(40 / t_min) and its far panels double, so
        # t_min = 1e-300 needs about 500 panels; a top past the largest
        # double is refused before any edge exists
        for t_min in (1.8e-4, 1e-4, 1e-300):
            for t_max in (t_min, 1.0, 1e4):
                edges = _ray_edges(t_min, t_max)
                assert edges.size - 1 <= 600
                assert np.all(np.isfinite(edges))
                assert np.all(np.diff(edges) > 0)
        with pytest.raises(ValueError, match="largest double"):
            _ray_edges(5e-324, 1.0)

    def test_small_time_warns(self):
        with pytest.warns(RuntimeWarning):
            background_integral(0.5, 0.01, box_mode(1), W10)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(gamow_expansion, "BACKGROUND_TOLERANCE", 1e-28)
        with pytest.raises(QuadratureNotConverged) as info:
            background_integral(0.5, 5.0, box_mode(1), W10)
        assert info.value.estimate > 1e-28

    def test_error_estimate_small(self):
        # the control rule agrees with the main rule far below the default
        # tolerance over the whole range of one ray rule
        times = np.geomspace(0.02, 1e6, 9)
        rot = RotatedExpansion(np.linspace(0.0, 1.0, 9), box_mode(1), W100,
                               times[0], times[-1])
        values, err = rot.background(times)
        assert np.all(err < 1e-12)
        assert np.all(err <= 1e-10 * np.max(np.abs(values), axis=1))

    def test_range_rule_matches_single_time_rule(self):
        x = np.linspace(0.1, 1.0, 4)
        rot = RotatedExpansion(x, box_mode(3), W30, 0.05, 1e4)
        for t in (0.05, 3.0, 1e4):
            single = background_integral(x, t, box_mode(3), W30)
            assert np.allclose(rot.background(t)[0][0], single, rtol=1e-11,
                               atol=0.0)

    def test_long_grid_matches_its_blocks(self):
        # psi splits a long time grid into TIME_BLOCK blocks itself
        times = np.geomspace(0.05, 1e3, 2 * TIME_BLOCK + 5)
        rot = RotatedExpansion(np.linspace(0.0, 1.0, 9), box_mode(1), W10,
                               times[0], times[-1])
        blocks = [rot.psi(times[i:i + TIME_BLOCK])
                  for i in range(0, times.size, TIME_BLOCK)]
        assert np.array_equal(rot.psi(times), np.concatenate(blocks))


def old_ray_edges(t_min, t_max):
    """The ray layout before the rule was sized by its integrand: run out
    to where exp(-s^2 t_min) beats an assumed exp(sqrt(2) s) growth of f
    by e^-40, each edge 1.5 times the one before, panels at most 2 long."""
    c = math.sqrt(2.0) / math.sqrt(t_min)
    top = 0.5 * (c + math.sqrt(c * c + 160.0)) / math.sqrt(t_min)
    edges = [0.0, min(0.5 / math.sqrt(t_max), 2.0, top)]
    while edges[-1] < top:
        edges.append(min(edges[-1] + min(0.5 * edges[-1], 2.0), top))
    return np.asarray(edges)


RAY_PROFILES = {"box1": box_mode(1), "box3": box_mode(3),
                "gauss1": truncated_gaussian(0.5, 0.06),
                "gauss2": truncated_gaussian(0.6, 0.05)}


class TestRaySizing:
    @pytest.mark.parametrize("name", RAY_PROFILES)
    def test_integrand_grows_at_most_linearly(self, name):
        # the premise of the ray's top: A Abar's e^{-sqrt 2 s} cancels
        # phi's and sin's e^{s/sqrt 2} each (measured worst ratio 0.32)
        s = np.linspace(0.0, 450.0, 4501)
        for lam in (0.5, 1.0, 10.0, 100.0, 1000.0):
            f = integrand_f(cmath.exp(-0.25j * math.pi) * s, [0.0, 0.5, 1.0],
                            RAY_PROFILES[name], WellParameters(lam))
            assert np.all(np.abs(f) <= np.maximum(s, 1.0)[:, None]), lam

    @pytest.mark.parametrize("t_min,t_max", [(0.02, 0.02), (0.0218, 457366.0),
                                             (1.3, 4e5)])
    def test_matches_old_layout(self, monkeypatch, t_min, t_max):
        x = well_rule()[0]
        times = np.geomspace(t_min, t_max, 7)
        for p in (box_mode(1), truncated_gaussian(0.4, 0.05)):
            for lam in (0.5, 10.0, 1000.0):
                w = WellParameters(lam)
                rot = RotatedExpansion(x, p, w, t_min, t_max)
                new, err = rot.background(times)
                with monkeypatch.context() as m:
                    m.setattr(gamow_expansion, "_ray_edges", old_ray_edges)
                    old = RotatedExpansion(x, p, w, t_min,
                                           t_max).background(times)[0]
                scale = np.max(np.abs(new + rot.residue_sum(times)), axis=1,
                               keepdims=True)
                assert np.all(np.abs(new - old) <= 1e-14 * scale), lam
                assert np.all(err <= 1e-11), lam

    @pytest.mark.parametrize("t_min,t_max", [(0.0218, 457366.0),
                                             (0.055, 0.055)])
    def test_a_third_of_old_rows(self, t_min, t_max):
        # both rules put the same 16 + 12 rows of f on every panel
        panels = _ray_edges(t_min, t_max).size - 1
        assert panels <= (old_ray_edges(t_min, t_max).size - 1) / 3


class TestEvolveRotated:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_matches_direct_representation(self, lam):
        w = WellParameters(lam=lam)
        p = box_mode(1)
        grid = np.linspace(0.0, 1.0, 65)
        t = tau1(w)
        d = evolve_direct(p, t, grid, w)
        r = evolve_rotated(p, t, grid, w)
        assert np.max(np.abs(d.psi - r.psi)) < 1e-6

    def test_single_residue_gives_exponential(self):
        # at 5 tau1 the n=1 term alone carries the whole inside norm
        w, p = W100, box_mode(1)
        t = 5.0 * tau1(w)
        x, wx = well_rule()
        rot = RotatedExpansion(x, p, w, t, t)
        residues = rot.residues
        kn = residues.poles.k[0]
        psi1 = rot.mode_values[0] * np.exp(-1j * kn * kn * t)
        P1 = float(wx @ np.abs(psi1) ** 2)
        expect = residues.weights[0] * math.exp(-t / residues.poles.tau[0])
        assert P1 == pytest.approx(expect, rel=0.01)
        P_full = float(wx @ np.abs(evolve_rotated(p, t, x, w).psi) ** 2)
        assert P_full == pytest.approx(expect, rel=0.01)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError,
                           match=r"^rotated representation requires t > 0$"):
            evolve_rotated(box_mode(1), 0.0, np.linspace(0.0, 1.0, 65), W100)

    def test_total_is_background_plus_residues(self):
        t = tau1(W10)
        grid = np.linspace(0.0, 1.0, 65)
        rot = RotatedExpansion(grid, box_mode(1), W10, t, t)
        rebuilt = rot.background(t)[0][0] + rot.residue_sum(t)[0]
        ws = evolve_rotated(box_mode(1), t, grid, W10)
        assert np.allclose(rebuilt, ws.psi, rtol=0, atol=1e-15)

    def test_residue_sum_rounding(self):
        # the pole sum reaches |k_n^2 t| ~ 4e3 here; against phases and a
        # sum in extended precision, psi keeps to the rounding of its terms
        w, t = W100, 1.0
        grid = np.linspace(0.0, 1.0, 65)
        rot = RotatedExpansion(grid, box_mode(3), w, t, t)
        k = rot.residues.poles.k.astype(np.clongdouble)
        phase = np.exp(-1j * (k * k) * np.longdouble(t))
        ref = (rot.background(t)[0][0].astype(np.clongdouble)
               + phase @ rot.mode_values.astype(np.clongdouble))
        psi = evolve_rotated(box_mode(3), t, grid, w).psi
        assert np.max(np.abs(psi - ref)) < 1e-14

    def test_sector_discipline(self):
        for kn in residue_terms(box_mode(1), W10, 40.0).poles.k:
            assert -math.pi / 4 < cmath.phase(kn) < 0


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
        x, wx = well_rule()
        P_full = float(wx @ np.abs(evolve_rotated(p, t, x, W10).psi) ** 2)
        assert nonescape_asymptote(t, p, W10) == pytest.approx(P_full, rel=0.25)

    def test_lambda_scaling(self):
        p = box_mode(1)
        w20 = WellParameters(lam=20.0)
        ratio = nonescape_asymptote(100.0, p, w20) / nonescape_asymptote(
            100.0, p, W10)
        assert ratio == pytest.approx((11.0 / 21.0) ** 4, rel=1e-12)


def mp_crossing(log_c, rate, log_k, s, lo, hi):
    """Root of log c - rate t = log K + s ln t in [lo, hi], bracketed in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        return float(mpmath.findroot(
            lambda t: log_c - rate * t - log_k - s * mpmath.log(t),
            (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson"))


class TestCrossingTime:
    @pytest.mark.parametrize("args", [
        (-0.02, 1.0 / 17.0, -9.0, s, 17.0, 1.7e5) for s in (-3.15, -3.0,
                                                             -2.85, 0.5)
    ] + [
        # nearly flat power laws far below the exponential
        (0.0, 1.0, -50.0, -0.01, 1.0, 1e4),
        (0.0, 1.0, -50.0, 0.01, 1.0, 1e4),
    ], ids=["-3.15", "-3.0", "-2.85", "0.5", "degenerate",
            "degenerate-rising"])
    def test_matches_mpmath_root(self, args):
        assert crossing_time(*args) == pytest.approx(mp_crossing(*args),
                                                     rel=1e-14)

    def test_matches_mpmath_root_on_random_brackets(self):
        # 200 seeded brackets up to 1e6 wide, a third each with s < 0,
        # s = 0 and s > 0, and rate t at the root from 1e-3 to 1e3
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 200:
            s = (-1.0, 0.0, 1.0)[checked % 3] * rng.uniform(0.0, 5.0)
            lo = 10.0 ** rng.uniform(-2.0, 2.0)
            hi = lo * 10.0 ** rng.uniform(0.1, 6.0)
            t0 = lo * (hi / lo) ** rng.uniform(0.05, 0.95)
            rate = 10.0 ** rng.uniform(-3.0, 3.0) / t0
            log_c = rng.uniform(-5.0, 5.0)
            # log K puts a root of the gap at t0, the bracket's only root
            # when the gap changes sign between lo and hi
            log_k = log_c - rate * t0 - s * math.log(t0)
            gap = [log_c - rate * t - log_k - s * math.log(t) for t in (lo, hi)]
            if not gap[0] > 0.0 > gap[1]:
                continue
            args = (log_c, rate, log_k, s, lo, hi)
            assert crossing_time(*args) == pytest.approx(mp_crossing(*args),
                                                         rel=1e-14), args
            checked += 1

    @pytest.mark.parametrize("w", [W10, W100], ids=["lam10", "lam100"])
    def test_theory_crossover_matches_mpmath_root(self, w):
        p = box_mode(1)
        res = crossover_time(p, w)
        tau = res["tau1"]
        ref = mp_crossing(math.log(res["c1"]), 1.0 / tau,
                          math.log(nonescape_asymptote(1.0, p, w)), -3.0,
                          tau, 1e4 * tau)
        assert res["t_star"] == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 0.0, -3.0, 1.0, 1e4),    # tail above at lo
        (0.0, 1.0, -10.0, -3.0, 1.0, 10.0),  # exponential above at hi
        (math.nan, 1.0, -10.0, -3.0, 1.0, 1e4),
    ], ids=["below-at-lo", "above-at-hi", "nan"])
    def test_no_crossing(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoCrossing):
                crossing_time(*args)


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
