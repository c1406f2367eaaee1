"""Nonescape curves, barrier flux, and regime fits."""

import math

import numpy as np
import pytest

from gamow_lab import decay_analysis, gamow_expansion
from gamow_lab.decay_analysis import (
    DecayCurve,
    POINTS_PER_DECADE,
    TIME_BLOCK,
    fit_exponential,
    fit_tail_exponent,
    flux_derivative,
    geometric_times,
    nonescape_curve,
    regime_report,
)
from gamow_lab.exceptions import (
    GridTooCoarse,
    WindowBeforeCrossover,
    WindowTooSmall,
)
from gamow_lab.potential_model import WellParameters
from gamow_lab.profiles import box_mode, truncated_gaussian
from gamow_lab.gamow_expansion import evolve_rotated
from gamow_lab.spectral_evolution import (
    WaveState,
    evolve_direct,
    resonances,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def tau1(w):
    return resonances(w, 40.0).tau[0]


class TestGeometricTimes:
    def test_density(self):
        t = geometric_times(1.0, 100.0)
        assert t.size == 2 * POINTS_PER_DECADE + 1
        assert t[0] == 1.0 and t[-1] == pytest.approx(100.0, rel=1e-12)
        ratios = np.diff(np.log(t))
        assert np.allclose(ratios, ratios[0])

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            geometric_times(5.0, 1.0)

    @pytest.mark.parametrize("per_decade", [0, -5])
    def test_rejects_density_below_one(self, per_decade):
        with pytest.raises(ValueError, match="points per decade"):
            geometric_times(1.0, 100.0, per_decade)

    @pytest.mark.parametrize("start,stop", [(1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_range(self, start, stop):
        with pytest.raises(ValueError):
            geometric_times(start, stop)


class TestDecayCurve:
    def test_invariants_over_exponential_era(self):
        w = W100
        times = np.concatenate([[0.0], np.linspace(0.3, 5.0, 12) * tau1(w)])
        curve = nonescape_curve(box_mode(1), times, w)
        assert curve.P[0] == 1.0
        assert np.all(np.diff(curve.P) <= 1e-8)
        assert np.all(curve.P >= 0.0)
        assert curve.methods[0] == "direct"
        assert curve.methods[-1] == "rotated"

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            DecayCurve(times=np.array([1.0, 0.5]), P=np.array([0.5, 0.4]),
                       methods=("rotated", "rotated"))

    def test_rejects_nonunit_start(self):
        with pytest.raises(ValueError):
            DecayCurve(times=np.array([0.0, 1.0]), P=np.array([0.9, 0.5]),
                       methods=("direct", "rotated"))

    def test_rejects_nan_P(self):
        with pytest.raises(ValueError):
            DecayCurve(times=np.array([1.0, 2.0]), P=np.array([0.5, math.nan]),
                       methods=("rotated", "rotated"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_policies_agree(self):
        w = W100
        t = np.array([tau1(w)])
        p_dir = nonescape_curve(box_mode(1), t, w, policy="direct")
        p_rot = nonescape_curve(box_mode(1), t, w, policy="rotated")
        assert p_dir.P[0] == pytest.approx(p_rot.P[0], rel=1e-6)


class TestDecayPlan:
    """nonescape_curve's plan for one curve: one well rule, one
    RotatedExpansion for the rotated times, evolve_direct for the rest."""

    def test_setup_independent_of_point_count(self, monkeypatch):
        # overlap_panels is the ray's phi pass
        calls = {"overlap_panels": 0, "residue_prefactor": 0}

        def counted(name):
            fn = getattr(gamow_expansion, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gamow_expansion, name, counted(name))
        counts = []
        for n in (5, 50):
            for name in calls:
                calls[name] = 0
            nonescape_curve(box_mode(1), np.geomspace(0.02, 1e3, n), W10)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert min(counts[0].values()) > 0

    @pytest.mark.parametrize("w", [W10, W100], ids=["lam10", "lam100"])
    def test_direct_and_rotated_agree(self, w):
        times = np.array([0.02, 0.05, 0.5])
        p_dir = nonescape_curve(box_mode(1), times, w, policy="direct")
        p_rot = nonescape_curve(box_mode(1), times, w, policy="rotated")
        assert p_dir.methods == ("direct",) * 3
        assert p_rot.methods == ("rotated",) * 3
        assert np.max(np.abs(p_dir.P - p_rot.P)) < 1e-9

    @pytest.mark.parametrize("w", [W10, W100], ids=["lam10", "lam100"])
    def test_one_call_matches_single_points(self, w):
        p = truncated_gaussian(0.5, 0.08)
        times = np.geomspace(0.02, 1e5, 15)
        curve = nonescape_curve(p, times, w)
        single = [nonescape_curve(p, [t], w).P[0] for t in times]
        assert np.allclose(curve.P, single, rtol=1e-12, atol=0.0)
        # a long grid crosses the rotated route's TIME_BLOCK boundaries
        times = np.geomspace(0.02, 1e5, 140)
        assert times.size > 2 * TIME_BLOCK
        curve = nonescape_curve(p, times, w)
        picks = [0, TIME_BLOCK - 1, TIME_BLOCK, 2 * TIME_BLOCK - 1,
                 2 * TIME_BLOCK, times.size - 1]
        single = [nonescape_curve(p, [times[i]], w).P[0] for i in picks]
        assert np.allclose(curve.P[picks], single, rtol=1e-12, atol=0.0)

    def test_direct_only_call_needs_no_rotated_setup(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rotated set-up on a direct-only call")

        monkeypatch.setattr(gamow_expansion, "overlap_panels", forbidden)
        monkeypatch.setattr(gamow_expansion, "residue_prefactor", forbidden)
        curve = nonescape_curve(box_mode(1), [0.0, 0.019], W10)
        assert curve.methods == ("direct", "direct")

    @pytest.mark.parametrize("times", [[], [math.nan, 1.0], [1.0, math.inf]],
                             ids=["empty", "nan", "inf"])
    def test_rejects_empty_or_non_finite_times(self, times):
        with pytest.raises(ValueError, match="finite and not empty"):
            nonescape_curve(box_mode(1), times, W10)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            nonescape_curve(box_mode(1), [1.0], W10, policy="both")


class TestFluxDerivative:
    @pytest.mark.parametrize("p", [box_mode(1), box_mode(2),
                                   truncated_gaussian(0.5, 0.08)])
    def test_vanishes_at_t_zero(self, p):
        grid = np.linspace(0.0, 1.0, 1025)
        ws = evolve_direct(p, 0.0, grid, W100)
        assert abs(flux_derivative(ws)) < 1e-8

    def test_matches_exponential_rate(self):
        w = W100
        poles = resonances(w, 4.0)
        t = poles.tau[0]
        ws = evolve_rotated(box_mode(1), t, np.linspace(0.0, 1.0, 1025), w)
        expect = -poles.gamma[0] * math.exp(-1.0)
        assert flux_derivative(ws) == pytest.approx(expect, rel=0.03)

    def test_integrates_back_to_norm_loss(self):
        w = W100
        t1 = tau1(w)
        ts = np.linspace(t1, 2.0 * t1, 9)
        grid = np.linspace(0.0, 1.0, 1025)
        flux = [flux_derivative(evolve_rotated(box_mode(1), t, grid, w))
                for t in ts]
        total = float(np.trapezoid(flux, ts))
        curve = nonescape_curve(box_mode(1), np.array([t1, 2.0 * t1]), w)
        dP = curve.P[1] - curve.P[0]
        assert total == pytest.approx(dP, rel=0.01)

    def test_zero_state_gives_zero(self):
        grid = np.linspace(0.0, 1.0, 1025)
        ws = WaveState(x=grid, psi=np.zeros_like(grid, dtype=complex))
        assert flux_derivative(ws) == 0.0

    def test_coarse_grid_rejected(self):
        grid = np.linspace(0.0, 1.0, 65)
        ws = evolve_direct(box_mode(1), 0.0, grid, W10)
        with pytest.raises(GridTooCoarse):
            flux_derivative(ws)


class TestSyntheticFits:
    def _curve(self, times, P):
        return DecayCurve(times=times, P=P,
                          methods=("synthetic",) * times.size)

    def test_exponential_fit_exact(self):
        t = np.linspace(1.0, 50.0, 20)
        curve = self._curve(t, 0.9 * np.exp(-0.01 * t))
        rate, c, resid = fit_exponential(curve, (1.0, 50.0))
        assert rate == pytest.approx(0.01, rel=1e-10)
        assert c == pytest.approx(0.9, rel=1e-10)
        assert resid < 1e-12

    def test_tail_fit_exact(self):
        t = np.geomspace(100.0, 1000.0, 20)
        curve = self._curve(t, t ** -3)
        s, icept, resid, half = fit_tail_exponent(curve, (100.0, 1000.0),
                                                  crossover=50.0)
        assert s == pytest.approx(-3.0, abs=1e-12)
        assert abs(icept) < 1e-10
        assert resid < 1e-12
        assert half < 1e-12

    def test_window_too_small(self):
        t = np.linspace(1.0, 50.0, 20)
        curve = self._curve(t, 0.9 * np.exp(-0.01 * t))
        with pytest.raises(WindowTooSmall):
            fit_exponential(curve, (1.0, 2.0))

    def test_window_before_crossover(self):
        t = np.geomspace(100.0, 1000.0, 20)
        curve = self._curve(t, t ** -3)
        with pytest.raises(WindowBeforeCrossover):
            fit_tail_exponent(curve, (100.0, 1000.0), crossover=500.0)


class TestPhysicalFits:
    def test_second_mode_decays_eight_times_faster(self):
        w = W100
        poles = resonances(w, 8.0)
        times = np.linspace(0.2, 1.0, 10) * poles.tau[1] * 5.0
        c2 = nonescape_curve(box_mode(2), times, w)
        rate, _, _ = fit_exponential(c2, (times[0], times[-1]))
        assert rate == pytest.approx(poles.gamma[1], rel=0.02)
        assert poles.gamma[1] / poles.gamma[0] == pytest.approx(8.0, rel=0.05)

    def test_memory_loss_of_initial_profile(self):
        # after a couple of lifetimes the decay rate no longer depends on
        # the initial state, only on the longest-lived resonance
        w = W100
        t1 = tau1(w)
        times = np.linspace(2.0 * t1, 5.0 * t1, 12)
        rates = []
        for p in (box_mode(1), truncated_gaussian(0.5, 0.08)):
            c = nonescape_curve(p, times, w)
            rate, _, _ = fit_exponential(c, (times[0], times[-1]))
            rates.append(rate)
        assert rates[0] == pytest.approx(rates[1], rel=0.02)


class TestRegimeReport:
    def test_lambda100(self):
        rep = regime_report(box_mode(1), W100)
        assert rep.gamma_fit == pytest.approx(rep.gamma1_exact, rel=0.02)
        assert rep.c_fit == pytest.approx(1.0, rel=0.05)
        assert rep.s_fit == pytest.approx(-3.0, abs=0.15)
        assert rep.t_star_measured > 10.0 * rep.tau1
        d = rep.as_dict()
        assert d["gamma_fit"] == rep.gamma_fit
        assert "t_star_measured" in d

    def test_requires_metastable(self):
        with pytest.raises(ValueError):
            regime_report(box_mode(1), WellParameters(lam=3.0))

    def test_one_rotated_expansion(self, monkeypatch):
        # both fit windows are read from one curve
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return gamow_expansion.RotatedExpansion(*args, **kwargs)

        monkeypatch.setattr(decay_analysis, "RotatedExpansion", counting)
        regime_report(box_mode(1), W10)
        assert len(built) == 1
