"""Continuum eigenfunctions, the real-axis spectral evolution, and the
inside/outside/tail unitarity decomposition."""

import math

import mpmath
import numpy as np
import pytest

from gamow_lab.exceptions import GridTooCoarse
from gamow_lab.potential_model import WellParameters, coefficient_A
from gamow_lab.profiles import box_mode, truncated_gaussian
from gamow_lab.spectral_evolution import (
    WaveState,
    _evolve_direct_raw,
    continuum_eigenfunction,
    evolve_direct,
    norm_inside,
    pole_cutoff,
    resonances,
    spectral_tail_mass,
    unitarity_audit,
    well_grid,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def tau1(w):
    return resonances(w, 40.0)[0].tau


class TestContinuumEigenfunction:
    def test_continuity_at_barrier(self):
        # interior and exterior branches agree at x = a
        for k in (1.0, 2.5, 7.3):
            inside = coefficient_A(k, W100) * math.sin(k * 1.0) / math.sqrt(
                2 * math.pi)
            outside = continuum_eigenfunction(k, 1.0 + 1e-12, W100)
            assert abs(inside - outside * (2 * math.pi) ** 0 / 1.0) \
                / abs(outside) < 1e-10 or abs(
                continuum_eigenfunction(k, 1.0, W100) - outside) < 1e-10

    def test_branch_match_relative(self):
        k = 1.0
        left = continuum_eigenfunction(k, 1.0, W100)
        B = -np.conj(1 + 100 * np.exp(1j) * np.sin(1)) / (
            1 + 100 * np.exp(1j) * np.sin(1))
        right = (np.exp(-1j) + B * np.exp(1j)) / math.sqrt(2 * math.pi)
        assert left == pytest.approx(right, rel=1e-12)

    def test_derivative_jump(self):
        # psi'(a+) - psi'(a-) = (lam/a) psi(a)
        k, h = 2.0, 1e-6
        d_out = (continuum_eigenfunction(k, 1.0 + h, W10)
                 - continuum_eigenfunction(k, 1.0 + 1e-15, W10)) / h
        d_in = (continuum_eigenfunction(k, 1.0, W10)
                - continuum_eigenfunction(k, 1.0 - h, W10)) / h
        jump = d_out - d_in
        assert jump == pytest.approx(
            10.0 * continuum_eigenfunction(k, 1.0, W10), rel=1e-4)

    def test_hard_wall(self):
        assert continuum_eigenfunction(1.0, 0.0, W100) == 0.0

    def test_exterior_value_oracle(self):
        with mpmath.workdps(40):
            k = mpmath.mpf(2)
            D = k + 10 * mpmath.exp(1j * k) * mpmath.sin(k)
            B = -(k + 10 * mpmath.exp(-1j * k) * mpmath.sin(k)) / D
            ref = complex((mpmath.exp(-6j) + B * mpmath.exp(6j))
                          / mpmath.sqrt(2 * mpmath.pi))
        assert continuum_eigenfunction(2.0, 3.0, W10) == pytest.approx(
            ref, rel=1e-12)


class TestEvolveDirect:
    def test_completeness_at_t0(self):
        grid = well_grid(W100, 257)
        ws = evolve_direct(box_mode(1), 0.0, grid, W100)
        ref = np.sqrt(2.0) * np.sin(np.pi * grid)
        assert np.max(np.abs(ws.psi - ref)) < 1e-4

    def test_completeness_gaussian(self):
        p = truncated_gaussian(0.5, 0.08)
        grid = well_grid(W10, 257)
        ws = evolve_direct(p, 0.0, grid, W10)
        assert np.max(np.abs(ws.psi - p(grid))) < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exponential_norm_decay(self):
        t1 = tau1(W100)
        ws = evolve_direct(box_mode(1), t1, well_grid(W100, 257), W100)
        assert norm_inside(ws, W100) == pytest.approx(math.exp(-1.0), rel=0.02)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_direct(box_mode(1), -1.0, well_grid(W100), W100)

    def test_rejects_grid_outside_well(self):
        with pytest.raises(ValueError):
            evolve_direct(box_mode(1), 0.1, np.array([0.0, 0.5, 1.5]), W100)

    def test_time_reversal_of_real_profile(self):
        # for real initial data, psi(x, -t) = conj(psi(x, t))
        grid = well_grid(W10, 65)
        fwd, _ = _evolve_direct_raw(box_mode(1), 0.3, grid, W10)
        bwd, _ = _evolve_direct_raw(box_mode(1), -0.3, grid, W10)
        assert np.max(np.abs(bwd - np.conj(fwd))) < 2e-7

    def test_long_time_warning(self):
        with pytest.warns(RuntimeWarning):
            evolve_direct(box_mode(1), 60.0, well_grid(W10, 65), W10)


class TestPoleCutoff:
    @pytest.mark.parametrize("lam", [10.0, 100.0, 250.0])
    def test_dropped_poles_have_decayed(self, lam):
        # below k a = lam the poles are narrow, |Im k| a ~ (k a / lam)^2
        w = WellParameters(lam=lam)
        for t in (0.02, 0.3, 3.26, 30.0):
            k_max = pole_cutoff(w, t)
            dropped = [r for r in resonances(w, 2.0 * k_max)
                       if r.k.real >= k_max]
            assert dropped
            assert max(math.exp((r.k * r.k).imag * t)
                       for r in dropped) < 1e-14


class TestNormInside:
    def test_initial_norm(self):
        ws = evolve_direct(box_mode(1), 0.0, well_grid(W100, 257), W100)
        # quadrature-limited reconstruction, not exactly the profile
        assert norm_inside(ws, W100) == pytest.approx(1.0, abs=1e-4)

    def test_profile_norm_exact(self):
        grid = well_grid(W100, 257)
        p = box_mode(1)
        ws = WaveState(x=grid, psi=p(grid).astype(complex), t=0.0,
                       method="direct")
        assert norm_inside(ws, W100) == pytest.approx(1.0, abs=1e-10)

    def test_zero_state(self):
        grid = well_grid(W100, 257)
        ws = WaveState(x=grid, psi=np.zeros_like(grid, dtype=complex),
                       t=0.0, method="direct")
        assert norm_inside(ws, W100) == 0.0

    def test_too_few_nodes(self):
        grid = well_grid(W100, 33)
        ws = WaveState(x=grid, psi=np.zeros_like(grid, dtype=complex),
                       t=0.0, method="direct")
        with pytest.raises(GridTooCoarse):
            norm_inside(ws, W100)


class TestUnitarity:
    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_norm_conserved(self, lam):
        w = WellParameters(lam=lam)
        t1 = tau1(w)
        for t in (0.0, t1 / 10.0, t1, 5.0 * t1):
            audit = unitarity_audit(box_mode(1), t, w)
            assert abs(audit["total"] - 1.0) < 1e-6

    def test_tail_mass_scaling(self):
        # the above-cutoff mass falls like 1/k_max^3
        m40 = spectral_tail_mass(box_mode(1), W10, 40.0)
        m80 = spectral_tail_mass(box_mode(1), W10, 80.0)
        assert m40 / m80 == pytest.approx(8.0, rel=0.25)
