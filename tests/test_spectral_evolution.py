"""Continuum eigenfunctions, the real-axis spectral evolution, and the
inside/outside/tail unitarity decomposition."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from gamow_lab import spectral_evolution
from gamow_lab.potential_model import (
    WellParameters,
    coefficient_A,
    coefficient_B,
)
from gamow_lab.profiles import box_mode, overlap_transform, truncated_gaussian
from gamow_lab.quadrature import MAIN_ORDER, panel_nodes
from gamow_lab.spectral_evolution import (
    _audit_series,
    _direct_sum,
    _evolve_direct_raw,
    _kink_tail_t0,
    _spectral_edges,
    _tail_correction,
    _unit_phases,
    direct_cutoff,
    evolve_direct,
    pole_cutoff,
    resonances,
    audit_cutoff,
    spectral_tail_mass,
    unitarity_audit,
    well_rule,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def tau1(w):
    return resonances(w, 40.0).tau[0]


def norm_in_well(psi, w):
    """int_0^1 |psi|^2 dx on the well rule, psi given at its nodes."""
    _, wx = well_rule()
    return float(wx @ np.abs(psi) ** 2)


class TestContinuumEigenfunction:
    """The continuum eigenfunction is A(k) sin(kx) inside the well and
    e^{-ikx} + B(k) e^{ikx} outside (times 1/sqrt(2pi))."""

    def test_continuity_at_barrier(self):
        # interior and exterior branches agree at x = a
        for k in (1.0, 2.5, 7.3):
            inside = coefficient_A(k, W100) * math.sin(k)
            outside = (cmath.exp(-1j * k)
                       + coefficient_B(k, W100) * cmath.exp(1j * k))
            assert inside == pytest.approx(outside, rel=1e-10)

    def test_branch_match_relative(self):
        k = 1.0
        left = coefficient_A(k, W100) * math.sin(k)
        B = -np.conj(1 + 100 * np.exp(1j) * np.sin(1)) / (
            1 + 100 * np.exp(1j) * np.sin(1))
        right = np.exp(-1j) + B * np.exp(1j)
        assert left == pytest.approx(right, rel=1e-12)

    def test_derivative_jump(self):
        # psi'(a+) - psi'(a-) = (lam/a) psi(a)
        k = 2.0
        A, B = coefficient_A(k, W10), coefficient_B(k, W10)
        d_out = -1j * k * cmath.exp(-1j * k) + 1j * k * B * cmath.exp(1j * k)
        d_in = k * A * math.cos(k)
        assert d_out - d_in == pytest.approx(10.0 * A * math.sin(k), rel=1e-4)

    def test_hard_wall(self):
        assert coefficient_A(1.0, W100) * math.sin(1.0 * 0.0) == 0.0

    def test_exterior_value_oracle(self):
        with mpmath.workdps(40):
            k = mpmath.mpf(2)
            D = k + 10 * mpmath.exp(1j * k) * mpmath.sin(k)
            B = -(k + 10 * mpmath.exp(-1j * k) * mpmath.sin(k)) / D
            ref = complex(mpmath.exp(-6j) + B * mpmath.exp(6j))
        got = cmath.exp(-6j) + coefficient_B(2.0, W10) * cmath.exp(6j)
        assert got == pytest.approx(ref, rel=1e-12)


class TestEvolveDirect:
    def test_completeness_at_t0(self):
        grid = np.linspace(0.0, 1.0, 257)
        ws = evolve_direct(box_mode(1), 0.0, grid, W100)
        ref = np.sqrt(2.0) * np.sin(np.pi * grid)
        assert np.max(np.abs(ws.psi - ref)) < 1e-4

    def test_completeness_gaussian(self):
        p = truncated_gaussian(0.5, 0.08)
        grid = np.linspace(0.0, 1.0, 257)
        ws = evolve_direct(p, 0.0, grid, W10)
        assert np.max(np.abs(ws.psi - p(grid))) < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exponential_norm_decay(self):
        t1 = tau1(W100)
        x, _ = well_rule()
        ws = evolve_direct(box_mode(1), t1, x, W100)
        assert norm_in_well(ws.psi, W100) == pytest.approx(math.exp(-1.0),
                                                           rel=0.02)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_direct(box_mode(1), -1.0, np.linspace(0.0, 1.0, 257), W100)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            evolve_direct(box_mode(1), t, np.linspace(0.0, 1.0, 65), W10)

    def test_rejects_grid_outside_well(self):
        with pytest.raises(ValueError):
            evolve_direct(box_mode(1), 0.1, np.array([0.0, 0.5, 1.5]), W100)

    def test_time_reversal_of_real_profile(self):
        # for real initial data, psi(x, -t) = conj(psi(x, t))
        grid = np.linspace(0.0, 1.0, 65)
        fwd, _ = _evolve_direct_raw(box_mode(1), 0.3, grid, W10)
        bwd, _ = _evolve_direct_raw(box_mode(1), -0.3, grid, W10)
        assert np.max(np.abs(bwd - np.conj(fwd))) < 2e-7

    def test_long_time_warning(self):
        with pytest.warns(RuntimeWarning):
            evolve_direct(box_mode(1), 60.0, np.linspace(0.0, 1.0, 65), W10)

    def test_one_pole_lookup_per_call(self, monkeypatch):
        # the main and control rules share one panel layout
        calls = []

        def counting(w, k_max):
            calls.append(k_max)
            return resonances(w, k_max)

        monkeypatch.setattr(spectral_evolution, "resonances", counting)
        evolve_direct(box_mode(1), 0.5, np.linspace(0.0, 1.0, 65), W10)
        assert len(calls) == 1


def dense_direct(p, t, x, w):
    """The oracle for the direct route's main rule: (1/2pi) sum_j w_j
    e^{-ik_j^2 t} phi(k_j) |A(k_j)|^2 sin(k_j x) as one dense sine matrix
    on the route's own panels, phi from the profile's 1024-node rule, plus
    the tail."""
    k_max = direct_cutoff(w, t)
    k, wk = panel_nodes(_spectral_edges(w, t, k_max), MAIN_ORDER)
    c = (wk * overlap_transform(p, k) * np.abs(coefficient_A(k, w)) ** 2
         / (2.0 * math.pi) * np.exp(-1j * k * k * t))
    tail = (_tail_correction(p, k_max, t, x, w) if t else
            _kink_tail_t0(p, k_max, x))
    return c @ np.sin(np.outer(k, x)) + tail


class TestPanelSums:
    @pytest.mark.parametrize("profile", [box_mode(1),
                                         truncated_gaussian(0.5, 0.06)],
                             ids=["box1", "gauss"])
    def test_direct_psi_matches_dense_sum(self, profile):
        x = np.linspace(0.0, 1.0, 17)
        for t in (0.0, 0.05 * tau1(W100), tau1(W100)):
            psi, _ = _evolve_direct_raw(profile, t, x, W100)
            assert np.max(np.abs(psi - dense_direct(profile, t, x, W100))) \
                < 1e-12

    @pytest.mark.parametrize("profile", [box_mode(1),
                                         truncated_gaussian(0.5, 0.05)],
                             ids=["box1", "gauss"])
    def test_audit_interior_matches_dense_rule(self, profile):
        # the audit's midpoint rule, summed densely on 256 Gauss nodes
        t = tau1(W10) / 10.0
        audit = unitarity_audit(profile, t, W10)
        dk = audit["dk"]
        k = (np.arange(round(audit_cutoff(profile) / dk)) + 0.5) * dk
        A = coefficient_A(k, W10)
        c = (np.exp(-1j * k * k * t) * np.abs(A) ** 2
             * overlap_transform(profile, k) * dk / (2.0 * math.pi))
        x, wx = panel_nodes(np.array([0.0, 1.0]), 256)
        inside = wx @ np.abs(c @ np.sin(np.outer(k, x))) ** 2
        assert abs(audit["inside"] - inside) < 1e-13


class TestDirectChunks:
    W = WellParameters(26.2)

    @pytest.mark.parametrize("t", [0.0, 0.0186, 0.5])
    @pytest.mark.parametrize("profile", [box_mode(2),
                                         truncated_gaussian(0.5, 0.06)],
                             ids=["box2", "gauss"])
    def test_chunk_size_leaves_psi(self, monkeypatch, profile, t):
        # the main and control sums with one panel per chunk and with all
        # panels in one chunk agree with the default chunks.  One panel
        # per chunk costs about a millisecond a panel, so that case runs
        # on the route's first 256 and last 128 panels (the dyadic cells,
        # the spikes and the top lattice cells), joined by one wide panel
        w = self.W
        x, _ = well_rule()
        edges = _spectral_edges(w, t, direct_cutoff(w, t))
        for chunk, panels in ((1, np.r_[edges[:257], edges[-129:]]),
                              (edges.size, edges)):
            default = _direct_sum(profile, t, x, w, panels)
            monkeypatch.setattr(spectral_evolution, "_CHUNK_PANELS", chunk)
            got = _direct_sum(profile, t, x, w, panels)
            monkeypatch.undo()
            for g, d in zip(got, default):
                assert np.max(np.abs(g - d)) <= 1e-14 * np.max(np.abs(d))

    def test_peak_memory_flat_in_t(self):
        # the direct route holds one chunk of nodes at a time: at
        # t = 0.0186 a^2 (885,584 nodes; 57 MiB when every node was held
        # at once) its traced peak stays below 8 MiB and within 1 MiB of
        # the peak at t = 0.3 (measured 4.1 and 3.6 MiB)
        w = WellParameters(26.2033)
        x, _ = well_rule()
        peaks = []
        for t in (0.0186321, 0.3):
            resonances(w, direct_cutoff(w, t))
            tracemalloc.start()
            try:
                evolve_direct(box_mode(2), t, x, w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 8 * 2 ** 20
        assert abs(peaks[0] - peaks[1]) <= 2 ** 20


class TestPoleCutoff:
    @pytest.mark.parametrize("lam", [10.0, 100.0, 250.0])
    def test_dropped_poles_have_decayed(self, lam):
        # below k a = lam the poles are narrow, |Im k| a ~ (k a / lam)^2
        w = WellParameters(lam=lam)
        for t in (0.02, 0.3, 3.26, 30.0):
            k_max = pole_cutoff(w, t)
            k = resonances(w, 2.0 * k_max).k
            dropped = k[k.real >= k_max]
            assert dropped.size
            assert np.max(np.exp((dropped * dropped).imag * t)) < 1e-14


class TestNormInside:
    def test_initial_norm(self):
        x, _ = well_rule()
        ws = evolve_direct(box_mode(1), 0.0, x, W100)
        # quadrature-limited reconstruction, not exactly the profile
        assert norm_in_well(ws.psi, W100) == pytest.approx(1.0, abs=1e-4)

    def test_profile_norm_exact(self):
        x, _ = well_rule()
        assert norm_in_well(box_mode(1)(x), W100) == pytest.approx(1.0,
                                                                  abs=1e-10)


class TestUnitarity:
    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_norm_conserved(self, lam):
        w = WellParameters(lam=lam)
        t1 = tau1(w)
        for t in (0.0, t1 / 10.0, t1, 5.0 * t1):
            audit = unitarity_audit(box_mode(1), t, w)
            assert abs(audit["total"] - 1.0) < 1e-6

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="finite and >= 0"):
            unitarity_audit(box_mode(1), t, W10)

    def test_narrow_gaussian_closes(self):
        # the spectrum of a width-0.05 a Gaussian reaches past 40/a; the
        # cutoff follows |phi|^2 instead
        p = truncated_gaussian(0.5, 0.05)
        assert audit_cutoff(p) == 120.0
        for t in (0.0, tau1(W10) / 10.0):
            audit = unitarity_audit(p, t, W10)
            assert abs(audit["total"] - 1.0) < 1e-6

    def test_kinked_profile_keeps_default_cutoff(self):
        # a box mode's |phi|^2 ~ 1/k^4 is left to spectral_tail_mass
        assert audit_cutoff(box_mode(1)) == 40.0
        assert audit_cutoff(box_mode(2)) == 40.0

    @pytest.mark.parametrize("profile", [box_mode(1),
                                         truncated_gaussian(0.5, 0.05)],
                             ids=["box1", "gauss"])
    @pytest.mark.parametrize("t", [0.0, 0.1], ids=["t0", "tau_over_10"])
    def test_audit_exterior_matches_dense_rule(self, profile, t):
        # psi_out = sum_j c_j (e^{-ik_j x} + B_j e^{ik_j x}) on the audit's
        # midpoints, |psi_out|^2 on Gauss panels of [a, x_hi]: order
        # k_max/2 + 20 per unit width resolves its top frequency 2 k_max
        t *= tau1(W10)
        audit = unitarity_audit(profile, t, W10)
        dk, x_hi = audit["dk"], audit["x_hi"]
        k_max = audit_cutoff(profile)
        k = (np.arange(round(k_max / dk)) + 0.5) * dk
        c = (np.exp(-1j * k * k * t) * np.conj(coefficient_A(k, W10))
             * overlap_transform(profile, k) * dk / (2.0 * math.pi))
        cB = c * coefficient_B(k, W10)
        # psi_out = cos(kx) @ (c + cB) + i sin(kx) @ (cB - c), on real BLAS
        u = np.column_stack([(c + cB).real, (c + cB).imag])
        v = np.column_stack([(cB - c).real, (cB - c).imag])
        edges = np.linspace(1.0, x_hi, math.ceil(x_hi - 1.0) + 1)
        x, wx = panel_nodes(edges, int(k_max / 2) + 20)
        outside = 0.0
        for s in range(0, x.size, 256):
            kx = np.outer(x[s:s + 256], k)
            re = np.cos(kx) @ u
            im = np.sin(kx) @ v
            outside += wx[s:s + 256] @ ((re[:, 0] - im[:, 1]) ** 2
                                        + (re[:, 1] + im[:, 0]) ** 2)
        # the two sums agree to 5.6e-16 at most over these four cases
        assert abs(audit["outside"] - outside) < 5e-15

    def test_exterior_coefficients_in_one_order(self):
        # c B bit for bit as c times a named B: a temporary B on the right
        # lets numpy reuse it and swap the complex factors, whose product
        # then differs in the last bit from run to run of the harness
        n, dk, t = 40_000, 1e-3, 0.3
        x_in, _ = well_rule()
        k = (np.arange(n) + 0.5) * dk
        _, c, c_b = _audit_series(box_mode(1), t, W10, dk, n, x_in)
        B = coefficient_B(k, W10)
        assert np.array_equal(c_b, c * B)

    def test_unit_phases_match_exp(self):
        # the audit's window phases from two tables against e^{i nu theta}
        # in 30 digits, at the lambda = 100 audit's mode count and a window
        # end where nu theta reaches 1.2e6: within a few roundings of the
        # argument nu theta, as one exp per mode is
        m, theta = 839_808, 0.02868 * 50.0
        got = _unit_phases(theta, m)
        nu = np.r_[1:40, np.random.default_rng(4).integers(1, m, 200),
                   m - 40:m + 1]
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.expj(mpmath.mpf(theta) * int(v)))
                            for v in nu])
        assert np.all(np.abs(got[nu - 1] - ref)
                      <= 8 * 2.0 ** -53 * theta * nu + 1e-15)

    def test_exterior_peak_memory(self):
        # lambda = 100, box:1: n = 418,347 midpoints, nf = 1,679,616 (the
        # smallest even 5-smooth length >= 4n, below 2**21); the peak is
        # the FFT's input and output, two complex arrays of nf
        resonances(W100, audit_cutoff(box_mode(1)))
        tracemalloc.start()
        try:
            unitarity_audit(box_mode(1), 0.0, W100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 2 ** 21

    def test_wide_window_gaussian_closes(self):
        # lambda = 100 at t = 2 with k_max = 120/a: nf = 2**23 points
        audit = unitarity_audit(truncated_gaussian(0.5, 0.06), 2.0, W100)
        assert abs(audit["total"] - 1.0) < 1e-6

    def test_tail_mass_scaling(self):
        # the above-cutoff mass falls like 1/k_max^3
        m40 = spectral_tail_mass(box_mode(1), W10, 40.0)
        m80 = spectral_tail_mass(box_mode(1), W10, 80.0)
        assert m40 / m80 == pytest.approx(8.0, rel=0.25)
