"""Continuum eigenfunctions, the real-axis spectral evolution, and the
inside/outside/tail unitarity decomposition."""

import cmath
import math
import sys
import threading
import time
import tracemalloc
import types

import mpmath
import numpy as np
import pytest

from gamow_lab import spectral_evolution
from gamow_lab.potential_model import (
    WellParameters,
    coefficient_A,
    coefficient_B,
    enumerate_poles,
    pole_cutoff,
)
from gamow_lab.profiles import box_mode, overlap_transform, truncated_gaussian
from gamow_lab.quadrature import MAIN_ORDER, panel_nodes
from gamow_lab.spectral_evolution import (
    _audit_series,
    _direct_sum,
    _evolve_direct_raw,
    _fft_length,
    _kink_tail_t0,
    _ordered_map,
    _phase_tables,
    _row_length,
    _spectral_edges,
    _tail_correction,
    direct_cutoff,
    evolve_direct,
    audit_cutoff,
    spectral_tail_mass,
    unitarity_audit,
    well_rule,
)

W100 = WellParameters(lam=100.0)
W10 = WellParameters(lam=10.0)


def tau1(w):
    return enumerate_poles(w, 40.0).tau[0]


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
            return enumerate_poles(w, k_max)

        monkeypatch.setattr(spectral_evolution, "enumerate_poles", counting)
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

    def test_peak_memory_flat_in_t(self, monkeypatch):
        # the direct route holds one chunk of nodes per worker at a time:
        # at t = 0.0186 a^2 (885,584 nodes; 57 MiB when every node was
        # held at once) its traced peak stays below 8 MiB and within 1 MiB
        # of the peak at t = 0.3, on two workers and on one.  How far two
        # chunks in flight overlap varies from call to call, so on two
        # workers each time takes the highest of five calls (measured
        # 5.3-5.6 and 4.8-5.0 MiB on two workers, 2.9 and 2.5 MiB on one)
        w = WellParameters(26.2033)
        x, _ = well_rule()
        peaks = {}
        for cpus, calls in ((2, 5), (1, 1)):
            monkeypatch.setattr(spectral_evolution, "_usable_cpus",
                                lambda: cpus)
            for t in (0.0186321, 0.3):
                enumerate_poles(w, direct_cutoff(w, t))
                for _ in range(calls):
                    tracemalloc.start()
                    try:
                        evolve_direct(box_mode(2), t, x, w)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    peaks[cpus, t] = max(peaks.get((cpus, t), 0), peak)
        for cpus in (2, 1):
            assert peaks[cpus, 0.0186321] <= 8 * 2 ** 20
            assert abs(peaks[cpus, 0.0186321] - peaks[cpus, 0.3]) <= 2 ** 20


class TestOrderedMap:
    """_ordered_map's order and failure semantics, and the direct sum and
    the audit at one and at two workers; the tests substitute the usable
    CPU count."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(spectral_evolution, "_usable_cpus", lambda: n)

    def test_results_in_item_order(self, monkeypatch):
        # later items finish first
        self.cpus(monkeypatch, 2)

        def task(i):
            time.sleep(0.002 * (6 - i))
            return i * i

        assert _ordered_map(task, range(7)) == [i * i for i in range(7)]

    def test_every_task_runs_once_under_contention(self, monkeypatch):
        # four threads on small tasks, switching every microsecond (more
        # workers than this machine's cores): a lost or repeated claim of
        # an item breaks the call record or the results
        self.cpus(monkeypatch, 4)
        monkeypatch.setattr(spectral_evolution, "_MAX_WORKERS", 4)
        calls = []

        def task(i):
            calls.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _ordered_map(task, range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(2000)]
        assert sorted(calls) == list(range(2000))

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_raising_task_stops_the_map(self, monkeypatch, error):
        # the 3rd of 5 tasks raises (a KeyboardInterrupt in the caller's
        # thread, which runs tasks too): it reaches the caller once every
        # thread is joined, and no task after it starts
        self.cpus(monkeypatch, 2)
        started = []
        before = threading.active_count()

        def task(i):
            started.append(i)
            if i == 2:
                if error is KeyboardInterrupt:
                    assert threading.current_thread() is threading.main_thread()
                raise error("task 2")
            time.sleep(0.05)
            return i

        items = [0, 1, 2, 3, 4]
        if error is KeyboardInterrupt:
            # the caller's first task is the one that raises
            def task_in_caller(i):
                if threading.current_thread() is threading.main_thread():
                    return task(2)
                return task(i)

            run = task_in_caller
        else:
            run = task
        with pytest.raises(error, match="task 2"):
            _ordered_map(run, items)
        assert threading.active_count() == before
        assert 4 not in started

    @pytest.mark.parametrize("profile", [box_mode(2),
                                         truncated_gaussian(0.5, 0.06)],
                             ids=["box2", "gauss"])
    def test_direct_sum_bits_leave_out_the_workers(self, monkeypatch,
                                                   profile):
        w, t = WellParameters(26.2), 0.0186
        x, _ = well_rule()
        edges = _spectral_edges(w, t, direct_cutoff(w, t))
        assert math.ceil((edges.size - 1)
                         / spectral_evolution._CHUNK_PANELS) == 28
        sums = []
        for n in (1, 2):
            self.cpus(monkeypatch, n)
            sums.append(_direct_sum(profile, t, x, w, edges))
        assert all(np.array_equal(a, b) for a, b in zip(*sums))

    def test_audit_leaves_out_the_workers(self, monkeypatch):
        # all six fields, outside included, agree exactly: the branches'
        # shares are added in branch order
        audits = []
        for n in (1, 2):
            self.cpus(monkeypatch, n)
            audits.append(unitarity_audit(box_mode(1), 0.530171, W100))
        assert len(audits[0]) == 6 and audits[0] == audits[1]


class TestPoleCutoff:
    @pytest.mark.parametrize("lam", [10.0, 100.0, 250.0])
    def test_dropped_poles_have_decayed(self, lam):
        # below k a = lam the poles are narrow, |Im k| a ~ (k a / lam)^2
        w = WellParameters(lam=lam)
        for t in (0.02, 0.3, 3.26, 30.0):
            k_max = pole_cutoff(w, t)
            k = enumerate_poles(w, 2.0 * k_max).k
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

    def test_phase_tables_match_exp(self):
        # the audit's window phases from two tables against e^{i nu theta}
        # in 30 digits, at the lambda = 100 audit's mode count and a window
        # end where nu theta reaches 1.2e6: within a few roundings of the
        # argument nu theta, as one exp per mode is
        m, theta = 839_808, 0.02868 * 50.0
        cols = _row_length(m)
        big, small = _phase_tables(theta, m // cols + 1, cols)
        nu = np.r_[1:40, np.random.default_rng(4).integers(1, m, 200),
                   m - 40:m + 1]
        got = big[nu // cols] * small[nu % cols]
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.expj(mpmath.mpf(theta) * int(v)))
                            for v in nu])
        assert np.all(np.abs(got - ref)
                      <= 8 * 2.0 ** -53 * theta * nu + 1e-15)

    def test_row_length_is_the_largest_divisor_below_the_root(self):
        for m in (1, 2, 4, 12, 419_904, 5 ** 7, 2 ** 20, 839_808):
            cols = _row_length(m)
            assert m % cols == 0 and cols * cols <= m
            assert not any(m % d == 0
                           for d in range(cols + 1, math.isqrt(m) + 1))

    def test_exterior_peak_memory(self):
        # lambda = 100, box:1: n = 418,347 midpoints, nf = 1,679,616 (the
        # smallest 5-smooth multiple of 4 >= 4n, below 2**21); the peak is
        # c and c B with two branches in flight, each at its FFT of nf/4
        # points and that FFT's |.|^2 (measured 29.0-32.1 MiB; 44.8 MiB
        # when the branches were added into the nf/2 + 1 modes)
        enumerate_poles(W100, audit_cutoff(box_mode(1)))
        tracemalloc.start()
        try:
            unitarity_audit(box_mode(1), 0.0, W100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35.3 * 2 ** 20

    def test_exterior_ffts_are_quarter_length(self, monkeypatch):
        # the lambda = 100, box:1 audit (nf = 1,679,616) takes no FFT
        # longer than nf/4 = 419,904 points
        lengths = []

        def recorded(name):
            def call(a, **kwargs):
                lengths.append(len(a))
                return getattr(np.fft, name)(a, **kwargs)
            return call

        monkeypatch.setattr(spectral_evolution, "fft", types.SimpleNamespace(
            fft=recorded("fft"), rfft=recorded("rfft")))
        unitarity_audit(box_mode(1), 0.530171, W100)
        assert max(lengths) == 419_904

    @pytest.mark.parametrize("w, t, n, gap", [
        (W100, 0.530171, 418_347, 1_557),
        # the chirp sets dk = k_max / n: n = 40,000 = nf/4 fills both
        # outer quarters
        (W10, (40_000 - 0.5) * math.pi / (2.2 * 40.0 ** 2), 40_000, 0),
    ], ids=["lam100", "quarter-full"])
    def test_exterior_matches_single_fft(self, w, t, n, gap):
        # outside against the one nf-point FFT of c and reversed c B,
        # |.|^2, its real FFT and the window sum
        # int_1^x_hi e^{i nu dk x} dx = e^{i nu dk (x_hi + 1)/2} 2 sin(nu dk h)
        # / (nu dk), h = (x_hi - 1)/2, one exp and one sine per mode (the
        # same sum from the phase difference at the two ends is 6.0e-16
        # off an 80-bit sum in the quarter-full case; this one 6.7e-17)
        p = box_mode(1)
        audit = unitarity_audit(p, t, w)
        dk, x_hi = audit["dk"], audit["x_hi"]
        assert round(audit_cutoff(p) / dk) == n
        nf = _fft_length(4 * n)
        assert nf // 4 - n == gap
        _, c, c_b = _audit_series(p, t, w, dk, n, well_rule()[0])
        d = np.zeros(nf, dtype=complex)
        d[:n] = c
        d[nf - n:] = c_b[::-1]
        g_hat = np.fft.rfft(np.abs(np.fft.fft(d)) ** 2) / nf
        m = g_hat.size - 1
        nu = np.arange(1, m + 1)
        h = 0.5 * (x_hi - 1.0)
        terms = (g_hat[1:] * np.exp(1j * (dk * (1.0 + h)) * nu)).real * (
            2.0 * np.sin((dk * h) * nu) / (dk * nu))
        terms[:-1] *= 2.0
        outside = g_hat[0].real * (x_hi - 1.0) + np.sum(terms)
        assert abs(audit["outside"] - outside) <= 1e-15

    def test_fft_length_is_smallest_smooth_multiple_of_4(self):
        def smooth(v):
            for q in (2, 3, 5):
                while v % q == 0:
                    v //= q
            return v == 1

        lengths = [v for v in range(4, 5_004, 4) if smooth(v)]
        for m in range(1, 5_001):
            assert _fft_length(m) == next(v for v in lengths if v >= m)

    def test_wide_window_gaussian_closes(self):
        # lambda = 100 at t = 2 with k_max = 120/a: nf = 2**23 points
        audit = unitarity_audit(truncated_gaussian(0.5, 0.06), 2.0, W100)
        assert abs(audit["total"] - 1.0) < 1e-6

    def test_tail_mass_scaling(self):
        # the above-cutoff mass falls like 1/k_max^3
        m40 = spectral_tail_mass(box_mode(1), W10, 40.0)
        m80 = spectral_tail_mass(box_mode(1), W10, 80.0)
        assert m40 / m80 == pytest.approx(8.0, rel=0.25)
