"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints a single machine-greppable line of the form
``[PASS|FAIL] criterion N: ...`` before asserting, so the suite log doubles
as a scoreboard.
"""

import math
import time

import numpy as np
import pytest

from gamow_lab.decay_analysis import (
    fit_exponential,
    nonescape_curve,
    flux_derivative,
    regime_report,
)
from gamow_lab.gamow_expansion import (
    asymptotic_background,
    background_integral,
    crossover_time,
    evolve_rotated,
    gram_matrix,
    residue_terms,
    verify_residue,
)
from gamow_lab.potential_model import (
    WellParameters,
    asymptotic_pole_seed,
    enumerate_poles,
    quantization_residual,
)
from gamow_lab.profiles import box_mode, truncated_gaussian
from gamow_lab.spectral_evolution import evolve_direct, unitarity_audit

W10 = WellParameters(lam=10.0)
W30 = WellParameters(lam=30.0)
W100 = WellParameters(lam=100.0)


def verdict(n, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_pole_reproduction():
    t0 = time.perf_counter()
    poles = enumerate_poles(W100, 16.0)  # enumeration audits the count internally
    worst_res = worst_re = worst_im = 0.0
    for n, k in enumerate(poles.k[:5].tolist(), start=1):
        worst_res = max(worst_res, abs(quantization_residual(k, W100)))
        seed = asymptotic_pole_seed(n, W100)
        worst_re = max(worst_re, abs(k.real - seed.real) / abs(seed.real))
        worst_im = max(worst_im, abs(k.imag - seed.imag) / abs(seed.imag))
    dt = time.perf_counter() - t0
    ok = (len(poles) == 5 and worst_res < 1e-12 and worst_re < 0.01
          and worst_im < 0.10 and dt < 1.0)
    verdict(1, ok, f"5 poles, |F| <= {worst_res:.1e}, seed dev "
                   f"Re {worst_re:.2%} / Im {worst_im:.2%}, {dt:.2f}s")


def gamow_lifetime(k, w):
    """Gamow's tau = 1/Gamma with Gamma = (v / 2a) T(k), v = 2k, a = 1.

    T(k) = 4k^2 / (4k^2 + lam^2) is the transmission of the free delta
    barrier (hbar = 2m = 1).
    """
    transmission = 4.0 * k ** 2 / (4.0 * k ** 2 + w.lam ** 2)
    return 1.0 / (k * transmission)


def test_criterion_02_lifetime_formula():
    # (a) Gamow's formula at the resonance energy, at both lambda.
    # (b) The 1/lam expansion of tau_1 through its first correction,
    #     (lam a)^2 / (4 pi^3) * (1 + 1/lam)^4, at lam = 100 only: at
    #     lam = 10 the series converges too slowly for a 10% check.
    # The bare leading-order form is off by about 4/lam and is reported,
    # not gated.
    details = []
    ok = True
    for w, tol, check_series in ((W100, 0.02, True), (W10, 0.10, False)):
        poles = enumerate_poles(w, 8.0)
        tau1 = float(poles.tau[0])
        tau_g = gamow_lifetime(float(poles.k.real[0]), w)
        rel_g = abs(tau1 - tau_g) / tau_g
        ok = ok and rel_g < tol
        bare = w.lam ** 2 / (4.0 * math.pi ** 3)
        rel_bare = abs(tau1 - bare) / bare
        line = (f"lam={w.lam:g}: tau1={tau1:.6g}, tau_G={tau_g:.6g} "
                f"(a) {rel_g:.2%}")
        if check_series:
            series = bare * (1.0 + 1.0 / w.lam) ** 4
            rel_s = abs(tau1 - series) / series
            ok = ok and rel_s < tol
            line += f", (b) {rel_s:.2%}"
        line += (f", tol {tol:.0%}; bare (lam a)^2/4pi^3 {rel_bare:.2%} "
                 f"vs 4/lam = {4.0 / w.lam:.2%}")
        details.append(line)
    verdict(2, ok, "; ".join(details))


def test_criterion_03_unitarity():
    t0 = time.perf_counter()
    worst = 0.0
    p = box_mode(1)
    for w in (W10, W100):
        tau = enumerate_poles(w, 8.0).tau[0]
        for t in (0.0, tau / 10.0, tau, 5.0 * tau):
            audit = unitarity_audit(p, t, w)
            worst = max(worst, abs(audit["total"] - 1.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 60.0
    verdict(3, ok, f"max |total - 1| = {worst:.2e} over 8 cases, {dt:.1f}s")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_04_representation_equivalence():
    t0 = time.perf_counter()
    p = box_mode(1)
    worst = 0.0
    for w in (W10, W100):
        tau = enumerate_poles(w, 8.0).tau[0]
        grid = np.linspace(0.0, 1.0, 65)
        for frac in (0.05, 0.2, 1.0, 5.0):
            t = frac * tau
            d = evolve_direct(p, t, grid, w)
            r = evolve_rotated(p, t, grid, w)
            worst = max(worst, float(np.max(np.abs(d.psi - r.psi))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 120.0
    verdict(4, ok, f"sup |direct - rotated| = {worst:.2e} over 8 cases, "
                   f"{dt:.1f}s")


def test_criterion_05_exponential_law():
    t0 = time.perf_counter()
    w, p = W100, box_mode(1)
    residues = residue_terms(p, w, 8.0)
    gamma1, c1 = residues.poles.gamma[0], residues.weights[0]
    tau = residues.poles.tau[0]
    times = np.linspace(tau, 5.0 * tau, 16)
    curve = nonescape_curve(p, times, w)
    rate, c_fit, _ = fit_exponential(curve, (times[0], times[-1]))
    rel_rate = abs(rate - gamma1) / gamma1
    rel_c = abs(c_fit - c1) / c1
    dt = time.perf_counter() - t0
    ok = rel_rate < 0.02 and rel_c < 0.05 and dt < 60.0
    verdict(5, ok, f"rate off by {rel_rate:.2%}, intercept off by "
                   f"{rel_c:.2%}, {dt:.1f}s")


def test_criterion_06_short_time_flux():
    t0 = time.perf_counter()
    w = W100
    # the one-sided flux stencil only needs x = 1 and two close neighbors
    h = 1.0 / 1024.0
    grid = np.array([1.0 - 2.0 * h, 1.0 - h, 1.0])
    worst = 0.0
    for p in (box_mode(1), box_mode(2), truncated_gaussian(0.5, 0.08)):
        ws = evolve_direct(p, 0.0, grid, w)
        worst = max(worst, abs(flux_derivative(ws)))
    # the naive resonance superposition would instead start at rate
    # sum_n c_n Gamma_n > 0 -- report the contrast value
    residues = residue_terms(box_mode(1), w, 16.0)
    contrast = float(np.sum(residues.weights * residues.poles.gamma))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and contrast > 0.0 and dt < 10.0
    verdict(6, ok, f"max |dP/dt(0)| = {worst:.2e}; naive initial rate "
                   f"sum c_n Gamma_n = {contrast:.4e} > 0, {dt:.1f}s")


def test_criterion_07_long_time_tail():
    t0 = time.perf_counter()
    w, p = W10, box_mode(1)
    rep = regime_report(p, w)
    slope_ok = abs(rep.s_fit + 3.0) < 0.15
    t_star = crossover_time(p, w)["t_star"]
    t_late = 100.0 * t_star
    x = 0.5
    full = background_integral(x, t_late, p, w)
    asym = asymptotic_background(x, t_late, p, w)
    ratio = abs(full) / abs(asym)
    dt = time.perf_counter() - t0
    ok = slope_ok and abs(ratio - 1.0) < 0.10 and dt < 60.0
    verdict(7, ok, f"tail slope {rep.s_fit:.4f} (target -3 +- 0.15), "
                   f"background/asymptote = {ratio:.4f} at 100 t*, {dt:.1f}s")


def test_criterion_08_crossover():
    t0 = time.perf_counter()
    details = []
    ok = True
    for w in (W10, W30):
        rep = regime_report(box_mode(1), w)
        est = rep.crossover_estimate
        factor = rep.t_star_measured / est
        logp = rep.log10_P_at_t_star
        target = -10.0 * math.log10(w.lam)
        ok = ok and 0.5 < factor < 2.0 and abs(logp - target) < 3.0
        details.append(f"lam={w.lam:g}: t*/est = {factor:.2f}, "
                       f"log10 P(t*) = {logp:.1f} vs {target:.1f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    verdict(8, ok, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_09_residue_calculus():
    t0 = time.perf_counter()
    p = box_mode(1)
    worst = 0.0
    for w in (W10, W100):
        for k in enumerate_poles(w, 40.0).k:
            worst = max(worst, verify_residue(k, p, w))
    g = gram_matrix(p, W100)
    off = float(np.max(np.abs(g - np.diag(np.diag(g)))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and off < 0.05 and dt < 30.0
    verdict(9, ok, f"max contour mismatch {worst:.2e}, max Gram "
                   f"off-diagonal {off:.4f}, {dt:.1f}s")


def test_criterion_10_finite_difference_oracle():
    from oracle_cn import cn_evolve

    t0 = time.perf_counter()
    w, p = W10, box_mode(1)
    tau = enumerate_poles(w, 8.0).tau[0]
    checkpoints = [tau, 2.0 * tau, 3.0 * tau]

    def psi0(x):
        return p(np.asarray(x))

    x_fd, states = cn_evolve(psi0, w.lam, 1.0, checkpoints,
                             x_max=60.0, cap_start=30.0,
                             dx=1e-3, dt=2.5e-4, barrier_width=2e-3)
    worst = 0.0
    for t in checkpoints:
        spectral = evolve_rotated(p, t, x_fd, w).psi
        worst = max(worst, float(np.max(np.abs(states[t] - spectral))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 120.0
    verdict(10, ok, f"sup |CN - spectral| = {worst:.2e} up to 3 tau1, "
                    f"{dt:.0f}s")


def test_criterion_11_n_cubed_rate_law():
    t0 = time.perf_counter()
    w = W100
    taus = enumerate_poles(w, 12.0).tau
    rates = []
    for n in (1, 2, 3):
        tau_n = taus[n - 1]
        times = np.linspace(tau_n, 4.0 * tau_n, 12)
        curve = nonescape_curve(box_mode(n), times, w)
        rate, _, _ = fit_exponential(curve, (times[0], times[-1]))
        rates.append(rate)
    ratios = [r / rates[0] for r in rates]
    worst = max(abs(ratios[1] - 8.0) / 8.0, abs(ratios[2] - 27.0) / 27.0)
    dt = time.perf_counter() - t0
    ok = worst < 0.05 and dt < 120.0
    verdict(11, ok, f"rate ratios 1 : {ratios[1]:.3f} : {ratios[2]:.3f} "
                    f"(target 1:8:27, worst dev {worst:.2%}), {dt:.0f}s")
