"""Shared quadrature rules and spectral sums."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from gamow_lab import quadrature
from gamow_lab.exceptions import QuadratureNotConverged
from gamow_lab.potential_model import WellParameters
from gamow_lab.profiles import overlap_transform, truncated_gaussian
from gamow_lab.quadrature import (
    _SPIKE_RATIO,
    CONTROL_ORDER,
    MAIN_ORDER,
    MAX_PHASE_PANELS,
    adaptive_gl,
    complex_sin,
    merge_edges,
    panel_nodes,
    panel_sine_sum,
    phase_budget_edges,
    spike_edges,
)
from gamow_lab.spectral_evolution import direct_cutoff, evolve_direct


#: the rotated route's ray direction, k = ROT s
ROT = np.exp(-0.25j * np.pi)


def gl_nodes(edges, order):
    """Gauss-Legendre nodes on the panels between edges, flat."""
    return panel_nodes(edges, order)[0]


def random_coefficients(rng, shape):
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return c / np.sqrt(c.size)


def dense_sum(c, k, x):
    """The oracle: sum_j c_j sin(k_j x) from the full sine matrix."""
    return np.ravel(c) @ np.sin(np.multiply.outer(np.ravel(k), x))


def one_spike_edges(center, width, reach):
    """The reference: one spike's edges by the scalar loop."""
    offs = [width / 2.0]
    while offs[-1] < reach:
        offs.append(offs[-1] * _SPIKE_RATIO)
    offs = np.asarray(offs)
    return np.concatenate([center - offs, [center], center + offs])


def test_phase_budget_bound():
    # every t <= 1e4 at the default cutoff fits (2,000,020 panels); past
    # the bound, a finite or overflowing phase fails before any array
    assert phase_budget_edges(40.0, 1e4).size == 2000021
    for t in (MAX_PHASE_PANELS * 8.0 / 1600.0 * 1.001, 1e12, 1e308):
        with pytest.raises(ValueError, match="phase panels"):
            phase_budget_edges(40.0, t)


def test_merge_edges_matches_np_unique():
    # exact duplicates within and across the sets, lo and hi repeated,
    # edges outside [lo, hi], and an empty extra; np.unique's values bit
    # for bit
    rng = np.random.default_rng(3)
    lo, hi = 0.0, 40.0
    base = np.linspace(lo, hi, 17)
    spikes = spike_edges(np.array([3.1, 3.1, 39.9]), np.array([1e-3] * 3),
                         0.5)
    extra = np.concatenate([rng.uniform(-5.0, 45.0, 300), base[::4],
                            [lo, hi, lo, hi, 40.000000000000007],
                            spikes])
    rng.shuffle(extra)
    for b, e in [(base, extra), (extra, base), (base, np.array([])),
                 (np.array([]), np.array([]))]:
        e_all = np.concatenate([b, e])
        ref = np.unique(np.concatenate(
            [[lo, hi], e_all[(e_all >= lo) & (e_all <= hi)]]))
        assert merge_edges(b, e, lo, hi).tobytes() == ref.tobytes()


def test_spike_edges_match_one_spike_at_a_time():
    # widths from the 1e-9 floor to beyond reach, so spikes stop after
    # one to ~70 offsets; the edge sets agree bit for bit
    rng = np.random.default_rng(5)
    centers = np.sort(rng.uniform(0.0, 100.0, 40))
    widths = 10.0 ** rng.uniform(-9.0, 0.5, 40)
    reach = 1.4
    ref = np.concatenate([one_spike_edges(c, w, reach)
                          for c, w in zip(centers.tolist(), widths.tolist())])
    assert np.array_equal(np.sort(spike_edges(centers, widths, reach)),
                          np.sort(ref))
    assert spike_edges(np.array([]), np.array([]), reach).size == 0


def test_panel_sine_sum_matches_one_product_across_blocks():
    rng = np.random.default_rng(7)
    # 65,568 nodes on random panels of [0, 300], twice the direct route's
    # 32,768-node chunk and more, in one call
    edges = np.sort(np.r_[0.0, 300.0, rng.uniform(0.0, 300.0, 4097)])
    k = gl_nodes(edges, MAIN_ORDER)
    assert k.size == 65_568
    c = random_coefficients(rng, k.shape)
    x = np.linspace(0.0, 1.0, 9)
    psi, = panel_sine_sum([c], [k], x)
    assert np.max(np.abs(psi - dense_sum(c, k, x))) < 1e-13


def _gl_case():
    # main and control rules on panels as wide as a cell, 2/a
    a = 1.5
    edges = np.r_[np.linspace(0.0, 60.0, 46), 61.0, 61.5, 61.6]
    return a, [gl_nodes(edges, order) for order in (MAIN_ORDER, CONTROL_ORDER)]


def _midpoint_case():
    # the audit's rule, k_j = (j + 1/2) dk
    return 1.0, [(np.arange(5000) + 0.5) * (120.0 / 5000)]


def _block_case():
    # 2100 panels of 16 and 12 nodes: 58,800 nodes, many per cell and
    # more than the direct route's 32,768-node chunk
    a = 1.0
    rng = np.random.default_rng(3)
    edges = np.cumsum(np.r_[0.0, rng.uniform(0.02, 0.1, 2100)])
    ks = [gl_nodes(edges, order) for order in (MAIN_ORDER, CONTROL_ORDER)]
    assert sum(k.size for k in ks) == 58_800
    return a, ks


def _cell_edge_case():
    # nodes on, and one ulp either side of, the cell edges m h (h = 2 / X,
    # X = max x = a) and the dyadic edges h 2^-j below h
    a = 1.25
    h = 2.0 / a
    edges = np.r_[h * np.arange(1, 40), h * 2.0 ** -np.arange(1, 30)]
    k = np.concatenate([np.nextafter(edges, 0.0), edges,
                        np.nextafter(edges, np.inf)])
    return a, [k]


def _shuffled_case():
    # the block case's nodes in random order, in arrays of two shapes
    a, ks = _block_case()
    rng = np.random.default_rng(9)
    return a, [rng.permutation(ks[0]).reshape(-1, 16), rng.permutation(ks[1])]


def _unequal_sets_case():
    # a main set of order 16 and a control set of order 5 on other panels,
    # each with cells the other lacks
    a = 1.0
    main = gl_nodes(np.linspace(0.0, 30.0, 7), MAIN_ORDER)
    control = gl_nodes(np.r_[0.0, 0.3, 2.0, 40.0, 41.0], 5)
    return a, [main, control]


CASES = {"gl-max-width": _gl_case, "midpoints": _midpoint_case,
         "block-boundary": _block_case, "cell-edges": _cell_edge_case,
         "out-of-order": _shuffled_case, "unequal-sets": _unequal_sets_case}


@pytest.mark.parametrize("case", CASES)
def test_panel_sums_match_dense_oracle(case):
    rng = np.random.default_rng(11)
    a, ks = CASES[case]()
    x = np.linspace(0.0, a, 33)
    cs = [random_coefficients(rng, k.shape) for k in ks]
    for psi, c, k in zip(panel_sine_sum(cs, ks, x), cs, ks):
        assert psi.shape == x.shape
        assert np.max(np.abs(psi - dense_sum(c, k, x))) < 1e-13


def test_sparse_nodes_match_dense_oracle():
    # one node set over [0, 3000/a] with gaps wider than a cell, so most
    # cells hold one to three nodes
    rng = np.random.default_rng(13)
    a = 1.0
    k = np.concatenate([rng.uniform(lo, lo + 5.0, 3) for lo in
                        np.arange(0.0, 3000.0, 40.0)])
    x = np.linspace(0.0, a, 33)
    c = random_coefficients(rng, k.shape)
    psi, = panel_sine_sum([c], [k], x)
    assert np.max(np.abs(psi - dense_sum(c, k, x))) < 1e-13 * np.max(
        np.sum(np.abs(c[:, None] * np.sin(np.multiply.outer(k, x))), axis=0))


def test_transform_near_zero_is_relatively_exact():
    # phi(k) ~ k int x psi0 near k = 0: the closed form keeps 1e-14
    # relative accuracy down to k = 1e-9 / a against the profile rule's
    # dense sum (psi0 > 0, so the sum does not cancel), and phi(0) is 0
    a = 1.0
    p = truncated_gaussian(0.5, 0.08)
    k = np.r_[0.0, np.geomspace(1e-9, 1e-3, 61) / a, 0.5, 3.0]
    phi = overlap_transform(p, k)
    assert phi[0] == 0.0
    ref = np.sin(np.multiply.outer(k[1:], p.nodes)) @ p.coef.real
    assert np.max(np.abs(phi[1:] - ref) / np.abs(ref)) < 1e-14
    # psi from nodes near 0 (the dyadic cells), relative to
    # sum |c sin(k x)|
    rng = np.random.default_rng(17)
    c = random_coefficients(rng, k.shape)
    x = np.linspace(0.0, a, 17)
    psi, = panel_sine_sum([c], [k], x)
    scale = np.abs(c) @ np.abs(np.sin(np.multiply.outer(k, x)))
    assert np.all(np.abs(psi - dense_sum(c, k, x)) <= 1e-14 * scale)


def test_ray_nodes_from_near_zero_to_far():
    # phi at e^{-i pi/4} s, s from 1e-6 to 300, against the profile rule's
    # dense sum; |sin(k x)| grows like e^{s x / sqrt 2}, so the bar is set
    # on each node's sum_m |coef_m sin(k x_m)|
    p = truncated_gaussian(0.5, 0.08)
    k = ROT * np.geomspace(1e-6, 300.0, 400)
    phi = overlap_transform(p, k)
    terms = np.sin(np.multiply.outer(k, p.nodes)) * p.coef
    assert np.all(np.abs(phi - terms.sum(axis=1))
                  <= 1e-13 * np.sum(np.abs(terms), axis=1))


def test_nodes_off_one_ray_refused():
    # the expansion takes real nodes k >= 0: complex nodes (here on the
    # rotated route's ray), negative and NaN ones leave their offsets
    # unbounded
    x = np.linspace(0.0, 1.0, 5)
    for k in (ROT * np.linspace(1.0, 5.0, 8), np.linspace(-1.0, 5.0, 8),
              np.r_[1.0, math.nan]):
        with pytest.raises(ValueError, match="real nodes"):
            panel_sine_sum([np.ones(k.size)], [k], x)


def test_complex_sin_from_real_kernels():
    # sin u cosh v + i cos u sinh v against the libm complex sine, on the
    # ray and off it, and the real sine bit for bit at v = 0
    rng = np.random.default_rng(6)
    z = np.r_[ROT * np.geomspace(1e-6, 300.0, 200),
              rng.uniform(-50.0, 50.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)]
    ref = np.array([cmath.sin(v) for v in z])
    assert np.all(np.abs(complex_sin(z) - ref) <= 4e-16 * np.abs(ref)
                  + 4e-16 * np.cosh(z.imag))
    u = rng.uniform(0.0, 3000.0, 100)
    assert np.array_equal(complex_sin(u.astype(complex)).real, np.sin(u))


def test_trig_rows_follow_the_cutoff_not_the_panels(monkeypatch):
    # one evolve_direct call: each kernel, summed over the direct sum's
    # chunks, takes sin and cos on at most ceil(k_max / 2) lattice cells
    # plus the dyadic ones near k = 0 (a cell split by a chunk boundary
    # counts twice), however many phase-budget and spike panels the route
    # builds
    w = WellParameters(lam=81.8)
    t = 0.0548
    p = truncated_gaussian(0.5, 0.06)
    grid = np.linspace(0.0, 1.0, 33)
    rows = {}  # kernel (by its points) -> rows
    cell_trig = quadrature._cell_trig

    def counted(centres, x):
        trig = cell_trig(centres, x)
        rows[x.size] = rows.get(x.size, 0) + trig[0].shape[0]
        return trig

    monkeypatch.setattr(quadrature, "_cell_trig", counted)
    evolve_direct(p, t, grid, w)
    # one kernel, psi on the grid: a Gaussian's phi is closed-form
    assert list(rows) == [grid.size]
    assert max(rows.values()) <= math.ceil(direct_cutoff(w, t) / 2.0) + 64


def test_workspace_stays_below_one_dense_block():
    # 50k nodes on 257 points: the panel sum peaks below one dense sine
    # block of 32,768 x 257 doubles
    rng = np.random.default_rng(5)
    edges = np.cumsum(np.r_[0.0, rng.uniform(0.1, 2.0, 50_000 // MAIN_ORDER)])
    k = gl_nodes(edges, MAIN_ORDER)
    c = random_coefficients(rng, k.shape)
    x = np.linspace(0.0, 1.0, 257)
    tracemalloc.start()
    try:
        panel_sine_sum([c], [k], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32768 * x.size * 8


def test_adaptive_gl_raises_when_rounds_run_out():
    # the step at 1/3 never lands on a panel edge, so no round reaches
    # tol; the panels split on the last round are part of the estimate
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gl(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0,
                    tol=1e-14)
    assert info.value.estimate > 1e-14
