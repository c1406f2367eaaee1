"""Shared quadrature rules and spectral sums."""

import tracemalloc

import numpy as np
import pytest

from gamow_lab.exceptions import QuadratureNotConverged
from gamow_lab.gamow_expansion import _ray_edges
from gamow_lab.potential_model import WellParameters
from gamow_lab.profiles import truncated_gaussian
from gamow_lab.quadrature import (
    _BLOCK_NODES,
    _SPIKE_RATIO,
    CONTROL_ORDER,
    MAIN_ORDER,
    adaptive_gl,
    merge_edges,
    midpoint_panels,
    panel_nodes,
    panel_sine_sum,
    panel_sine_transform,
    spike_edges,
)


#: the rotated route's ray direction, k = ROT s
ROT = np.exp(-0.25j * np.pi)


def gl_panels(edges, order):
    """Gauss-Legendre nodes grouped by panel, and the panel centres."""
    k, _ = panel_nodes(edges, order)
    return k.reshape(edges.size - 1, order), 0.5 * (edges[:-1] + edges[1:])


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


def dense_transform(coef, x, k):
    """The oracle: sum_m coef_m sin(k x_m) from the full sine matrix."""
    return (np.sin(np.multiply.outer(np.ravel(k), x)) @ coef).reshape(k.shape)


def test_panel_sine_sum_matches_one_product_across_blocks():
    rng = np.random.default_rng(7)
    # 2 * _BLOCK_NODES + 32 nodes on random panels of [0, 300]
    edges = np.sort(np.r_[0.0, 300.0, rng.uniform(
        0.0, 300.0, 2 * _BLOCK_NODES // MAIN_ORDER + 1)])
    k, centres = gl_panels(edges, MAIN_ORDER)
    assert k.size == 2 * _BLOCK_NODES + 32
    c = random_coefficients(rng, k.shape)
    x = np.linspace(0.0, 1.0, 9)
    psi, = panel_sine_sum([c], [k], centres, x)
    assert np.max(np.abs(psi - dense_sum(c, k, x))) < 1e-13


def _gl_case():
    # main and control rules on panels of the largest half-width, 1/a
    a = 1.5
    edges = np.r_[np.linspace(0.0, 60.0, 46), 61.0, 61.5, 61.6]
    sets = [gl_panels(edges, order) for order in (MAIN_ORDER, CONTROL_ORDER)]
    return a, [s[0] for s in sets], sets[0][1]


def _midpoint_case():
    a = 1.0
    k, centres = midpoint_panels(120.0 / 5000, 5000, a)
    return a, [k], centres


def _block_case():
    # 2100 panels of 16 and 12 nodes: 58,800 nodes, so blocks of at most
    # _BLOCK_NODES nodes split the panels
    a = 1.0
    rng = np.random.default_rng(3)
    edges = np.cumsum(np.r_[0.0, rng.uniform(0.02, 0.1, 2100)])
    sets = [gl_panels(edges, order) for order in (MAIN_ORDER, CONTROL_ORDER)]
    assert sum(s[0].size for s in sets) > _BLOCK_NODES
    return a, [s[0] for s in sets], sets[0][1]


CASES = {"gl-max-width": _gl_case, "midpoints": _midpoint_case,
         "block-boundary": _block_case}


@pytest.mark.parametrize("case", CASES)
def test_panel_sums_match_dense_oracle(case):
    rng = np.random.default_rng(11)
    a, ks, centres = CASES[case]()
    x = np.linspace(0.0, a, 33)
    cs = [random_coefficients(rng, k.shape) for k in ks]
    for psi, c, k in zip(panel_sine_sum(cs, ks, centres, x), cs, ks):
        assert psi.shape == x.shape
        assert np.max(np.abs(psi - dense_sum(c, k, x))) < 1e-13
    # a smooth profile-like rule on [0, a]: sum |coef| is about 1
    xm, wm = panel_nodes(np.array([0.0, a]), 64)
    coef = wm * np.exp(-((xm - 0.5 * a) / (0.1 * a)) ** 2) * (1 + 0.5j)
    coef /= np.sum(np.abs(coef))
    for phi, k in zip(panel_sine_transform(coef, xm, ks, centres), ks):
        assert phi.shape == k.shape
        assert np.max(np.abs(phi - dense_transform(coef, xm, k))) < 1e-14


@pytest.mark.parametrize("lam", [10.0, 100.0], ids=["lam10", "lam100"])
@pytest.mark.parametrize("t_min", [0.02, 0.05])
def test_panel_sine_transform_on_the_ray(lam, t_min):
    # the rotated route's complex nodes e^{-i pi/4} s, both rules, around
    # complex centres; |sin(k x)| grows like e^{s x / sqrt 2}, so the bar
    # is set on the largest sum_m |coef_m sin(k x_m)|
    w = WellParameters(lam=lam)
    p = truncated_gaussian(0.5672, 0.0565)
    edges = _ray_edges(w, t_min, 1e3)
    centres = ROT * 0.5 * (edges[:-1] + edges[1:])
    ks = [ROT * gl_panels(edges, order)[0]
          for order in (MAIN_ORDER, CONTROL_ORDER)]
    for phi, k in zip(panel_sine_transform(p.coef, p.nodes, ks, centres),
                      ks):
        terms = np.sin(np.multiply.outer(k.ravel(), p.nodes)) * p.coef
        bar = 1e-13 * np.max(np.sum(np.abs(terms), axis=1))
        assert phi.shape == k.shape
        assert np.max(np.abs(phi.ravel() - terms.sum(axis=1))) < bar


def test_too_wide_panels_refused():
    # one panel [0, 10] on x in [0, 1]: max |(k - K) x| is near 5, on the
    # real axis and on the ray
    k, centres = gl_panels(np.array([0.0, 10.0]), MAIN_ORDER)
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="panel too wide"):
        panel_sine_sum([np.ones(k.shape)], [k], centres, x)
    for rot in (1.0, ROT):
        with pytest.raises(ValueError, match="panel too wide"):
            panel_sine_transform(np.ones(x.size), x, [rot * k],
                                 rot * centres)


def test_workspace_stays_below_one_dense_block():
    # 50k nodes on 257 points: the panel sums peak below one dense sine
    # block of _BLOCK_NODES x 257 doubles
    rng = np.random.default_rng(5)
    edges = np.cumsum(np.r_[0.0, rng.uniform(0.1, 2.0, 50_000 // MAIN_ORDER)])
    k, centres = gl_panels(edges, MAIN_ORDER)
    c = random_coefficients(rng, k.shape)
    x = np.linspace(0.0, 1.0, 257)
    coef = random_coefficients(rng, x.shape)
    bound = _BLOCK_NODES * x.size * 8
    for call in (lambda: panel_sine_sum([c], [k], centres, x),
                 lambda: panel_sine_transform(coef, x, [k], centres)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_adaptive_gl_raises_when_rounds_run_out():
    # the step at 1/3 never lands on a panel edge, so no round reaches
    # tol; the panels split on the last round are part of the estimate
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gl(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0,
                    tol=1e-14)
    assert info.value.estimate > 1e-14
