"""Exact time evolution through the continuum spectrum (real-axis route).

Inside the well the evolved packet is

    psi(x, t) = (1/2pi) int_0^inf exp(-i k^2 t) phi(k) |A(k)|^2 sin(kx) dk,

where phi is the profile's sine transform.  |A(k)|^2 is a train of very
narrow Lorentzian spikes at the resonance positions, and the exponential
phase oscillates ever faster in k as t grows; the quadrature panels resolve
both features explicitly (see quadrature.py) and the truncated tail beyond
k_max is restored with a two-term stationary-phase endpoint correction.

The sine sum psi(x) over those panels goes through the cell expansion of
quadrature.panel_sine_sum, which the main and control rules share; so does
the interior sum of unitarity_audit, on its flat midpoint rule.  phi(k) at
the nodes is closed-form for every profile (profiles.overlap_transform;
at real nodes box_overlap and gauss_overlap).

The node count grows like 1/t (the phase panels like k_max^2 t = 3600/t),
so the direct sum walks the panels in chunks of at most _CHUNK_NODES =
32,768 nodes of both rules, one panel sine sum each, and adds the chunks'
sums into the result in chunk order: its memory is flat in t, and only its
time grows.  A chunk's coefficients take real arithmetic, one sine and
cosine of k per node for |A|^2 and phi.  unitarity_audit walks its
midpoints in chunks of the same bound, and takes its exterior as four
branches of one FFT of a quarter of the padded length each, every branch
reducing its own modes to its share of the window integral, so no array
is longer than that quarter.

The direct chunks, the audit's chunks and its four branches are
independent tasks that _ordered_map runs on up to _MAX_WORKERS threads
(the caller's included); their results are added in task order, so every
output is the same bits for any thread count.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .exceptions import QuadratureNotConverged
from .potential_model import (
    A_from_trig,
    B_from_trig,
    DEFAULT_KMAX,
    WellParameters,
    enumerate_poles,
    interior_weight,
    pole_cutoff,
    real_trig,
    weight_from_trig,
)
from .profiles import (
    InitialProfile,
    box_overlap,
    gauss_overlap,
    overlap_transform,
)
from .quadrature import (
    CONTROL_ORDER,
    MAIN_ORDER,
    WELL_ORDER,
    adaptive_gl,
    merge_edges,
    panel_nodes,
    panel_sine_sum,
    phase_budget_edges,
    spike_edges,
)

#: cutoff used for the t = 0 completeness reconstruction, where there is no
#: phase damping and the profile kink makes the tail decay only like 1/k^2
T0_KMAX = 800.0

#: largest direct-route error estimate evolve_direct accepts (absolute)
_QUAD_TOL = 1e-7
#: nodes per panel sine sum call, which bounds the kernels' workspace: the
#: direct sum's chunk of panels and the audit's chunk of midpoints
_CHUNK_NODES = 32768
#: panels per chunk of the direct sum: at most _CHUNK_NODES nodes of both
#: rules
_CHUNK_PANELS = _CHUNK_NODES // (MAIN_ORDER + CONTROL_ORDER)
#: zero padding of unitarity_audit's exterior: any even length nf >= 4n
#: samples the 4n-1 modes of |psi_out|^2 without aliasing, and _fft_length
#: takes the smallest multiple of 4 with no prime factor above 5, which
#: _exterior_share splits into four FFTs of length nf/4 >= n
_FFT_PAD = 4
#: most threads _ordered_map runs, its caller's included.  Every task in
#: flight adds its workspace to the peak memory: about 2.5 MiB per direct
#: chunk (test_peak_memory_flat_in_t holds the direct route below 8 MiB)
#: and 1.5 nf/4-point arrays per exterior branch (9.6 MiB at lambda = 100
#: on top of the audit's 12.8 MiB of coefficients), so the cap, not the
#: core count, bounds the memory
_MAX_WORKERS = 2
#: |phi|^2 that a smooth profile's spectrum stays below beyond
#: unitarity_audit's cutoff
_PHI_FLOOR = 1e-14


@dataclass(frozen=True)
class WaveState:
    """Wave function samples on a spatial grid at one instant."""

    x: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("wave function values must be finite")


def well_rule():
    """The WELL_ORDER-point Gauss-Legendre rule (nodes, weights) on [0, 1]
    that integrates |psi|^2 over the well wherever P is computed (psi is
    entire on [0, 1])."""
    return panel_nodes(np.array([0.0, 1.0]), WELL_ORDER)


def direct_cutoff(w: WellParameters, t: float) -> float:
    """Spectral cutoff for the real-axis route.

    For t > 0, chosen so the endpoint-correction expansion parameter
    (internal oscillation rate over 2 k_max t) stays small, and above every
    resonance spike that has not yet decayed (the endpoint correction
    assumes a smooth envelope); at t = 0 a much larger cutoff compensates
    for the absence of phase damping.
    """
    if t == 0.0:
        return T0_KMAX
    return max(pole_cutoff(w, abs(t)), 60.0 / abs(t))


def _spectral_edges(w: WellParameters, t: float, k_max: float) -> np.ndarray:
    """Panel edges on [0, k_max] resolving both the exp(-ik^2 t) phase and
    every resonance spike below the cutoff.  The poles come first, so a
    cutoff past enumerate_poles' bound fails before any panel exists."""
    k = enumerate_poles(w, k_max).k
    base = phase_budget_edges(k_max, abs(t))
    spacing = math.pi * w.lam / (1.0 + w.lam)
    extra = spike_edges(k.real, np.maximum(-k.imag, 1e-9),
                        reach=0.45 * spacing)
    return merge_edges(base, extra, 0.0, k_max)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(f, items) -> list:
    """[f(item) for item in items], the tasks shared out among the caller
    and up to _MAX_WORKERS - 1 threads (no more threads than usable CPUs
    or tasks; one task runs in the caller alone).

    Each result lands at its item's index, so a caller that adds the
    results in that order gets the same bits for every thread count.
    After a task raises, in a thread or in the caller (a KeyboardInterrupt
    included), no new task starts; every thread is joined before the call
    returns, and the first exception is re-raised.
    """
    items = list(items)
    workers = min(_usable_cpus(), len(items), _MAX_WORKERS)
    if workers <= 1:
        return [f(item) for item in items]
    results = [None] * len(items)
    errors = []
    lock = threading.Lock()
    todo = iter(range(len(items)))

    def run():
        try:
            while not errors:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                results[i] = f(items[i])
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        run()
    except BaseException as exc:  # a failed start, or an interrupt
        errors.append(exc)
    finally:
        for thread in threads:
            while thread.is_alive():
                try:
                    thread.join()
                except BaseException as exc:  # an interrupt while joining
                    errors.append(exc)
    if errors:
        raise errors[0]
    return results


def _spectrum(p: InitialProfile, k):
    """real_trig(k) and phi(k) at real nodes k, phi from the same sine (a
    box mode, box_overlap) or sine and cosine (a Gaussian,
    gauss_overlap)."""
    trig = real_trig(k)
    if p.mode is None:
        return trig, gauss_overlap(p, *trig)
    return trig, box_overlap(p, k, trig[1])


def _chirped(z, k, t):
    """z e^{-ik^2 t} at real k, from a real cos/sin pair of k^2 t written
    into one complex array (no complex exp or its temporaries)."""
    theta = k * k * t
    cos, sin = np.cos(theta), np.sin(theta)
    re, im = z.real, z.imag
    out = np.empty(k.shape, dtype=complex)
    out.real = re * cos + im * sin
    out.imag = im * cos - re * sin
    return out


def _tail_correction(p: InitialProfile, k_max: float, t: float,
                     grid: np.ndarray, w: WellParameters) -> np.ndarray:
    """Two-term integration-by-parts estimate of the truncated tail
    int_{k_max}^inf f(k, x) exp(-i k^2 t) dk for t != 0."""
    h = 1e-4
    ks = np.array([k_max, k_max + h, k_max - h])
    g0, g_hi, g_lo = (overlap_transform(p, ks) * interior_weight(ks, w)
                      / (2.0 * math.pi))
    gp = (g_hi - g_lo) / (2.0 * h)
    sin_x = np.sin(k_max * grid)
    cos_x = np.cos(k_max * grid)
    f0 = g0 * sin_x
    f1 = gp * sin_x + g0 * grid * cos_x
    damp = 2j * k_max * t
    return np.exp(-1j * k_max ** 2 * t) / damp * (f0 + f1 / damp - f0 / (damp * k_max))


def _kink_tail_t0(p: InitialProfile, k_max: float,
                  grid: np.ndarray) -> np.ndarray:
    """Analytic tail of the t = 0 completeness integral beyond k_max.

    The profile's derivative jump at x = 1 makes phi(k) fall off only
    like psi'(1-) sin(k)/k^2; with |A|^2 -> 4 the truncated tail reduces
    to cosine integrals, evaluated here in closed form via Si(z).
    """
    from scipy.special import sici

    def J(b):
        b = np.abs(b)
        si, _ = sici(k_max * b)
        return np.cos(k_max * b) / k_max - b * (0.5 * np.pi - si)

    return ((2.0 / math.pi) * p.barrier_slope * 0.5
            * (J(1.0 - grid) - J(1.0 + grid)))


def evolve_direct(p: InitialProfile, t: float, grid,
                  w: WellParameters) -> WaveState:
    """Evolve the initial profile to time t >= 0 on grid points in [0, 1].

    Raises QuadratureNotConverged (with the achieved estimate) when the
    internal error estimate exceeds 1e-7.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be >= 0; the time-reversal identity "
                         "psi(x,-t) = conj(psi(x,t)) covers negative times")
    if t > 50.0:
        warnings.warn(
            "direct spectral route at t > 50 a^2: the k-space oscillation "
            "period shrinks like 1/(2kt), so cost grows linearly in t; "
            "the rotated representation is cheaper and equally accurate here",
            RuntimeWarning, stacklevel=2)
    psi, est = _evolve_direct_raw(p, t, np.asarray(grid, dtype=float), w)
    if est > _QUAD_TOL:
        raise QuadratureNotConverged(
            f"direct spectral quadrature error estimate {est:.3e} > {_QUAD_TOL:.1e}",
            estimate=est,
        )
    return WaveState(x=np.asarray(grid, dtype=float), psi=psi)


def _evolve_direct_raw(p: InitialProfile, t: float, grid: np.ndarray,
                       w: WellParameters):
    """Real-axis spectral integral on [0, 1]; also accepts t < 0 (used by
    the time-reversal property check).  Returns (psi, error_estimate).

    The main and control rules share one set of panels."""
    if np.any(grid < 0.0) or np.any(grid > 1.0 + 1e-12):
        raise ValueError("direct evolution grid must lie in [0, a]")
    k_max = direct_cutoff(w, t)
    edges = _spectral_edges(w, t, k_max)
    psi_main, psi_ctrl = _direct_sum(p, t, grid, w, edges)
    est = float(np.max(np.abs(psi_main - psi_ctrl)))
    if t != 0.0:
        psi_main = psi_main + _tail_correction(p, k_max, t, grid, w)
    else:
        psi_main = psi_main + _kink_tail_t0(p, k_max, grid)
    return psi_main, est


def _direct_sum(p, t, grid, w, edges):
    """(1/2pi) int e^{-ik^2 t} phi(k) |A(k)|^2 sin(kx) dk on the panels,
    by the main and by the control rule.

    The panels are walked in chunks of _CHUNK_PANELS, whose nodes of both
    rules make one panel sine sum call, on _ordered_map's threads; the
    chunks' sums are added into the two results in chunk order, so the
    bits do not depend on the thread count, no array grows with the
    node count and the memory is flat in t (the node count grows like
    1/t).  A chunk's coefficients w phi |A|^2 / 2pi e^{-ik^2 t} take real
    arithmetic: one sine and cosine of k per node for |A|^2 and phi, and
    one of k^2 t for the phase.
    """
    def chunk(i):
        # one rule at a time, so that only the nodes and coefficients of
        # both stay for the sine sum: a chunk in flight holds little
        # beyond the sum's workspace
        ks, cs = [], []
        for order in (MAIN_ORDER, CONTROL_ORDER):
            k, weights = panel_nodes(edges[i:i + _CHUNK_PANELS + 1], order)
            trig, phi = _spectrum(p, k)
            ks.append(k)
            cs.append(_chirped(phi * (weights * weight_from_trig(trig, w)
                                      / (2.0 * math.pi)), k, t))
        return panel_sine_sum(cs, ks, grid)

    psi = [np.zeros(grid.shape, dtype=complex) for _ in range(2)]
    for parts in _ordered_map(chunk, range(0, edges.size - 1,
                                           _CHUNK_PANELS)):
        for acc, part in zip(psi, parts):
            acc += part
    return psi


def spectral_tail_mass(p: InitialProfile, w: WellParameters,
                       k_max: float) -> float:
    """Probability carried by spectral components above k_max,

        M_tail = int_{k_max}^inf (1/2pi) |A(k)|^2 |phi(k)|^2 dk,

    time independent.  Numeric quadrature up to k_far = 10 k_max
    (resonance spikes are broad there) plus the analytic remainder from
    the kink envelope |phi|^2 ~ |psi0'(1-)|^2 sin^2(k)/k^4, |A|^2 -> 4.
    """
    k_far = 10.0 * k_max

    def dens(k):
        return (interior_weight(k, w) * np.abs(overlap_transform(p, k)) ** 2
                / (2.0 * math.pi))

    val, _ = adaptive_gl(dens, k_max, k_far, tol=1e-13)
    remainder = abs(p.barrier_slope) ** 2 / (3.0 * math.pi * k_far ** 3)
    return float(val) + remainder


def audit_cutoff(p: InitialProfile) -> float:
    """unitarity_audit's spectral cutoff: DEFAULT_KMAX, raised in steps
    of DEFAULT_KMAX (up to T0_KMAX) while |phi|^2 on the next step
    exceeds _PHI_FLOOR.

    Only a profile with no kink at the barrier is raised: a kink makes
    |phi|^2 fall like |psi0'(1-)|^2 / k^4, too slowly to reach the floor,
    and spectral_tail_mass carries that tail in closed form instead.
    """
    step = DEFAULT_KMAX
    if abs(p.barrier_slope) ** 2 / step ** 4 >= _PHI_FLOOR:
        return step
    m = 1
    while m * step < T0_KMAX:
        window = step * np.linspace(m, m + 1, 129)
        if np.max(np.abs(overlap_transform(p, window)) ** 2) < _PHI_FLOOR:
            break
        m += 1
    return m * step


def _fft_length(m: int) -> int:
    """The smallest 2^i 3^j 5^l >= m with i >= 2: a multiple of 4 whose
    quarter is one of the FFT's fast lengths."""
    best = max(4, 1 << (m - 1).bit_length())
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power of two, at least 4, with odd * two >= m
            two = max(4, 1 << (-(-m // odd) - 1).bit_length())
            best = min(best, odd * two)
            odd *= 3
        odd5 *= 5
    return best


def _audit_series(p: InitialProfile, t: float, w: WellParameters,
                  dk: float, n: int, x_in: np.ndarray):
    """unitarity_audit's midpoint series at k_j = (j + 1/2) dk, j < n:
    the interior psi on x_in and the exterior coefficients
    c = (dk/2pi) e^{-ik^2 t} conj(A) phi and c B, with A, B and phi from
    one sine and cosine of k per midpoint.

    The midpoints are walked in chunks of _CHUNK_NODES, the direct
    route's node bound, on _ordered_map's threads: each chunk writes its
    c and c B into its slice of two n-arrays, so only those two grow
    with n, and the chunks' interior sums are added into psi in chunk
    order.  B is named so that c B is always taken in that order: numpy
    may reuse a temporary right operand and swap the factors, which
    moves the last bit of a complex product."""
    c = np.empty(n, dtype=complex)
    c_b = np.empty(n, dtype=complex)

    def chunk(s):
        k = (np.arange(s, min(s + _CHUNK_NODES, n)) + 0.5) * dk
        trig, phi = _spectrum(p, k)
        A = A_from_trig(trig, w)
        part = _chirped(np.conj(A) * (dk / (2.0 * math.pi)) * phi, k, t)
        B = B_from_trig(trig, w)
        c[s:s + k.size] = part
        c_b[s:s + k.size] = part * B
        return panel_sine_sum([A * part], [k], x_in)[0]

    psi_in = np.zeros(x_in.shape, dtype=complex)
    for part in _ordered_map(chunk, range(0, n, _CHUNK_NODES)):
        psi_in += part
    return psi_in, c, c_b


def _row_length(m: int) -> int:
    """The largest divisor of m at most sqrt(m): m modes laid out as
    m // _row_length(m) rows of _row_length(m) take the fewest phases in
    _phase_tables (m is 5-smooth here, so its divisors lie close)."""
    return max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)


def _phase_tables(alpha: float, rows: int, cols: int):
    """e^{i nu alpha} for nu = q cols + s as big[q] small[s], with
    big = e^{i q cols alpha} (q < rows) and small = e^{i s alpha}
    (s < cols): rows + cols exponentials give rows cols phases, one
    complex product each, in place of a sine and a cosine of a large
    argument per phase."""
    big = np.exp(1j * (alpha * (cols * np.arange(rows))))
    small = np.exp(1j * (alpha * np.arange(cols)))
    return big, small


def _window_weights(half, rows: slice, dk: float) -> np.ndarray:
    """W_nu = 4 Im(z_nu) / (nu dk) on the given rows of modes
    nu = q cols + s (0 at nu = 0), with z_nu = e^{i nu dk h} = big[q]
    small[s] from the tables half, h = (x_hi - 1)/2, so that for
    0 < nu < 2M

        2 int_1^x_hi e^{i nu dk x} dx = W_nu z_nu e^{i nu dk}

    (the modes nu and -nu of a real function pair up).  z 2 Im z =
    z^2 - |z|^2 takes the difference of the two window ends with no
    cancellation at low nu, and rounding in the large arguments of z
    moves only the upper end x_hi, where psi_out has no support; the
    lower end x = 1 comes from e^{i nu dk} alone."""
    big, small = half[0][rows], half[1]
    weight = np.multiply.outer(big.imag, small.real)
    weight += np.multiply.outer(big.real, small.imag)
    scale = 0.25 * dk
    quarter_nu_dk = np.add.outer(
        (scale * small.size) * np.arange(rows.start, rows.stop),
        scale * np.arange(small.size))
    if rows.start == 0:
        quarter_nu_dk[0, 0] = math.inf
    weight /= quarter_nu_dk
    return weight


def _exterior_share(c: np.ndarray, c_b: np.ndarray, r: int, nf: int,
                    dk: float, x_hi: float) -> complex:
    """Branch r of unitarity_audit's exterior, T_r, with the window
    integral outside = Re(T_0 + T_1 + T_2 + T_3) / nf.

    |psi_out|^2 for psi_out = sum_m c_m e^{-ik_m x} + (c B)_m e^{ik_m x}
    at k_m = (m + 1/2) dk, m < n, is sampled on x_j = 2pi j / (nf dk):
    e^{-ik_m x_j} = e^{-i pi j/nf} e^{-2pi i j m/nf} and
    e^{+ik_m x_j} = e^{-i pi j/nf} e^{-2pi i j (nf-1-m)/nf}, so
    |psi_out(x_j)|^2 = |F_j|^2 with F the nf-point FFT of d: c at the
    bottom, c B reversed at the top.  nf = 4M with M >= n, so c lies in
    d's first quarter, reversed c B in its last, and the middle two are
    zero.  With j = 4i + r (Bailey's four-step split), branch r is one
    FFT of length M,

        F_{4i+r} = fft_M(e^{-2pi i r m/nf} (c + i^r rev(c B)))_i,

    and G_r is the full M-point FFT of |F_{4i+r}|^2 (a real FFT and its
    conjugate mirror).  The modes of |psi_out|^2 are
    g_nu = (1/nf) sum_r e^{-2pi i r nu/nf} G_r[nu mod M], band-limited
    below nf/2 (nf >= 4n), so the window integral of the sampled series
    over [1, x_hi] is exact mode by mode, and branch r adds

        T_r = (x_hi - 1) G_r[0] + W_2M z_2M e^{2iM b_r} G_r[0] / 2
              + sum_{0<nu<2M} W_nu z_nu e^{i nu b_r} G_r[nu mod M],

    b_r = dk - 2pi r/nf, W and z from _window_weights, in blocks of
    _CHUNK_NODES modes with the phases from _phase_tables.  No array is
    longer than M and no FFT longer than M.
    """
    n = c.size
    quarter = nf // 4
    cols = _row_length(quarter)
    rows = quarter // cols
    shift = -2.0 * math.pi * r / nf
    u = np.zeros(quarter, dtype=complex)
    u[quarter - n:] = c_b[::-1]
    u[quarter - n:] *= 1j ** r
    u[:n] += c
    big, small = _phase_tables(shift, rows, cols)
    grid = u.reshape(rows, cols)
    grid *= small
    grid *= big[:, None]
    fft.fft(u, out=u)
    g = np.abs(u)
    del u, grid
    g *= g
    spectrum = fft.rfft(g)
    del g
    G = np.empty(quarter, dtype=complex)
    G[:spectrum.size] = spectrum
    np.conjugate(spectrum[(quarter - 1) // 2:0:-1], out=G[spectrum.size:])
    del spectrum

    # e^{i nu dk h} and e^{i nu b_r} z_nu, nu <= 2M
    half = _phase_tables(0.5 * dk * (x_hi - 1.0), 2 * rows + 1, cols)
    big, small = _phase_tables(dk + shift, 2 * rows + 1, cols)
    big *= half[0]
    small *= half[1]
    # nu = 0 and nu = 2M, which have no -nu partner
    top = _window_weights(half, slice(2 * rows, 2 * rows + 1), dk)[0, 0]
    share = G[0] * ((x_hi - 1.0) + 0.5 * top * big[2 * rows] * small[0])
    grid = G.reshape(rows, cols)
    step = max(1, _CHUNK_NODES // cols)
    for q in range(0, 2 * rows, step):
        block = slice(q, min(q + step, 2 * rows))
        part = grid[np.arange(block.start, block.stop) % rows]
        part *= _window_weights(half, block, dk)
        share += big[block] @ (part @ small)
    return share


def _exterior(c: np.ndarray, c_b: np.ndarray, dk: float,
              x_hi: float) -> float:
    """int_1^x_hi |psi_out|^2 dx for psi_out's midpoint coefficients c
    and c B: the four branches of _exterior_share on _ordered_map's
    threads, their shares added in branch order."""
    nf = _fft_length(_FFT_PAD * c.size)
    shares = _ordered_map(
        lambda r: _exterior_share(c, c_b, r, nf, dk, x_hi), range(4))
    return (shares[0] + shares[1] + shares[2] + shares[3]).real / nf


def unitarity_audit(p: InitialProfile, t: float, w: WellParameters) -> dict:
    """Decompose total probability at time t into inside + outside + tail.

    One shared midpoint rule on [0, k_max] feeds both regions: the interior
    series (1/2pi) e^{-ik^2 t} |A|^2 phi sin(kx), summed on well_rule's
    nodes by panel_sine_sum (phi by _spectrum, both at the flat
    midpoints k_j = (j + 1/2) dk, _CHUNK_NODES at a time) and integrated
    with its weights, and the exterior branch
    (1/2pi) e^{-ik^2 t} conj(A) phi (e^{-ikx} + B e^{ikx}), whose |psi|^2
    on a grid of nf >= 4n points (a 5-smooth multiple of 4) is integrated
    over the window mode by mode, exactly for its sampled Fourier series:
    four branches of one complex and one real FFT of nf/4 points each,
    each of which reduces its modes to its share of the window integral
    (_exterior_share).  The midpoint chunks and the branches run on
    _ordered_map's threads; the results do not depend on their count.
    The step resolves both the narrowest resonance spike (10 points per
    width) and the chirp e^{-ik^2 t} (the wrap length 2pi/dk exceeds 2.2x
    the ballistic range 2 k_max t, so nothing aliases back); the exterior integral stops at the wavefront
    x_hi = 2.2 k_max t + 50, beyond which the signal has no support and
    only the periodic image of the x < 0 continuation lives.

    The rule covers k up to audit_cutoff(p).  Returns {'inside',
    'outside', 'tail', 'total', 'dk', 'x_hi'}.
    """
    if not (0.0 <= t < math.inf):
        raise ValueError("t must be finite and >= 0")
    k_max = audit_cutoff(p)
    dk = float(np.min(-enumerate_poles(w, k_max).k.imag)) / 10.0
    if t > 0.0:
        dk = min(dk, math.pi / (2.2 * k_max * t))
    n = int(math.ceil(k_max / dk))
    dk = k_max / n
    x_in, wx = well_rule()
    psi_in, c, c_b = _audit_series(p, t, w, dk, n, x_in)
    inside = float(wx @ np.abs(psi_in) ** 2)

    x_hi = 2.2 * k_max * t + 50.0
    outside = _exterior(c, c_b, dk, x_hi)
    del c, c_b

    tail = spectral_tail_mass(p, w, k_max)
    return {
        "inside": inside,
        "outside": outside,
        "tail": tail,
        "total": inside + outside + tail,
        "dk": dk,
        "x_hi": x_hi,
    }
