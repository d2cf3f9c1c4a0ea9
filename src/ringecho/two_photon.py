"""Two-photon wave-packet shaping by reflection from the ring cavity.

A photon pair incident on the junction acquires, per photon, the full echo
ladder of the cavity. The joint temporal amplitude therefore transforms by
the same unimodular kernel applied independently along each time axis. Three
consequences fall out and are all implemented and cross-checked here:

- a cw-pumped (frequency-anticorrelated) pair keeps its narrow correlation
  function exactly: every echo amplitude for one photon interferes away
  against matched echo pairs, an exact dispersion cancellation;
- for pulsed-Gaussian pairs there is a closed-form output built from the
  partial-ladder sums ``F_m``, verified against the direct tensor transform
  rather than assumed; its ``E(q)`` and ``F_m`` tables (``_ladder_table``,
  which ``F_m`` also reads) hold only the echo orders that reach the window;
- separability is invariant: a product-state input emerges as the product of
  the per-axis transformed factors.

The direct transform has one code path, ``_transform_tiles``: two
``_lattice_apply`` passes, along t1 and then along t2, restricted to a
rectangular tile of an output window. ``transform_output`` (the full echo
extension) and ``transform_output_on_window`` are its one-tile cases;
``validation`` walks a large window tile by tile, so the window is never
stored whole.

Amplitudes are unnormalized throughout; only relative quantities are used.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core_response import JunctionCoupling
from .echo_kernels import (
    DeltaTrain,
    IncommensurateGrid,
    SampledSignal,
    _lattice_apply,
    _lattice_stride,
    correlate,
    kernel_ba,
)


@dataclass(frozen=True)
class TwoPhotonGaussian:
    """Double-Gaussian pair amplitude: correlation time sigma, pulse duration beta."""

    sigma: float
    beta: float

    def __post_init__(self) -> None:
        if self.sigma <= 0.0 or self.beta <= 0.0:
            raise ValueError("sigma and beta must be positive")


@dataclass(frozen=True)
class JointAmplitudeGrid:
    """Complex joint amplitude sampled on a uniform (t1, t2) grid."""

    t1_start: float
    t2_start: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def t1(self) -> np.ndarray:
        return self.t1_start + self.dt * np.arange(self.values.shape[0])

    @property
    def t2(self) -> np.ndarray:
        return self.t2_start + self.dt * np.arange(self.values.shape[1])

    def exchange_symmetry_error(self) -> float:
        """Max |Phi(t1,t2) - Phi(t2,t1)|; grid must be square on equal axes.

        The axis starts must agree to within ``1e-12 dt``, so the check holds
        at every sample spacing.
        """
        if self.values.shape[0] != self.values.shape[1] or not math.isclose(
            self.t1_start, self.t2_start, rel_tol=0.0, abs_tol=1e-12 * self.dt
        ):
            raise ValueError("exchange symmetry needs identical axes")
        return float(np.max(np.abs(self.values - self.values.T)))

    def norm_sq(self) -> float:
        """Squared L2 norm, sum |Phi|^2 dt^2."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dt**2)


def symmetric_axis(g: TwoPhotonGaussian, dt: float) -> tuple[float, int]:
    """Input window [-4(sigma+beta), 4(sigma+beta)] snapped to the grid:
    its start and sample count."""
    half = 4.0 * (g.sigma + g.beta)
    n_half = int(math.ceil(half / dt))
    return -n_half * dt, 2 * n_half + 1


def _square(x: float) -> float:
    """``x**2``, or inf where the float square overflows (x above ~1.34e154).

    ``**`` is kept for finite squares: it can differ from ``x * x`` in the
    last bit, and the figure files are pinned to it.
    """
    try:
        return x**2
    except OverflowError:
        return math.inf


def gaussian_amplitude(g: TwoPhotonGaussian, dt: float) -> JointAmplitudeGrid:
    """Sample the double-Gaussian pair amplitude on a square grid.

    ``exp(-(t1+t2)^2 / 2 beta^2) exp(-(t1-t2)^2 / 2 sigma^2)``, peak value 1
    at the origin, on the ``symmetric_axis`` window, wide enough that edge
    values are negligible. The result is exchange symmetric bit for bit:
    ``t_i + t_j`` and ``(t_i - t_j)^2`` are exact mirrors of each other.
    """
    t_start, n = symmetric_axis(g, dt)
    t = t_start + dt * np.arange(n)
    s = t[:, None] + t[None, :]
    d = t[:, None] - t[None, :]
    vals = np.exp(-(s**2) / (2.0 * _square(g.beta)) - (d**2) / (2.0 * _square(g.sigma)))
    return JointAmplitudeGrid(t_start, t_start, dt, vals.astype(np.complex128))


def transform_output(
    phi: JointAmplitudeGrid,
    j: JunctionCoupling,
    T: float,
    eps: float = 1e-12,
) -> JointAmplitudeGrid:
    """Joint amplitude after both photons reflect from the cavity.

    Applies the output echo kernel independently along each time axis:
    ``Phi_out(t1, t2) = sum_{n,m} K_n K_m Phi(t1 - nT, t2 - mT)`` with
    K_0 = -rho and K_n = tau^2 rho^(n-1). The axes are extended to hold all
    retained echoes; exchange symmetry of the input is preserved because the
    same kernel acts on both axes. This is the one-tile case of
    ``_transform_tiles`` on the input's own starts.
    """
    kba = kernel_ba(j, T, eps)
    ext = (kba.k0 + len(kba.c) - 1) * _lattice_stride(T, phi.dt)
    rows, cols = (slice(0, n + ext) for n in phi.values.shape)
    ((_, _, out),) = _transform_tiles(
        phi, j, T, phi.t1_start, phi.t2_start, [(rows, [cols])], eps
    )
    return JointAmplitudeGrid(phi.t1_start, phi.t2_start, phi.dt, out)


def transform_output_on_window(
    phi: JointAmplitudeGrid,
    j: JunctionCoupling,
    T: float,
    t_out_start: float,
    n_out: int,
    eps: float = 1e-12,
) -> JointAmplitudeGrid:
    """Direct tensor transform evaluated on a requested square output window.

    Same sum as ``transform_output`` restricted to the window, so a small
    display window does not force materializing the full echo extension:
    ``_lattice_apply`` keeps only the kernel terms that reach the window.
    The window starts at ``t_out_start`` on both axes, which must lie on
    both input grids. This is the one-tile case of ``_transform_tiles``.
    """
    whole = slice(0, n_out)
    ((_, _, out),) = _transform_tiles(
        phi, j, T, t_out_start, t_out_start, [(whole, [whole])], eps
    )
    return JointAmplitudeGrid(t_out_start, t_out_start, phi.dt, out)


def _grid_offset(t_out_start: float, t_in_start: float, dt: float) -> int:
    """Samples from an input axis's start to an output window's start, which
    must lie on the input grid (else ``IncommensurateGrid``)."""
    off = (t_out_start - t_in_start) / dt
    base = round(off)
    if abs(off - base) > 1e-6:
        raise IncommensurateGrid(
            f"output window start {t_out_start} does not lie on the input grid "
            f"starting at {t_in_start} with spacing {dt}"
        )
    return base


def _transform_tiles(
    phi: JointAmplitudeGrid,
    j: JunctionCoupling,
    T: float,
    t1_start: float,
    t2_start: float,
    tiles: list[tuple[slice, list[slice]]],
    eps: float = 1e-12,
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Rectangular tiles of the direct tensor transform on the output window
    whose axes start at ``t1_start`` and ``t2_start``.

    ``tiles`` pairs a t1 range with the t2 ranges to evaluate on it, both as
    slices of sample offsets into the window (start and stop given, step 1).
    Yields ``(t1 range, t2 range, values)`` for each pair in order, ``values``
    of shape ``(t1 count, t2 count)`` with the t2 axis outermost in memory
    (``values.T`` is C-contiguous). The first ``_lattice_apply`` pass, along
    t1, runs once per t1 range and serves all of its t2 ranges; the second,
    along t2, runs once per tile. So no more than one tile and one t1 strip
    are held at a time, whatever the window's size. A tile's cells equal the
    whole window's to rounding, and bitwise when the tile is the window.
    Each window start must lie on its input axis's grid.
    """
    stride = _lattice_stride(T, phi.dt)
    base1 = _grid_offset(t1_start, phi.t1_start, phi.dt)
    base2 = _grid_offset(t2_start, phi.t2_start, phi.dt)
    kba = kernel_ba(j, T, eps)
    for rows, cols_list in tiles:
        n1 = rows.stop - rows.start
        mid = _lattice_apply(kba.c, kba.k0, stride, phi.values, 0, base1 + rows.start, n1)
        for cols in cols_list:
            n2 = cols.stop - cols.start
            yield rows, cols, _lattice_apply(kba.c, kba.k0, stride, mid, 1, base2 + cols.start, n2)


def cw_output(
    d: SampledSignal, j: JunctionCoupling, T: float, kmax: int
) -> tuple[float, SampledSignal]:
    """Output correlation function of a cw-pumped pair, and its defect.

    For an input depending only on the time difference, each photon's echo
    ladder acts on it once from each side, so the output is the input
    filtered by the autocorrelation of the output kernel, here cut at
    ``kmax`` transits: ``-rho``, then ``tau^2 rho^(n-1)`` for n = 1 ..
    kmax. Exact interference makes that autocorrelation the unit train, so
    the result equals the input again; the returned residual is the max-abs
    deviation from that identity over the sampled window, which shrinks
    like rho^kmax.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    echoes = j.tau * j.tau * j.rho ** np.arange(kmax)
    kernel = DeltaTrain(T, 0, np.concatenate([[-j.rho], echoes]))
    pairs = correlate(kernel, kernel)
    stride = _lattice_stride(T, d.dt)
    rec = _lattice_apply(pairs.c, pairs.k0, stride, d.values, 0, 0, len(d))
    residual = float(np.max(np.abs(rec - d.values)))
    return residual, SampledSignal(d.t0, d.dt, rec)


def resummation_check(
    rho: float, d: SampledSignal, T: float, nmax: int = 80
) -> float:
    """Brute-force double echo ladder against its geometric resummation.

    Left side: ``sum_{n,m>=1} rho^(n+m) D(x + (n-m)T)`` summed pair by pair.
    Right side: ``rho^2/(1-rho^2) sum_k rho^|k| D(x + kT)``. Returns the
    maximum absolute deviation over the sampled window.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    stride = _lattice_stride(T, d.dt)

    # lag coefficients of D(x - kT): the pair (n, m), 1 <= n, m <= nmax, adds
    # rho^(n+m) at k = m - n, index nmax - 1 + k; pairs are added one at a
    # time, n outer, each row's powers sliced from one table g[i] = rho^(i+2)
    lhs = np.zeros(2 * nmax - 1)
    g = rho ** np.arange(2, 2 * nmax + 1)
    for n in range(1, nmax + 1):
        lhs[nmax - n : 2 * nmax - n] += g[n - 1 : n - 1 + nmax]
    pref = rho * rho / (1.0 - rho * rho)
    # terms down to 1e-18, counted from logarithms with a guard of 2, then cut exactly
    n_tail = min(100 * nmax, max(0, math.ceil(math.log(1e-18 / pref) / math.log(rho)) + 2))
    tail = pref * rho ** np.arange(1, n_tail + 1)
    tail = tail[tail >= 1e-18]
    rhs = np.concatenate([tail[::-1], [pref], tail])
    left = _lattice_apply(lhs, 1 - nmax, stride, d.values, 0, 0, len(d))
    right = _lattice_apply(rhs, -len(tail), stride, d.values, 0, 0, len(d))
    return float(np.max(np.abs(left - right)))


def _ladder_table(
    s: np.ndarray, g: TwoPhotonGaussian, j: JunctionCoupling, T: float, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Echo-order tables of the pulsed closed form on the 1-D sums ``s``.

    Returns ``e_beta[q] = E(q) = exp(-(s - qT)^2 / 2 beta^2)`` for
    q = 0 .. mmax + 2, ``coef[m] = tau^2 rho^m`` and the ladder sums
    ``f[m] = F_m(s)`` for m = 0 .. mmax, each ``F_m`` the downward running
    sum ``F_m = tau^2 rho^m E(m+2) + F_(m+2)`` of its parity. ``mmax`` is
    the first of two orders: the eps order ``ceil(ln eps / ln rho)``, past
    which ``rho^m <= eps``, and the last order whose Gaussian reaches the
    sums, ``ceil((max s + 39 beta) / T)``. ``exp(-39^2 / 2)`` is 0.0 in
    float64, so every row past that reach is an exact zero and leaving it
    out changes no value. The eps order alone stands when the reach is not
    finite.
    """
    rho, tau = j.rho, j.tau
    mmax = 0 if rho == 0.0 else max(1, int(math.ceil(math.log(eps) / math.log(rho))))
    reach = (s.max(initial=-math.inf) + 39.0 * g.beta) / T
    if math.isfinite(reach):
        mmax = min(mmax, max(0, math.ceil(reach)))
    e_beta = np.exp(-((s - (np.arange(mmax + 3) * T)[:, None]) ** 2) / (2.0 * _square(g.beta)))
    coef = np.array([tau * tau * rho**m for m in range(mmax + 1)])[:, None]
    f = coef * e_beta[2:]
    for top in range(max(mmax - 1, 0), mmax + 1):
        f[top::-2] = np.cumsum(f[top::-2], axis=0)
    return e_beta, coef, f


def F_m(
    m: int,
    s_sum,
    g: TwoPhotonGaussian,
    j: JunctionCoupling,
    T: float,
    eps: float = 1e-12,
):
    """Partial echo-ladder sum entering the pulsed-Gaussian closed form.

    ``F_m(s) = tau^2 sum_j rho^(|m|+2j) exp(-(s - (|m|+2j+2) T)^2 / 2 beta^2)``
    for j >= 0: the ladder runs over transit totals of the same parity as
    |m|, which is the only reading consistent with the cw limit, where
    F_m -> rho^|m| as the pulse envelope flattens. A row of the closed
    form's ``_ladder_table``, truncated as it is: 0.0 past its last order.
    ``m`` must be an integer and ``s_sum`` finite, else ``ValueError``.
    """
    if not float(m).is_integer():
        raise ValueError(f"m must be an integer, got {m}")
    s = np.asarray(s_sum, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("s must be finite")
    _, _, f = _ladder_table(s.ravel(), g, j, T, eps)
    mm = abs(int(m))
    out = f[mm].reshape(s.shape) if mm < len(f) else np.zeros_like(s)
    return out if out.ndim else float(out)


def gaussian_output_closed_form(
    g: TwoPhotonGaussian,
    j: JunctionCoupling,
    T: float,
    t_start: float,
    n: int,
    dt: float,
    eps: float = 1e-12,
) -> JointAmplitudeGrid:
    """Closed-form output amplitude for the pulsed double-Gaussian input.

    Assembles the three-term expression built from the ladder sums ``F_m``:
    ``out = sum_m A_m(t1 + t2) B_m(t1 - t2)``, where each ``A_m`` is a
    combination of ``F_m`` and Gaussians ``E(q)`` in the sum coordinate and
    each ``B_m`` a pair of Gaussians in the difference coordinate. On the
    grid, ``s = t1 + t2`` and ``d = t1 - t2`` take only ``2n - 1`` values, so
    the factors are rows of two ``(mmax + 1, 2n - 1)`` arrays ``A`` and
    ``B``, with ``E(q)`` and ``F_m`` taken from ``_ladder_table``, which
    holds only the echo orders that reach the window. Then
    ``C = A.T @ B`` holds every pairing and
    ``out[i, j] = C[i + j, i - j + n - 1]``. Cost: O(mmax n) exponentials
    and memory, plus one O(mmax n^2) matrix product. Verified elsewhere
    against the direct tensor transform; treated as a derived identity, not
    an independent model.
    """
    rho, tau = j.rho, j.tau
    t = t_start + dt * np.arange(n)
    # one (t1, t2) pair per value: s[i + j] = t1 + t2, d[i - j + n - 1] = t1 - t2
    s = np.concatenate((t[0] + t, t[-1] + t[1:]))
    d = np.concatenate((t[0] - t[::-1], t[1:] - t[0]))
    two_s2 = 2.0 * _square(g.sigma)

    e_beta, coef, f_chain = _ladder_table(s, g, j, T, eps)
    a = tau * tau * f_chain - coef * e_beta[:-2]
    a[0] = tau * tau * f_chain[0] + rho * rho * e_beta[0]
    m_t = (np.arange(1, len(a)) * T)[:, None]
    b = np.empty_like(a)
    b[0] = np.exp(-(d**2) / two_s2)
    b[1:] = np.exp(-((d + m_t) ** 2) / two_s2) + np.exp(-((d - m_t) ** 2) / two_s2)
    c = a.T @ b
    r = np.arange(n)
    out = c[r[:, None] + r[None, :], r[:, None] - r[None, :] + (n - 1)]
    return JointAmplitudeGrid(t_start, t_start, dt, out.astype(np.complex128))


def peak_locate(phi: JointAmplitudeGrid) -> tuple[float, float]:
    """Location of the dominant |Phi| peak; ties go to the smallest t1 + t2."""
    mag = np.abs(phi.values)
    mx = mag.max()
    idx = np.argwhere(mag == mx)
    t1 = phi.t1
    t2 = phi.t2
    best = min(idx, key=lambda p: (t1[p[0]] + t2[p[1]], t1[p[0]]))
    return float(t1[best[0]]), float(t2[best[1]])


def separability_rank(phi: JointAmplitudeGrid) -> np.ndarray:
    """Singular values of the amplitude matrix, descending, scaled to s1 = 1."""
    s = np.linalg.svd(phi.values, compute_uv=False)
    if s[0] == 0.0:
        return s
    return s / s[0]
