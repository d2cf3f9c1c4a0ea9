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
  one row per echo order) hold only the orders that reach the window;
- separability is invariant: a product-state input emerges as the product of
  the per-axis transformed factors.

The direct transform has one code path, ``_transform_tiles``: the output
kernel along t1 and then along t2, on rectangular tiles of an output
window. It sets the physics (the kernel, the round trip in samples and the
window's offsets on the input grid) and leaves the lattice sums to
``echo_kernels._tile_sums``, the tile walk, which runs the t1 pass once per
row of tiles and writes every tile into one reused buffer; each tile is bit
for bit the two passes of ``_lattice_apply`` run for it alone.
``transform_output`` (the full echo extension) and
``transform_output_on_window`` are its one-tile cases and return that
buffer, shared with nothing, without a copy; ``validation`` walks a large
window tile by tile, so the window is never stored whole. ``cw_output``
filters a 1-D signal by the autocorrelation of the kernel it is given,
through ``apply_train`` asked for the input's own window.

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
    SampledSignal,
    _STRIP,
    _amplitudes,
    _gaussian,
    _grid_offset,
    _lattice_stride,
    _sum_abs_sq,
    _tile_sums,
    _window_size,
    apply_train,
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
    """Joint amplitude sampled on a uniform (t1, t2) grid.

    The values are stored as float64 for real input (integers included) and
    complex128 otherwise; the transforms keep that dtype. ``norm_sq`` and
    ``exchange_symmetry_error`` walk the grid in strips of at most
    ``echo_kernels._STRIP`` cells, so besides the grid they hold one strip
    (about 1.5 MiB of complex128, 1 MiB of float64) whatever the grid's
    size. Both return the values of the whole-array expressions bit for bit.
    """

    t1_start: float
    t2_start: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = _amplitudes(self.values)
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
        v = self.values
        rows = max(1, _STRIP // max(1, len(v)))  # at most _STRIP cells per strip
        # the max over the same differences as |v - v.T|, strip by strip
        return max(
            float(np.max(np.abs(v[i : i + rows] - v[:, i : i + rows].T)))
            for i in range(0, len(v), rows)
        )

    def norm_sq(self) -> float:
        """Squared L2 norm, sum |Phi|^2 dt^2."""
        return float(_sum_abs_sq(self.values) * self.dt**2)


def symmetric_axis(g: TwoPhotonGaussian, dt: float) -> tuple[float, int]:
    """Input window [-4(sigma+beta), 4(sigma+beta)] snapped to the grid:
    its start and sample count."""
    half = 4.0 * (g.sigma + g.beta)
    n_half = int(math.ceil(half / dt))
    return -n_half * dt, 2 * n_half + 1


def gaussian_amplitude(g: TwoPhotonGaussian, dt: float) -> JointAmplitudeGrid:
    """Sample the double-Gaussian pair amplitude on a square grid.

    ``exp(-(t1+t2)^2 / 2 beta^2) exp(-(t1-t2)^2 / 2 sigma^2)``, peak value 1
    at the origin, on the ``symmetric_axis`` window, wide enough that edge
    values are negligible. Each factor is taken in units of its width
    (``echo_kernels._gaussian``), so the grid scales with its times. The
    result is exchange symmetric bit for bit: ``t_i + t_j`` and
    ``(t_i - t_j)^2`` are exact mirrors of each other.
    """
    t_start, n = symmetric_axis(g, dt)
    t = t_start + dt * np.arange(n)
    s = t[:, None] + t[None, :]
    d = t[:, None] - t[None, :]
    vals = _gaussian(s, g.beta) * _gaussian(d, g.sigma)
    return JointAmplitudeGrid(t_start, t_start, dt, vals)


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
    ((_, _, out),) = _transform_tiles(phi, kba, phi.t1_start, phi.t2_start, [(rows, [cols])])
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
    only the kernel terms that reach the window are summed. The window
    starts at ``t_out_start`` on both axes, which must lie on both input
    grids, and is ``n_out`` samples wide: an integer, 0 for an empty grid,
    else ``ValueError``. This is the one-tile case of ``_transform_tiles``.
    """
    whole = slice(0, _window_size(n_out))
    ((_, _, out),) = _transform_tiles(
        phi, kernel_ba(j, T, eps), t_out_start, t_out_start, [(whole, [whole])]
    )
    return JointAmplitudeGrid(t_out_start, t_out_start, phi.dt, out)


def _transform_tiles(
    phi: JointAmplitudeGrid,
    kernel: DeltaTrain,
    t1_start: float,
    t2_start: float,
    tiles: list[tuple[slice, list[slice]]],
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Rectangular tiles of the direct tensor transform by ``kernel`` (the
    output kernel ``kernel_ba``, built by the caller) on the output window
    whose axes start at ``t1_start`` and ``t2_start``, each of which must lie
    on its input axis's grid.

    ``tiles`` pairs a t1 range with the t2 ranges to evaluate on it, both as
    slices of sample offsets into the window. Yields ``(t1 range, t2 range,
    values)`` for each pair in order, from ``echo_kernels._tile_sums`` with
    the kernel, its period in samples and the window's offsets on the input
    grid; that walk says how the tiles are summed and held.
    """
    stride = _lattice_stride(kernel.period, phi.dt)
    base1 = _grid_offset(t1_start, phi.t1_start, phi.dt)
    base2 = _grid_offset(t2_start, phi.t2_start, phi.dt)
    yield from _tile_sums(phi.values, kernel.c, kernel.k0, stride, base1, base2, tiles)


def cw_output(d: SampledSignal, kernel: DeltaTrain) -> tuple[float, SampledSignal]:
    """Output correlation function of a cw-pumped pair, and its defect.

    For an input depending only on the time difference, each photon's echo
    ladder acts on it once from each side, so the output is the input
    filtered by the autocorrelation of the output kernel ``kernel``
    (``kernel_ba``, or a cut of it). Exact interference makes that
    autocorrelation the unit train, so the result equals the input again;
    the returned residual is the max-abs deviation from that identity over
    the sampled window, which shrinks like rho^kmax for a kernel cut after
    kmax echoes.
    """
    rec = apply_train(correlate(kernel, kernel), d, d.t0, len(d))
    return float(np.max(np.abs(rec.values - d.values))), rec


def _ladder_table(
    s: np.ndarray, g: TwoPhotonGaussian, j: JunctionCoupling, T: float, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Echo-order tables of the pulsed closed form on the 1-D sums ``s``.

    Returns ``e_beta[q] = E(q) = exp(-(s - qT)^2 / 2 beta^2)`` for
    q = 0 .. mmax + 2, ``coef[m] = tau^2 rho^m`` and the ladder sums
    ``f[m] = F_m(s)`` for m = 0 .. mmax, the paper's partial-ladder sums
    ``F_m(s) = tau^2 sum_j rho^(m+2j) E(m+2j+2)``, j >= 0, over transit
    totals of the parity of m (so F_m -> rho^m as the envelope flattens,
    the cw limit), each the downward running sum
    ``F_m = tau^2 rho^m E(m+2) + F_(m+2)`` of its parity. ``mmax`` is
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
    e_beta = _gaussian(s - (np.arange(mmax + 3) * T)[:, None], g.beta)
    coef = np.array([tau * tau * rho**m for m in range(mmax + 1)])[:, None]
    f = coef * e_beta[2:]
    for top in range(max(mmax - 1, 0), mmax + 1):
        f[top::-2] = np.cumsum(f[top::-2], axis=0)
    return e_beta, coef, f


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
    an independent model. Refuses with ``ValueError`` a window whose sums
    ``t1 + t2`` are not all finite, and an ``n`` that is not an integer or
    is negative; ``n = 0`` gives an empty grid.
    """
    n = _window_size(n)
    if n == 0:
        return JointAmplitudeGrid(t_start, t_start, dt, np.zeros((0, 0)))
    rho, tau = j.rho, j.tau
    # one (t1, t2) pair per value: s[i + j] = t1 + t2, d[i - j + n - 1] = t1 - t2
    with np.errstate(over="ignore", invalid="ignore"):
        t = t_start + dt * np.arange(n)
        s = np.concatenate((t[0] + t, t[-1] + t[1:]))
    if not np.all(np.isfinite(s)):
        raise ValueError("the window's sums t1 + t2 must be finite")
    d = np.concatenate((t[0] - t[::-1], t[1:] - t[0]))

    e_beta, coef, f_chain = _ladder_table(s, g, j, T, eps)
    a = tau * tau * f_chain - coef * e_beta[:-2]
    a[0] = tau * tau * f_chain[0] + rho * rho * e_beta[0]
    m_t = (np.arange(1, len(a)) * T)[:, None]
    b = np.empty_like(a)
    b[0] = _gaussian(d, g.sigma)
    b[1:] = _gaussian(d + m_t, g.sigma) + _gaussian(d - m_t, g.sigma)
    c = a.T @ b
    r = np.arange(n)
    out = c[r[:, None] + r[None, :], r[:, None] - r[None, :] + (n - 1)]
    return JointAmplitudeGrid(t_start, t_start, dt, out)


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
