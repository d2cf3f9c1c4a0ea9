"""Time-domain response of the ring cavity as weighted delta trains.

Every impulse response of the lossless cavity is a distribution supported on
the round-trip lattice, ``sum_k c_k delta(t - k T)``. ``DeltaTrain`` is
that train and nothing more: the real weights as a dense array over an
integer offset span, plus a certified bound on the tail cut off below the
truncation floor, so downstream equality tests have principled tolerances
instead of guessed ones.

Kernels
-------
- ``kernel_ca``: input -> circulating field, weights ``tau * rho^n`` (n >= 0).
- ``kernel_ba``: input -> output, ``-rho`` at 0 then ``tau^2 rho^(n-1)``.
- ``kernel_ab``: output -> input, the time-reversed (anticausal) mirror.

``convolve`` composes kernels, ``correlate`` builds commutator trains, and
``apply_train`` runs a kernel over a uniformly sampled envelope. Amplitudes
are stored as float64 for real values and complex128 otherwise: the weights
are real, so a real envelope stays real through every sum.

Lattice algebra
---------------
The lossless cavity is a first-order all-pass section whose delay is one
round trip, so every sum here is a strided 1-D convolution. Trains are
stored in the layout those sums take, ``k0`` plus an array ``c`` over the
offset span, and the sums run on ``c`` itself in compiled numpy code.

Every lattice sum is taken here, by ``_lattice_apply``: sampled signals,
and ``convolve`` and ``correlate``, which apply one train's weights to the
other's at stride 1 over the full span of lags the pairwise definitions
reach. It cuts the axis into blocks of one round trip and keeps only the
kernel terms that reach the requested output window. It runs in three
steps: ``_sum_geometry``, which takes from shapes and offsets alone the
kernel terms that reach the window, the branch and its band matrices;
``_lattice_blocks``, which cuts the input into blocks; and
``_blocked_product``, which adds the sum up from them. Two callers here run
the steps themselves: ``convolve`` and ``correlate``, to read the branch
their rounding bound depends on, and ``_tile_sums``, the tile walk of the
two-photon transforms, which blocks each strip once for several windows and
makes each window's geometry once for several strips. The sum has three
branches:

- wide inputs, and output windows of no more blocks than there are
  columns: a matrix product with the banded Toeplitz matrix of the kernel,
  from input blocks to output blocks (the all-pass section's impulse
  response as a block-Toeplitz operator). Each band matrix holds no more
  entries than the output it produces or, for such a window, than the
  input slice it reads, so a narrow window of a long kernel costs its
  window's multiply-adds and not the whole convolution's;
- long kernels on long inputs (both at least ``_MIN_FFT`` blocks, and the
  shorter times the column count at least ``_MIN_FFT_WORK``): FFT
  convolution by overlap-add (Cooley & Tukey, Math. Comp. 19, 297 (1965);
  Oppenheim & Schafer, Discrete-Time Signal Processing), which costs
  O(n log n) instead of terms x blocks;
- everything else: one direct ``np.convolve`` per within-block column.

The direct branches agree with the pairwise definitions to rounding
(relative 1e-13), and single-term trains give bitwise-identical output.
FFT rounding is absolute instead: an output sample deviates from the exact
sum by about ``eps log2(n) sum|c| max|x|``, with n the length of the full
convolution in blocks, ``c`` the kernel weights and ``x`` the input. For
trains (stride 1, one column) the FFT is taken only when both have at least
``_MIN_FFT_WORK`` terms. The trains ``convolve`` and ``correlate`` return
carry the bound of the branch their sum took as ``rounding``: each weight
is within ``eps log2(n) sum|f| sum|g|`` of the pairwise sum on the FFT
branch, and within ``gamma_m sum|f| sum|g|`` otherwise, over the m products
that meet at a lag (Higham, ch. 3 and section 24.1). ``correlate(h, h)``
is symmetrised, so ``weight(k) == weight(-k)`` holds bit for bit on every
branch.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_response import JunctionCoupling, _abs_sq


# _lattice_apply's matrix products: fewest output blocks, and fewest outputs, per product
_MIN_CHUNK = 16
_MIN_PRODUCT = 16
# _lattice_apply's FFT branch: fewest blocks in the shorter of kernel and
# input, and fewest of those times the column count; below either, the calls
# per segment cost more than the direct sum's multiply-adds
_MIN_FFT = 64
_MIN_FFT_WORK = 2048
# elements per strip of the whole-array reductions (_sum_abs_sq and
# JointAmplitudeGrid.exchange_symmetry_error): 1 MiB of complex128, 512 KiB
# of float64
_STRIP = 1 << 16


class IncommensurateGrid(ValueError):
    """Raised when a round trip is not an integer number of sample steps."""


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled envelope.

    Parameters
    ----------
    t0 : float
        Time of the first sample.
    dt : float
        Sample spacing, positive.
    values : ndarray
        Amplitudes, finite; stored as float64 for real values (integers
        included) and complex128 otherwise (``_amplitudes``).
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = _amplitudes(self.values)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def energy(self) -> float:
        """Discrete energy, sum |v|^2 dt, summed strip by strip (``_sum_abs_sq``)."""
        return float(_sum_abs_sq(self.values) * self.dt)


def _amplitudes(values) -> np.ndarray:
    """``values`` as float64 if real (integers and booleans included), else
    as complex128; an array of that dtype is not copied."""
    v = np.asarray(values)
    return v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)


def _sum_abs_sq(values: np.ndarray):
    """``np.sum(np.abs(values) ** 2)``, bit for bit, holding one strip at a time.

    numpy sums a contiguous float array pairwise: it splits n elements at
    n/2 rounded down to a multiple of 8 and adds the sums of the two parts.
    ``_pairwise_abs_sq`` makes the same splits, in memory order, down to
    parts of at most ``_STRIP`` elements, and squares and sums one part at a
    time; the working set is one strip, not the array. A C- or
    Fortran-ordered array is read in place.
    """
    flat = np.ravel(values, order="K")
    return _pairwise_abs_sq(flat, 0, flat.size)


def _pairwise_abs_sq(flat: np.ndarray, lo: int, n: int):
    """``sum |flat[lo : lo + n]|^2`` by numpy's pairwise splits."""
    if n <= _STRIP:
        return np.sum(_abs_sq(flat[lo : lo + n]))
    half = n // 2 - n // 2 % 8
    return _pairwise_abs_sq(flat, lo, half) + _pairwise_abs_sq(flat, lo + half, n - half)


@dataclass(frozen=True, eq=False)
class DeltaTrain:
    """Distribution ``sum_k c[k - k0] * delta(t - k * period)``.

    ``c`` holds the real weights over the offset span ``k0 .. k0 + len(c) - 1``
    (negative offsets represent anticausal kernels); every offset of the span
    is stored, zeros included. The constructor copies ``c`` into a read-only
    float64 array. ``tail_bound`` bounds the total absolute weight discarded
    by truncation, and ``eps`` records the truncation floor used at
    construction (0 means nothing was dropped). ``rounding`` bounds the
    rounding of each weight in the lattice sum that made it (``convolve``,
    ``correlate``); a train built from weights carries 0.
    """

    period: float
    k0: int
    c: np.ndarray
    eps: float = 0.0
    tail_bound: float = 0.0
    rounding: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        c = np.array(self.c, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("c must be a 1-D array")
        c.flags.writeable = False
        object.__setattr__(self, "k0", int(self.k0))
        object.__setattr__(self, "c", c)

    def weight(self, k: int) -> float:
        i = k - self.k0
        return float(self.c[i]) if 0 <= i < len(self.c) else 0.0

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(range(self.k0, self.k0 + len(self.c)))

    def sum_abs(self) -> float:
        return float(np.abs(self.c).sum())

    def sum_sq(self) -> float:
        return float(np.square(self.c).sum())

    def max_abs_diff(self, other: "DeltaTrain") -> float:
        """Largest weight difference over the union of spans."""
        lo, hi = min(self.k0, other.k0), max(self.k0 + len(self.c), other.k0 + len(other.c))
        a, b = (np.pad(t.c, (t.k0 - lo, hi - t.k0 - len(t.c))) for t in (self, other))
        return float(np.abs(a - b).max(initial=0.0))


def _ladder(first: float, rho: float, eps: float) -> tuple[np.ndarray, float]:
    """Weights ``first * rho^n``, n >= 0, down to the first one below ``eps``,
    and the bound ``first rho^N / (1 - rho)`` on the tail they leave out.

    The powers are running products, as a loop multiplying by rho would make
    them; their count is sized from logarithms, with a guard of 3 against
    rounding, before any is computed.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = max(0, math.ceil(math.log(eps / first) / math.log(rho))) + 3 if rho > 0.0 else 1
    steps = np.full(n + 1, rho)
    steps[0] = first
    w = np.cumprod(steps, out=steps)
    cut = int(np.argmax(w < eps))
    if not w[cut] < eps:
        raise ValueError(f"rho {rho} is too close to 1 for eps {eps}")
    return w[:cut], float(w[cut]) / (1.0 - rho)


def kernel_ca(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Impulse response from input to circulating field.

    Weights ``tau * rho^n`` at offsets n >= 0: the direct transmission plus a
    ladder of delayed, attenuated replicas. Truncated once ``tau * rho^N``
    falls below ``eps``; the dropped tail sums to ``tau rho^N / (1 - rho)``.
    """
    c, tail = _ladder(j.tau, j.rho, eps)
    return DeltaTrain(T, 0, c, eps, tail)


def kernel_ba(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Impulse response from input to output channel.

    Weight ``-rho`` at offset 0 (prompt reflection, with the external phase
    flip) and ``tau^2 rho^(n-1)`` at offsets n >= 1 (the echoes). The squared
    weights sum to 1: the map is lossless.

    The span depends on rho alone: offset 0 is kept for every rho > 0, even
    below ``eps``, so the tail bound covers every echo the kernel drops. At
    rho = 0 the kernel is the one-term pure delay, offset 1 alone.
    """
    c, tail = _ladder(j.tau * j.tau, j.rho, eps)
    k0, c = (0, np.concatenate([[-j.rho], c])) if j.rho > 0.0 else (1, c)
    return DeltaTrain(T, k0, c, eps, tail)


def kernel_ab(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Inverse impulse response, output back to input (anticausal).

    Same weights as ``kernel_ba`` at mirrored offsets: ``-rho`` at 0 and
    ``tau^2 rho^(n-1)`` at offsets -n, n >= 1. Composing with ``kernel_ba``
    gives the unit train.
    """
    f = kernel_ba(j, T, eps)
    return DeltaTrain(T, -(f.k0 + len(f.c) - 1), f.c[::-1], eps, f.tail_bound)


def _check_same_period(f: DeltaTrain, g: DeltaTrain) -> None:
    if not math.isclose(f.period, g.period, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"mismatched base periods: {f.period} vs {g.period}"
        )


def _lattice_sum(f: DeltaTrain, g: DeltaTrain, reverse_f: bool) -> DeltaTrain:
    """Shared body of ``convolve`` and ``correlate`` (``f`` reversed): the
    weights of ``f`` as a stride-1 signal under the kernel ``g``, by the
    steps of ``_lattice_apply``, with the rounding bound of the branch the
    sum took."""
    _check_same_period(f, g)
    tail = f.tail_bound * (g.sum_abs() + g.tail_bound) + g.tail_bound * f.sum_abs()
    if not len(f.c) or not len(g.c):
        return DeltaTrain(f.period, 0, [], 0.0, tail)
    fk0, fc = (-(f.k0 + len(f.c) - 1), f.c[::-1]) if reverse_f else (f.k0, f.c)
    m, n = min(len(fc), len(g.c)), len(fc) + len(g.c) - 1
    geometry = _sum_geometry(g.c, 0, 1, 0, *_block_shape(fc, 0, 1, 0), 0, n)
    c = _blocked_product(geometry, _lattice_blocks(fc, 0, 1, 0))
    eps = np.finfo(float).eps
    scale = eps * math.log2(n) if geometry.branch == "fft" else m * eps / (2.0 - m * eps)
    return DeltaTrain(f.period, fk0 + g.k0, c, 0.0, tail, scale * f.sum_abs() * g.sum_abs())


def convolve(f: DeltaTrain, g: DeltaTrain) -> DeltaTrain:
    """Convolution ``(f * g)_k = sum_m f_m g_(k-m)``.

    Realizes kernel composition. Both trains are laid out as dense arrays
    over their offset spans and combined by ``_lattice_apply``'s steps at
    stride 1: a direct sum, bitwise ``np.convolve`` of the two arrays,
    unless both have at least ``_MIN_FFT_WORK`` terms; then an FFT
    overlap-add. The result's ``rounding`` is the branch's bound on each
    weight's distance from the pairwise sum: ``eps log2(n) sum|f| sum|g|``
    on the FFT, n the result's length, else ``gamma_m sum|f| sum|g|``, m
    the shorter train's length. The result spans every lag some pair of
    offsets reaches. No truncation is applied to it (cancellations are kept
    so tests can inspect them); the tail bound of the inputs propagates as
    ``tail_f (S_g + tail_g) + tail_g S_f`` with S the total absolute weight.
    """
    return _lattice_sum(f, g, reverse_f=False)


def correlate(f: DeltaTrain, g: DeltaTrain) -> DeltaTrain:
    """Correlation ``(f x g)_k = sum_n f_n g_(n+k)``.

    The autocorrelation of a kernel is its commutator train: the weight at
    lag k of ``correlate(h, h)`` is the equal-position field commutator at
    time separation k periods. Computed as ``convolve`` with ``f`` reversed
    in offset, with the same branches, rounding bound, span and tail-bound
    rules. When ``f is g`` the weights are symmetrised, ``(c + c[::-1]) / 2``,
    so ``weight(k) == weight(-k)`` holds bit for bit on the FFT branch too;
    on the direct branch that changes no bit. The symmetrised train keeps
    the sum's ``rounding``.
    """
    h = _lattice_sum(f, g, reverse_f=True)
    if f is not g:
        return h
    return DeltaTrain(h.period, h.k0, (h.c + h.c[::-1]) / 2, 0.0, h.tail_bound, h.rounding)


def _lattice_stride(period: float, dt: float) -> int:
    """Samples per lattice period, ``period / dt`` as an exact integer.

    Raises
    ------
    IncommensurateGrid
        If the ratio is not an integer to relative tolerance 1e-9.
    """
    ratio = period / dt
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-9 * ratio:
        raise IncommensurateGrid(
            f"period {period} is not an integer multiple of the "
            f"sample spacing {dt}; resample the signal"
        )
    return stride


def _toeplitz_band(c: np.ndarray, d0: int, n_rows: int, n_cols: int) -> np.ndarray:
    """``K[r, s] = c[d0 + r - s]``, zero where that index leaves ``c``."""
    lo = d0 - n_cols + 1  # index of c at K[0, n_cols - 1]
    seg = np.zeros(n_rows + n_cols - 1)
    a, b = max(lo, 0), min(lo + len(seg), len(c))
    if a < b:
        seg[a - lo : b - lo] = c[a:b]
    # K[r, s] = seg[n_cols - 1 + r - s]: a strided view of seg, copied C-contiguous
    step = seg.itemsize
    return np.ndarray((n_rows, n_cols), seg.dtype, seg, (n_cols - 1) * step, (step, -step)).copy()


def _gemm_chunk(n_c: int, qx: int, qy: int, cols: int) -> int:
    """Output blocks per matrix product in ``_lattice_apply``; 0 picks the
    per-column path.

    A chunk spans at least the kernel length and ``_MIN_CHUNK`` blocks, so
    its band does ``(chunk + n_c - 1) / n_c`` times the needed multiply-adds:
    at most about twice for kernels of ``_MIN_CHUNK`` terms or more, up to
    ``_MIN_CHUNK`` times for a one-term kernel. When the input has more
    blocks than there are columns, the chunk is cut so that its band,
    ``chunk + n_c - 1`` input blocks wide, has no more entries than the
    ``chunk x cols`` output it produces. No chunk meets that when the kernel
    is longer than the columns; if the whole output then has no more blocks
    than there are columns (a narrow window), it is one product, whose band
    holds no more entries than the ``band x cols`` input slice it reads.
    Products smaller than ``_MIN_PRODUCT`` outputs, or more products than
    there are columns, cost more in calls than one ``np.convolve`` per
    column does.
    """
    chunk = min(qy, max(n_c, _MIN_CHUNK))
    if qx > cols and (n_c <= cols or qy > cols):
        chunk = min(chunk, cols - n_c + 1)
    if chunk < 1 or chunk * cols < _MIN_PRODUCT or -(-qy // chunk) > cols:
        return 0
    return chunk


def _overlap_add(xb: np.ndarray, c: np.ndarray, shift: int, y: np.ndarray) -> None:
    """Adds rows ``[shift, shift + len(y))`` of the full convolution of ``c``
    with every column of ``xb`` (blocks x columns), by FFT overlap-add, into
    ``y`` (output blocks x columns), which the caller zeroes.

    The longer operand is cut into segments; each takes one batched
    ``rfft``/``irfft`` pair over all columns against the transform of the
    whole shorter operand, and only the rows its result shares with the
    window are added. The transform length is the power of two at or above
    twice the shorter operand, so each segment carries more new blocks than
    the overlap it recomputes, and the three working arrays of that length
    stay within a few outputs' worth of memory.
    """
    from numpy.fft import irfft, rfft  # deferred: importing ringecho stays cheap

    n_x, n_c, cols, qy = len(xb), len(c), xb.shape[1], len(y)
    short, long = min(n_x, n_c), max(n_x, n_c)
    n_fft = 1 << (2 * short - 1).bit_length()
    seg = n_fft - short + 1
    spec = np.empty((n_fft // 2 + 1, cols), np.complex128)
    part = np.empty((n_fft, cols))
    fixed = rfft(c, n_fft)[:, None] if n_x >= n_c else rfft(xb, n_fft, axis=0)
    for a in range(0, long, seg):
        # segment a reaches full-convolution rows a .. a + len + short - 2
        lo, hi = max(a, shift), min(min(a + seg, long) + short - 1, shift + qy)
        if lo >= hi:
            continue
        if n_x >= n_c:
            rfft(xb[a : a + seg], n_fft, axis=0, out=spec)
            spec *= fixed
        else:
            np.multiply(fixed, rfft(c[a : a + seg], n_fft)[:, None], out=spec)
        irfft(spec, n_fft, axis=0, out=part)
        y[lo - shift : hi - shift] += part[lo - a : hi - a]


class _Blocks(NamedTuple):
    """An array cut into blocks of ``stride`` samples along one axis
    (``_lattice_blocks``), as ``_blocked_product`` reads it."""

    xb: np.ndarray  # (blocks, float columns); row p holds samples from p stride - pad on
    stride: int
    pad: int  # zero samples ahead of sample 0
    dtype: np.dtype  # float64 or complex128, the input's and the output's
    rest: tuple[int, ...]  # the lengths of the other axes, in the order kept
    axis: int


def _block_shape(x: np.ndarray, axis: int, stride: int, pad: int) -> tuple[int, int]:
    """``(blocks, float columns)`` of ``_lattice_blocks(x, axis, stride, pad)``,
    without cutting them."""
    rest = x.swapaxes(axis, 0).shape[1:]
    return -(-(pad + x.shape[axis]) // stride), stride * math.prod(rest) * (x.itemsize // 8)


def _lattice_blocks(x: np.ndarray, axis: int, stride: int, pad: int) -> _Blocks:
    """``x`` along ``axis``, behind ``pad`` zero samples, cut into blocks of
    ``stride`` samples: one row per block, holding that block's samples of
    every column (the other axes, and the real and imaginary parts), with
    zeros after the last sample up to a whole block. A C-contiguous input
    that starts and ends on block boundaries is read in place, by a reshape;
    any other is copied once. Each output window that starts ``pad`` samples
    short of a block boundary, ``(-start) % stride == pad``, can be summed
    from the same blocks."""
    x = x.swapaxes(axis, 0)  # the other axes are columns, whatever their order
    n, rest = x.shape[0], x.shape[1:]
    qx = -(-(pad + n) // stride)
    if pad == 0 and n == qx * stride and x.flags.c_contiguous:
        xb = x.view(np.float64).reshape(qx, -1)  # already blocked: read in place
    else:
        xb = np.zeros((qx * stride,) + rest, dtype=x.dtype)
        xb[pad : pad + n] = x
        xb = xb.view(np.float64).reshape(qx, -1)
    return _Blocks(xb, stride, pad, x.dtype, rest, axis)


class _SumGeometry(NamedTuple):
    """Everything of one blocked sum that follows from shapes and offsets
    alone (``_sum_geometry``), as ``_blocked_product`` reads it."""

    stride: int
    pad: int
    qx: int  # input blocks
    cols: int  # float columns
    n_out: int
    qy: int  # output blocks
    c: np.ndarray  # the kernel terms that reach the output window
    shift: int  # output block q reads input blocks q + shift - len(c) + 1 .. q + shift
    branch: str  # "products", "fft", "direct", or "none" where no term reaches the window
    # on the "products" branch, (qa, qb, pa, pb, K) per chunk of output blocks
    # (_gemm_chunk): blocks qa..qb are K @ input blocks pa..pb, and K is None
    # where no input block reaches the chunk
    bands: tuple[tuple[int, int, int, int, np.ndarray | None], ...]


def _sum_geometry(
    c: np.ndarray, k0: int, stride: int, pad: int, qx: int, cols: int, start: int, n_out: int
) -> _SumGeometry:
    """The geometry of rows ``[start, start + n_out)`` of ``y[i] = sum_k c[k
    - k0] x[i - k stride]`` summed from ``qx`` blocks of ``cols`` float
    columns behind ``pad`` zero samples, which must put output row ``start``
    on a block boundary (``(-start) % stride == pad``): the kernel terms
    that reach the window, the branch, and on the branch of matrix products
    their chunk (``_gemm_chunk``) and band matrices (``_toeplitz_band``).
    Sums of the same shapes and offsets share one geometry.
    ``_lattice_apply`` describes the sum and its branches."""
    if (start + pad) % stride:
        raise ValueError(f"output row {start} is not on a block boundary at pad {pad}")
    qy = -(-n_out // stride)
    e0 = (start + pad) // stride  # output block q reads input block q + e0 - k
    lo = max(0, e0 - qx + 1 - k0)
    c = c[lo : max(lo, min(len(c), e0 + qy - k0))]
    k0 += lo
    n_c = len(c)
    shift = e0 - k0
    chunk = _gemm_chunk(n_c, qx, qy, cols) if n_c else 0
    if not n_c:
        branch = "none"
    elif chunk:
        branch = "products"
    elif min(n_c, qx) >= _MIN_FFT and min(n_c, qx) * cols >= _MIN_FFT_WORK:
        branch = "fft"
    else:
        branch = "direct"
    bands = []
    for qa in range(0, qy, chunk) if chunk else ():
        qb = min(qy, qa + chunk)
        pa, pb = max(0, qa + shift - n_c + 1), min(qx, qb + shift)
        K = _toeplitz_band(c, qa + shift - pa, qb - qa, pb - pa) if pa < pb else None
        bands.append((qa, qb, pa, pb, K))
    return _SumGeometry(stride, pad, qx, cols, n_out, qy, c, shift, branch, tuple(bands))


def _blocked_product(g: _SumGeometry, blocks: _Blocks, out: np.ndarray | None = None) -> np.ndarray:
    """The sum whose geometry is ``g``, on the ``blocks`` it was made for.

    The result is written into ``out`` when given, a float64 array of at
    least ``g.qy * g.cols`` elements whose start it takes over, and is a
    view of it; otherwise into a new array. ``_lattice_apply`` describes
    the sum, its branches and its result."""
    xb, stride, pad, dtype, rest, axis = blocks
    del blocks  # unless the caller holds them, the per-column branch frees a blocked copy
    if (stride, pad, len(xb), xb.shape[1]) != (g.stride, g.pad, g.qx, g.cols):
        raise ValueError(
            f"blocks of stride {stride}, pad {pad} and shape {xb.shape} do not fit "
            f"the sum's stride {g.stride}, pad {g.pad} and shape {(g.qx, g.cols)}"
        )
    qy, cols, c, shift, branch = g.qy, g.cols, g.c, g.shift, g.branch
    if branch == "direct":  # one column per row, made before the output
        xb = np.ascontiguousarray(xb.T)
    products = branch == "products"  # which write every row
    if out is None:
        y = (np.empty if products else np.zeros)((qy, cols))
    else:
        y = out[: qy * cols].reshape(qy, cols)
        if not products:
            y.fill(0.0)
    if products:
        for qa, qb, pa, pb, K in g.bands:
            if K is None:  # no input block reaches the chunk
                y[qa:qb] = 0.0
            else:
                np.matmul(K, xb[pa:pb], out=y[qa:qb])
    elif branch == "fft":
        _overlap_add(xb, c, shift, y)
    elif branch == "direct":
        # output block q is entry q + shift of the full convolution
        q_lo, q_hi = max(0, -shift), min(qy, g.qx + len(c) - 1 - shift)
        for col in range(cols):
            y[q_lo:q_hi, col] = np.convolve(xb[col], c)[q_lo + shift : q_hi + shift]
    # on the "none" branch no kernel term reaches the window: y stays zero
    y = y.view(dtype).reshape((qy * stride,) + rest)[: g.n_out]
    return y.swapaxes(0, axis)


def _lattice_apply(
    c: np.ndarray,
    k0: int,
    stride: int,
    x: np.ndarray,
    axis: int,
    start: int,
    n_out: int,
) -> np.ndarray:
    """Rows ``[start, start + n_out)`` of ``y[i] = sum_k c[k - k0] x[i - k stride]``.

    ``x`` is float64 (real values) or complex128, and the result has its
    dtype, so a real input stays real; it is indexed from 0 along ``axis``,
    and samples outside it are zero. The axis is cut into blocks of
    ``stride`` samples, so every term becomes a whole-block shift and the
    sum a 1-D convolution over the block index, independent for each
    within-block position (a "column"; the real and imaginary parts and the
    other axes are columns too). Only the kernel terms whose shifted input
    meets the output window are kept. The branch rule below counts float
    columns, so a complex input has twice the columns of its real part and
    can take another branch than a real one of the same shape. Three
    branches, tried in this order:

    - Wide inputs are matrix products from input blocks to output blocks,
      ``y[q] = sum_p K[q, p] x[p]`` with the banded Toeplitz matrix
      ``K[q, p] = c[q + e0 - p - k0]``. The output blocks are cut into
      chunks (``_gemm_chunk``), one product each; each ``K`` covers only the
      input blocks its chunk reaches and holds no more entries than the
      output it produces, except on a window of no more blocks than there
      are columns, which is one product whose ``K`` holds no more entries
      than the input slice it reads. The geometry holds every ``K`` of the
      sum at once, so they too hold no more entries together than the
      output, or than that one slice. The branch rule counts the output: a
      narrow window of a long kernel is a product, never the FFT.
    - When the cropped kernel and the input both have at least ``_MIN_FFT``
      blocks, and the shorter of them times the column count is at least
      ``_MIN_FFT_WORK`` (on 1-D signals the FFT measured faster from
      about 512 blocks at stride 1, 256 at stride 2 and 128 at stride 8),
      the convolution runs by FFT overlap-add (``_overlap_add``),
      one batched transform pair per segment over all columns. Each output
      sample then deviates from the exact sum by about
      ``eps log2(n) sum|c| max|x|``, n the full convolution's length in
      blocks; the working arrays stay within a few outputs' worth.
    - Otherwise (short kernels on narrow inputs) one ``np.convolve`` per
      column, a direct sum.

    The matrix products and the direct sums agree with the pairwise
    definition to relative rounding, and a one-term kernel, which never
    takes the FFT branch, gives bitwise-exact output. The result is a view
    with ``axis`` outermost in memory.

    The work is three steps: ``_sum_geometry`` takes from shapes and
    offsets alone which kernel terms reach the window, the branch and its
    band matrices; ``_lattice_blocks`` cuts the input into blocks; and
    ``_blocked_product`` runs the sum on them. A caller that sums several
    windows of one input with the same ``(-start) % stride`` blocks the
    input once, and one that sums windows of the same shapes and offsets on
    several inputs makes their geometry once; either runs the last step per
    window, as ``_tile_sums`` does.
    """
    pad = (-start) % stride
    geometry = _sum_geometry(c, k0, stride, pad, *_block_shape(x, axis, stride, pad), start, n_out)
    return _blocked_product(geometry, _lattice_blocks(x, axis, stride, pad))


def _tile_sums(
    x: np.ndarray,
    c: np.ndarray,
    k0: int,
    stride: int,
    base1: int,
    base2: int,
    tiles: list[tuple[slice, list[slice]]],
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Rectangular tiles of the 2-D array ``x`` under the kernel ``c`` along
    both axes, ``y[i1, i2] = sum_{n,m} c[n - k0] c[m - k0] x[i1 - n stride,
    i2 - m stride]``, on the output window whose axes start ``base1`` and
    ``base2`` samples into ``x``'s.

    ``tiles`` pairs a range of rows with the column ranges to evaluate on
    it, both as slices of sample offsets into the window (start and stop
    given, step 1). Yields ``(rows, columns, values)`` for each pair in
    order, ``values`` of shape ``(row count, column count)`` with axis 1
    outermost in memory (``values.T`` is C-contiguous). The pass along
    axis 0, ``_lattice_apply``, runs once per row range and serves all of
    its column ranges. Its strip is blocked along axis 1
    (``_lattice_blocks``) once per distinct pad ``(-start) % stride`` among
    the row's column starts: once for tiles whose width is a multiple of the
    stride, at most ``stride`` times a row. The pass along axis 1 has its
    geometry (``_sum_geometry``: kernel crop, chunk and band matrices) made
    once per walk for each distinct column range and row height, so once
    per tile column while the rows are of one height, and runs its products
    on the blocks (``_blocked_product``) once per tile. So a tile is bit for
    bit the two ``_lattice_apply`` passes run for it alone. A tile's cells
    equal the whole window's to rounding, and bitwise when the tile is the
    window.

    Every tile is written into one buffer, made once per walk for its
    largest tile: ``values`` is a view of it and holds until the next tile
    is asked for, which overwrites it. A one-tile walk's buffer is its
    tile's alone. Besides the buffer, no more than one strip with its
    blocked copies, and the walk's geometries, are held at a time, whatever
    the window's size.
    """
    # float columns per sample: the real and imaginary parts of a complex array
    width = x.itemsize // 8
    # the pass along axis 1 writes whole blocks: qy stride samples per row
    largest = max(
        (
            -(-(cols.stop - cols.start) // stride) * stride * (rows.stop - rows.start) * width
            for rows, cols_list in tiles
            for cols in cols_list
        ),
        default=0,
    )
    buf = np.empty(largest)
    geometries: dict[tuple[int, int, int, int], _SumGeometry] = {}
    for rows, cols_list in tiles:
        mid = _lattice_apply(c, k0, stride, x, 0, base1 + rows.start, rows.stop - rows.start)
        strips: dict[int, _Blocks] = {}  # mid blocked along axis 1, by pad
        for cols in cols_list:
            start, n_out = base2 + cols.start, cols.stop - cols.start
            pad = (-start) % stride
            if pad not in strips:
                strips[pad] = _lattice_blocks(mid, 1, stride, pad)
            strip = strips[pad]
            qx, n_cols = strip.xb.shape
            key = (start, n_out, pad, n_cols)
            if key not in geometries:
                geometries[key] = _sum_geometry(c, k0, stride, pad, qx, n_cols, start, n_out)
            yield rows, cols, _blocked_product(geometries[key], strip, buf)


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


def _window_size(n) -> int:
    """``n`` as an output window's sample count: an integer, 0 or more (an
    empty window), else ``ValueError``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n


def apply_train(
    f: DeltaTrain, s: SampledSignal, t0: float | None = None, n: int | None = None
) -> SampledSignal:
    """Apply a delta-train kernel to a sampled signal.

    Computes ``sum_k c_k s(t - k T)``. The train period must be an integer
    multiple of the sample spacing (relative tolerance 1e-9); echoes are
    placed by exact index shifts, never interpolated, so the lattice
    identities of the kernels survive in the sampled arithmetic. The output
    window is extended to hold every retained echo, or is the ``n`` samples
    from ``t0`` (on the signal's grid; by default to the extension's end),
    zero outside the extension. The sum runs through
    ``_lattice_apply``: banded Toeplitz matrix products when the kernel is
    short against twice the stride, FFT overlap-add when the kernel and the
    signal both span many round trips (O(n log n); each
    output sample within about ``eps log2(n) sum|c| max|x|`` of the exact
    sum), else one direct ``np.convolve`` per within-block position and
    real/imaginary part.

    Raises
    ------
    IncommensurateGrid
        If T / dt is not an integer, or ``t0`` is off the signal's grid.
    ValueError
        If ``n`` is not an integer or is negative; ``n = 0`` gives an empty
        signal.
    """
    if n is not None:
        n = _window_size(n)
    stride = _lattice_stride(f.period, s.dt)
    k0 = f.k0 if len(f.c) else 0  # an empty train's extension is the signal's span
    if t0 is None:
        start, t0 = k0 * stride, s.t0 + k0 * f.period
    else:
        start = _grid_offset(t0, s.t0, s.dt)
    if n is None:
        n = max(0, len(s) + (k0 + max(len(f.c) - 1, 0)) * stride - start)
    return SampledSignal(t0, s.dt, _lattice_apply(f.c, f.k0, stride, s.values, 0, start, n))
