"""Frequency-domain response of a traveling-wave ring cavity.

The cavity is a single loop of optical path coupled to one input and one
output channel through a partially transmitting junction with real amplitude
coefficients (rho for reflection, tau for transmission, tau^2 + rho^2 = 1).
This module provides the exact transfer functions of that system:

- ``g_ca``: input channel to the circulating field just past the junction.
- ``g_ba``: input channel to the output channel (unimodular all-pass).
- ``g_ab``: the inverse map, output back to input (lossless only).

``g_ca`` and ``g_ba`` take an optional field attenuation rate ``Gamma`` of a
distributed intracavity absorber, which scales the round-trip amplitude by
``exp(-Gamma T)``; ``Gamma = 0`` is the lossless cavity.

All functions accept scalar or ndarray frequencies and are pure; frequencies
are angular (rad per unit time) measured relative to the optical carrier.

Both transfer functions are first-order sections in ``z = exp(i omega T)``,
and both are evaluated in half-angle form. With ``t = tan(omega T / 2)``,
``z = (1 + i t) / (1 - i t)`` and ``1 - r z = D / (1 - i t)``, where
``r = rho exp(-Gamma T)`` and ``D = (1 - r) - i (1 + r) t``, so each becomes
a ratio of two real polynomials in t over ``|D|^2``: one real ``tan`` per
frequency and a few real multiply-adds, instead of a complex ``exp`` and a
complex division. The denominator ``|D|^2 = (1 - r)^2 + (1 + r)^2 t^2`` is
a sum of positive terms, so it does not cancel near resonance the way
``1 - r z`` does. Each value is within a few eps (relative) of the exact
function at the same float ``omega T``, near resonance too; ``g_ba`` with
``Gamma > 0`` only away from the zero it has when ``exp(-Gamma T) = rho``.

An array of frequencies is evaluated in blocks of ``_BLOCK`` (2^14)
frequencies of its flattened form: per block, t goes into one float scratch
row, the numerator's real and imaginary parts into two more, and the two
final divisions write straight into the result. ``g_ab`` is ``g_ba`` with the
sign of its imaginary numerator flipped, so it takes the same single pass.
``|g_ca|^2``, which ``fsr_integral`` and ``lossy_cavity.noise_power`` sum or
scale, is the real ratio ``tau^2 (1 + t^2) / |D|^2`` from the same t and
``|D|^2`` (``_gain_block``): no complex value is formed, and its numerator
goes straight into the result. Each function holds its result and one block
of scratch (at most 24 bytes per frequency of the block), beside a flattened
copy of omega if omega is not contiguous. Each block checks that
``fl(omega T)`` is finite before its ``tan``, so a NaN or infinite omega, or
an ``omega T`` that overflows, raises ``ValueError`` before any numpy
warning, and no temporary spans the whole array. Every step is
elementwise, so each value is bit for bit independent of the array's
length and of the blocking: ``g_ba(w)[k]`` equals ``g_ba(w[i:j])[k - i]``.
A scalar runs as a one-element array through the same loop, so ``g_ba(w)``
equals ``g_ba([w])[0]`` bit for bit, returned as a Python ``complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class JunctionCoupling:
    """Amplitude reflection/transmission pair of the coupling junction.

    Construct from ``rho``; ``tau`` is normalized to ``sqrt(1 - rho^2)``,
    taken as ``sqrt((1 - rho)(1 + rho))``, which does not cancel as
    rho -> 1 and is within an ulp at every rho, so the pair is always
    unitary. ``rho = 1`` (no outcoupling at all) is
    rejected.

    Parameters
    ----------
    rho : float
        Amplitude reflection coefficient, in [0, 1).
    """

    rho: float
    tau: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        object.__setattr__(self, "tau", math.sqrt((1.0 - self.rho) * (1.0 + self.rho)))

    @classmethod
    def from_tau(cls, tau: float) -> "JunctionCoupling":
        """Build from the transmission coefficient, tau in (0, 1].

        The coupling holds rho and derives tau from it, which for small tau
        is not the tau given: 4.4e-5 off, relative, at tau = 1e-6. A tau that
        comes back more than 1e-12 off, relative, is refused with
        ``ValueError`` (on a scan, some tau below 9.1e-3 and none above);
        give rho (``--rho``) for such a coupling.
        """
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        rho = math.sqrt(max(0.0, 1.0 - tau * tau))
        if rho < 1.0:
            j = cls(rho)
            if abs(j.tau - tau) <= 1e-12 * tau:
                return j
        raise ValueError(
            f"tau = {tau!r} does not survive the round trip through rho "
            f"(within 1e-12, relative); give the coupling by --rho instead"
        )


@dataclass(frozen=True)
class RingGeometry:
    """Loop length and group velocity; the round trip is derived.

    Parameters
    ----------
    length : float
        Optical path length of the loop (distance units).
    group_velocity : float
        Propagation speed along the loop (distance/time).
    """

    length: float
    group_velocity: float

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.group_velocity <= 0.0:
            raise ValueError(
                f"group_velocity must be positive, got {self.group_velocity}"
            )

    @property
    def round_trip(self) -> float:
        """Round-trip time T = L / v."""
        return self.length / self.group_velocity


# frequencies per block: an array is evaluated in runs of this many, so a
# run's scratch rows (128 KiB each) stay in L2 from one step to the next
_BLOCK = 1 << 14


def _check_loss(T: float, Gamma: float) -> None:
    """Refuse a round-trip time that is not finite and positive, or a loss
    rate that is not finite and non-negative (``ValueError``)."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"round-trip time must be finite and positive, got {T}")
    if not 0.0 <= Gamma < math.inf:
        raise ValueError(f"Gamma must be finite and non-negative, got {Gamma}")


def _terms(j: JunctionCoupling, T: float, Gamma: float, output: bool):
    """Validated half-angle coefficients ``(c0, c1, c2, p^2, q^2)`` of
    ``g_ba`` (``output``) or ``g_ca``; see ``_half_angle``."""
    _check_loss(T, Gamma)
    rho, a, loss = j.rho, math.exp(-Gamma * T), -math.expm1(-Gamma * T)
    p, q = (1.0 - rho) + rho * loss, 1.0 + rho * a  # 1 - rho a without cancellation
    if output:
        # at Gamma = 0, a - rho is p and a + rho is q: the numerator is conj(D)^2
        lo, hi = (1.0 - rho) - loss, a + rho
        c0, c1, c2 = lo * p, lo * q + hi * p, -(hi * q)
    else:
        c0, c1, c2 = j.tau * p, 2.0 * rho * a * j.tau, j.tau * q
    return c0, c1, c2, p * p, q * q


def _tan_blocks(omega, T: float, dtype, rows: int = 0):
    """A new ``dtype`` array in omega's shape (at least 1-D), and the blocks
    that fill it: per run of at most ``_BLOCK`` entries of the flattened
    omega, ``(t, *scratch, out)`` with ``t = tan(omega T / 2)`` there,
    ``rows`` float scratch rows of its length and the matching run of the
    result. ``t`` and the scratch are reused from run to run. Raises
    ``ValueError`` at the first run where ``omega T`` is not finite: omega
    NaN or infinite, or ``omega T`` overflowing."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    result = np.empty(w.shape, dtype)
    scratch = np.empty((1 + rows, min(w.size, _BLOCK)))

    def blocks():
        flat_w, flat_out = w.reshape(-1), result.reshape(-1)
        for lo in range(0, flat_w.size, _BLOCK):
            w_run = flat_w[lo : lo + _BLOCK]
            t, *rest = scratch[:, : w_run.size]
            # theta = fl(omega T), halved exactly; omega (T / 2) would round a
            # subnormal T / 2. np.tan reduces theta / 2 mod pi exactly
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(w_run, T, out=t)
            if not np.isfinite(t).all():
                raise ValueError(f"omega * T must be finite, got {t[~np.isfinite(t)][0]}")
            np.multiply(t, 0.5, out=t)
            np.tan(t, out=t)
            yield t, *rest, flat_out[lo : lo + w_run.size]

    return result, blocks()


def _ratio_block(t, re, im, out, c0, c1, c2, pp, qq) -> None:
    """``(c0 + c2 t^2 + i c1 t) / (pp + qq t^2)`` into the complex ``out``,
    the numerator's parts in the float scratch ``re`` and ``im``; leaves the
    denominator in t."""
    np.multiply(c1, t, out=im)
    np.square(t, out=t)
    np.multiply(c2, t, out=re)
    np.add(re, c0, out=re)
    np.multiply(qq, t, out=t)  # the denominator p^2 + q^2 t^2, over t^2
    np.add(t, pp, out=t)
    np.divide(re, t, out=out.real)
    np.divide(im, t, out=out.imag)


def _gain_block(t, out, tau2, pp, qq) -> None:
    """``tau2 (1 + t^2) / (pp + qq t^2)`` into the float ``out``; leaves the
    denominator in t."""
    np.square(t, out=t)
    np.add(t, 1.0, out=out)
    np.multiply(out, tau2, out=out)
    np.multiply(qq, t, out=t)
    np.add(t, pp, out=t)
    np.divide(out, t, out=out)


def _half_angle(omega, T: float, terms) -> np.ndarray:
    """``(c0 + c2 t^2 + i c1 t) / (p^2 + q^2 t^2)`` at omega for the ``terms``
    of ``_terms``, as a new complex array; a scalar omega becomes a
    one-element array.

    With ``t = tan(omega T / 2)``, ``exp(i omega T) = (1 + i t) / (1 - i t)``
    and ``1 - r exp(i omega T) = D / (1 - i t)`` with ``D = p - i q t``,
    ``p = 1 - r``, ``q = 1 + r`` and ``r = rho a``. Both transfer functions are
    then of this form: ``g_ca`` is ``tau (1 - i t) conj(D) / |D|^2`` and
    ``g_ba`` is ``((a - rho) + i (a + rho) t) conj(D) / |D|^2``. Every term of
    ``g_ca``'s numerator and of the denominator is positive, so nothing
    cancels near resonance, where ``1 - r exp(i omega T)`` does.
    """
    g, blocks = _tan_blocks(omega, T, complex, rows=2)
    for t, re, im, out in blocks:
        _ratio_block(t, re, im, out, *terms)
    return g


def _abs_sq(g: np.ndarray) -> np.ndarray:
    """``|g|^2``, one new float buffer squared in place."""
    out = np.abs(g)
    return np.square(out, out=out)


def g_ca(omega, j: JunctionCoupling, T: float, Gamma: float = 0.0):
    """Transfer function from the input field to the circulating cavity field.

    Returns ``tau / (1 - rho a exp(i omega T))`` with round-trip amplitude
    ``a = exp(-Gamma T)``: a distributed absorber with field attenuation rate
    ``Gamma`` only shrinks the pole radius from rho to ``rho a``. The
    denominator never vanishes for rho < 1, so no poles sit on the real axis.

    Parameters
    ----------
    omega : float or ndarray
        Angular frequency (rad/time), with ``omega T`` finite.
    j : JunctionCoupling
    T : float
        Round-trip time, must be finite and positive.
    Gamma : float
        Field attenuation rate (1/time), finite and non-negative; 0 is the
        lossless cavity.
    """
    out = _half_angle(omega, T, _terms(j, T, Gamma, output=False))
    return out if np.ndim(omega) else complex(out[0])


def g_ba(omega, j: JunctionCoupling, T: float, Gamma: float = 0.0):
    """Transfer function from input to output channel.

    Returns ``exp(i omega T) (a - rho exp(-i omega T)) / (1 - rho a exp(i omega T))``
    with ``a = exp(-Gamma T)``. At ``Gamma = 0`` it has unit modulus for
    every real frequency: the cavity only rearranges spectral phase, it
    cannot absorb. With ``Gamma > 0`` the modulus drops below 1 and the
    power lost is returned as noise (``lossy_cavity.noise_power``).
    """
    out = _half_angle(omega, T, _terms(j, T, Gamma, output=True))
    return out if np.ndim(omega) else complex(out[0])


def g_ab(omega, j: JunctionCoupling, T: float):
    """Inverse transfer function, output channel back to input.

    Equals the complex conjugate of ``g_ba`` (equivalently ``g_ba`` with the
    round trip reversed in sign), so ``g_ab * g_ba == 1``. A scalar omega
    gives a ``numpy.complex128``.
    """
    # conj(g_ba) is g_ba with c1 negated: negation is exact and commutes
    # with rounding, so each value equals np.conjugate(g_ba) bit for bit
    c0, c1, c2, pp, qq = _terms(j, T, 0.0, output=True)
    out = _half_angle(omega, T, (c0, -c1, c2, pp, qq))
    return out if np.ndim(omega) else out[0]


def fsr_integral(j: JunctionCoupling, T: float) -> float:
    """Average of |g_ca|^2 over one free spectral range.

    The exact value is 1 for every coupling: the junction redistributes the
    density of states across each period without creating or destroying any.
    Composite midpoint quadrature on ``N' = 2 ceil(N / 2)`` points with
    ``N = max(4096, ceil(ln(2e-14) / ln rho))``. The integrand is periodic
    with Fourier coefficients ``rho^|k|``, so the only quadrature error is
    aliasing, ``-2 rho^N' / (1 + rho^N')``, below 4e-14. It is also even, so
    the midpoints of ``(0, pi / T)`` alone give the same mean; there each
    resonant point sits at small ``omega T``, where rounding is relative.
    The integrand is evaluated in real half-angle form,
    ``p q (1 + t^2) / (p^2 + q^2 t^2)`` with ``p = 1 - rho`` and
    ``q = 1 + rho`` (so ``tau^2 = p q``), whose terms are all positive, so
    each point is within a few eps (relative) even at resonance. Its exact
    mean is 1 for the floating-point p and q, so what remains past the
    aliasing is that per-point rounding and the pairwise sum's, a few eps
    and ``eps log2 N'`` at most.
    """
    n = 4096
    if j.rho > 0.0:
        n = max(n, math.ceil(math.log(2e-14) / math.log(j.rho)))
    half = -(-n // 2)
    *_, pp, qq = _terms(j, T, 0.0, output=False)
    pq = (1.0 - j.rho) * (1.0 + j.rho)  # _terms' p and q at Gamma = 0
    gain, blocks = _tan_blocks((np.arange(half) + 0.5) * (math.pi / T / half), T, float)
    for t, out in blocks:
        _gain_block(t, out, pq, pp, qq)
    return float(np.sum(gain) / half)
