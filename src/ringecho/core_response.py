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

An array of frequencies is evaluated in place, in one float buffer of its
length (``omega T``, then t, then ``t^2``, then ``|D|^2``) beside the complex
result: 24 bytes per frequency beside the input, for ``g_ca``, ``g_ba`` and
``g_ab`` alike. ``|g_ca|^2``, which ``fsr_integral`` and
``lossy_cavity.noise_power`` sum or scale, is the real ratio
``tau^2 (1 + t^2) / |D|^2`` from the same t and ``|D|^2`` (``_gain``): no
complex value is formed, and it holds that buffer beside the float result,
16 bytes per frequency. Every step is an elementwise numpy loop into an
explicit buffer, so no value depends on the array's length: ``g_ba(w)[k]``
equals ``g_ba(w[i:j])[k - i]`` bit for bit. A scalar runs as a one-element
array through the same loops, so ``g_ba(w)`` equals ``g_ba([w])[0]`` bit for
bit, returned as a Python ``complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class JunctionCoupling:
    """Amplitude reflection/transmission pair of the coupling junction.

    Construct from ``rho``; ``tau`` is normalized to ``sqrt(1 - rho^2)`` so
    the pair is always unitary. ``rho = 1`` (no outcoupling at all) is
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
        object.__setattr__(self, "tau", math.sqrt(1.0 - self.rho * self.rho))

    @classmethod
    def from_tau(cls, tau: float) -> "JunctionCoupling":
        """Build from the transmission coefficient, tau in (0, 1]."""
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        return cls(rho=math.sqrt(max(0.0, 1.0 - tau * tau)))


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


def _tan_half(omega, j: JunctionCoupling, T: float, Gamma: float):
    """Validated ``t = tan(omega T / 2)`` as a new float array (a scalar
    omega becomes a one-element array), with ``a = exp(-Gamma T)``,
    ``1 - a`` and the half-angle coefficients ``p = 1 - rho a`` and
    ``q = 1 + rho a`` that ``_half_angle`` and ``_gain`` share."""
    if T <= 0.0:
        raise ValueError(f"round-trip time must be positive, got {T}")
    if not 0.0 <= Gamma < math.inf:
        raise ValueError(f"Gamma must be finite and non-negative, got {Gamma}")
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    rho, a, loss = j.rho, math.exp(-Gamma * T), -math.expm1(-Gamma * T)
    p, q = (1.0 - rho) + rho * loss, 1.0 + rho * a  # 1 - rho a without cancellation
    # theta = fl(omega T), halved exactly; omega (T / 2) would round a
    # subnormal T / 2. np.tan reduces theta / 2 mod pi exactly
    t = np.multiply(w, T)
    np.multiply(t, 0.5, out=t)
    np.tan(t, out=t)
    return t, a, loss, p, q


def _half_angle(omega, j: JunctionCoupling, T: float, Gamma: float, output: bool) -> np.ndarray:
    """``g_ba`` (``output``) or ``g_ca`` at omega, as a new complex array; a
    scalar omega becomes a one-element array.

    With ``t = tan(omega T / 2)``, ``exp(i omega T) = (1 + i t) / (1 - i t)``
    and ``1 - r exp(i omega T) = D / (1 - i t)`` with ``D = p - i q t``,
    ``p = 1 - r``, ``q = 1 + r`` and ``r = rho a``. Both transfer functions are
    then ``(c0 + c2 t^2 + i c1 t) / (p^2 + q^2 t^2)``: ``g_ca`` is
    ``tau (1 - i t) conj(D) / |D|^2`` and ``g_ba`` is
    ``((a - rho) + i (a + rho) t) conj(D) / |D|^2``. Every term of ``g_ca``'s
    numerator and of the denominator is positive, so nothing cancels near
    resonance, where ``1 - r exp(i omega T)`` does.
    """
    t, a, loss, p, q = _tan_half(omega, j, T, Gamma)
    rho = j.rho
    if output:
        # at Gamma = 0, a - rho is p and a + rho is q: the numerator is conj(D)^2
        lo, hi = (1.0 - rho) - loss, a + rho
        c0, c1, c2 = lo * p, lo * q + hi * p, -(hi * q)
    else:
        c0, c1, c2 = j.tau * p, 2.0 * rho * a * j.tau, j.tau * q
    g = np.empty(t.shape, dtype=complex)
    re, im = g.real, g.imag
    np.multiply(c1, t, out=im)
    np.square(t, out=t)
    np.multiply(c2, t, out=re)
    np.add(re, c0, out=re)
    np.multiply(q * q, t, out=t)  # the denominator p^2 + q^2 t^2, over t^2
    np.add(t, p * p, out=t)
    np.divide(re, t, out=re)
    np.divide(im, t, out=im)
    return g


def _gain(omega, j: JunctionCoupling, T: float, Gamma: float) -> np.ndarray:
    """``|g_ca|^2`` at omega in real arithmetic, as a new float array.

    ``|tau (1 - i t) / D|^2 = tau^2 (1 + t^2) / (p^2 + q^2 t^2)`` in
    ``_half_angle``'s terms, with the same ``t`` and the same denominator
    bit for bit; every term is positive, so each value is within a few eps
    (relative) of the exact one at the same float ``omega T``, near
    resonance too.
    """
    t, _, _, p, q = _tan_half(omega, j, T, Gamma)
    np.square(t, out=t)
    num = np.add(t, 1.0)
    np.multiply(num, j.tau * j.tau, out=num)
    np.multiply(q * q, t, out=t)
    np.add(t, p * p, out=t)
    return np.divide(num, t, out=num)


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
        Angular frequency (rad/time), finite.
    j : JunctionCoupling
    T : float
        Round-trip time, must be positive.
    Gamma : float
        Field attenuation rate (1/time), finite and non-negative; 0 is the
        lossless cavity.
    """
    out = _half_angle(omega, j, T, Gamma, output=False)
    return out if np.ndim(omega) else complex(out[0])


def g_ba(omega, j: JunctionCoupling, T: float, Gamma: float = 0.0):
    """Transfer function from input to output channel.

    Returns ``exp(i omega T) (a - rho exp(-i omega T)) / (1 - rho a exp(i omega T))``
    with ``a = exp(-Gamma T)``. At ``Gamma = 0`` it has unit modulus for
    every real frequency: the cavity only rearranges spectral phase, it
    cannot absorb. With ``Gamma > 0`` the modulus drops below 1 and the
    power lost is returned as noise (``lossy_cavity.noise_power``).
    """
    out = _half_angle(omega, j, T, Gamma, output=True)
    return out if np.ndim(omega) else complex(out[0])


def g_ab(omega, j: JunctionCoupling, T: float):
    """Inverse transfer function, output channel back to input.

    Equals the complex conjugate of ``g_ba`` (equivalently ``g_ba`` with the
    round trip reversed in sign), so ``g_ab * g_ba == 1``. A scalar omega
    gives a ``numpy.complex128``.
    """
    out = g_ba(np.atleast_1d(omega), j, T)
    out = np.conjugate(out, out=out)
    return out if np.ndim(omega) else out[0]


def fsr_integral(j: JunctionCoupling, T: float) -> float:
    """Average of |g_ca|^2 over one free spectral range.

    The exact value is 1 for every coupling: the junction redistributes the
    density of states across each period without creating or destroying any.
    Composite midpoint quadrature on N points. The integrand is periodic
    with Fourier coefficients ``rho^|k|``, so the only quadrature error is
    aliasing, ``-2 rho^N / (1 + rho^N)``. ``N = max(4096, ceil(ln(2e-14) /
    ln rho))`` keeps it below 4e-14. The integrand is evaluated in real
    half-angle form, ``tau^2 (1 + t^2) / ((1 - rho)^2 + (1 + rho)^2 t^2)``
    (``_gain``), whose terms are all positive, so each point is within a few
    eps (relative) even at resonance; what remains is the rounding of
    ``tau^2 = 1 - rho^2``, a relative ``4 eps / (1 - rho^2)`` at most.
    """
    n = 4096
    if j.rho > 0.0:
        n = max(n, math.ceil(math.log(2e-14) / math.log(j.rho)))
    fsr = TWO_PI / T
    d_omega = fsr / n
    omega = (np.arange(n) + 0.5) * d_omega
    return float(np.sum(_gain(omega, j, T, 0.0)) * d_omega / fsr)
