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

An array of frequencies is evaluated in place, in a fixed set of buffers of
its length: ``g_ca`` holds only the complex phase ``exp(i omega T)``, which
becomes its result (16 bytes per frequency beside the input); ``g_ba`` and
``g_ab`` hold the phase and two more complex arrays while the all-pass factor
is formed (48 bytes per frequency). Every step is an elementwise numpy loop
into an explicit buffer, so no value depends on the array's length:
``g_ba(w)[k]`` equals ``g_ba(w[i:j])[k - i]`` bit for bit. A scalar runs as a
one-element array through the same loops, so ``g_ba(w)`` equals
``g_ba([w])[0]`` bit for bit, returned as a Python ``complex``.
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


def _pole_and_phase(omega, T: float, Gamma: float) -> tuple[float, np.ndarray]:
    """Round-trip amplitude ``exp(-Gamma T)`` and phase factor ``exp(i omega T)``,
    formed and exponentiated in one new complex buffer; a scalar omega becomes
    a one-element array."""
    if T <= 0.0:
        raise ValueError(f"round-trip time must be positive, got {T}")
    if not 0.0 <= Gamma < math.inf:
        raise ValueError(f"Gamma must be finite and non-negative, got {Gamma}")
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    a = math.exp(-Gamma * T)
    # np.exp reduces omega T mod 2 pi exactly; subtracting multiples of the
    # float 2 pi first would add its rounding error once per period removed.
    # The complex product w (i T) rounds each part as i (w T) does
    z = np.multiply(w, 1j * T)
    return a, np.exp(z, out=z)


def _resonance(z: np.ndarray, c: float, out=None) -> np.ndarray:
    """The resonant denominator ``1 - c z``, formed in ``out`` (which may be
    ``z`` itself; a new buffer when None)."""
    den = np.multiply(c, z, out=out)
    return np.subtract(1.0, den, out=den)


def _circulating(tau: float, den: np.ndarray) -> np.ndarray:
    """``tau / den``, in place in ``den``."""
    return np.divide(tau, den, out=den)


def _all_pass(z: np.ndarray, a: float, rho: float, den: np.ndarray) -> np.ndarray:
    """``z (a - rho conj z) / den``, in place in ``z``; holds one more complex
    array while it runs."""
    num = np.conjugate(z)
    np.multiply(rho, num, out=num)
    np.subtract(a, num, out=num)
    # a product of two size-1 arrays written over one of them takes numpy's
    # reduction loop, whose last bit can differ from the array loop's
    z = np.multiply(z, num, out=z if z.size > 1 else None)
    return np.divide(z, den, out=z)


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
    a, z = _pole_and_phase(omega, T, Gamma)
    out = _circulating(j.tau, _resonance(z, j.rho * a, out=z))
    return out if np.ndim(omega) else complex(out[0])


def g_ba(omega, j: JunctionCoupling, T: float, Gamma: float = 0.0):
    """Transfer function from input to output channel.

    Returns ``exp(i omega T) (a - rho exp(-i omega T)) / (1 - rho a exp(i omega T))``
    with ``a = exp(-Gamma T)``. At ``Gamma = 0`` it has unit modulus for
    every real frequency: the cavity only rearranges spectral phase, it
    cannot absorb. With ``Gamma > 0`` the modulus drops below 1 and the
    power lost is returned as noise (``lossy_cavity.noise_power``).
    """
    a, z = _pole_and_phase(omega, T, Gamma)
    out = _all_pass(z, a, j.rho, _resonance(z, j.rho * a))
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
    ln rho))`` keeps it below 4e-14; what remains is the rounding of
    ``tau^2 = 1 - rho^2``, a relative ``4 eps / (1 - rho^2)`` at most.
    """
    n = 4096
    if j.rho > 0.0:
        n = max(n, math.ceil(math.log(2e-14) / math.log(j.rho)))
    fsr = TWO_PI / T
    d_omega = fsr / n
    omega = (np.arange(n) + 0.5) * d_omega
    dos = np.abs(g_ca(omega, j, T)) ** 2
    return float(np.sum(dos) * d_omega / fsr)
