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
    """Round-trip amplitude ``exp(-Gamma T)`` and phase factor ``exp(i omega T)``."""
    if T <= 0.0:
        raise ValueError(f"round-trip time must be positive, got {T}")
    if not 0.0 <= Gamma < math.inf:
        raise ValueError(f"Gamma must be finite and non-negative, got {Gamma}")
    w = np.asarray(omega, dtype=float)
    # math.isfinite keeps the check cheap for the many scalar calls
    if not (math.isfinite(w) if w.ndim == 0 else np.isfinite(w).all()):
        raise ValueError("omega must be finite")
    # np.exp reduces omega T mod 2 pi exactly; subtracting multiples of the
    # float 2 pi first would add its rounding error once per period removed
    return math.exp(-Gamma * T), np.exp(1j * (w * T))


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
    out = j.tau / (1.0 - (j.rho * a) * z)
    return out if out.ndim else complex(out)


def g_ba(omega, j: JunctionCoupling, T: float, Gamma: float = 0.0):
    """Transfer function from input to output channel.

    Returns ``exp(i omega T) (a - rho exp(-i omega T)) / (1 - rho a exp(i omega T))``
    with ``a = exp(-Gamma T)``. At ``Gamma = 0`` it has unit modulus for
    every real frequency: the cavity only rearranges spectral phase, it
    cannot absorb. With ``Gamma > 0`` the modulus drops below 1 and the
    power lost is returned as noise (``lossy_cavity.noise_power``).
    """
    a, z = _pole_and_phase(omega, T, Gamma)
    out = z * (a - j.rho * np.conj(z)) / (1.0 - (j.rho * a) * z)
    return out if out.ndim else complex(out)


def g_ab(omega, j: JunctionCoupling, T: float):
    """Inverse transfer function, output channel back to input.

    Equals the complex conjugate of ``g_ba`` (equivalently ``g_ba`` with the
    round trip reversed in sign), so ``g_ab * g_ba == 1``.
    """
    return np.conj(g_ba(omega, j, T))


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
