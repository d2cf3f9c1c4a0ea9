"""Noise model of a ring cavity with a distributed intracavity absorber.

A fast-relaxing absorbing medium, once adiabatically eliminated, attenuates
the circulating field at a rate Gamma and injects fluctuations in exchange.
The mean-field transfer functions are ``core_response.g_ca`` and
``core_response.g_ba`` called with ``Gamma``: the absorber only scales the
round-trip amplitude by ``exp(-Gamma T)``, shrinking the pole radius from
rho to ``rho exp(-Gamma T)``.

The output channel is then no longer unimodular; what the mean field loses,
the fluctuations replace. This module holds that noise model: the noise
power ``N(omega)``, its quadrature cross-check and the fraction of a flat
input spectrum that the absorber takes. ``N`` is normalized by the only
physically forced condition, the sum rule ``|g_ba|^2 + N = 1``, which is
the lossy generalization of the free-space output commutator. All
bookkeeping here is deterministic second moments; no noise realizations
are sampled.

Arrays are evaluated through ``core_response``'s half-angle form, so no
value depends on the array's length. ``noise_power`` takes ``|g_ca|^2`` in
real arithmetic and holds no complex buffer: two float buffers, 16 bytes per
frequency beside the input. ``noise_power_quadrature`` squares the modulus of
the complex ``g_ca`` instead, so the two are separate evaluations that agree
to a few eps. ``sum_rule_residual`` is the literal composition
``|g_ba|^2 + N - 1`` of the complex ``g_ba`` and ``noise_power``; it holds
``g_ba``'s 24 bytes per frequency, then its float square beside what
``noise_power`` holds (24 bytes per frequency). A scalar runs as a
one-element array through the same loops, so ``noise_power(w)`` equals
``noise_power([w])[0]`` bit for bit, and likewise ``sum_rule_residual``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core_response import JunctionCoupling, _abs_sq, _gain, g_ba, g_ca


def _noise(Gamma: float, T: float, gain: np.ndarray) -> np.ndarray:
    """``(1 - exp(-2 Gamma T)) gain``, in place in ``gain``. The prefactor is
    ``-expm1(-2 Gamma T)``, within about an ulp for every Gamma T; ``1 - exp``
    would cancel to a relative error of about eps / (2 Gamma T)."""
    return np.multiply(-math.expm1(-2.0 * Gamma * T), gain, out=gain)


def noise_power(omega, j: JunctionCoupling, T: float, Gamma: float):
    """Fluctuation power reaching the output channel.

    ``N = (1 - exp(-2 Gamma T)) |g_ca(omega, Gamma)|^2``, normalized so that
    ``|g_ba|^2 + N = 1`` identically: every bit of absorbed signal power
    returns as fluctuation power, keeping the output commutator free-space.
    A scalar omega gives a Python ``float``.
    """
    out = _noise(Gamma, T, _gain(omega, j, T, Gamma))
    return out if np.ndim(omega) else float(out[0])


def noise_power_quadrature(omega, j: JunctionCoupling, T: float, Gamma: float):
    """Independent evaluation of the noise power by spatial quadrature.

    Integrates the squared propagation factor of fluctuations injected along
    the loop, ``(2 Gamma) int_0^T |exp((i omega - Gamma)(T - s))|^2 ds``, by
    the midpoint rule on 4096 points, then routes it through the junction
    the same way the signal goes, ``|g_ca(omega, Gamma)|^2``. Used to cross-check the closed
    form in ``noise_power``.
    """
    s = (np.arange(4096) + 0.5) * (T / 4096)
    spatial = 2.0 * Gamma * np.sum(np.exp(-2.0 * Gamma * (T - s))) * (T / 4096)
    out = spatial * _abs_sq(g_ca(np.atleast_1d(omega), j, T, Gamma))
    return out if np.ndim(omega) else float(out[0])


def sum_rule_residual(omega, j: JunctionCoupling, T: float, Gamma: float):
    """|g_ba|^2 + N(omega) - 1, which should vanish identically.

    The literal composition of ``g_ba`` and ``noise_power``, summed in the
    squared ``g_ba`` buffer, so it holds no more than ``noise_power`` does
    beside one float array. A scalar omega gives a ``numpy.float64``.
    """
    w = np.atleast_1d(omega)
    out = _abs_sq(g_ba(w, j, T, Gamma))
    np.add(out, noise_power(w, j, T, Gamma), out=out)
    out = np.subtract(out, 1.0, out=out)
    return out if np.ndim(omega) else out[0]


def absorbed_fraction(j: JunctionCoupling, T: float, Gamma: float) -> float:
    """Fraction of a flat input spectrum the attenuated cavity absorbs.

    The input is flat over one free spectral range, sampled at the 2048
    midpoints ``(n + 1/2) FSR / 2048``; the output is ``g_ba`` there, so the
    fraction is ``1 - sum |g_ba|^2 / 2048``. Raises ``ArithmeticError`` when
    the frequency step ``FSR / 2048`` is not a normal float: it overflows for
    T below about 3.5e-308 and loses digits as a subnormal above about 1.4e305.
    """
    step = (2.0 * math.pi / T) / 2048
    if not sys.float_info.min <= step < math.inf:
        raise ArithmeticError(f"the frequency step 2 pi / (2048 T) = {step:g} is not a normal float")
    omega = (np.arange(2048) + 0.5) * step
    return 1.0 - float(np.sum(np.abs(g_ba(omega, j, T, Gamma)) ** 2)) / 2048.0
