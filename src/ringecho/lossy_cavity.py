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
"""

from __future__ import annotations

import math

import numpy as np

from .core_response import JunctionCoupling, _pole_and_phase, g_ba, g_ca


def noise_power(omega, j: JunctionCoupling, T: float, Gamma: float):
    """Fluctuation power reaching the output channel.

    ``N = (1 - exp(-2 Gamma T)) |g_ca(omega, Gamma)|^2``, normalized so that
    ``|g_ba|^2 + N = 1`` identically: every bit of absorbed signal power
    returns as fluctuation power, keeping the output commutator free-space.
    """
    gain = np.abs(g_ca(omega, j, T, Gamma)) ** 2
    out = (1.0 - math.exp(-2.0 * Gamma * T)) * gain
    return out if np.ndim(out) else float(out)


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
    out = spatial * np.abs(g_ca(omega, j, T, Gamma)) ** 2
    return out if np.ndim(out) else float(out)


def sum_rule_residual(omega, j: JunctionCoupling, T: float, Gamma: float):
    """|g_ba|^2 + N(omega) - 1, which should vanish identically.

    Evaluates the phase ``exp(i omega T)`` and the resonant denominator once
    for both terms, with the same out-of-place expressions as ``g_ba``,
    ``g_ca`` and ``noise_power``, so the result is bitwise that of composing
    them, in half the transcendental work.
    """
    a, z = _pole_and_phase(omega, T, Gamma)
    den = 1.0 - (j.rho * a) * z
    gain_ba = np.abs(z * (a - j.rho * np.conj(z)) / den) ** 2
    gain_ca = np.abs(j.tau / den) ** 2
    return gain_ba + (1.0 - math.exp(-2.0 * Gamma * T)) * gain_ca - 1.0


def absorbed_fraction(j: JunctionCoupling, T: float, Gamma: float) -> float:
    """Fraction of a flat input spectrum the attenuated cavity absorbs.

    The input is flat over one free spectral range, sampled at the 2048
    midpoints ``(n + 1/2) FSR / 2048``; the output is ``g_ba`` there, so the
    fraction is ``1 - sum |g_ba|^2 / 2048``.
    """
    omega = (np.arange(2048) + 0.5) * ((2.0 * math.pi / T) / 2048)
    return 1.0 - float(np.sum(np.abs(g_ba(omega, j, T, Gamma)) ** 2)) / 2048.0
