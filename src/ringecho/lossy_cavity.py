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

Arrays are evaluated through ``core_response``'s half-angle form, block by
block, so no value depends on the array's length or on the blocking.
``noise_power`` and ``sum_rule_residual`` hold their float result and one
block of scratch, as ``core_response`` describes. ``noise_power`` takes
``|g_ca|^2`` in real arithmetic and forms no complex value.
``noise_power_quadrature`` squares the modulus of the complex ``g_ca``
instead, so the two are separate evaluations that agree to a few eps.
``sum_rule_residual`` is the literal composition ``|g_ba|^2 + N - 1`` of the
complex ``g_ba`` and ``noise_power``, one block at a time. A scalar runs as
a one-element array through the same loops, so ``noise_power(w)`` equals
``noise_power([w])[0]`` bit for bit, and likewise ``sum_rule_residual``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core_response import (
    _BLOCK,
    JunctionCoupling,
    _abs_sq,
    _gain_block,
    _ratio_block,
    _tan_blocks,
    _terms,
    g_ba,
    g_ca,
)


def _noise_scale(Gamma: float, T: float) -> float:
    """``1 - exp(-2 Gamma T)`` as ``-expm1(-2 Gamma T)``, within about an ulp
    for every Gamma T; ``1 - exp`` would cancel to a relative error of about
    eps / (2 Gamma T)."""
    return -math.expm1(-2.0 * Gamma * T)


def noise_power(omega, j: JunctionCoupling, T: float, Gamma: float):
    """Fluctuation power reaching the output channel.

    ``N = (1 - exp(-2 Gamma T)) |g_ca(omega, Gamma)|^2``, normalized so that
    ``|g_ba|^2 + N = 1`` identically: every bit of absorbed signal power
    returns as fluctuation power, keeping the output commutator free-space.
    A scalar omega gives a Python ``float``.
    """
    *_, pp, qq = _terms(j, T, Gamma, output=False)
    scale = _noise_scale(Gamma, T)
    out, blocks = _tan_blocks(omega, T, float)
    for t, dst in blocks:
        _gain_block(t, dst, j.tau * j.tau, pp, qq)
        np.multiply(scale, dst, out=dst)
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

    The literal composition of ``g_ba`` and ``noise_power``, block by block:
    each block's ``g_ba`` goes into one complex scratch block, its squared
    modulus into the result, where that block's ``N`` is added and 1
    subtracted. It holds the result and one block of scratch (48 bytes per
    frequency of the block); each value equals the whole-array composition
    bit for bit. A scalar omega gives a ``numpy.float64``.
    """
    terms = _terms(j, T, Gamma, output=True)
    *_, pp, qq = terms
    scale = _noise_scale(Gamma, T)
    out, blocks = _tan_blocks(omega, T, float, rows=3)
    g = np.empty(min(out.size, _BLOCK), complex)
    for t, t_copy, re, im, dst in blocks:
        # |g_ba|^2, then N from the same t
        np.copyto(t_copy, t)
        g_run = g[: t.size]
        _ratio_block(t, re, im, g_run, *terms)
        np.abs(g_run, out=dst)
        np.square(dst, out=dst)
        _gain_block(t_copy, re, j.tau * j.tau, pp, qq)
        np.multiply(scale, re, out=re)
        np.add(dst, re, out=dst)
        np.subtract(dst, 1.0, out=dst)
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
