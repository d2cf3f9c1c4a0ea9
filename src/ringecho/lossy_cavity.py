"""Noise model of a ring cavity with a distributed intracavity absorber.

A fast-relaxing absorbing medium, once adiabatically eliminated, attenuates
the circulating field at a rate Gamma and injects fluctuations in exchange.
The mean-field transfer functions are ``core_response.g_ca`` and
``core_response.g_ba`` called with ``Gamma``: the absorber only scales the
round-trip amplitude by ``exp(-Gamma T)``, shrinking the pole radius from
rho to ``rho exp(-Gamma T)``.

The output channel is then no longer unimodular; what the mean field loses,
the fluctuations replace. This module holds that noise model: the noise
power ``N(omega)`` and the fraction of a flat input spectrum that the
absorber takes, in closed form. ``N`` is normalized by the only physically
forced condition, the sum rule ``|g_ba|^2 + N = 1``, which is the lossy
generalization of the free-space output commutator. All bookkeeping here is
deterministic second moments; no noise realizations are sampled. The lossy
oracle checks all of it (``validation``'s ``noise_quadrature_match``).

Arrays are evaluated block by block through ``core_response``'s half-angle
form, so no value depends on the array's length or on the blocking, and a
scalar runs as a one-element array through the same loops. ``noise_power``
takes ``|g_ca|^2`` in real arithmetic and forms no complex value.
"""

from __future__ import annotations

import math

import numpy as np

from .core_response import (
    _BLOCK,
    JunctionCoupling,
    _check_loss,
    _gain_block,
    _ratio_block,
    _tan_blocks,
    _terms,
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

    An input flat over one free spectral range is, by Parseval on the
    lattice, a unit impulse at one sample per round trip. With
    ``L = exp(-Gamma T)`` the lossy output kernel is ``-rho`` at offset 0 and
    ``tau^2 L (rho L)^(k-1)`` at offsets k >= 1, so the absorbed fraction,
    one less the kernel's squared weights, is the closed form

        A = (1 - rho^2) (1 - L^2) / (1 - rho^2 L^2).

    It is taken with ``1 - L^2 = -expm1(-2 Gamma T)`` (``_noise_scale``) and
    ``1 - rho^2 L^2 = (1 - rho)(1 + rho) + rho^2 (1 - L^2)``: every term is
    non-negative, so no step cancels and A is within a few ulps at every rho
    and Gamma T. It depends on rho and Gamma T alone.
    """
    _check_loss(T, Gamma)
    rho, scale = j.rho, _noise_scale(Gamma, T)
    tau_sq = (1.0 - rho) * (1.0 + rho)
    return tau_sq * scale / (tau_sq + rho * rho * scale)
