"""Field commutator trains of the empty ring cavity.

Because the lossless cavity maps are linear in the input field, every
commutator of the theory reduces to a c-number delta train on the round-trip
lattice, equal to a correlation of the generating echo kernels: the
circulating-field commutator is ``correlate(kernel_ca, kernel_ca)`` (weights
``rho^|k|``), the circulating/input cross commutator is ``kernel_ca`` itself,
and the output commutator is ``correlate(kernel_ba, kernel_ba)``. This module
builds the output commutator along an independent path through the junction
relation, from ``kernel_ca`` (``validate``'s ``output_commutator`` check
compares the two), and locates where the two-position commutator fires
(``spacetime_commutator_support``, the one place outside the checks that
writes the weights ``rho^|k|``). Positions are in time units (group
velocity 1), so the loop is 0 <= z < T. One renderer, ``_broadened``, draws
that support's deltas as Gaussians of width T/100, both for the paper's 2-D
space-time map here (window -3T <= t <= 3T) and for ``highq.fig4_dataset``'s
1-D train.
"""

from __future__ import annotations

import math

import numpy as np

from .core_response import JunctionCoupling
from .echo_kernels import DeltaTrain, _gaussian, correlate, kernel_ca


def spacetime_commutator_support(
    j: JunctionCoupling, z: float, z_ref: float, T: float, kmax: int
) -> list[tuple[int, float, float]]:
    """Where the circulating-field commutator of positions z and z_ref fires.

    Positions are in time units (the group velocity is 1), so the loop is
    0 <= z < T. For each lag k in [-kmax, kmax] the delta at time difference
    ``t - t_ref = (z - z_ref) - k T`` carries weight ``rho^|k|``. At equal
    times only z = z_ref (lag 0) can fire, which is the fundamental
    equal-time relation; at fixed positions infinitely many times fire.
    """
    for q in (z, z_ref):
        if not 0.0 <= q < T:
            raise ValueError(f"position {q} outside the loop [0, {T})")
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    out = []
    for k in range(-kmax, kmax + 1):
        w = j.rho ** abs(k) if k != 0 else 1.0
        if w == 0.0:
            continue
        t_hit = (z - z_ref) - k * T
        out.append((k, w, t_hit))
    return out


def _unit_deviation(train: DeltaTrain) -> tuple[float, float]:
    """How far ``train`` is from the unit train: ``|c_0 - 1|`` and the
    largest ``|c_k|`` at any offset k != 0."""
    off = np.abs(train.c)
    if 0 <= -train.k0 < len(off):
        off[-train.k0] = 0.0
    return abs(train.weight(0) - 1.0), float(off.max(initial=0.0))


def output_commutator_decomposition(
    j: JunctionCoupling, T: float = 1.0, eps: float = 1e-12
) -> DeltaTrain:
    """Output-field commutator assembled from the junction relation.

    The junction writes the output as ``b(t) = tau C(t - T) - rho A(t)``,
    with C the circulating field just past the junction and A the input.
    Expanding the commutator of b with itself gives
    ``tau^2 correlate(kca, kca)`` (the circulating-field train), minus
    ``rho tau`` times ``kca`` delayed by one round trip and its mirror (the
    two cross terms, since ``kca`` is the circulating/input commutator),
    plus ``rho^2`` times the unit train. It is built from ``kernel_ca``
    alone, shares no weights with ``kernel_ba``, never divides by rho, and
    holds at every rho in [0, 1). Its ``rounding`` is ``tau^2`` times the
    circulating-field train's.
    """
    rho, tau = j.rho, j.tau
    kca = kernel_ca(j, T, eps)
    circ = correlate(kca, kca)
    n = len(kca.c)  # kca holds offsets 0 .. n - 1, circ -(n - 1) .. n - 1
    w = np.zeros(2 * n + 1)  # offsets -n .. n
    w[1 : 2 * n] = tau * tau * circ.c
    cross = rho * tau * kca.c
    w[n + 1 :] -= cross  # [C(t - T), A^dag] at offsets 1 .. n
    w[:n] -= cross[::-1]  # its mirror
    w[n] += rho * rho
    tail = tau * tau * circ.tail_bound + 2.0 * rho * tau * kca.tail_bound
    return DeltaTrain(T, -n, w, 0.0, tail, tau**2 * circ.rounding)


def commutator_figure(
    j: JunctionCoupling, zprime: float, T: float, nt: int = 1201, nz: int = 240
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Render |commutator(z, t; z', t'=0)| over the loop cross-section.

    Returns ``(z_values, t_values, matrix)``, ``matrix[i, k]`` the value at
    time ``t_values[i]`` and position ``z_values[k]``. The window is
    -3T <= t <= 3T on ``nt`` samples, by ``nz`` positions across the loop
    0 <= z < T (in time units). Each delta that
    ``spacetime_commutator_support`` lists and whose stripe can enter the
    window becomes an area-normalized Gaussian of width T/100 in t (so each
    stripe integrates over t to its delta weight), producing the
    slanted-stripe picture: one stripe per lag k, crossing t = 0 only at
    z = z'.
    """
    if not 0.0 <= zprime < T:
        raise ValueError(f"zprime {zprime} outside the loop [0, {T})")
    broadening = T / 100.0
    t_vals = np.linspace(-3.0 * T, 3.0 * T, nt)
    z_vals = (np.arange(nz) + 0.5) * (T / nz)
    norm = 1.0 / (broadening * math.sqrt(2.0 * math.pi))
    matrix = np.zeros((nt, nz))
    for ik, z in enumerate(z_vals):
        # stripe k sits at t = (z - z') - kT with |z - z'| < T: for |k| > 5
        # it is over 200 widths outside the window, where the Gaussian is 0.0
        lags = spacetime_commutator_support(j, z, zprime, T, 5)
        matrix[:, ik] = _broadened(t_vals, lags, broadening, norm)
    return z_vals, t_vals, matrix


def _broadened(
    t: np.ndarray, lags: list[tuple[int, float, float]], broadening: float, scale: float
) -> np.ndarray:
    """Draw (lag, weight, hit time) deltas on ``t`` as Gaussians of width
    ``broadening`` and height ``weight * scale``, added in the order given.

    The renderer of both commutator figures: ``commutator_figure`` scales by
    the area normalization, ``highq.fig4_dataset`` by 1 (peak = weight).
    """
    out = np.zeros_like(t)
    for _, w, t_hit in lags:
        out += w * scale * _gaussian(t - t_hit, broadening)
    return out
