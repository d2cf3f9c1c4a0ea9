"""Brute-force ring-cavity simulator used as an independent oracle.

The loop is discretized into M cells of length dz = L/M and advanced with the
unit-CFL shift (v dt = dz), so free propagation is exact on the lattice and
the only approximations left are transient truncation and the intra-step
placement of the loss factor. The junction update per step is the 2x2 unitary

    b        = tau * c_L - rho * a_in
    c_first  = rho * c_L + tau * a_in

followed by the one-cell shift and a uniform amplitude factor
``exp(-Gamma * dt)`` modeling a distributed absorber.

``run`` advances one round trip of M samples per step: in one trip every
cell meets the junction exactly once, in order, so the update above acts on
M-vectors at once, with the same arithmetic per sample as the update applied
one sample at a time (the per-sample loop that the tests keep as ``run``'s
bitwise reference). Its trip loop updates only the state,
``c_first`` (two in-place array operations per trip without loss). Without
loss it runs only while there is input: every later trip is the free
ringdown, each cell multiplied by rho trip after trip, so the ringdown is
one in-place ``multiply.accumulate`` along the trips, the same products in
the same order as the loop. No later trip reads ``b``, so the whole output
is formed from the stored states in one vectorized pass at the end.

Nothing here shares code with the analytic kernels; that is the point.
"""

from __future__ import annotations

import numpy as np

from .core_response import JunctionCoupling, RingGeometry
from .echo_kernels import IncommensurateGrid, SampledSignal


def run(
    signal: SampledSignal,
    j: JunctionCoupling,
    geometry: RingGeometry,
    M: int,
    Gamma: float = 0.0,
) -> tuple[SampledSignal, SampledSignal]:
    """Drive the discretized cavity with a sampled input.

    The input spacing must equal T/M (the caller resamples if needed);
    one cell per round trip, M = 1, samples the lattice exactly.
    Advances one round trip per loop step, bitwise equal to the junction
    update and shift applied once per sample above the underflow range:
    with loss, where a ringdown underflows, a zero can differ in sign from
    the per-sample loop's (numpy's array loop and its scalars round a
    subnormal complex product differently), while every nonzero value
    agrees. ``Gamma`` must be finite, non-negative and leave ``exp(-Gamma
    dt) > 0``. Trip by trip:
    the cell reaching the junction at sample s of the trip is the one
    injected at sample s of the trip before, so with ``a`` the trip's M
    inputs and ``c`` those cells,

        b = tau * c - rho * a,    c <- rho * c + tau * a,

    on M-vectors. With loss, the probe is the new cell after one factor
    ``exp(-Gamma dt)``, and every cell takes M factors, one per sample and
    in that order, before it meets the junction again. The input is padded
    with zeros to whole trips, and the padded samples are dropped from both
    results.

    Without loss the loop runs up to the last trip holding input. A trip
    counts as input-free only if every sample is the bit pattern +0.0 (a
    -0.0 sample is input): only then is ``tau * a`` exactly +0, and adding
    it changes no value but a -0, which becomes +0. The trips after it are
    the free ringdown ``c <- rho * c + 0``, formed in place on the states by
    one ``multiply.accumulate`` along the trips and then one ``+ 0`` for the
    signs of zero, so every value equals the loop's bit for bit, sign of
    zero included. With loss the loop runs over every trip.

    Returns
    -------
    (output, cavity_probe) : pair of SampledSignal
        The output channel and the intracavity field recorded just past the
        junction, both on the input grid.
    """
    if M < 1:
        raise ValueError(f"M must be at least 1 cell, got {M}")
    T = geometry.round_trip
    dt = T / M
    if abs(signal.dt - dt) > 1e-9 * dt:
        raise IncommensurateGrid(
            f"input spacing {signal.dt} must equal T/M = {dt}"
        )
    if not 0.0 <= Gamma < np.inf:
        raise ValueError(f"Gamma must be non-negative and finite, got {Gamma}")
    loss = float(np.exp(-Gamma * dt))
    if loss == 0.0:
        raise ValueError(f"Gamma {Gamma} damps one sample step of {dt} to zero")
    rho, tau = j.rho, j.tau
    n = len(signal)
    trips = -(-n // M)
    # whole trips: the zeros padding the last one feed no sample that is kept
    a = np.zeros((trips, M), dtype=np.complex128)
    a.reshape(-1)[:n] = signal.values
    held = trips
    if loss == 1.0:
        # trips from `held` on carry no input: all their samples are +0.0 bit for bit
        has_input = a.view(np.uint64).any(axis=1)
        held -= int(np.argmax(has_input[::-1])) if has_input.any() else trips
    # s[k] is the cells meeting the junction in trip k, in the order they meet it
    s = np.empty((trips + 1, M), dtype=np.complex128)
    s[0] = 0.0  # the loop starts empty
    probe = s[1:] if loss == 1.0 else np.empty((trips, M), dtype=np.complex128)
    # rho as complex, as numpy converts the float for every product anyway
    rho_c = np.full(M, rho, dtype=np.complex128)
    for k, (prev, c, tau_a) in enumerate(zip(s, s[1:], tau * a[:held])):
        np.multiply(rho_c, prev, out=c)
        np.add(c, tau_a, out=c)
        if loss != 1.0:
            c *= loss
            probe[k] = c
            for _ in range(M - 1):
                c *= loss
    if held < trips:
        _free_lossless(s[held:], rho_c)
    b = np.multiply(tau, s[:-1])
    np.subtract(b, rho * a, out=b)
    b_vals, c_vals = b.reshape(-1)[:n], probe.reshape(-1)[:n]
    return (
        SampledSignal(signal.t0, dt, b_vals),
        SampledSignal(signal.t0, dt, c_vals),
    )


def _free_lossless(s: np.ndarray, rho_c: np.ndarray) -> None:
    """Ring down ``s[1:]`` in place from ``s[0]`` without loss:
    ``s[k] = rho s[k-1] + 0``. The accumulate skips each ``+ 0``, which can
    change only the sign of a zero product; one ``+ 0`` at the end does."""
    s[1:] = rho_c
    np.multiply.accumulate(s, axis=0, out=s)
    s[1:] += 0.0
