"""Single-mode (quasimode) limit of the cavity and its validity diagnostics.

For a nearly closed junction the circulating field behaves as one damped
mode with an exponential commutator envelope ``exp(-kappa |dt|)``. This
module provides that reduced model next to quantitative measures of when it
breaks down, so the approximation is used with its error bars attached
rather than on faith.

The rate ``kappa`` is one float, computed under one of two conventions
named when it is computed:

- ``exact``:  kappa = ln(1/rho) / T, so exp(-kappa T) = rho exactly.
- ``linear``: kappa = (1 - rho) / T.

They agree to first order in (1 - rho) and drift apart at moderate coupling.
``quasimode_field_error`` and the validation suite use ``exact``;
``fig4_dataset``, the paper's figure 4, uses ``linear``.
"""

from __future__ import annotations

import math

import numpy as np

from .core_response import JunctionCoupling
from .commutators import _broadened, spacetime_commutator_support
from .echo_kernels import SampledSignal, apply_train, kernel_ca

KAPPA_FLAVORS = ("exact", "linear")
FIG4_TRIPS = 10  # round trips that fig4_dataset's window spans


class StepTooCoarse(ValueError):
    """Raised when the sample spacing cannot resolve the mode decay."""


def kappa(j: JunctionCoupling, T: float, flavor: str = "exact") -> float:
    """Cavity damping rate under the chosen convention.

    The exact flavor requires rho > 0 (a fully open junction has no
    round-trip memory to assign a decay rate to). A rate that is not
    positive (one that underflows to 0) is refused.
    """
    if T <= 0.0:
        raise ValueError(f"round-trip time must be positive, got {T}")
    if flavor == "exact":
        if j.rho <= 0.0:
            raise ValueError("exact flavor requires rho > 0")
        value = math.log(1.0 / j.rho) / T
    elif flavor == "linear":
        value = (1.0 - j.rho) / T
    else:
        raise ValueError(f"flavor must be one of {KAPPA_FLAVORS}, got {flavor!r}")
    if value <= 0.0:
        raise ValueError(f"kappa must be positive, got {value}")
    return value


def peak_ratio(j: JunctionCoupling) -> float:
    """Lorentzian peak over true peak: (1 - rho) / ln(1/rho), at most 1."""
    if j.rho <= 0.0:
        raise ValueError("peak ratio requires rho > 0")
    return (1.0 - j.rho) / math.log(1.0 / j.rho)


def quasimode_evolve(a: SampledSignal, k: float) -> SampledSignal:
    """Drive the single-mode equation d/dt C = -k C + sqrt(2 k) A, k = kappa.

    Integrates with the exact one-step exponential update, treating the
    input as piecewise linear between samples; for this linear system no
    generic ODE solver is needed and none is used. The mode starts empty at
    the first sample. Requires kappa * dt < 0.05 so the sampled drive can
    resolve the decay.
    """
    h = a.dt
    if k * h >= 0.05:
        raise StepTooCoarse(
            f"kappa*dt = {k * h:.3g} too coarse; need < 0.05"
        )
    decay = math.exp(-k * h)
    i0 = (1.0 - decay) / k                    # int_0^h exp(-k u) du
    i1 = (1.0 - (1.0 + k * h) * decay) / k**2  # int_0^h u exp(-k u) du
    w_old = i1 / h
    w_new = i0 - i1 / h
    drive = math.sqrt(2.0 * k)
    vals = a.values
    out = np.empty_like(vals)
    c = 0.0 + 0.0j
    out[0] = c
    for n in range(len(vals) - 1):
        c = decay * c + drive * (w_old * vals[n] + w_new * vals[n + 1])
        out[n + 1] = c
    return SampledSignal(a.t0, a.dt, out)


def quasimode_commutator(dt_sep, k: float):
    """Commutator envelope exp(-k |dt|), k = kappa; equals 1 at zero separation.

    Takes a scalar or an array of separations and returns the same shape.
    """
    out = np.exp(-k * np.abs(np.asarray(dt_sep, dtype=float)))
    return out if out.ndim else float(out)


def quasimode_field_error(a: SampledSignal, j: JunctionCoupling, T: float) -> float:
    """Relative L2 distance between the reduced model and the exact field.

    Both fields are evaluated on the input window. Small (below a percent)
    deep in the high-Q regime; grows to many percent at moderate coupling,
    which is the quantitative content of the regime conditions.
    """
    approx = quasimode_evolve(a, kappa(j, T, "exact"))
    # the exact field in quasimode normalization: sqrt(T) x the echo sum
    n = len(a)
    exact = math.sqrt(T) * apply_train(kernel_ca(j, T, 1e-10), a).values[:n]
    diff = approx.values - exact
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(diff) / denom)


def fig4_dataset(
    j: JunctionCoupling, T: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact commutator train next to its single-mode envelope, for plotting.

    Returns (dt_sep, exact_rendered, envelope) on 4001 samples over
    ``FIG4_TRIPS`` round trips. Deltas are drawn as Gaussians of width
    T/100 whose peak equals the delta weight; the envelope uses the linear
    damping flavor, so it visibly detaches from the peaks at moderate
    coupling.
    """
    k = kappa(j, T, "linear")
    dt_sep = np.linspace(0.0, FIG4_TRIPS * T, 4001)
    # the train at z = z': lags 0, -1, ..., -(FIG4_TRIPS + 1) hit at t = 0, T, 2T, ...
    support = spacetime_commutator_support(j, 0.0, 0.0, T, FIG4_TRIPS + 1)
    lags = [lag for lag in reversed(support) if lag[0] <= 0]
    rendered = _broadened(dt_sep, lags, T / 100.0, 1.0)
    return dt_sep, rendered, quasimode_commutator(dt_sep, k)
