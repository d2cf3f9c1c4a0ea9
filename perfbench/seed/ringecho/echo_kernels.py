"""Time-domain response of the ring cavity as weighted delta trains.

Every impulse response of the lossless cavity is a distribution supported on
the round-trip lattice, ``sum_k c_k delta(t - k T)``. ``DeltaTrain`` stores
the integer offsets and real weights exactly, together with a certified bound
on the truncated tail, so downstream equality tests have principled
tolerances instead of guessed ones.

Kernels
-------
- ``kernel_ca``: input -> circulating field, weights ``tau * rho^n`` (n >= 0).
- ``kernel_ba``: input -> output, ``-rho`` at 0 then ``tau^2 rho^(n-1)``.
- ``kernel_ab``: output -> input, the time-reversed (anticausal) mirror.

``convolve`` composes kernels, ``correlate`` builds commutator trains, and
``apply_train`` runs a kernel over a uniformly sampled complex envelope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core_response import JunctionCoupling


class IncommensurateGrid(ValueError):
    """Raised when a round trip is not an integer number of sample steps."""


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex envelope.

    Parameters
    ----------
    t0 : float
        Time of the first sample.
    dt : float
        Sample spacing, positive.
    values : ndarray
        Complex amplitudes; stored as complex128, must be finite.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    def energy(self) -> float:
        """Discrete energy, sum |v|^2 dt."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dt)


@dataclass(frozen=True)
class DeltaTrain:
    """Distribution ``sum_k weights[k] * delta(t - k * period)``.

    Offsets are exact integers (negative offsets represent anticausal
    kernels); weights are real. ``tail_bound`` bounds the total absolute
    weight discarded by truncation, and ``eps`` records the truncation floor
    used at construction (0 means nothing was dropped).
    """

    period: float
    weights: dict[int, float]
    eps: float = 0.0
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        object.__setattr__(
            self, "weights", {int(k): float(c) for k, c in self.weights.items()}
        )

    def weight(self, k: int) -> float:
        return self.weights.get(k, 0.0)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    def sum_abs(self) -> float:
        return float(sum(abs(c) for c in self.weights.values()))

    def sum_sq(self) -> float:
        return float(sum(c * c for c in self.weights.values()))

    def truncated(self, eps: float) -> "DeltaTrain":
        """Drop weights below ``eps`` in magnitude, folding them into the tail bound."""
        kept = {k: c for k, c in self.weights.items() if abs(c) >= eps}
        dropped = sum(abs(c) for c in self.weights.values() if abs(c) < eps)
        return DeltaTrain(self.period, kept, eps, self.tail_bound + dropped)

    def max_abs_diff(self, other: "DeltaTrain") -> float:
        """Largest weight difference over the union of supports."""
        keys = set(self.weights) | set(other.weights)
        return max((abs(self.weight(k) - other.weight(k)) for k in keys), default=0.0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "T": self.period,
                "eps": self.eps,
                "weights": [[k, self.weights[k]] for k in self.offsets],
                "tail_bound": self.tail_bound,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DeltaTrain":
        obj = json.loads(text)
        return cls(
            period=obj["T"],
            weights={int(k): float(c) for k, c in obj["weights"]},
            eps=obj["eps"],
            tail_bound=obj["tail_bound"],
        )


def kernel_ca(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Impulse response from input to circulating field.

    Weights ``tau * rho^n`` at offsets n >= 0: the direct transmission plus a
    ladder of delayed, attenuated replicas. Truncated once ``tau * rho^N``
    falls below ``eps``; the dropped tail sums to ``tau rho^N / (1 - rho)``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    rho, tau = j.rho, j.tau
    weights: dict[int, float] = {}
    n, c = 0, tau
    while c >= eps:
        weights[n] = c
        n += 1
        c *= rho
        if rho == 0.0:
            break
    tail = c / (1.0 - rho) if rho > 0.0 else 0.0
    return DeltaTrain(T, weights, eps, tail)


def kernel_ba(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Impulse response from input to output channel.

    Weight ``-rho`` at offset 0 (prompt reflection, with the external phase
    flip) and ``tau^2 rho^(n-1)`` at offsets n >= 1 (the echoes). The squared
    weights sum to 1: the map is lossless.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    rho, tau = j.rho, j.tau
    weights: dict[int, float] = {}
    if rho >= eps:
        weights[0] = -rho
    n, c = 1, tau * tau
    while c >= eps:
        weights[n] = c
        n += 1
        c *= rho
        if rho == 0.0:
            break
    tail = c / (1.0 - rho) if rho > 0.0 else 0.0
    return DeltaTrain(T, weights, eps, tail)


def kernel_ab(j: JunctionCoupling, T: float, eps: float = 1e-12) -> DeltaTrain:
    """Inverse impulse response, output back to input (anticausal).

    Same weights as ``kernel_ba`` at mirrored offsets: ``-rho`` at 0 and
    ``tau^2 rho^(n-1)`` at offsets -n, n >= 1. Composing with ``kernel_ba``
    gives the unit train.
    """
    forward = kernel_ba(j, T, eps)
    return DeltaTrain(
        T,
        {-k: c for k, c in forward.weights.items()},
        eps,
        forward.tail_bound,
    )


def unit_train(T: float) -> DeltaTrain:
    """The identity element for convolution, a single unit delta at 0."""
    return DeltaTrain(T, {0: 1.0})


def _check_same_period(f: DeltaTrain, g: DeltaTrain) -> None:
    if not math.isclose(f.period, g.period, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"mismatched base periods: {f.period} vs {g.period}"
        )


def convolve(f: DeltaTrain, g: DeltaTrain) -> DeltaTrain:
    """Convolution ``(f * g)_k = sum_m f_m g_(k-m)``.

    Realizes kernel composition. No truncation is applied to the result
    (cancellations are kept so tests can inspect them); the tail bound of the
    inputs propagates as ``tail_f (S_g + tail_g) + tail_g S_f`` with S the
    total absolute weight.
    """
    _check_same_period(f, g)
    out: dict[int, float] = {}
    for m, fm in f.weights.items():
        for n, gn in g.weights.items():
            k = m + n
            out[k] = out.get(k, 0.0) + fm * gn
    tail = f.tail_bound * (g.sum_abs() + g.tail_bound) + g.tail_bound * f.sum_abs()
    return DeltaTrain(f.period, out, 0.0, tail)


def correlate(f: DeltaTrain, g: DeltaTrain) -> DeltaTrain:
    """Correlation ``(f x g)_k = sum_n f_n g_(n+k)``.

    The autocorrelation of a kernel is its commutator train: the weight at
    lag k of ``correlate(h, h)`` is exactly the equal-position field
    commutator at time separation k periods.
    """
    _check_same_period(f, g)
    out: dict[int, float] = {}
    for n, fn in f.weights.items():
        for m, gm in g.weights.items():
            k = m - n
            out[k] = out.get(k, 0.0) + fn * gm
    tail = f.tail_bound * (g.sum_abs() + g.tail_bound) + g.tail_bound * f.sum_abs()
    return DeltaTrain(f.period, out, 0.0, tail)


def apply_train(f: DeltaTrain, s: SampledSignal) -> SampledSignal:
    """Apply a delta-train kernel to a sampled signal.

    Computes ``sum_k c_k s(t - k T)``. The train period must be an integer
    multiple of the sample spacing (relative tolerance 1e-9); echoes are
    placed by exact index shifts, never interpolated, so the lattice
    identities of the kernels survive in the sampled arithmetic. The output
    window is extended to hold every retained echo.

    Raises
    ------
    IncommensurateGrid
        If T / dt is not an integer; resample the signal instead.
    """
    ratio = f.period / s.dt
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-9 * ratio:
        raise IncommensurateGrid(
            f"train period {f.period} is not an integer multiple of the "
            f"sample spacing {s.dt}; resample the signal"
        )
    if not f.weights:
        return SampledSignal(s.t0, s.dt, np.zeros(len(s), dtype=np.complex128))
    kmin = min(f.weights)
    kmax = max(f.weights)
    n_in = len(s)
    out = np.zeros(n_in + (kmax - kmin) * stride, dtype=np.complex128)
    for k, c in f.weights.items():
        off = (k - kmin) * stride
        out[off : off + n_in] += c * s.values
    return SampledSignal(s.t0 + kmin * f.period, s.dt, out)
