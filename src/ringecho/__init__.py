"""Exact input-output response of a traveling-wave ring cavity.

Spectral transfer functions at arbitrary junction coupling, their time-domain
echo kernels as exact delta trains, field-commutator bookkeeping, the high-Q
single-mode reduction with regime diagnostics, two-photon wave-packet
shaping, a dissipative-loss model with its fluctuation sum rule, and a
brute-force lattice simulator that cross-validates all of it.
"""

from .core_response import (
    JunctionCoupling,
    RingGeometry,
    fsr_integral,
    g_ab,
    g_ba,
    g_ca,
)
from .echo_kernels import (
    DeltaTrain,
    IncommensurateGrid,
    SampledSignal,
    apply_train,
    convolve,
    correlate,
    kernel_ab,
    kernel_ba,
    kernel_ca,
)
from .commutators import (
    commutator_figure,
    output_commutator_decomposition,
    spacetime_commutator_support,
)
from .highq import (
    StepTooCoarse,
    fig4_dataset,
    kappa,
    peak_ratio,
    quasimode_commutator,
    quasimode_evolve,
    quasimode_field_error,
)
from .two_photon import (
    JointAmplitudeGrid,
    TwoPhotonGaussian,
    cw_output,
    gaussian_amplitude,
    gaussian_output_closed_form,
    peak_locate,
    separability_rank,
    transform_output,
    transform_output_on_window,
)
from .lossy_cavity import (
    absorbed_fraction,
    noise_power,
    sum_rule_residual,
)
from .fdtd_oracle import run

__version__ = "0.1.0"
