import math
import tracemalloc

import numpy as np
import pytest

from ringecho import (
    JunctionCoupling,
    absorbed_fraction,
    g_ba,
    g_ca,
    noise_power,
    noise_power_quadrature,
    sum_rule_residual,
)

J75 = JunctionCoupling(0.75)
T = 1.0


class TestLossyTransferFunctions:
    def test_reduces_to_lossless(self):
        # a vanishing rate approaches the lossless response at every frequency,
        # including far from the carrier where the phase is reduced mod 2 pi
        w = np.append(np.linspace(-9.0, 9.0, 301), [1e6, 1e12])
        for fn in (g_ca, g_ba):
            assert np.max(np.abs(fn(w, J75, T, Gamma=1e-13) - fn(w, J75, T))) < 1e-11

    def test_resonant_gain_value(self):
        # frozen from the independent steady-state evaluation
        val = abs(g_ca(0.0, J75, T, Gamma=0.2)) ** 2
        assert val == pytest.approx(2.9370518373288785, rel=1e-12)
        direct = J75.tau**2 / (1.0 - J75.rho * math.exp(-0.2)) ** 2
        assert val == pytest.approx(direct, rel=1e-14)

    def test_strong_loss_limits(self):
        assert g_ca(0.0, J75, T, Gamma=500.0) == pytest.approx(J75.tau, abs=1e-12)
        assert g_ba(0.0, J75, T, Gamma=500.0) == pytest.approx(-J75.rho, abs=1e-12)

    def test_output_strictly_subunitary(self):
        w = np.linspace(-9.0, 9.0, 501)
        mags = np.abs(g_ba(w, J75, T, Gamma=0.2))
        assert np.all(mags < 1.0)

    def test_resonant_gain_monotone_in_loss(self):
        gains = [abs(g_ca(0.0, J75, T, Gamma=G)) for G in np.linspace(0.0, 3.0, 25)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            g_ca(0.0, J75, T, Gamma=-0.1)


class TestNoisePower:
    def test_lossless_limit_silent(self):
        w = np.linspace(-80, 80, 501)
        assert np.max(np.abs(noise_power(w, J75, T, 0.0))) == 0.0

    def test_strong_loss_limit(self):
        assert noise_power(0.0, J75, T, 500.0) == pytest.approx(
            J75.tau**2, abs=1e-12
        )

    @pytest.mark.parametrize("rho", [0.0, 0.75])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.2, 2.0])
    def test_sum_rule(self, rho, gamma_t):
        j = JunctionCoupling(rho)
        rng = np.random.default_rng(17)
        w = rng.uniform(-80.0, 80.0, 500)
        assert np.max(np.abs(sum_rule_residual(w, j, T, gamma_t / T))) < 1e-12

    @pytest.mark.parametrize("gamma_t", [0.0, 0.2, 2.0])
    @pytest.mark.parametrize("T_rt", [1.0, 1.3])
    def test_sum_rule_bitwise_equals_composed_form(self, gamma_t, T_rt):
        # one phase and one denominator for both terms, same arithmetic
        j = JunctionCoupling(0.999)
        w = np.random.default_rng(5).uniform(-40.0, 40.0, 40_000) * (2.0 * math.pi / T_rt)
        G = gamma_t / T_rt
        for omega in (w, 0.37):
            got = sum_rule_residual(omega, j, T_rt, G)
            want = np.abs(g_ba(omega, j, T_rt, G)) ** 2 + noise_power(omega, j, T_rt, G) - 1.0
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_sum_rule_peak_memory_within_composed_form(self):
        j = JunctionCoupling(0.999)
        w = np.random.default_rng(6).uniform(-40.0, 40.0, 1 << 20) * (2.0 * math.pi)
        peaks = []
        for f in (
            lambda: sum_rule_residual(w, j, T, 0.2),
            lambda: np.abs(g_ba(w, j, T, 0.2)) ** 2 + noise_power(w, j, T, 0.2) - 1.0,
        ):
            tracemalloc.start()
            try:
                f()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # both peak at four complex arrays (64 MiB); one more array would add
        # 8 or 16 MiB, interpreter objects a few hundred bytes
        assert peaks[0] <= peaks[1] + (64 << 10)

    def test_matches_spatial_quadrature_oracle(self):
        """Closed form agrees with the independently integrated noise transport."""
        rng = np.random.default_rng(23)
        w = rng.uniform(-40.0, 40.0, 64)
        closed = noise_power(w, J75, T, 0.2)
        quad = noise_power_quadrature(w, J75, T, 0.2)
        assert np.max(np.abs(closed - quad)) < 1e-9

    def test_quadrature_satisfies_sum_rule(self):
        w = np.linspace(-10, 10, 41)
        quad = noise_power_quadrature(w, J75, T, 0.2)
        total = np.abs(g_ba(w, J75, T, Gamma=0.2)) ** 2 + quad
        assert np.max(np.abs(total - 1.0)) < 1e-8


class TestLossySpectrumFilter:
    """``absorbed_fraction``: the share of a flat one-FSR spectrum that
    filtering by ``g_ba`` takes."""

    def test_lossless_conserves_energy(self):
        assert absorbed_fraction(J75, T, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_pass_absorption(self):
        # open junction: one traversal, |g|^2 = exp(-2 Gamma T) exactly
        assert absorbed_fraction(JunctionCoupling(0.0), T, 0.1) == pytest.approx(
            1.0 - math.exp(-0.2), rel=1e-12
        )

    def test_flat_input_absorption_equals_mean_noise_power(self):
        # the mean over a finer grid than absorbed_fraction's own 2048 midpoints
        fsr = 2.0 * math.pi / T
        w = (np.arange(4096) + 0.5) * (fsr / 4096)
        mean_noise = float(np.mean(noise_power(w, J75, T, 0.2)))
        assert absorbed_fraction(J75, T, 0.2) == pytest.approx(mean_noise, rel=1e-12)
