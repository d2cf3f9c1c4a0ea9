import math
import tracemalloc

import numpy as np
import pytest

from ringecho import (
    JunctionCoupling,
    absorbed_fraction,
    g_ab,
    g_ba,
    g_ca,
    noise_power,
    noise_power_quadrature,
    sum_rule_residual,
)
from ringecho.core_response import _BLOCK, _gain

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
        for omega in (w, np.array([0.37])):
            got = sum_rule_residual(omega, j, T_rt, G)
            want = np.abs(g_ba(omega, j, T_rt, G)) ** 2 + noise_power(omega, j, T_rt, G) - 1.0
            assert np.array_equal(got, want)
        # a scalar is the one-element array's entry
        assert sum_rule_residual(0.37, j, T_rt, G) == want[0]

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
        # the whole-array form peaks at g_ba's complex result beside one float
        # array (24 MiB), sum_rule_residual at its float result and one block
        # of scratch (TestLargeArrays.test_peak_memory); interpreter objects
        # add a few hundred bytes
        assert peaks[0] <= peaks[1] + (64 << 10)

    @pytest.mark.parametrize("gamma_t", [1e-13, 1e-10, 1e-6])
    def test_small_loss_against_mpmath(self, gamma_t):
        # the prefactor 1 - exp(-2 Gamma T) is taken as -expm1(-2 Gamma T),
        # relative to eps however small Gamma T; 1 - exp would cancel to a
        # relative eps / (2 Gamma T), 2.4e-4 at Gamma T = 1e-13
        mpmath = pytest.importorskip("mpmath")
        w = 0.3
        with mpmath.workdps(40):
            g = mpmath.mpf(gamma_t)  # Gamma with T = 1
            den = 1 - J75.rho * mpmath.exp(-g) * mpmath.expj(w)
            want = float(-mpmath.expm1(-2 * g) * J75.tau**2 / abs(den) ** 2)
        # the real |g_ca|^2 within a few eps (positive terms only, t's
        # rounding included), the prefactor and the product within an ulp each
        assert abs(noise_power(w, J75, T, gamma_t) - want) <= 8 * np.finfo(float).eps * want

    @pytest.mark.parametrize("rho", [0.0, 0.75, 0.999])
    @pytest.mark.parametrize("gamma_t", [1e-13, 0.2, 2.0])
    def test_real_form_within_rounding_of_the_complex_modulus(self, rho, gamma_t):
        # noise_power takes |g_ca|^2 = tau^2 (1 + t^2) / (p^2 + q^2 t^2) in real
        # arithmetic, from the same t and denominator as g_ca. In units of
        # u = eps / 2, all terms positive: the real form rounds 5 times (1 + t^2,
        # tau^2, their product, the quotient, the prefactor); g_ca's real part
        # 5 times and its imaginary part 4, so their squared sum 10u, then |g|
        # within an ulp (2u, squared 4u), its square and the prefactor 1u each;
        # and g_ca's 2 rho a tau stands for tau (q - p), both rounded to 2u,
        # at most 8u of the whole. 29u in all
        j = JunctionCoupling(rho)
        G = gamma_t / T
        w = np.concatenate([[0.0, 6.0 * math.pi], np.random.default_rng(8).uniform(-40.0, 40.0, 4096)])
        want = -math.expm1(-2.0 * gamma_t) * np.abs(g_ca(w, j, T, G)) ** 2
        got = noise_power(w, j, T, G)
        assert np.all(np.abs(got - want) <= 29 * (np.finfo(float).eps / 2) * want)
        # a scalar is the one-element array's entry, at resonance too
        for omega in w[:3]:
            scalar = noise_power(omega, j, T, G)
            assert type(scalar) is float
            assert scalar == noise_power(np.array([omega]), j, T, G)[0]

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


class TestLargeArrays:
    """The spectral functions on 2^20 frequencies: values that do not depend
    on the array's length, and a working set of a few arrays."""

    SPECTRAL = {
        "g_ca": lambda w, j: g_ca(w, j, T, 0.2),
        "g_ba": lambda w, j: g_ba(w, j, T, 0.2),
        "g_ab": lambda w, j: g_ab(w, j, T),
        "noise_power": lambda w, j: noise_power(w, j, T, 0.2),
        "sum_rule_residual": lambda w, j: sum_rule_residual(w, j, T, 0.2),
    }
    W = np.random.default_rng(7).uniform(-40.0, 40.0, 1 << 20) * (2.0 * math.pi)

    @pytest.mark.parametrize("name", SPECTRAL)
    def test_values_do_not_depend_on_length(self, name):
        f, j = self.SPECTRAL[name], JunctionCoupling(0.999)
        full = f(self.W, j)
        parts = np.concatenate([f(self.W[i : i + 1000], j) for i in range(0, len(self.W), 1000)])
        assert np.array_equal(full, parts)
        singles = np.concatenate([f(self.W[i : i + 1], j) for i in range(64)])
        assert np.array_equal(full[:64], singles)

    # the result (16 MiB complex or 8 MiB float for 2^20 frequencies) plus one
    # block of scratch: t and the two numerator rows for g_ca, g_ba and g_ab
    # (24 bytes per block frequency), t for noise_power (8), and for
    # sum_rule_residual t, its copy, two numerator rows and g_ba's complex
    # block (48); interpreter objects add about 1 KiB
    @pytest.mark.parametrize(
        "name,mib,block_bytes",
        [
            ("g_ca", 16, 24),
            ("noise_power", 8, 8),
            ("g_ba", 16, 24),
            ("g_ab", 16, 24),
            ("sum_rule_residual", 8, 48),
        ],
    )
    def test_peak_memory(self, name, mib, block_bytes):
        f, j = self.SPECTRAL[name], JunctionCoupling(0.999)
        tracemalloc.start()
        try:
            f(self.W, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (mib << 20) + block_bytes * _BLOCK + (64 << 10)


class TestBlockEdges:
    """Arrays are evaluated in runs of ``_BLOCK`` frequencies: at lengths
    around a block edge, and for a 2-D omega across one, every entry equals
    its one-element call bit for bit."""

    SPECTRAL = {**TestLargeArrays.SPECTRAL, "_gain": lambda w, j: _gain(w, j, T, 0.2)}
    # entries drawn from a pool of frequencies, so each one-element call is
    # made once: exact resonances, zero, and random points out to 40 FSRs
    POOL = np.concatenate([
        [0.0, -0.0, math.pi, 2.0 * math.pi, -6.0 * math.pi, 1e-300],
        np.random.default_rng(11).uniform(-40.0, 40.0, 250) * (2.0 * math.pi),
    ])

    def _check(self, name, idx):
        f, j = self.SPECTRAL[name], JunctionCoupling(0.999)
        singles = np.concatenate([f(self.POOL[i : i + 1], j) for i in range(self.POOL.size)])
        full = f(self.POOL[idx], j)
        assert full.shape == idx.shape
        assert full.tobytes() == singles[idx].tobytes()

    @pytest.mark.parametrize("name", SPECTRAL)
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_entries_equal_one_element_calls(self, name, n):
        self._check(name, np.random.default_rng(n).integers(0, self.POOL.size, n))

    @pytest.mark.parametrize("name", SPECTRAL)
    def test_2d_omega_across_a_block_edge(self, name):
        # 3 rows of _BLOCK / 2 + 3: the first block ends inside the third row
        self._check(name, np.random.default_rng(5).integers(0, self.POOL.size, (3, _BLOCK // 2 + 3)))

    @pytest.mark.parametrize("name", SPECTRAL)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_the_last_block_refused(self, name, bad):
        w = np.random.default_rng(3).uniform(-40.0, 40.0, 3 * _BLOCK + 5)
        w[-2] = bad
        with pytest.raises(ValueError, match="finite"):
            self.SPECTRAL[name](w, JunctionCoupling(0.999))


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

    @pytest.mark.parametrize("T_edge", [3.4e-308, 1e-310, 1.4e305, 1e308])
    def test_refuses_a_frequency_step_outside_the_normal_floats(self, T_edge):
        # 2 pi / T overflows below, 2 pi / (2048 T) is subnormal above
        with pytest.raises(ArithmeticError, match="not a normal float"):
            absorbed_fraction(J75, T_edge, 0.0)

    @pytest.mark.parametrize("T_edge", [3.5e-308, 1.3e305])
    def test_answers_just_inside_the_normal_floats(self, T_edge):
        assert absorbed_fraction(J75, T_edge, 0.0) == pytest.approx(0.0, abs=1e-14)
