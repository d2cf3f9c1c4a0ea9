import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringecho import (
    JunctionCoupling,
    RingGeometry,
    absorbed_fraction,
    fsr_integral,
    g_ab,
    g_ba,
    g_ca,
    noise_power,
    sum_rule_residual,
)


def geometric_gca(omega, rho, tau, T, n_terms=200):
    """Independent oracle: truncated geometric echo sum for the cavity response."""
    total = 0.0 + 0.0j
    for n in range(n_terms + 1):
        total += rho**n * np.exp(1j * n * omega * T)
    return tau * total


class TestJunctionCoupling:
    def test_normalizes_tau(self):
        j = JunctionCoupling(0.75)
        assert abs(j.tau**2 + j.rho**2 - 1.0) < 1e-12

    def test_from_tau(self):
        j = JunctionCoupling.from_tau(0.6)
        assert abs(j.rho - 0.8) < 1e-12

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError):
            JunctionCoupling(rho)

    @pytest.mark.parametrize("tau", [0.999, 0.95, 0.85, 0.6, 0.01])
    def test_from_tau_keeps_tau(self, tau):
        assert JunctionCoupling.from_tau(tau).tau == pytest.approx(tau, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tau", [1e-8, 1e-6, 1e-4])
    def test_from_tau_refuses_a_tau_rho_cannot_carry(self, tau):
        # the tau of rho = sqrt(1 - tau^2) is 49% off at 1e-8, 4.4e-5 at 1e-6
        with pytest.raises(ValueError, match=rf"tau = {tau!r} .*--rho"):
            JunctionCoupling.from_tau(tau)

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError):
            JunctionCoupling.from_tau(0.0)


class TestRingGeometry:
    def test_derived_quantities(self):
        geom = RingGeometry(length=3.0, group_velocity=1.5)
        assert geom.round_trip == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RingGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            RingGeometry(1.0, -1.0)


class TestGca:
    def test_no_cavity_is_pure_transmission(self):
        j = JunctionCoupling(0.0)
        for w in (-3.7, 0.0, 12.0):
            assert g_ca(w, j, 1.0) == pytest.approx(1.0 + 0.0j)

    def test_resonance_peak_against_series(self):
        # oracle first: partial geometric sum to n=200
        j = JunctionCoupling(0.75)
        oracle = abs(geometric_gca(0.0, j.rho, j.tau, 1.0)) ** 2
        value = abs(g_ca(0.0, j, 1.0)) ** 2
        assert abs(value / oracle - 1.0) < 1e-12
        assert value == pytest.approx(7.0, rel=1e-12)

    def test_antiresonance_against_series(self):
        j = JunctionCoupling(0.75)
        oracle = abs(geometric_gca(math.pi, j.rho, j.tau, 1.0)) ** 2
        value = abs(g_ca(math.pi, j, 1.0)) ** 2
        assert abs(value / oracle - 1.0) < 1e-10
        assert value == pytest.approx(1.0 / 7.0, rel=1e-10)

    @given(
        rho=st.floats(0.0, 0.95),
        omega=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_series_consistency(self, rho, omega):
        """Closed form matches the truncated sum within the analytic tail bound."""
        j = JunctionCoupling(rho)
        n = 150
        approx = geometric_gca(omega, j.rho, j.tau, 1.0, n_terms=n)
        bound = j.tau * rho ** (n + 1) / (1.0 - rho) if rho > 0 else 0.0
        assert abs(g_ca(omega, j, 1.0) - approx) <= bound + 1e-12

    def test_periodicity(self):
        j = JunctionCoupling(0.9)
        T = 0.7
        fsr = 2.0 * math.pi / T
        rng = np.random.default_rng(7)
        for w in rng.uniform(-40, 40, 50):
            assert abs(g_ca(w + fsr, j, T) - g_ca(w, j, T)) < 1e-11

    @pytest.mark.parametrize(
        "fn", [g_ca, g_ba, g_ab, noise_power, sum_rule_residual, fsr_integral, absorbed_fraction]
    )
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_round_trip(self, fn, T):
        j = JunctionCoupling(0.5)
        args = (j, T) if fn in (fsr_integral, absorbed_fraction) else (1.0, j, T)
        gamma = (0.1,) if fn in (noise_power, sum_rule_residual, absorbed_fraction) else ()
        with pytest.raises(ValueError, match="round-trip time must be finite and positive"):
            fn(*args, *gamma)

    @pytest.mark.parametrize("fn", [g_ca, g_ba, g_ab])
    @pytest.mark.parametrize("omega", [math.nan, math.inf, np.array([0.5, -math.inf])])
    def test_rejects_nonfinite_frequency(self, fn, omega):
        with pytest.raises(ValueError):
            fn(omega, JunctionCoupling(0.5), 1.0)

    @pytest.mark.parametrize("fn", [g_ca, g_ba, g_ab, noise_power, sum_rule_residual])
    @pytest.mark.parametrize("omega", [1e308, -1e308, np.array([1.0, 1e308])])
    def test_rejects_overflowing_phase(self, fn, omega):
        # omega is finite, but omega T at T = 10 overflows: ValueError, before
        # any numpy warning (the suite turns warnings into errors)
        gamma = (0.1,) if fn in (noise_power, sum_rule_residual) else ()
        with pytest.raises(ValueError, match=r"omega \* T must be finite"):
            fn(omega, JunctionCoupling(0.5), 10.0, *gamma)

    def test_vectorized(self):
        j = JunctionCoupling(0.5)
        w = np.linspace(-5, 5, 11)
        vals = g_ca(w, j, 1.0)
        assert vals.shape == (11,)
        assert vals[5] == g_ca(0.0, j, 1.0)


class TestGba:
    def test_dc_value(self):
        j = JunctionCoupling(0.75)
        assert g_ba(0.0, j, 1.0) == pytest.approx(1.0 + 0.0j)

    def test_rho_zero_is_pure_delay(self):
        j = JunctionCoupling(0.0)
        for w in (0.3, -2.0, 7.7):
            assert g_ba(w, j, 1.0) == pytest.approx(np.exp(1j * w))

    def test_unimodular_at_random_frequencies(self):
        j = JunctionCoupling(0.75)
        rng = np.random.default_rng(42)
        w = rng.uniform(-100, 100, 1000)
        assert np.max(np.abs(np.abs(g_ba(w, j, 1.0)) - 1.0)) < 1e-12
        # and it is the first-order all-pass section (z - rho) / (1 - rho z)
        z = np.exp(1j * w)
        assert np.max(np.abs(g_ba(w, j, 1.0) - (z - j.rho) / (1.0 - j.rho * z))) < 1e-12

    @given(rho=st.floats(0.0, 0.999), omega=st.floats(-200.0, 200.0))
    @settings(max_examples=120, deadline=None)
    def test_unimodularity_property(self, rho, omega):
        assert abs(abs(g_ba(omega, JunctionCoupling(rho), 1.0)) - 1.0) < 1e-12


class TestGab:
    def test_conjugate_of_forward(self):
        j = JunctionCoupling(0.0)
        assert g_ab(1.3, j, 1.0) == pytest.approx(np.exp(-1.3j))

    @given(rho=st.floats(0.0, 0.999), omega=st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_inverse_identity(self, rho, omega):
        j = JunctionCoupling(rho)
        assert abs(g_ab(omega, j, 1.0) * g_ba(omega, j, 1.0) - 1.0) < 1e-14

    def test_equals_time_reversed_forward(self):
        # conjugation is the same as running the loop backwards
        j = JunctionCoupling(0.75)
        w = math.pi / 2
        z = np.exp(-1j * w)  # exp(i w (-T)) with T = 1
        reversed_T = z * (1.0 - j.rho * np.conj(z)) / (1.0 - j.rho * z)
        assert g_ab(w, j, 1.0) == pytest.approx(reversed_T, abs=1e-14)


class TestAbsorptionRate:
    @pytest.mark.parametrize("fn", [g_ca, g_ba])
    def test_zero_rate_is_bitwise_lossless(self, fn):
        # Gamma = 0 is the default, lossless call, bit for bit
        rng = np.random.default_rng(5)
        for rho in (0.0, 0.5, 0.97, 0.999):
            j = JunctionCoupling(rho)
            w = rng.uniform(-1e4, 1e4, 1000)
            want = fn(w, j, 1.3)
            assert np.array_equal(fn(w, j, 1.3, Gamma=0.0), want)
            w0 = float(w[0])
            assert fn(w0, j, 1.3, Gamma=0.0) == fn(w0, j, 1.3) == want[0]

    @pytest.mark.parametrize("fn", [g_ca, g_ba])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 0.999, 0.9999])
    @pytest.mark.parametrize("T_rt", [1e-6, 1.3, 1e6])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.2])
    def test_within_4_eps_of_longdouble_reference(self, fn, rho, T_rt, gamma_t):
        ld = np.longdouble
        if np.finfo(ld).eps >= np.finfo(float).eps:
            pytest.skip("longdouble is double here")
        j = JunctionCoupling(rho)
        # within two linewidths of resonances 0, 1, -7 and 1000, plus random phases
        near = (1.0 - rho) * np.linspace(-2.0, 2.0, 41)
        theta = np.concatenate(
            [2.0 * math.pi * k + near for k in (0, 1, -7, 1000)]
            + [np.random.default_rng(9).uniform(-100.0, 100.0, 200)]
        )
        w, G = theta / T_rt, gamma_t / T_rt
        got = fn(w, j, T_rt, G)
        # independent reference at the same float phase fl(omega T), with
        # 1 - r cos(theta) = (1 - r) + 2 r sin^2(theta / 2)
        th = np.multiply(w, T_rt).astype(ld)
        a = np.exp(-(ld(G) * ld(T_rt)))
        r = ld(j.rho) * a
        s2 = np.sin(th / 2) ** 2
        x, y = (1 - r) + 2 * r * s2, r * np.sin(th)  # 1 - r e^{i theta} = x - i y
        if fn is g_ca:
            nr, ni = ld(j.tau), ld(0.0)
        else:  # a e^{i theta} - rho
            nr, ni = (a - ld(j.rho)) - 2 * a * s2, a * np.sin(th)
        den = x * x + y * y
        want_re, want_im = (nr * x - ni * y) / den, (nr * y + ni * x) / den
        err = np.hypot(got.real - want_re, got.imag - want_im) / np.hypot(want_re, want_im)
        assert float(np.max(err)) <= 4.0 * np.finfo(float).eps

    def test_zero_coupling_gives_exactly_one(self):
        # no junction reflection: g_ca is 1.0 exactly, so a flat |g_ca|^2 is flat
        j = JunctionCoupling(0.0)
        rng = np.random.default_rng(8)
        for T_rt in (1e-6, 1.3, 1e6):
            w = rng.uniform(-1e4, 1e4, 1000) / T_rt
            assert np.all(g_ca(w, j, T_rt) == 1.0)
            assert g_ca(float(w[0]), j, T_rt) == 1.0

    @pytest.mark.parametrize("fn", [g_ca, g_ba])
    @pytest.mark.parametrize("Gamma", [0.0, 0.2])
    @pytest.mark.parametrize("omega", [1e6, 1e9, 1e12])
    def test_large_frequency_against_mpmath(self, fn, Gamma, omega):
        mpmath = pytest.importorskip("mpmath")
        j = JunctionCoupling(0.75)
        with mpmath.workdps(40):
            z = mpmath.expj(omega)  # T = 1: the float omega T, reduced exactly
            a = mpmath.exp(-mpmath.mpf(Gamma))
            den = 1 - j.rho * a * z
            want = complex(j.tau / den if fn is g_ca else (a * z - j.rho) / den)
        for w in (omega, np.array([omega])):
            assert abs(fn(w, j, 1.0, Gamma=Gamma) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("fn", [g_ca, g_ba])
    @pytest.mark.parametrize("Gamma", [-0.1, -math.inf, math.nan, math.inf])
    def test_rejects_bad_rate(self, fn, Gamma):
        with pytest.raises(ValueError):
            fn(0.5, JunctionCoupling(0.5), 1.0, Gamma=Gamma)


class TestScalarIsArrayElement:
    # the type a scalar frequency returns
    KINDS = {
        g_ca: complex,
        g_ba: complex,
        g_ab: np.complex128,
        noise_power: float,
        sum_rule_residual: np.float64,
    }

    @pytest.mark.parametrize("T_rt", [1.0, 1.3, 1e-6])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.2])
    def test_scalar_equals_array_element_bitwise(self, T_rt, gamma_t):
        rng = np.random.default_rng(11)
        G = gamma_t / T_rt
        for _ in range(300):
            j = JunctionCoupling(rng.uniform(0.0, 0.9999))
            w = rng.uniform(-200.0, 200.0, 3) / T_rt
            for fn, kind in self.KINDS.items():
                args = (j, T_rt) if fn is g_ab else (j, T_rt, G)
                arr = fn(w, *args)
                for k in range(len(w)):
                    got = fn(float(w[k]), *args)
                    assert type(got) is kind
                    assert np.asarray(got).tobytes() == arr[k : k + 1].tobytes(), (fn, j, w[k])


class TestFsrIntegral:
    def test_flat_case_exact(self):
        assert fsr_integral(JunctionCoupling(0.0), 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.98])
    def test_state_count_conserved(self, rho):
        assert abs(fsr_integral(JunctionCoupling(rho), 1.0) - 1.0) < 1e-6

    @pytest.mark.parametrize("rho", [0.999, 0.9999, 0.99999])
    def test_default_quadrature_resolves_high_q(self, rho):
        # the aliasing of the midpoint rule on N' points, plus rounding in
        # units u = eps/2: about 20 u per point (the grid, fl(omega T), tan,
        # six operations and the three constants) and at most
        # 128/8 + log2(N'/256) u from numpy's pairwise sum of the N'/2 points
        n = max(4096, math.ceil(math.log(2e-14) / math.log(rho)))
        n2 = 2 * math.ceil(n / 2)
        aliasing = 2.0 * rho**n2 / (1.0 + rho**n2)
        rounding = (20.0 + 16.0 + math.log2(n2 / 256)) * np.finfo(float).eps / 2
        assert abs(fsr_integral(JunctionCoupling(rho), 1.0) - 1.0) <= aliasing + rounding


class TestDensityOfStates:
    """The profile |g_ca|^2 that fig2 tabulates."""

    def test_flat_profile_at_zero_coupling(self):
        omega = -10.0 + 0.1 * np.arange(201)
        dos = np.abs(g_ca(omega, JunctionCoupling(0.0), 1.0)) ** 2
        assert np.allclose(dos, 1.0, atol=1e-14)

    def test_peaks_at_fsr_multiples(self):
        T = 1.0
        fsr = 2.0 * math.pi / T
        omega = -2.0 * fsr + (fsr / 64) * np.arange(257)
        dos = np.abs(g_ca(omega, JunctionCoupling(0.75), T)) ** 2
        for mult in (-2, -1, 0, 1, 2):
            idx = int(np.argmin(np.abs(omega - mult * fsr)))
            assert dos[idx] == pytest.approx(7.0, rel=1e-9)

    def test_even_and_periodic(self):
        T = 1.0
        fsr = 2.0 * math.pi / T
        j = JunctionCoupling(0.6)
        w = np.linspace(0.0, fsr, 33)
        dos_pos = np.abs(g_ca((fsr / 32) * np.arange(33), j, T)) ** 2
        dos_neg = np.abs(np.array([g_ca(-x, j, T) for x in w])) ** 2
        dos_shift = np.abs(np.array([g_ca(x + fsr, j, T) for x in w])) ** 2
        assert np.max(np.abs(dos_pos - dos_neg)) < 1e-12
        assert np.max(np.abs(dos_pos - dos_shift)) < 1e-11
