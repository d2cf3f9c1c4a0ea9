import math

import numpy as np
import pytest

import ringecho.echo_kernels as echo_kernels
from ringecho import (
    JunctionCoupling,
    SampledSignal,
    StepTooCoarse,
    apply_train,
    fig4_dataset,
    kappa,
    kernel_ca,
    peak_ratio,
    quasimode_commutator,
    quasimode_evolve,
    quasimode_field_error,
)


def gaussian_pulse(width, dt, t_lo, t_hi):
    t = np.arange(t_lo, t_hi, dt)
    return SampledSignal(t[0], dt, np.exp(-(t**2) / (2.0 * width**2)).astype(complex))


class TestKappa:
    def test_exact_value_and_round_trip(self):
        rate = kappa(JunctionCoupling(0.97), 1.0, "exact")
        assert rate == pytest.approx(0.0304592, abs=1e-7)
        assert math.exp(-rate * 1.0) == pytest.approx(0.97, rel=1e-14)

    def test_linear_value(self):
        rate = kappa(JunctionCoupling(0.97), 1.0, "linear")
        assert rate == pytest.approx(0.03, rel=1e-14)

    def test_flavors_agree_near_closed_junction(self):
        j = JunctionCoupling(0.9995)
        rates = [kappa(j, 1.0, f) for f in ("exact", "linear")]
        base = 1.0 - j.rho
        for r in rates:
            assert abs(r - base) / base < 1e-3

    def test_exact_rejects_open_junction(self):
        with pytest.raises(ValueError):
            kappa(JunctionCoupling(0.0), 1.0, "exact")

    def test_unknown_flavorrejected(self):
        with pytest.raises(ValueError):
            kappa(JunctionCoupling(0.5), 1.0, "other")

    @pytest.mark.parametrize("flavor", ["exact", "linear"])
    def test_rate_underflowing_to_zero_rejected(self, flavor):
        # 1 - rho and ln(1/rho) are about 1.1e-16; over 1e308 both round to 0.0
        with pytest.raises(ValueError, match="kappa must be positive"):
            kappa(JunctionCoupling(0.9999999999999999), 1e308, flavor)


class TestEffectiveResponse:
    def test_peak_ratio_values(self):
        # frozen from the two closed forms evaluated directly
        assert peak_ratio(JunctionCoupling(0.97)) == pytest.approx(
            0.9849238531587152, abs=1e-12
        )
        assert peak_ratio(JunctionCoupling(0.70)) == pytest.approx(
            0.8411019756171388, abs=1e-12
        )

    def test_ratio_flags_regime(self):
        assert peak_ratio(JunctionCoupling(0.99)) > 0.99
        assert peak_ratio(JunctionCoupling(0.70)) < 0.85


class TestQuasimodeEvolve:
    def test_zero_input_zero_output(self):
        a = SampledSignal(0.0, 0.01, np.zeros(100, dtype=complex))
        rate = kappa(JunctionCoupling(0.9), 1.0, "exact")
        assert np.all(quasimode_evolve(a, rate).values == 0.0)

    def test_constant_drive_steady_state(self):
        a0 = 0.7 - 0.2j
        rate = kappa(JunctionCoupling(0.75), 1.0, "exact")
        a = SampledSignal(0.0, 0.02, np.full(4000, a0))
        c = quasimode_evolve(a, rate)
        assert c.values[-1] == pytest.approx(a0 * math.sqrt(2.0 / rate), rel=1e-9)

    def test_step_guard(self):
        rate = kappa(JunctionCoupling(0.5), 1.0, "exact")  # kappa = 0.693
        a = SampledSignal(0.0, 0.1, np.ones(10, dtype=complex))
        with pytest.raises(StepTooCoarse):
            quasimode_evolve(a, rate)

    def test_matches_exact_envelope_at_097(self):
        """Reduced model tracks the exact echo-sum peak within 2 percent."""
        j = JunctionCoupling(0.97)
        a = gaussian_pulse(8.0, 1.0 / 8, -32.0, 32.0 + 6.0 / 0.0305)
        rate = kappa(j, 1.0, "exact")
        c_qm = quasimode_evolve(a, rate)
        c_ex = apply_train(kernel_ca(j, 1.0, 1e-10), a)
        pk_qm = np.max(np.abs(c_qm.values))
        pk_ex = np.max(np.abs(c_ex.values[: len(a)]))
        assert abs(pk_qm - pk_ex) / pk_ex < 0.02

    def test_regime_split(self):
        """L2 error below 1 percent deep in the high-Q regime, above 5 percent out of it."""
        a_hq = gaussian_pulse(20.0, 1.0 / 8, -80.0, 80.0 + 6.0 / math.log(1 / 0.99))
        assert quasimode_field_error(a_hq, JunctionCoupling(0.99), 1.0) < 0.01
        a_lq = gaussian_pulse(4.0, 1.0 / 8, -16.0, 16.0 + 25.0)
        assert quasimode_field_error(a_lq, JunctionCoupling(0.70), 1.0) > 0.05

    def test_spectral_response_matches_lorentzian(self):
        """Impulse response of the integrator transforms to the Lorentzian.

        The impulse sits mid-window (a boundary sample would be half-area
        under the piecewise-linear input reading) and the window covers the
        decay down to the tolerance.
        """
        rate = kappa(JunctionCoupling(0.97), 1.0, "exact")
        dt = 0.004
        n = int(520 / dt)
        i0 = 10
        vals = np.zeros(n, dtype=complex)
        vals[i0] = 1.0 / dt  # unit-area impulse
        c = quasimode_evolve(SampledSignal(0.0, dt, vals), rate)
        times = c.t0 + c.dt * np.arange(len(c))
        for w in np.linspace(-0.2, 0.2, 9):
            dft = np.sum(c.values * np.exp(1j * w * times)) * dt
            lorentzian = (
                math.sqrt(2.0 * rate) / (rate - 1j * w)
            ) * np.exp(1j * w * i0 * dt)
            assert abs(dft - lorentzian) / abs(lorentzian) < 1e-6

    def test_real_drive_keeps_a_real_mode(self):
        # the real part is bitwise its complex twin's: every imaginary part is 0
        rate = kappa(JunctionCoupling(0.97), 1.0, "exact")
        pulse = gaussian_pulse(8.0, 1.0 / 8, -32.0, 64.0)
        real = quasimode_evolve(SampledSignal(pulse.t0, pulse.dt, pulse.values.real), rate)
        twin = quasimode_evolve(pulse, rate)
        assert real.values.dtype == np.float64 and twin.values.dtype == np.complex128
        assert np.array_equal(real.values, twin.values.real) and not np.any(twin.values.imag)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_bitwise_equals_numpy_scalar_loop(self, dtype):
        # quasimode_evolve loops over Python numbers; the reference is the
        # same update on numpy scalars, element by element
        rate = kappa(JunctionCoupling(0.97), 1.0, "exact")
        rng = np.random.default_rng(11)
        vals = rng.normal(size=600).astype(dtype)
        if dtype is np.complex128:
            vals += 1j * rng.normal(size=600)
        a = SampledSignal(-3.0, 1.0 / 8, vals)
        h = a.dt
        decay = math.exp(-rate * h)
        i0 = (1.0 - decay) / rate
        i1 = (1.0 - (1.0 + rate * h) * decay) / rate**2
        w_old, w_new, drive = i1 / h, i0 - i1 / h, math.sqrt(2.0 * rate)
        want = np.empty_like(vals)
        c = vals.dtype.type(0)
        want[0] = c
        for n in range(len(vals) - 1):
            c = decay * c + drive * (w_old * vals[n] + w_new * vals[n + 1])
            want[n + 1] = c
        got = quasimode_evolve(a, rate)
        assert got.values.dtype == want.dtype and np.array_equal(got.values, want)
        assert (got.t0, got.dt) == (a.t0, a.dt)

    def test_empty_drive_gives_an_empty_mode(self):
        rate = kappa(JunctionCoupling(0.97), 1.0, "exact")
        for dtype in (np.float64, np.complex128):
            out = quasimode_evolve(SampledSignal(0.0, 1.0 / 8, np.zeros(0, dtype)), rate)
            assert len(out) == 0 and out.values.dtype == dtype

    def test_field_error_reads_only_the_input_window(self, monkeypatch):
        # the exact field is asked for on the input's own samples only, and
        # agrees with the whole echo sum cut to them up to FFT rounding
        j = JunctionCoupling(0.99)
        a = gaussian_pulse(20.0, 1.0 / 8, -80.0, 80.0 + 6.0 / math.log(1 / 0.99))
        asked = []
        lattice_apply = echo_kernels._lattice_apply

        def spy(c, k0, stride, x, axis, start, n_out):
            asked.append((start, n_out))
            return lattice_apply(c, k0, stride, x, axis, start, n_out)

        monkeypatch.setattr(echo_kernels, "_lattice_apply", spy)
        got = quasimode_field_error(a, j, 1.0)
        assert asked == [(0, len(a))]
        exact = apply_train(kernel_ca(j, 1.0, 1e-10), a).values[: len(a)]
        approx = quasimode_evolve(a, kappa(j, 1.0, "exact")).values
        want = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert got == pytest.approx(want, rel=1e-10)

    def test_field_error_of_a_real_pulse_is_its_complex_twins(self):
        j = JunctionCoupling(0.99)
        twin = gaussian_pulse(20.0, 1.0 / 8, -80.0, 80.0 + 6.0 / math.log(1 / 0.99))
        real = SampledSignal(twin.t0, twin.dt, twin.values.real)
        # the two exact fields differ only in the rounding of their lattice sums
        assert quasimode_field_error(real, j, 1.0) == pytest.approx(
            quasimode_field_error(twin, j, 1.0), rel=1e-12
        )


class TestQuasimodeOutput:
    def test_transfer_is_unimodular(self):
        rate = kappa(JunctionCoupling(0.9), 1.0, "exact")
        for w in np.linspace(-3, 3, 13):
            h = (rate + 1j * w) / (rate - 1j * w)
            assert abs(abs(h) - 1.0) < 1e-15


class TestQuasimodeCommutator:
    def test_unity_at_equal_times(self):
        rate = kappa(JunctionCoupling(0.75), 1.0, "exact")
        assert quasimode_commutator(0.0, rate) == 1.0

    def test_exact_flavor_interpolates_lattice(self):
        j = JunctionCoupling(0.75)
        rate = kappa(j, 1.0, "exact")
        for k in range(21):
            assert quasimode_commutator(k * 1.0, rate) == pytest.approx(
                j.rho**k, abs=1e-14
            )

    def test_linear_flavor_detaches_at_moderate_coupling(self):
        rate = kappa(JunctionCoupling(0.70), 1.0, "linear")
        approx = quasimode_commutator(3.0, rate)
        assert approx == pytest.approx(math.exp(-0.9), rel=1e-14)
        assert approx == pytest.approx(0.40657, abs=1e-5)
        exact_env = 0.70**3
        assert exact_env == pytest.approx(0.343, abs=1e-12)
        assert abs(approx - exact_env) > 0.06  # the visible gap

    @pytest.mark.parametrize("flavor", ["exact", "linear"])
    def test_array_equals_scalars(self, flavor):
        rate = kappa(JunctionCoupling(0.7), 1.3, flavor)
        seps = np.array([-13.0, -1.3, -0.0, 0.0, 5e-324, 0.4, 1.3, 2.6, 13.0, 1e3, np.inf])
        env = quasimode_commutator(seps, rate)
        assert env.shape == seps.shape
        assert [float(e) for e in env] == [quasimode_commutator(float(s), rate) for s in seps]
        grid = quasimode_commutator(seps.reshape(1, -1), rate)
        assert grid.shape == (1, len(seps)) and np.array_equal(grid[0], env)


def reference_fig4(j, flavor, broadening, T, t_max):
    """The ``rho^k`` loop fig4_dataset rendered its train with before it drew
    ``spacetime_commutator_support``'s lags, kept as the bitwise reference."""
    rate = kappa(j, T, flavor)
    dt_sep = np.linspace(0.0, t_max, 4001)
    rendered = np.zeros_like(dt_sep)
    kmax = int(math.floor(t_max / T)) + 1
    for k in range(kmax + 1):
        w = j.rho**k if k > 0 else 1.0
        if w < 1e-300:
            break
        rendered += w * np.exp(-0.5 * ((dt_sep - k * T) / broadening) ** 2)
    return dt_sep, rendered, np.exp(-rate * dt_sep)


class TestFig4Dataset:
    # fig4 is always the linear flavor, width T/100, over ten round trips
    @pytest.mark.parametrize("T", [1.0, 0.7])
    @pytest.mark.parametrize(
        "rho,flavor", [(r, "linear") for r in (0.0, 1e-30, 0.3, 0.7, 0.97, 0.999)]
    )
    def test_bitwise_equals_rho_power_loop(self, rho, flavor, T):
        j = JunctionCoupling(rho)
        got = fig4_dataset(j, T)
        want = reference_fig4(j, flavor, T / 100.0, T, 10.0 * T)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_envelope_starts_at_one(self):
        for rho in (0.97, 0.70):
            _, _, env = fig4_dataset(JunctionCoupling(rho), 1.0)
            assert env[0] == 1.0

    def test_rendered_peaks_equal_weights(self):
        dt_sep, rendered, _ = fig4_dataset(JunctionCoupling(0.97), 1.0)
        for k in (0, 1, 2, 5):
            idx = int(np.argmin(np.abs(dt_sep - k)))
            assert rendered[idx] == pytest.approx(0.97**k, rel=1e-3)

    def test_exact_flavor_envelope_touches_peaks(self):
        j = JunctionCoupling(0.70)
        dt_sep, rendered, _ = fig4_dataset(j, 1.0)
        env = quasimode_commutator(dt_sep, kappa(j, 1.0, "exact"))
        for k in range(6):
            idx = int(np.argmin(np.abs(dt_sep - k)))
            assert env[idx] == pytest.approx(rendered[idx], rel=1e-3)

    def test_open_junction_linear_flavor(self):
        dt_sep, rendered, env = fig4_dataset(JunctionCoupling(0.0), 1.0)
        assert np.allclose(env, np.exp(-dt_sep))
        with pytest.raises(ValueError):
            kappa(JunctionCoupling(0.0), 1.0, "exact")
