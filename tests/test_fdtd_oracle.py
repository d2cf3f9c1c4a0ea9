import numpy as np
import pytest

import ringecho.validation as validation
from ringecho import (
    IncommensurateGrid,
    JunctionCoupling,
    RingGeometry,
    SampledSignal,
    g_ba,
    g_ca,
    kernel_ba,
    run,
)
from ringecho.validation import oracle_transfer_deviation

GEOM = RingGeometry(1.0, 1.0)


def impulse(M, n_trips):
    vals = np.zeros(M * n_trips, dtype=complex)
    vals[0] = 1.0
    return SampledSignal(0.0, 1.0 / M, vals)


def sinusoid(M, n_trips, omega):
    t = np.arange(M * n_trips) / M
    return SampledSignal(0.0, 1.0 / M, np.exp(-1j * omega * t))


def step(cells, a_in, j, loss=1.0):
    """One sample of the loop: the junction update on the cell about to meet
    it (``cells[-1]``), the one-cell shift, and the loss factor on every
    cell. Updates ``cells`` in place; returns the output sample and the new
    cell just past the junction."""
    c_last = cells[-1]
    b = j.tau * c_last - j.rho * a_in
    c_first = j.rho * c_last + j.tau * a_in
    cells[1:] = cells[:-1]
    cells[0] = c_first
    if loss != 1.0:
        cells *= loss
    return b, cells[0]


def step_loop(sig, j, M, Gamma):
    """``run``'s reference: ``step`` once per sample from an empty loop.
    Returns the output and probe values. ``run`` equals it bit for bit above
    the underflow range; with loss, once a ringdown underflows, the scalar
    and the array complex products can round a subnormal field to zeros of
    opposite sign (no drive tested here meets such a zero)."""
    cells = np.zeros(M, dtype=np.complex128)
    loss = float(np.exp(-Gamma * (GEOM.round_trip / M)))
    return np.array([step(cells, a, j, loss) for a in sig.values]).reshape(-1, 2).T


class TestStep:
    def test_pure_delay_bit_exact(self):
        j = JunctionCoupling(0.0)
        M = 8
        out, _ = run(impulse(M, 3), j, GEOM, M)
        expected = np.zeros(3 * M, dtype=complex)
        expected[M] = 1.0
        assert np.array_equal(out.values, expected)

    def test_unit_cell_unitarity(self):
        j = JunctionCoupling(0.75)
        cells = np.array([0.1 + 0.2j, 0.0, 0.3j, -0.4])
        c_last = cells[-1]
        a_in = 0.7 - 0.1j
        b, c_first = step(cells, a_in, j)
        assert abs(b) ** 2 + abs(c_first) ** 2 == pytest.approx(
            abs(a_in) ** 2 + abs(c_last) ** 2, rel=1e-12
        )

    def test_energy_audit_every_step(self):
        # input = output + stored + absorbed after every sample; the loss
        # takes 1 - loss^2 of the energy the junction leaves in the cells
        j, loss = JunctionCoupling(0.6), float(np.exp(-0.05))
        cells = np.zeros(8, dtype=np.complex128)
        rng = np.random.default_rng(11)
        drive = rng.normal(size=200) + 1j * rng.normal(size=200)
        e_in = e_out = absorbed = 0.0
        for a in drive:
            b, _ = step(cells, a, j, loss)
            stored = float(np.sum(np.abs(cells) ** 2))
            e_in += abs(a) ** 2
            e_out += abs(b) ** 2
            absorbed += stored * (1.0 / loss**2 - 1.0)
            assert abs(e_out + stored + absorbed - e_in) < 1e-12 * max(1.0, e_in)

    def test_cumulative_output_energy_converges(self):
        j = JunctionCoupling(0.75)
        M = 16
        sig = impulse(M, 60)
        out, _ = run(sig, j, GEOM, M)
        assert abs(out.energy() - sig.energy()) < 1e-9


class TestRun:
    def test_impulse_reproduces_output_kernel_exactly(self):
        j = JunctionCoupling(0.75)
        M = 16
        out, _ = run(impulse(M, 8), j, GEOM, M)
        train = kernel_ba(j, 1.0)
        for n in range(8):
            got = out.values[n * M].real
            want = train.weight(n)
            # same value up to multiplication order (a few ulp)
            assert abs(got - want) <= 4 * np.spacing(abs(want))
        # off-lattice samples are exactly zero
        mask = np.ones(len(out), dtype=bool)
        mask[:: M] = False
        assert np.all(out.values[mask] == 0.0)

    def test_impulse_weights_independent_of_M(self):
        """Lattice exactness: the sampled weights carry no discretization error."""
        for rho in (0.75, 0.85):
            j = JunctionCoupling(rho)
            per_M = []
            for M in (4, 8, 32):
                out, _ = run(impulse(M, 6), j, GEOM, M)
                per_M.append([out.values[n * M] for n in range(6)])
            assert per_M[0] == per_M[1] == per_M[2]

    @pytest.mark.parametrize("rho", [0.3, 0.75, 0.9])
    def test_sinusoid_steady_state_matches_transfer(self, rho):
        j = JunctionCoupling(rho)
        M = 16
        omega = 2.31
        n_trips = max(60, int(np.ceil(-23.0 / np.log(rho))))
        out, probe = run(sinusoid(M, n_trips, omega), j, GEOM, M)
        drive_last = np.exp(-1j * omega * (n_trips - 1.0 / M))
        tol = max(1e-10, 5.0 * rho**n_trips)
        assert abs(out.values[-1] / drive_last - g_ba(omega, j, 1.0)) < tol

    def test_lossy_intracavity_gain_matches_steady_state(self):
        j = JunctionCoupling(0.75)
        Gamma = 0.2
        M = 64
        out, probe = run(sinusoid(M, 70, 0.0), j, GEOM, M, Gamma)
        gain = abs(probe.values[-1])
        expected = abs(g_ca(0.0, j, 1.0, Gamma=Gamma))
        # probe reads after the per-step decay: O(dt) bias
        assert abs(gain - expected) / expected < 2.0 * Gamma / M

    def test_lossy_probe_error_halves_when_M_doubles(self):
        j = JunctionCoupling(0.75)
        Gamma = 0.4
        for omega in (0.0, 2.31):
            errs = []
            for M in (16, 32, 64):
                _, probe = run(sinusoid(M, 80, omega), j, GEOM, M, Gamma)
                expected = abs(g_ca(omega, j, 1.0, Gamma=Gamma))
                errs.append(abs(abs(probe.values[-1]) - expected) / expected)
            assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
            assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)
            assert max(errs) < Gamma / 16  # O(Gamma dt) at the coarsest grid

    def test_lossy_output_transfer_exact_on_lattice(self):
        for rho, Gamma, omega, M in (
            (0.6, 0.3, 1.7, 32),
            (0.75, 0.4, 2.31, 16),
            (0.75, 0.4, 2.31, 32),
            (0.75, 0.4, 2.31, 64),
        ):
            j = JunctionCoupling(rho)
            out, _ = run(sinusoid(M, 80, omega), j, GEOM, M, Gamma)
            drive_last = np.exp(-1j * omega * (80 - 1.0 / M))
            ratio = out.values[-1] / drive_last
            assert abs(ratio - g_ba(omega, j, 1.0, Gamma=Gamma)) < 1e-12

    def test_rejects_incommensurate_input(self):
        sig = SampledSignal(0.0, 0.1, np.ones(10, dtype=complex))
        with pytest.raises(IncommensurateGrid):
            run(sig, JunctionCoupling(0.5), GEOM, 16)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            run(impulse(8, 2), JunctionCoupling(0.5), GEOM, 8, Gamma=-1.0)

    @pytest.mark.parametrize("Gamma", [np.nan, np.inf])
    def test_rejects_non_finite_gamma(self, Gamma):
        with pytest.raises(ValueError, match="non-negative and finite"):
            run(impulse(8, 2), JunctionCoupling(0.5), GEOM, 8, Gamma=Gamma)

    @pytest.mark.parametrize("Gamma", [8 * 800.0, 1e308])
    def test_rejects_gamma_that_damps_a_step_to_zero(self, Gamma):
        # exp(-Gamma dt) underflows to 0 at dt = 1/8: every cell would be zeroed
        with pytest.raises(ValueError, match="to zero"):
            run(impulse(8, 2), JunctionCoupling(0.5), GEOM, 8, Gamma=Gamma)


class TestRoundTripUpdate:
    """``run`` advances a whole round trip per loop step; it must reproduce
    the per-sample ``step_loop`` bit for bit."""

    @staticmethod
    def assert_equals_step_loop(sig, j, M, Gamma):
        # equal values, and equal signs of every zero
        for got, want in zip(run(sig, j, GEOM, M, Gamma), step_loop(sig, j, M, Gamma)):
            assert np.array_equal(got.values, want)
            assert np.array_equal(np.signbit(got.values.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.values.imag), np.signbit(want.imag))

    @staticmethod
    def random_signal(M, n):
        rng = np.random.default_rng(17)
        return SampledSignal(0.0, 1.0 / M, rng.normal(size=n) + 1j * rng.normal(size=n))

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("Gamma", [0.0, 0.3])
    def test_bitwise_equal_to_step_loop(self, rho, Gamma):
        sig = self.random_signal(7, 40 * 7 + 3)  # ends in a partial round trip
        self.assert_equals_step_loop(sig, JunctionCoupling(rho), 7, Gamma)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("Gamma", [0.0, 0.3])
    @pytest.mark.parametrize("M,n", [(2, 41), (7, 3)])  # the fewest cells; less than one trip
    def test_bitwise_equal_to_step_loop_at_the_edges(self, rho, Gamma, M, n):
        self.assert_equals_step_loop(self.random_signal(M, n), JunctionCoupling(rho), M, Gamma)

    @pytest.mark.parametrize("Gamma", [0.0, 0.3])
    def test_bitwise_equal_to_step_loop_on_the_benchmark_impulse(self, Gamma):
        # 8 cells and an 8000-trip impulse at rho^2 = 0.998, as perfbench's oracle job
        self.assert_equals_step_loop(impulse(8, 8000), JunctionCoupling(np.sqrt(0.998)), 8, Gamma)

    @pytest.mark.parametrize("Gamma", [0.0, 0.3])
    def test_one_cell_equals_step_loop(self, Gamma):
        # one cell per round trip samples the lattice exactly: each trip is one sample
        self.assert_equals_step_loop(self.random_signal(1, 41), JunctionCoupling(0.5), 1, Gamma)

    def test_one_cell_impulse_gives_the_output_kernel(self):
        j = JunctionCoupling(0.75)
        out, _ = run(impulse(1, 40), j, GEOM, 1)
        train = kernel_ba(j, 1.0)
        assert np.max(np.abs(out.values.real - [train.weight(n) for n in range(40)])) < 1e-16

    def test_no_cells_refused(self):
        with pytest.raises(ValueError, match="at least 1 cell"):
            run(SampledSignal(0.0, 1.0, np.ones(3)), JunctionCoupling(0.5), GEOM, 0)

    def test_transfer_match_at_0999_checks_to_1e9(self, monkeypatch):
        # the reference is the exact response to the finite drive, so 60
        # round trips check to 1e-9 although the transient rho^60 is 0.94
        lengths = []

        def spy(drive, *args):
            lengths.append(len(drive))
            return run(drive, *args)

        monkeypatch.setattr(validation, "run", spy)
        assert oracle_transfer_deviation(JunctionCoupling(0.999)) < 1e-9
        assert lengths == [60 * 16]

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.99, 0.9999, 0.99999])
    def test_finite_drive_reference_at_every_rho(self, rho):
        assert oracle_transfer_deviation(JunctionCoupling(rho)) < 1e-13

    @pytest.mark.parametrize("rho", [0.5, 0.9999])
    def test_transfer_match_sees_g_ba_off_by_1e6(self, monkeypatch, rho):
        g_ba_exact = validation.g_ba
        monkeypatch.setattr(validation, "g_ba", lambda *args: g_ba_exact(*args) * (1.0 + 1e-6))
        passed, detail = validation._oracle_transfer_match(validation._Suite(rho, 1.0, 1e-12))
        assert not passed, detail


class TestRingdown:
    """Without loss, ``run`` rings down without the trip loop after its last
    trip holding input; with or without loss it must still equal the
    per-sample ``step_loop`` bit for bit, the sign of every zero included."""

    @staticmethod
    def drive(case, M):
        rng = np.random.default_rng(M)

        def noise(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        vals = np.zeros(M * 30, dtype=complex)
        if case == "pulse_then_silence":
            vals[: 3 * M] = noise(3 * M)
        elif case == "ends_in_a_partial_trip":
            vals = np.zeros(M * 30 + 3, dtype=complex)
            vals[: 4 * M + 2] = noise(4 * M + 2)
        elif case == "input_in_the_last_trip_only":
            vals[-M:] = noise(M)
        elif case == "trailing_negative_zero":
            # the last trip's only sample is -0.0, which is input: tau * -0.0
            # adds -0 to the real part where a free trip adds +0, and at rho = 0
            # the cell it meets is rho (-tau + i tau), whose real part is -0
            vals[: 2 * M] = noise(2 * M)
            vals[-1 - M] = -1.0 + 1.0j
            vals[-1] = -0.0
        return SampledSignal(0.0, 1.0 / M, vals)

    @pytest.mark.parametrize(
        "case",
        ["pulse_then_silence", "ends_in_a_partial_trip", "all_zero",
         "input_in_the_last_trip_only", "trailing_negative_zero"],
    )
    @pytest.mark.parametrize("M", [1, 2, 7, 8])
    @pytest.mark.parametrize("Gamma", [0.0, 0.3])
    @pytest.mark.parametrize("rho", [0.0, 0.97])
    def test_equals_step_loop(self, case, M, Gamma, rho):
        TestRoundTripUpdate.assert_equals_step_loop(self.drive(case, M), JunctionCoupling(rho), M, Gamma)

    def test_impulse_loops_over_one_trip(self, monkeypatch):
        # the benchmark's 8000-trip impulse: the trip loop adds once per trip
        calls = []
        add = np.add

        def spy(*args, **kwargs):
            calls.append(1)
            return add(*args, **kwargs)

        monkeypatch.setattr(np, "add", spy)
        run(impulse(8, 8000), JunctionCoupling(np.sqrt(0.998)), GEOM, 8)
        assert len(calls) < 10
