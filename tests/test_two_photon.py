import math
import tracemalloc

import numpy as np
import pytest

from ringecho import (
    DeltaTrain,
    IncommensurateGrid,
    JointAmplitudeGrid,
    JunctionCoupling,
    SampledSignal,
    TwoPhotonGaussian,
    apply_train,
    correlate,
    cw_output,
    gaussian_amplitude,
    gaussian_output_closed_form,
    kernel_ba,
    peak_locate,
    separability_rank,
    transform_output,
    transform_output_on_window,
)
from ringecho.echo_kernels import _lattice_apply, _lattice_stride
from ringecho.two_photon import _ladder_table, _transform_tiles, symmetric_axis
from walksteps import walk_steps

T = 1.0


def gaussian_d(width, dt, half_trips):
    x = np.arange(-half_trips * T, half_trips * T + 1e-12, dt)
    return SampledSignal(x[0], dt, np.exp(-(x**2) / (2.0 * width**2)))


def reference_transform_output(phi, j, T, eps=1e-12):
    """The earlier ``transform_output``: its own pass along each axis over
    the whole grid, extended by the kernel's reach."""
    stride = _lattice_stride(T, phi.dt)
    kba = kernel_ba(j, T, eps)
    ext = (kba.k0 + len(kba.c) - 1) * stride
    out = phi.values
    for axis in (0, 1):
        out = _lattice_apply(kba.c, kba.k0, stride, out, axis, 0, out.shape[axis] + ext)
    return out


def reference_closed_form(g, j, T, t_start, n, dt, eps=1e-12):
    """The original closed form: one n x n Gaussian plane per ladder index."""
    rho, tau = j.rho, j.tau
    t = t_start + dt * np.arange(n)
    s = t[:, None] + t[None, :]
    d = t[:, None] - t[None, :]
    two_b2 = 2.0 * g.beta**2
    two_s2 = 2.0 * g.sigma**2
    mmax = 0 if rho == 0.0 else max(1, int(math.ceil(math.log(eps) / math.log(rho))))

    def e_beta(q):
        return np.exp(-((s - q * T) ** 2) / two_b2)

    f_chain = {mmax + 1: np.zeros_like(s), mmax + 2: np.zeros_like(s)}
    for m in range(mmax, -1, -1):
        f_chain[m] = tau * tau * rho**m * e_beta(m + 2) + f_chain[m + 2]
    out = (tau * tau * f_chain[0] + rho * rho * e_beta(0)) * np.exp(-(d**2) / two_s2)
    for m in range(1, mmax + 1):
        bracket = tau * tau * f_chain[m] - tau * tau * rho**m * e_beta(m)
        out += bracket * (
            np.exp(-((d + m * T) ** 2) / two_s2) + np.exp(-((d - m * T) ** 2) / two_s2)
        )
    return out


def reference_eps_table_closed_form(g, j, T, t_start, n, dt, eps=1e-12):
    """The closed form with its tables sized by eps alone, ``ln eps / ln rho``
    echo orders whatever the window."""
    rho, tau = j.rho, j.tau
    t = t_start + dt * np.arange(n)
    s = np.concatenate((t[0] + t, t[-1] + t[1:]))
    d = np.concatenate((t[0] - t[::-1], t[1:] - t[0]))
    mmax = 0 if rho == 0.0 else max(1, int(math.ceil(math.log(eps) / math.log(rho))))
    e_beta = np.exp(-0.5 * ((s - (np.arange(mmax + 3) * T)[:, None]) / g.beta) ** 2)
    coef = np.array([tau * tau * rho**m for m in range(mmax + 1)])[:, None]
    f_chain = coef * e_beta[2:]
    for top in range(max(mmax - 1, 0), mmax + 1):
        f_chain[top::-2] = np.cumsum(f_chain[top::-2], axis=0)
    a = tau * tau * f_chain - coef * e_beta[: mmax + 1]
    a[0] = tau * tau * f_chain[0] + rho * rho * e_beta[0]
    m_t = (np.arange(1, mmax + 1) * T)[:, None]
    b = np.empty_like(a)
    b[0] = np.exp(-0.5 * (d / g.sigma) ** 2)
    b[1:] = np.exp(-0.5 * ((d + m_t) / g.sigma) ** 2) + np.exp(-0.5 * ((d - m_t) / g.sigma) ** 2)
    c = a.T @ b
    r = np.arange(n)
    return c[r[:, None] + r[None, :], r[:, None] - r[None, :] + (n - 1)]


def reference_F_m_loop(m, s_sum, g, j, T, eps=1e-12):
    """The ladder sum term by term: order |m| always, then every order of
    its parity while ``rho^order >= eps``."""
    s = np.asarray(s_sum, dtype=float)
    rho, tau = j.rho, j.tau
    mm = abs(int(m))
    out = np.zeros_like(s)
    jj = 0
    while True:
        coeff = rho ** (mm + 2 * jj) if (mm + 2 * jj) > 0 else 1.0
        if coeff < eps and jj > 0:
            break
        out += coeff * np.exp(-((s - (mm + 2 * jj + 2) * T) ** 2) / (2.0 * g.beta**2))
        if rho == 0.0:
            break
        jj += 1
    out *= tau * tau
    return out if out.ndim else float(out)


def ladder_row(m, s_sum, g, j, T, eps=1e-12):
    """``F_m`` on the sums ``s_sum``: row |m| of ``_ladder_table``'s ladder
    sums, or zeros past its last row. The closed form reads the orders m
    and -m from the same row, pairing them in ``B_m``."""
    s = np.atleast_1d(np.asarray(s_sum, dtype=float))
    f = _ladder_table(s, g, j, T, eps)[2]
    return f[abs(m)] if abs(m) < len(f) else np.zeros_like(s)


def validate_window(rho):
    """The closed-form window of ``run_suite``'s ``closed_form_match``."""
    g = TwoPhotonGaussian(0.4 * T, 0.4 * T)
    phi = gaussian_amplitude(g, dt=T / 8)
    return g, JunctionCoupling(rho), T, phi.t1_start, phi.values.shape[0] + 6 * 8, T / 8


def figure_window(sigma, beta, tau):
    """The grid of ``figure fig5``/``fig6`` at one tau."""
    g = TwoPhotonGaussian(sigma, beta)
    t_start, n_in = symmetric_axis(g, T / 16)
    return g, JunctionCoupling.from_tau(tau), T, t_start, n_in + 64, T / 16


class TestGaussianAmplitude:
    def test_peak_at_origin(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 16)
        i0 = int(np.argmin(np.abs(grid.t1)))
        assert grid.values[i0, i0] == pytest.approx(1.0)
        assert np.max(np.abs(grid.values)) == pytest.approx(1.0)

    def test_exchange_symmetric(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.2, 0.7), dt=T / 16)
        assert grid.exchange_symmetry_error() < 1e-12

    @pytest.mark.parametrize("sigma,beta,dt", [(0.2, 0.7, T / 16), (0.37, 0.11, 0.03)])
    def test_exchange_symmetric_bit_for_bit(self, sigma, beta, dt):
        # t_i + t_j and (t_i - t_j)^2 are exact mirrors, so no check is needed
        grid = gaussian_amplitude(TwoPhotonGaussian(sigma, beta), dt=dt)
        assert grid.exchange_symmetry_error() == 0.0

    def test_exchange_symmetry_refuses_shifted_axes(self):
        # starts must agree to 1e-12 of the spacing: 100 samples apart is
        # refused at any dt, a shift of 1e-13 dt is not
        for dt in (1e-15, 1.0, 1e6):
            shifted = JointAmplitudeGrid(0.0, 100 * dt, dt, np.zeros((3, 3)))
            with pytest.raises(ValueError, match="identical axes"):
                shifted.exchange_symmetry_error()
            close = JointAmplitudeGrid(0.0, 1e-13 * dt, dt, np.zeros((3, 3)))
            assert close.exchange_symmetry_error() == 0.0

    def test_equal_widths_rank_one(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 16)
        sv = separability_rank(grid)
        assert sv[1] < 1e-10

    def test_unequal_widths_entangled(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.2, 0.7), dt=T / 16)
        sv = separability_rank(grid)
        assert sv[1] > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPhotonGaussian(0.0, 0.5)
        with pytest.raises(ValueError):
            JointAmplitudeGrid(0.0, 0.0, -1.0, np.zeros((2, 2)))


class TestTransformOutput:
    def test_open_junction_pure_delay(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 16)
        out = transform_output(grid, JunctionCoupling(0.0), T)
        stride = 16
        n = grid.values.shape[0]
        np.testing.assert_allclose(
            out.values[stride : stride + n, stride : stride + n],
            grid.values,
            atol=0,
        )
        assert np.max(np.abs(out.values[:stride, :])) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_full_window_equals_full_transform(self, rho):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.4), dt=T / 8)
        j = JunctionCoupling(rho)
        full = transform_output(grid, j, T)
        window = transform_output_on_window(
            grid, j, T, grid.t1_start, full.values.shape[0])
        assert window.values.shape == full.values.shape
        err = np.max(np.abs(window.values - full.values))
        assert err <= 1e-13 * np.max(np.abs(full.values))

    def test_moderate_coupling_peak_stays_at_origin(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 16)
        out = transform_output(grid, JunctionCoupling.from_tau(0.60), T, eps=1e-10)
        assert peak_locate(out) == (0.0, 0.0)

    def test_norm_preserved(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 16)
        j = JunctionCoupling.from_tau(0.85)
        out = transform_output(grid, j, T, eps=1e-12)
        assert abs(out.norm_sq() - grid.norm_sq()) / grid.norm_sq() < 1e-9

    def test_exchange_symmetry_preserved(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.2, 0.7), dt=T / 8)
        out = transform_output(grid, JunctionCoupling.from_tau(0.85), T, eps=1e-10)
        assert out.exchange_symmetry_error() < 1e-12

    def test_grid_reductions_hold_one_strip(self):
        """On the 2029^2 output at rho = 0.9 (63 MiB), norm_sq and the
        symmetry error hold one strip beside the grid, and return the
        whole-array expressions' values bit for bit."""
        grid = gaussian_amplitude(TwoPhotonGaussian(0.4, 0.4), dt=T / 8)
        out = transform_output(grid, JunctionCoupling(0.9), T)
        v = out.values
        assert v.shape == (2029, 2029)
        for name, want in (
            ("norm_sq", lambda: float(np.sum(np.abs(v) ** 2) * out.dt**2)),
            ("exchange_symmetry_error", lambda: float(np.max(np.abs(v - v.T)))),
        ):
            tracemalloc.start()
            try:
                got = getattr(out, name)()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 << 20
            assert got == want()

    def test_symmetrizing_commutes_with_transform(self):
        """Transforming the symmetrized amplitude equals symmetrizing the transform."""
        rng = np.random.default_rng(8)
        n = 33
        vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psi = JointAmplitudeGrid(-1.0, -1.0, T / 16, vals)
        sym = JointAmplitudeGrid(-1.0, -1.0, T / 16, vals + vals.T)
        j = JunctionCoupling(0.6)
        a = transform_output(sym, j, T, eps=1e-10).values
        b_half = transform_output(psi, j, T, eps=1e-10).values
        b = b_half + b_half.T
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_windowed_equals_full(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.4), dt=T / 8)
        j = JunctionCoupling(0.5)
        full = transform_output(grid, j, T, eps=1e-10)
        win = transform_output_on_window(
            grid, j, T, grid.t1_start, full.values.shape[0], eps=1e-10
        )
        assert np.max(np.abs(win.values - full.values)) == 0.0

    @pytest.mark.parametrize("side", [44, 256])
    def test_tiles_equal_the_window(self, side):
        # tiles starting on and off round-trip blocks, with a narrower last
        # row and column, cover the window and give its cells
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.4), dt=T / 8)
        j = JunctionCoupling(0.9)
        n = 600
        win = transform_output_on_window(grid, j, T, grid.t1_start, n).values
        cuts = [slice(a, min(n, a + side)) for a in range(0, n, side)]
        plan = [(rows, cuts) for rows in cuts]
        seen = np.zeros((n, n), dtype=int)
        for rows, cols, tile in _transform_tiles(grid, kernel_ba(j, T), grid.t1_start, grid.t2_start, plan):
            assert tile.T.flags.c_contiguous
            assert np.max(np.abs(tile - win[rows, cols])) <= 1e-13 * np.max(np.abs(win))
            seen[rows, cols] += 1
        assert np.all(seen == 1)

    # (stride, side, complex input): one pad per tile row (256 at stride 8),
    # two alternating pads (44 at stride 8), a new pad for each of a row's
    # three tiles (256 at stride 7), all seven pads (44 at stride 7)
    @pytest.mark.parametrize(
        "stride,side,complex_input",
        [(8, 256, False), (8, 44, False), (8, 44, True), (7, 256, False), (7, 44, True)],
    )
    def test_tiles_bitwise_equal_per_tile_passes(self, stride, side, complex_input):
        # every tile is, bit for bit, the two _lattice_apply passes run for it
        # alone; the window starts 3 and 1 samples off the input's block grid
        rng = np.random.default_rng(stride * side)
        vals = rng.normal(size=(37, 29))
        if complex_input:
            vals = vals + 1j * rng.normal(size=vals.shape)
        dt = T / stride
        phi = JointAmplitudeGrid(-1.0, 0.5, dt, vals)
        j = JunctionCoupling(0.9)
        kba = kernel_ba(j, T)
        base1, base2 = -3, 1
        n = 600
        cuts = [slice(a, min(n, a + side)) for a in range(0, n, side)]
        plan = [(rows, cuts) for rows in cuts]
        pads = {(-(base2 + cols.start)) % stride for cols in cuts}
        assert (len(pads) > 1) == (side % stride != 0)
        with walk_steps() as steps:
            walked = [
                (rows, cols, tile.dtype, tile.shape, np.ascontiguousarray(tile).tobytes(),
                 tile.__array_interface__["data"][0])
                for rows, cols, tile in _transform_tiles(
                    phi, kba, -1.0 + base1 * dt, 0.5 + base2 * dt, plan
                )
            ]
        # the references run after the walk, where the spies cannot see their steps
        for rows, cols, dtype, shape, got, _ in walked:
            mid = _lattice_apply(kba.c, kba.k0, stride, vals, 0, base1 + rows.start, rows.stop - rows.start)
            want = _lattice_apply(kba.c, kba.k0, stride, mid, 1, base2 + cols.start, cols.stop - cols.start)
            assert dtype == want.dtype and shape == want.shape
            assert got == np.ascontiguousarray(want).tobytes()
        seen, buffers = len(walked), {address for *_, address in walked}
        strips = [pad for step, pad in steps if step == "_lattice_blocks"]
        geometries = [key for step, key in steps if step == "_sum_geometry"]
        assert seen == len(cuts) ** 2
        # each row blocks its strip once per distinct pad
        assert sorted(strips) == sorted(list(pads) * len(cuts))
        # the t2 geometry is made once per tile column on the rows of full
        # height, and once more per column on the narrower last row: 2 C of
        # this R x C walk's tiles, not R C
        assert len(geometries) == len(set(geometries)) == 2 * len(cuts) < seen
        # every tile is written to the start of one buffer
        assert len(buffers) == 1

    def test_tiles_off_the_product_branch_reuse_the_buffer(self):
        # after a tile of matrix products has filled the walk's buffer, a tile
        # that no kernel term reaches (it ends before the input starts) and a
        # one-row tile summed column by column are still, bit for bit, their
        # two _lattice_apply passes: each writes every cell it yields
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(37, 29))
        phi = JointAmplitudeGrid(-1.0, 0.5, T / 8, vals)
        j = JunctionCoupling(0.9)
        kba = kernel_ba(j, T)
        base2 = -100
        plan = [
            (slice(0, 40), [slice(100, 356), slice(0, 50)]),
            (slice(40, 41), [slice(100, 105), slice(0, 50)]),
        ]
        with walk_steps() as steps:
            walked = [
                (rows, cols, np.ascontiguousarray(tile).tobytes())
                for rows, cols, tile in _transform_tiles(phi, kba, -1.0, 0.5 + base2 * T / 8, plan)
            ]
        for rows, cols, got in walked:
            mid = _lattice_apply(kba.c, kba.k0, 8, vals, 0, rows.start, rows.stop - rows.start)
            want = _lattice_apply(kba.c, kba.k0, 8, mid, 1, base2 + cols.start, cols.stop - cols.start)
            assert got == np.ascontiguousarray(want).tobytes()
        branches = [branch for step, branch in steps if step == "_blocked_product"]
        assert branches == ["products", "none", "direct", "none"]

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_result_owns_its_buffer(self, complex_input):
        # a one-tile walk returns its tile buffer, no larger than the result
        # rounded up to whole round trips along t2, and shared with nothing:
        # two calls' results are apart, and writing one leaves the other
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.4), dt=T / 8)
        if complex_input:
            grid = JointAmplitudeGrid(grid.t1_start, grid.t2_start, grid.dt, grid.values * (1 + 1j))
        j = JunctionCoupling(0.5)
        out = transform_output(grid, j, T).values
        again = transform_output(grid, j, T).values
        base = out
        while base.base is not None:
            base = base.base
        n1, n2 = out.shape
        assert base.nbytes == n1 * (-(-n2 // 8) * 8) * out.itemsize
        assert not np.shares_memory(out, again)
        before = again.copy()
        out[...] = 0.0
        assert np.array_equal(again, before)

    def test_incommensurate_rejected(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=0.3)
        with pytest.raises(IncommensurateGrid):
            transform_output(grid, JunctionCoupling(0.5), T)

    @pytest.mark.parametrize("t1_start,t2_start", [(0.03, 0.0), (0.0, 0.03)])
    def test_off_grid_window_start_rejected(self, t1_start, t2_start):
        # a window starting at 0 lies on neither axis of a grid starting at 0.03
        phi = JointAmplitudeGrid(t1_start, t2_start, 0.125, np.ones((8, 8)))
        with pytest.raises(IncommensurateGrid, match="does not lie on the input grid"):
            transform_output_on_window(phi, JunctionCoupling(0.5), T, 0.0, 16)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_full_transform_bitwise_equals_reference(self, rho):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(40, 27)) + 1j * rng.normal(size=(40, 27))
        phi = JointAmplitudeGrid(-1.0, 0.375, T / 8, vals)
        j = JunctionCoupling(rho)
        out = transform_output(phi, j, T, eps=1e-10)
        assert (out.t1_start, out.t2_start) == (-1.0, 0.375)
        assert np.array_equal(out.values, reference_transform_output(phi, j, T, eps=1e-10))

    def test_rank_preserved_for_separable_input(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 8)
        out = transform_output(grid, JunctionCoupling.from_tau(0.85), T, eps=1e-10)
        assert separability_rank(out)[1] < 1e-10

    @pytest.mark.parametrize("sigma,beta", [(0.3, 0.3), (0.2, 0.7)])
    def test_joint_spectral_density_unchanged(self, sigma, beta):
        """Frequency-domain cross-check: the per-axis filter is unimodular.

        Zero-padding the input to the output window makes the lattice
        convolution circular, so the 2-D DFT magnitudes must coincide.
        """
        grid = gaussian_amplitude(TwoPhotonGaussian(sigma, beta), dt=T / 8)
        j = JunctionCoupling.from_tau(0.85)
        out = transform_output(grid, j, T, eps=1e-12)
        n = out.values.shape[0]
        m = grid.values.shape[0]
        padded = np.zeros((n, n), dtype=complex)
        padded[:m, :m] = grid.values
        sd_in = np.abs(np.fft.fft2(padded))
        sd_out = np.abs(np.fft.fft2(out.values))
        assert np.max(np.abs(sd_out - sd_in)) < 1e-9 * np.max(sd_in)


def ba_cut(j, kmax):
    """``kernel_ba`` cut after its first ``kmax`` echoes, cut from one built
    down to the last of them (or to the smallest normal float where that
    underflows), as ``sweep cw_residual`` cuts it."""
    kb = kernel_ba(j, T, max(j.tau**2 * j.rho**kmax, np.finfo(float).tiny))
    return DeltaTrain(T, kb.k0, kb.c[: kmax + 1 - kb.k0])


class TestCwDispersionCancellation:
    def test_residual_tiny_at_moderate_coupling(self):
        d = gaussian_d(0.4, T / 8, 130)
        residual, rec = cw_output(d, kernel_ba(JunctionCoupling(0.75), T))
        assert residual < 1e-9
        assert np.max(np.abs(rec.values - d.values)) == residual

    def test_open_junction_identity(self):
        d = gaussian_d(0.4, T / 8, 10)
        residual, _ = cw_output(d, kernel_ba(JunctionCoupling(0.0), T))
        assert residual < 1e-15

    @pytest.mark.parametrize("rho", [0.3, 0.75, 0.9])
    def test_residual_within_certified_bound(self, rho):
        j = JunctionCoupling(rho)
        kmax = max(12, int(math.ceil(math.log(1e-10) / math.log(rho))))
        d = gaussian_d(0.4, T / 8, kmax + 8)
        residual, _ = cw_output(d, ba_cut(j, kmax))
        # every ladder truncated at kmax: the single ladders' tails plus twice
        # the double ladder's, for a unit-peak input
        single = 2.0 * j.tau**2 * rho ** (kmax + 1) / (1.0 - rho)
        double = j.tau**4 * rho**kmax * (kmax + 1.0 / (1.0 - rho)) / (1.0 - rho)
        assert residual <= single + 2.0 * double

    def test_residual_decays_at_reflection_rate(self):
        """log-residual slope over kmax recovers ln(rho) within 2 percent."""
        j = JunctionCoupling(0.75)
        d = gaussian_d(0.4, T / 8, 60)
        kmaxes = np.arange(12, 44, 4)
        residuals = np.array([cw_output(d, ba_cut(j, int(k)))[0] for k in kmaxes])
        slope = np.polyfit(kmaxes, np.log(residuals), 1)[0]
        assert abs(slope - math.log(0.75)) / abs(math.log(0.75)) < 0.02


class TestClosedForm:
    def test_ladder_sum_limits(self):
        # a flat envelope is the cw limit: F_m -> rho^m
        g_flat = TwoPhotonGaussian(0.3, 1e6)
        j = JunctionCoupling(0.75)
        assert ladder_row(0, 0.37, g_flat, j, T) == pytest.approx([1.0], rel=1e-9)
        assert ladder_row(3, 0.37, g_flat, j, T) == pytest.approx([0.421875], rel=1e-9)
        for m in range(7):
            assert ladder_row(m, 0.0, g_flat, j, T) == pytest.approx([0.75**m], abs=1e-9)

    def test_ladder_single_term_at_zero_reflection(self):
        g = TwoPhotonGaussian(0.3, 0.5)
        j = JunctionCoupling(0.0)
        val = ladder_row(0, 1.2, g, j, T)
        assert val == pytest.approx([math.exp(-((1.2 - 2.0) ** 2) / (2 * 0.25))])

    @pytest.mark.parametrize(
        "sigma,beta,tau",
        [
            (0.3, 0.3, 0.999),
            (0.3, 0.3, 0.95),
            (0.3, 0.3, 0.85),
            (0.3, 0.3, 0.60),
            (0.2, 0.7, 0.999),
            (0.2, 0.7, 0.95),
            (0.2, 0.7, 0.85),
            (0.2, 0.7, 0.60),
            (0.5, 0.2, 0.999),
            (0.5, 0.2, 0.95),
            (0.5, 0.2, 0.85),
            (0.5, 0.2, 0.75),
            (0.5, 0.2, 0.60),
        ],
    )
    def test_matches_direct_transform(self, sigma, beta, tau):
        g = TwoPhotonGaussian(sigma, beta)
        j = JunctionCoupling.from_tau(tau)
        dt = T / 8
        phi = gaussian_amplitude(g, dt=dt)
        n_out = phi.values.shape[0] + 8 * 8
        direct = transform_output_on_window(phi, j, T, phi.t1_start, n_out, eps=1e-12)
        closed = gaussian_output_closed_form(
            g, j, T, phi.t1_start, n_out, dt, eps=1e-12
        )
        assert np.max(np.abs(direct.values - closed.values)) < 1e-8

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 0.99])
    def test_matches_plane_by_plane_reference(self, rho):
        g = TwoPhotonGaussian(0.3, 0.45)
        j = JunctionCoupling(rho)
        dt = T / 4
        t_start, n = -2.5, 32
        got = gaussian_output_closed_form(g, j, T, t_start, n, dt)
        want = reference_closed_form(g, j, T, t_start, n, dt)
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "case,eps",
        [(validate_window(rho), 1e-12) for rho in (0.0, 1e-3, 0.5, 0.9, 0.99, 0.999)]
        + [
            (figure_window(sigma, beta, tau), 1e-10)
            for sigma, beta in ((0.3, 0.3), (0.2, 0.7))
            for tau in (0.999, 0.95, 0.85, 0.60)
        ]
        # flat envelope: every order reaches the window, the eps order binds
        + [((TwoPhotonGaussian(0.3, 1e6), JunctionCoupling(0.75), T, -2.0, 40, 0.25), 1e-12)]
        # a window past the input's reach: every order is zero there
        + [((TwoPhotonGaussian(0.3, 0.3), JunctionCoupling(0.9), T, -200.0, 40, 0.25), 1e-12)],
    )
    def test_bitwise_equals_eps_sized_table(self, case, eps):
        got = gaussian_output_closed_form(*case, eps)
        want = reference_eps_table_closed_form(*case, eps)
        assert got.values.tobytes() == want.tobytes()

    def test_traced_peak_bounded_at_high_q(self):
        case = validate_window(0.9999)
        tracemalloc.start()
        try:
            gaussian_output_closed_form(*case, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.75, 0.999])
    @pytest.mark.parametrize("m", [0, 1, -1, 3, -3, 50, 5000])
    @pytest.mark.parametrize("beta", [0.5, 1e6])
    def test_ladder_sum_matches_term_by_term_loop(self, rho, m, beta):
        g, j = TwoPhotonGaussian(0.3, beta), JunctionCoupling(rho)
        mmax = 0 if rho == 0.0 else math.ceil(math.log(1e-12) / math.log(rho))
        for s in (np.linspace(-3.0, 60.0, 50), np.array([2.3])):
            got, want = ladder_row(m, s, g, j, T), reference_F_m_loop(m, s, g, j, T)
            assert got.shape == want.shape
            # the table keeps at most one more order, below tau^2 eps; beyond
            # that, summation rounding of its mmax + 2 terms
            tol = j.tau**2 * 1e-12 + 4 * (mmax + 2) * 2.0**-52 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("m", [23, 24, 50, 5000])
    def test_ladder_sum_zero_past_the_reach(self, m):
        # (m + 2) T > max s + 39 beta = 24.5: every Gaussian is 0.0 in float64,
        # so the term-by-term sum is zero, and so is the row (or the table
        # stops short of it)
        s = np.linspace(-3.0, 5.0, 17)
        g, j = TwoPhotonGaussian(0.3, 0.5), JunctionCoupling(0.75)
        assert not np.any(reference_F_m_loop(m, s, g, j, T))
        assert not np.any(ladder_row(m, s, g, j, T))

    @pytest.mark.parametrize("beta,period", [(math.inf, T), (0.5, 1e-300)])
    def test_ladder_sum_keeps_eps_order_when_reach_overflows(self, beta, period):
        # (max s + 39 beta) / T is inf: the eps order alone bounds the table
        g, j = TwoPhotonGaussian(0.3, beta), JunctionCoupling(0.75)
        assert ladder_row(0, 0.0, g, j, period) == pytest.approx([1.0], rel=1e-9)
        for m in (0, 3):
            want = reference_F_m_loop(m, 0.0, g, j, period)
            assert ladder_row(m, 0.0, g, j, period) == pytest.approx([want], rel=1e-9)

    def test_widths_past_the_float_square_act_as_infinite(self):
        # a beta or sigma whose square overflows (above ~1.34e154) is never
        # squared: in its units every time is 0 or nearly, as at an infinite width
        j = JunctionCoupling(0.5)
        huge, flat = TwoPhotonGaussian(0.3, 1e300), TwoPhotonGaussian(0.3, math.inf)
        assert ladder_row(3, 0.7, huge, j, T) == ladder_row(3, 0.7, flat, j, T)
        assert ladder_row(3, 0.7, flat, j, T) == pytest.approx([0.125])
        s = np.linspace(-2.0, 4.0, 13)
        assert np.array_equal(ladder_row(1, s, huge, j, T), ladder_row(1, s, flat, j, T))
        for sigma, beta in ((0.3, 1e300), (1e300, 0.5), (1e300, 1e300)):
            widths = [(x, math.inf if x == 1e300 else x) for x in (sigma, beta)]
            got, want = (
                gaussian_output_closed_form(
                    TwoPhotonGaussian(*(w[i] for w in widths)), j, T, -2.0, 40, T / 8
                )
                for i in (0, 1)
            )
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "t_start,n,dt",
        [(math.nan, 4, 0.1), (math.inf, 4, 0.1), (-math.inf, 4, 0.1), (1e308, 2, 5e307)],
    )
    def test_closed_form_rejects_non_finite_sums(self, t_start, n, dt):
        # the last window's times are finite, but its sums overflow to inf
        g, j = TwoPhotonGaussian(0.3, 0.5), JunctionCoupling(0.5)
        with pytest.raises(ValueError, match=r"sums t1 \+ t2 must be finite"):
            gaussian_output_closed_form(g, j, T, t_start, n, dt)

    def test_nearly_closed_junction_peak_moves_one_trip(self):
        g = TwoPhotonGaussian(0.3, 0.3)
        j = JunctionCoupling.from_tau(0.999)
        # lattice-aligned window so (T, T) is a grid point
        grid = gaussian_output_closed_form(g, j, T, -2.5, 104, T / 16, eps=1e-12)
        assert peak_locate(grid) == (T, T)


class TestWindowSizes:
    """A window's sample count is an integer, as in ``apply_train``: 0 gives
    an empty grid, and any other value that is not a count is refused."""

    @pytest.mark.parametrize("n", [2.5, -1, 1e300])
    def test_not_a_count_rejected(self, n):
        g, j = TwoPhotonGaussian(0.3, 0.4), JunctionCoupling(0.5)
        phi = gaussian_amplitude(g, dt=T / 8)
        with pytest.raises(ValueError, match="must be an integer|non-negative"):
            gaussian_output_closed_form(g, j, T, phi.t1_start, n, T / 8)
        with pytest.raises(ValueError, match="must be an integer|non-negative"):
            transform_output_on_window(phi, j, T, phi.t1_start, n)

    @pytest.mark.parametrize("n", [0, np.int64(0)])
    def test_zero_gives_an_empty_grid(self, n):
        g, j = TwoPhotonGaussian(0.3, 0.4), JunctionCoupling(0.5)
        phi = gaussian_amplitude(g, dt=T / 8)
        for grid in (
            gaussian_output_closed_form(g, j, T, phi.t1_start, n, T / 8),
            transform_output_on_window(phi, j, T, phi.t1_start, n),
        ):
            assert grid.values.shape == (0, 0) and grid.values.dtype == np.float64
            assert (grid.t1_start, grid.t2_start, grid.dt) == (phi.t1_start, phi.t1_start, T / 8)


class TestSeparableOutput:
    """A product-state pair transforms factor by factor: each photon's factor
    is ``apply_train(kernel_ba, phi)``."""

    def test_outer_product_equals_full_transform(self):
        t = np.arange(-2.4, 2.4 + 1e-12, T / 8)
        f = np.exp(-(t**2) / (2 * 0.3**2))
        phi1 = SampledSignal(t[0], T / 8, f)
        j = JunctionCoupling.from_tau(0.85)
        kba = kernel_ba(j, T, 1e-12)
        # the same pulse with a phase, and a wider pulse off centre
        for f2 in (f * np.exp(0.2j), np.exp(-((t - 0.2) ** 2) / (2 * 0.45**2))):
            phi2 = SampledSignal(t[0], T / 8, f2)
            p1, p2 = apply_train(kba, phi1), apply_train(kba, phi2)
            grid_in = JointAmplitudeGrid(phi1.t0, phi2.t0, T / 8, np.outer(phi1.values, phi2.values))
            full = transform_output(grid_in, j, T, eps=1e-12)
            assert np.max(np.abs(np.outer(p1.values, p2.values) - full.values)) < 1e-10

    def test_open_junction_is_pure_delay(self):
        t = np.arange(-1.0, 1.0 + 1e-12, T / 4)
        phi = SampledSignal(t[0], T / 4, np.exp(-(t**2)))
        p1 = apply_train(kernel_ba(JunctionCoupling(0.0), T), phi)
        assert p1.t0 == pytest.approx(phi.t0 + T)
        np.testing.assert_array_equal(p1.values, phi.values)

    def test_impulse_factor_gives_kernel_weights(self):
        stride = 8
        vals = np.zeros(3 * stride, dtype=complex)
        vals[0] = 1.0
        phi = SampledSignal(0.0, T / stride, vals)
        j = JunctionCoupling(0.75)
        train = kernel_ba(j, T)
        p1 = apply_train(train, phi)
        for n in range(3):
            assert p1.values[n * stride] == pytest.approx(train.weight(n), abs=1e-15)

    def test_reflective_form_matches_kernel_form(self):
        t = np.arange(-1.0, 1.0 + 1e-12, T / 4)
        phi = SampledSignal(t[0], T / 4, np.exp(-(t**2)))
        j = JunctionCoupling(0.6)
        # -rho phi + (tau^2/rho) sum rho^n phi(t - nT) on the kernel's span
        kern = kernel_ba(j, T)
        a1 = apply_train(kern, phi)
        reflective = DeltaTrain(
            T,
            kern.k0,
            [-j.rho if n == 0 else (j.tau**2 / j.rho) * j.rho**n for n in kern.offsets],
        )
        b1 = apply_train(reflective, phi)
        assert np.max(np.abs(a1.values - b1.values)) < 1e-14


class TestDiagnostics:
    def test_correlation_function_is_squared_magnitude(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 8)
        f = np.abs(grid.values) ** 2
        assert np.max(f) == pytest.approx(1.0)
        assert np.max(np.abs(f - f.T)) == 0.0

    def test_correlation_total_preserved_by_cavity(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.3, 0.3), dt=T / 8)
        j = JunctionCoupling.from_tau(0.85)
        out = transform_output(grid, j, T, eps=1e-12)
        tot_in = grid.norm_sq()
        tot_out = out.norm_sq()
        assert abs(tot_out - tot_in) / tot_in < 1e-9

    def test_peak_tie_breaks_toward_smallest_sum(self):
        vals = np.zeros((5, 5), dtype=complex)
        vals[1, 1] = 1.0
        vals[3, 3] = 1.0
        grid = JointAmplitudeGrid(0.0, 0.0, 0.5, vals)
        assert peak_locate(grid) == (0.5, 0.5)

    def test_gaussian_input_peaks_at_origin(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.25, 0.6), dt=T / 8)
        assert peak_locate(grid) == (0.0, 0.0)

    def test_entangled_input_stays_entangled_at_output(self):
        grid = gaussian_amplitude(TwoPhotonGaussian(0.2, 0.7), dt=T / 8)
        out = transform_output(grid, JunctionCoupling.from_tau(0.85), T, eps=1e-10)
        assert separability_rank(out)[1] > 0.05

    def test_grid_csv_serialization(self, tmp_path):
        import json

        from ringecho.cli import main

        argv = ["figure", "fig5", "--tau", "0.85", "--dt", "0.25", "--out", str(tmp_path)]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "fig5_tau0p85_axes.json").read_text())
        n = meta["shape"][0]
        assert meta["shape"] == [n, n]
        assert meta["dt"] == 0.25
        # the panel is labelled with the tau given, not the coupling's
        # tau = sqrt((1 - rho)(1 + rho)), which reads 0.8499999999999999
        assert meta["tau"] == 0.85
        grid = gaussian_output_closed_form(
            TwoPhotonGaussian(0.3, 0.3), JunctionCoupling.from_tau(0.85), T,
            meta["t1_start"], n, 0.25, 1e-10,
        )
        # 17 significant digits round-trip every float exactly
        for suffix, want in (("magnitude", np.abs), ("phase", np.angle)):
            got = np.loadtxt(tmp_path / f"fig5_tau0p85_{suffix}.csv", delimiter=",")
            np.testing.assert_array_equal(got, want(grid.values))


def twin_bound(n_blocks, sum_c, max_x):
    """How far a real lattice sum may lie from the real part of its complex
    twin: ``eps log2(n) sum|c| max|x|``, n the full convolution's length in
    blocks."""
    return np.finfo(float).eps * math.log2(max(n_blocks, 2)) * sum_c * max_x


def assert_real_twin(real, twin, tol):
    assert real.dtype == np.float64 and twin.dtype == np.complex128
    assert real.shape == twin.shape
    assert not np.any(twin.imag)
    assert np.max(np.abs(real - twin.real)) <= tol


class TestRealAmplitudes:
    """Real joint amplitudes are stored and transformed as float64, complex
    ones as complex128; a real input gives the real part of its complex twin
    to rounding (see ``test_echo_kernels.TestRealAmplitudes``)."""

    def test_grid_dtype_follows_the_input(self):
        assert JointAmplitudeGrid(0.0, 0.0, 1.0, np.ones((2, 2), int)).values.dtype == np.float64
        zero_imag = np.ones((2, 2)) + 0j
        assert JointAmplitudeGrid(0.0, 0.0, 1.0, zero_imag).values.dtype == np.complex128
        assert gaussian_amplitude(TwoPhotonGaussian(0.4, 0.4), T / 8).values.dtype == np.float64

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97])
    def test_closed_form_is_real(self, rho):
        closed = gaussian_output_closed_form(*validate_window(rho))
        assert closed.values.dtype == np.float64

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.97])
    def test_transforms_keep_a_real_grid_real(self, rho):
        rng = np.random.default_rng(5)
        j = JunctionCoupling(rho)
        k = kernel_ba(j, T)
        phi = JointAmplitudeGrid(-1.0, 0.375, T / 8, rng.normal(size=(40, 27)))
        twin = JointAmplitudeGrid(-1.0, 0.375, T / 8, phi.values.astype(complex))
        # two passes: each adds the one-pass bound, the second on an input of
        # at most sum|c| max|x|, and carries the first's deviation times sum|c|
        n_blocks = 40 // 8 + len(k.c)
        tol = twin_bound(n_blocks, 2.0 * k.sum_abs() ** 2, np.max(np.abs(phi.values)))
        assert_real_twin(
            transform_output_on_window(phi, j, T, -1.0, 64).values,
            transform_output_on_window(twin, j, T, -1.0, 64).values,
            tol,
        )
        tiles = [(slice(0, 24), [slice(0, 16), slice(16, 40)]), (slice(24, 64), [slice(8, 64)])]
        for (*_, r), (*_, z) in zip(
            _transform_tiles(phi, k, -1.0, 0.375, tiles),
            _transform_tiles(twin, k, -1.0, 0.375, tiles),
        ):
            assert_real_twin(r, z, tol)
        if rho <= 0.5:  # the full extension: 360 x 347 samples at rho 0.5
            assert_real_twin(
                transform_output(phi, j, T).values, transform_output(twin, j, T).values, tol
            )

    @pytest.mark.parametrize("rho", [0.0, 0.75, 0.9])
    def test_cw_output_keeps_a_real_input_real(self, rho):
        j = JunctionCoupling(rho)
        d = gaussian_d(0.4, T / 8, 40)
        twin = SampledSignal(d.t0, d.dt, d.values.astype(complex))
        kernel = ba_cut(j, 60)
        (res_r, rec_r), (res_z, rec_z) = cw_output(d, kernel), cw_output(twin, kernel)
        pairs = correlate(kernel, kernel)
        tol = twin_bound(len(d) // 8 + len(pairs.c), pairs.sum_abs(), np.max(np.abs(d.values)))
        assert_real_twin(rec_r.values, rec_z.values, tol)
        assert abs(res_r - res_z) <= tol
