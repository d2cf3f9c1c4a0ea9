import gc
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringecho import (
    DeltaTrain,
    IncommensurateGrid,
    JunctionCoupling,
    SampledSignal,
    apply_train,
    convolve,
    correlate,
    g_ba,
    kernel_ab,
    kernel_ba,
    kernel_ca,
    output_commutator_decomposition,
)
import ringecho.echo_kernels as echo_kernels
from ringecho.echo_kernels import _lattice_apply
from trainview import weights

J75 = JunctionCoupling(0.75)


# -- reference implementations: the original pairwise dict loops -------------


def reference_convolve(f, g):
    out = {}
    for m, fm in weights(f).items():
        for n, gn in weights(g).items():
            out[m + n] = out.get(m + n, 0.0) + fm * gn
    return out


def reference_correlate(f, g):
    out = {}
    for n, fn in weights(f).items():
        for m, gm in weights(g).items():
            out[m - n] = out.get(m - n, 0.0) + fn * gm
    return out


def reference_apply(f, s, stride):
    """Per-term shift-add over the full echo extension: (t0, values)."""
    if not len(f.c):
        return s.t0, np.zeros(len(s), dtype=complex)
    kmin, kmax = min(f.offsets), max(f.offsets)
    out = np.zeros(len(s) + (kmax - kmin) * stride, dtype=complex)
    for k, c in weights(f).items():
        off = (k - kmin) * stride
        out[off : off + len(s)] += c * s.values
    return s.t0 + kmin * f.period, out


def reference_ladder(first, rho, eps, start):
    """The original builder loop: ``{start + n: first * rho^n}`` while the
    running product stays at or above ``eps``, and the tail bound."""
    weights = {}
    n, c = start, first
    while c >= eps:
        weights[n] = c
        n += 1
        c *= rho
        if rho == 0.0:
            break
    return weights, (c / (1.0 - rho) if rho > 0.0 else 0.0)


def brute_lattice_apply(c, k0, stride, x, start, n_out):
    """y[i] = sum_k c[k - k0] x[i - k stride] along axis 0, sample by sample."""
    y = np.zeros((n_out,) + x.shape[1:], dtype=complex)
    for r in range(n_out):
        for jj, ck in enumerate(c):
            src = start + r - (k0 + jj) * stride
            if 0 <= src < len(x):
                y[r] += ck * x[src]
    return y


@contextmanager
def lattice_branches(lowered):
    """Record the branches ``_lattice_apply`` takes, "gemm" per band matrix
    and "fft" per overlap-add (neither: the direct sum). ``lowered`` drops
    the FFT thresholds so that trains of two or more terms take the FFT."""
    taken = []
    band, overlap_add = echo_kernels._toeplitz_band, echo_kernels._overlap_add
    with pytest.MonkeyPatch.context() as mp:
        if lowered:
            mp.setattr(echo_kernels, "_MIN_FFT", 2)
            mp.setattr(echo_kernels, "_MIN_FFT_WORK", 2)
        mp.setattr(echo_kernels, "_toeplitz_band", lambda *a: taken.append("gemm") or band(*a))
        mp.setattr(echo_kernels, "_overlap_add", lambda *a: taken.append("fft") or overlap_add(*a))
        yield taken


def underflow_bound(n):
    """One smallest subnormal of underflow per operation of the transforms
    of a convolution of length n."""
    return n * np.log2(max(n, 2)) * np.finfo(float).smallest_subnormal


def fft_bound(n, sum_c, max_x):
    """The FFT branch's rounding bound, n the full convolution's length, plus
    ``underflow_bound(n)``."""
    return np.finfo(float).eps * np.log2(max(n, 2)) * sum_c * max_x + underflow_bound(n)


@st.composite
def trains(draw, max_span=24):
    """Random trains of period 1: empty, single-term or longer, with negative
    offsets and zero weights, also at the ends of the span."""
    k0 = draw(st.integers(-max_span, max_span))
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, max_span + 1)))
    weight = st.one_of(st.floats(-3.0, 3.0), st.just(0.0))
    return DeltaTrain(1.0, k0, draw(st.lists(weight, min_size=n, max_size=n)))


def impulse(T, stride, n_trips):
    vals = np.zeros(stride * n_trips, dtype=complex)
    vals[0] = 1.0
    return SampledSignal(0.0, T / stride, vals)


class TestSampledSignal:
    def test_energy(self):
        s = SampledSignal(-1.0, 0.5, np.array([1.0, 2.0, 2.0j]))
        assert s.energy() == pytest.approx(4.5)

    @pytest.mark.parametrize("n", [0, 1, 7, 1 << 16, (1 << 16) + 1, 5 * (1 << 16) + 13])
    def test_energy_is_the_whole_array_sum(self, n):
        # strip by strip, yet bitwise the pairwise np.sum over the whole array
        rng = np.random.default_rng(n)
        s = SampledSignal(0.0, 0.3, rng.normal(size=n) + 1j * rng.normal(size=n))
        assert s.energy() == float(np.sum(np.abs(s.values) ** 2) * 0.3)

    def test_energy_holds_no_reference_to_the_samples(self):
        # a reference cycle would keep the samples alive until the next
        # garbage collection, which long runs see as growing memory
        s = SampledSignal(0.0, 1.0, np.ones(3 << 16))
        samples = weakref.ref(s.values)
        gc.disable()
        try:
            s.energy()
            del s
            assert samples() is None
        finally:
            gc.enable()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SampledSignal(0.0, 0.0, np.ones(3))
        with pytest.raises(ValueError):
            SampledSignal(0.0, 1.0, np.array([1.0, np.inf]))


class TestKernelWeights:
    def test_ca_no_cavity(self):
        assert weights(kernel_ca(JunctionCoupling(0.0), 1.0)) == {0: 1.0}

    def test_ca_weights_by_recurrence(self):
        # oracle: c_{n+1} = rho * c_n starting from tau
        train = kernel_ca(J75, 1.0)
        c = J75.tau
        for n in range(30):
            assert train.weight(n) == pytest.approx(c, rel=1e-14)
            c *= J75.rho
        assert train.weight(0) == pytest.approx(0.661438, abs=1e-6)
        assert train.weight(1) == pytest.approx(0.496078, abs=1e-6)
        assert train.weight(2) == pytest.approx(0.372059, abs=1e-6)

    def test_ba_no_cavity_is_delay(self):
        assert weights(kernel_ba(JunctionCoupling(0.0), 1.0)) == {1: 1.0}

    def test_ab_no_cavity_is_advance(self):
        assert weights(kernel_ab(JunctionCoupling(0.0), 1.0)) == {-1: 1.0}

    def test_ba_first_weights(self):
        train = kernel_ba(J75, 1.0)
        assert train.weight(0) == -0.75
        assert train.weight(1) == pytest.approx(0.4375, rel=1e-15)
        assert train.weight(2) == pytest.approx(0.328125, rel=1e-15)

    def test_ab_mirrors_ba(self):
        ba = kernel_ba(J75, 1.0)
        ab = kernel_ab(J75, 1.0)
        assert ab.offsets == tuple(sorted(-k for k in ba.offsets))
        for k, c in weights(ba).items():
            assert ab.weight(-k) == c

    def test_ab_explicit(self):
        j = JunctionCoupling(0.6)
        train = kernel_ab(j, 1.0)
        assert train.weight(0) == -0.6
        assert train.weight(-1) == pytest.approx(0.64, rel=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.75, 0.97])
    def test_unitarity(self, rho):
        j = JunctionCoupling(rho)
        for maker in (kernel_ca, kernel_ba, kernel_ab):
            assert abs(maker(j, 1.0).sum_sq() - 1.0) < 1e-10

    def test_tail_bound_recorded(self):
        train = kernel_ca(J75, 1.0, eps=1e-6)
        n_max = max(train.offsets)
        expected = J75.tau * J75.rho ** (n_max + 1) / (1.0 - J75.rho)
        assert train.tail_bound == pytest.approx(expected, rel=1e-12)
        assert np.all(np.abs(train.c) >= 1e-6)

    @pytest.mark.parametrize("rho", [0.0, 1e-13, 1e-6, 0.5, 0.999])
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_builders_match_reference_loops(self, rho, eps):
        j = JunctionCoupling(rho)
        ca, ca_tail = reference_ladder(j.tau, rho, eps, 0)
        ba, ba_tail = reference_ladder(j.tau * j.tau, rho, eps, 1)
        if rho > 0.0:
            ba = {0: -rho, **ba}
        ab = {-k: c for k, c in ba.items()}
        for maker, want, tail in ((kernel_ca, ca, ca_tail), (kernel_ba, ba, ba_tail),
                                  (kernel_ab, ab, ba_tail)):
            train = maker(j, 1.0, eps)
            assert train.offsets == tuple(sorted(want))
            assert weights(train) == want
            assert train.tail_bound == tail
            assert train.eps == eps

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            kernel_ca(J75, 1.0, eps=0.0)


class TestTrainAlgebra:
    def test_convolution_identity_element(self):
        f = kernel_ca(J75, 1.0)
        assert convolve(f, DeltaTrain(1.0, 0, [1.0])).max_abs_diff(f) == 0.0

    def test_convolution_commutes(self):
        f = kernel_ca(J75, 1.0, eps=1e-8)
        g = kernel_ba(JunctionCoupling(0.5), 1.0, eps=1e-8)
        assert convolve(f, g).max_abs_diff(convolve(g, f)) < 1e-14

    def test_round_trip_inverse(self):
        inv = convolve(kernel_ab(J75, 1.0), kernel_ba(J75, 1.0))
        assert abs(inv.weight(0) - 1.0) < 1e-10
        spurious = max(abs(c) for k, c in weights(inv).items() if k != 0)
        assert spurious < 1e-10

    def test_convolve_rejects_period_mismatch(self):
        with pytest.raises(ValueError):
            convolve(kernel_ca(J75, 1.0), kernel_ca(J75, 2.0))

    def test_correlate_point_masses(self):
        a = DeltaTrain(1.0, 0, [3.0])
        b = DeltaTrain(1.0, 0, [-2.0])
        assert weights(correlate(a, b)) == {0: -6.0}

    def test_correlate_ca_gives_geometric_memory(self):
        for rho in (0.3, 0.75, 0.97):
            k_ca = kernel_ca(JunctionCoupling(rho), 1.0)
            corr = correlate(k_ca, k_ca)
            for k in range(-10, 11):
                assert corr.weight(k) == pytest.approx(rho ** abs(k), abs=1e-12)

    def test_correlate_ba_is_unit(self):
        corr = correlate(kernel_ba(J75, 1.0), kernel_ba(J75, 1.0))
        assert abs(corr.weight(0) - 1.0) < 1e-10
        assert max(abs(c) for k, c in weights(corr).items() if k != 0) < 1e-10

    @given(rho=st.floats(0.0, 0.9), scale=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_convolution_linear_in_scaling(self, rho, scale):
        j = JunctionCoupling(rho)
        f = kernel_ca(j, 1.0, eps=1e-8)
        scaled = DeltaTrain(1.0, f.k0, scale * f.c)
        lhs = convolve(scaled, kernel_ba(j, 1.0, eps=1e-8))
        rhs = convolve(f, kernel_ba(j, 1.0, eps=1e-8))
        for k in lhs.offsets:
            assert lhs.weight(k) == pytest.approx(scale * rhs.weight(k), abs=1e-12)

    @pytest.mark.parametrize("rho,nmax", [(0.5, 80), (0.99, 1407), (0.999, 4000)])
    def test_pair_ladder_within_rounding_of_pairwise_rows(self, rho, nmax):
        # the pair ladder sum_{n,m} rho^(n+m) at lag m - n, as the
        # autocorrelation of [rho, ..., rho^nmax]; reference: every pair
        # added row by row, rho ** (n + m) per pair
        m = np.arange(1, nmax + 1)
        ref = np.zeros(2 * nmax - 1)
        for n in range(1, nmax + 1):
            ref[nmax - n : 2 * nmax - n] += rho ** (n + m)
        ladder = DeltaTrain(1.0, 1, rho**m)
        got = correlate(ladder, ladder)
        assert got.k0 == 1 - nmax and np.array_equal(got.c, got.c[::-1])
        # each side sums at most nmax positive terms, each a power or a
        # product of two, so in order it is within (nmax + 3) eps of the
        # lag's own sum; an FFT sum adds eps log2(n) S^2, S = sum rho^n the
        # ladder's total weight and n = 2 nmax - 1 the lag count
        eps = np.finfo(float).eps
        s_total = rho * (1.0 - rho**nmax) / (1.0 - rho)
        tol = (2 * nmax + 6) * eps * ref + eps * np.log2(2 * nmax - 1) * s_total**2
        assert got.c.shape == ref.shape and np.all(np.abs(got.c - ref) <= tol)


class TestApply:
    def test_identity_train(self):
        s = SampledSignal(0.0, 0.25, np.arange(8, dtype=complex))
        out = apply_train(DeltaTrain(1.0, 0, [1.0]), s)
        assert out.t0 == s.t0
        assert np.array_equal(out.values, s.values)

    def test_echo_train_from_impulse(self):
        stride = 4
        out = apply_train(kernel_ba(J75, 1.0), impulse(1.0, stride, 3))
        assert out.values[0] == -0.75
        assert out.values[stride] == pytest.approx(0.4375)
        assert out.values[2 * stride] == pytest.approx(0.328125)
        # nothing between lattice points
        assert np.all(out.values[1:stride] == 0.0)

    def test_parseval_energy_conserved(self):
        rng = np.random.default_rng(3)
        s = SampledSignal(
            -1.0, 0.125, rng.normal(size=64) + 1j * rng.normal(size=64)
        )
        out = apply_train(kernel_ba(J75, 1.0), s)
        assert abs(out.energy() - s.energy()) / s.energy() < 1e-10

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(5)
        s = SampledSignal(0.0, 0.125, rng.normal(size=48) + 0j)
        back = apply_train(kernel_ab(J75, 1.0), apply_train(kernel_ba(J75, 1.0), s))
        i0 = round((s.t0 - back.t0) / s.dt)
        assert np.max(np.abs(back.values[i0 : i0 + len(s)] - s.values)) < 1e-9

    def test_incommensurate_grid_rejected(self):
        s = SampledSignal(0.0, 0.3, np.ones(4, dtype=complex))
        with pytest.raises(IncommensurateGrid):
            apply_train(kernel_ba(J75, 1.0), s)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_window_is_the_slice_of_the_full_output(self, dtype):
        # integer weights and samples make every sum exact on every branch,
        # so a window equals its slice of the full output bit for bit, and
        # is zero where it leaves the full output
        rng = np.random.default_rng(11)
        stride, margin = 4, 100
        for f in (
            DeltaTrain(1.0, -2, [1.0, -2.0, 0.0, 3.0]),
            DeltaTrain(1.0, 1, rng.integers(-9, 10, 40)),
            DeltaTrain(1.0, 0, [5.0]),
        ):
            x = rng.integers(-9, 10, 50).astype(dtype)
            if dtype is np.complex128:
                x += 1j * rng.integers(-9, 10, 50)
            s = SampledSignal(-0.5, 1.0 / stride, x)
            full = apply_train(f, s)
            zeros = np.zeros(margin, dtype)
            padded = np.concatenate([zeros, full.values, zeros])
            for start in (-90, -3, 0, 7, len(full) - 5, len(full) + 20):
                t0 = full.t0 + start * s.dt
                for n in (0, 1, 13, 64):
                    window = apply_train(f, s, t0, n)
                    assert window.t0 == t0 and window.values.dtype == dtype
                    want = padded[margin + start : margin + start + n]
                    assert window.values.tobytes() == want.tobytes()
                # without n, the window runs to the end of the full output
                rest = apply_train(f, s, t0).values
                assert rest.tobytes() == padded[margin + start : margin + len(full)].tobytes()

    def test_window_start_off_the_grid_rejected(self):
        s = SampledSignal(0.0, 0.25, np.ones(8))
        with pytest.raises(IncommensurateGrid, match="does not lie on the input grid"):
            apply_train(kernel_ba(J75, 1.0), s, 0.1, 4)
        with pytest.raises(ValueError, match="non-negative"):
            apply_train(kernel_ba(J75, 1.0), s, 0.0, -1)

    @pytest.mark.parametrize("n", [2.5, -1, "3", 1e300])
    def test_window_size_not_a_count_rejected(self, n):
        # one rule with the two-photon windows: ValueError, on the grid or off it
        s = SampledSignal(0.0, 0.25, np.ones(8))
        for t0 in (0.0, 0.1):
            with pytest.raises(ValueError, match="must be an integer|non-negative"):
                apply_train(kernel_ba(J75, 1.0), s, t0, n)

    @pytest.mark.parametrize("n", [0, np.int64(0)])
    def test_empty_window(self, n):
        s = SampledSignal(0.0, 0.25, np.ones(8))
        out = apply_train(kernel_ba(J75, 1.0), s, 0.5, n)
        assert out.t0 == 0.5 and out.values.shape == (0,) and out.values.dtype == np.float64

    def test_spectrum_matches_transfer_function(self):
        """DFT of the sampled echo train reproduces the spectral response."""
        T = 1.0
        out = apply_train(kernel_ba(J75, T), impulse(T, 8, 2))
        ws = np.linspace(-8.0, 8.0, 61)
        times = out.t0 + out.dt * np.arange(len(out))
        for w in ws:
            dft = np.sum(out.values * np.exp(1j * w * times))
            assert abs(dft - g_ba(w, J75, T)) < 1e-8


class TestDeltaTrain:
    def test_stores_a_read_only_copy_of_its_span(self):
        # zeros are stored like any weight, at the ends of the span too
        c = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
        train = DeltaTrain(1.0, -2, c)
        c[1] = 5.0
        assert train.c.dtype == np.float64 and not train.c.flags.writeable
        assert train.offsets == (-2, -1, 0, 1, 2)
        assert weights(train) == {-2: 0.0, -1: 2.0, 0: 0.0, 1: -1.0, 2: 0.0}
        assert train.weight(-3) == train.weight(3) == 0.0


class TestLatticeAgainstReference:
    """Array-native lattice algebra against the pairwise reference loops."""

    @given(f=trains(), g=trains())
    @settings(max_examples=150, deadline=None)
    def test_convolve_and_correlate(self, f, g):
        tol = 1e-13 * f.sum_abs() * g.sum_abs()
        for fast, ref in ((convolve, reference_convolve), (correlate, reference_correlate)):
            got, want = fast(f, g), ref(f, g)
            assert set(got.offsets) == set(want)
            for k, w in want.items():
                assert abs(got.weight(k) - w) <= tol
            if len(f.c) == 1 and len(g.c) == 1:
                assert weights(got) == want

    @given(f=trains(), stride=st.integers(1, 16), n=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_apply_train(self, f, stride, n, seed):
        rng = np.random.default_rng(seed)
        s = SampledSignal(-0.5, 1.0 / stride, rng.normal(size=n) + 1j * rng.normal(size=n))
        out = apply_train(f, s)
        t0, want = reference_apply(f, s, stride)
        assert out.t0 == t0
        assert out.values.shape == want.shape
        if len(f.c) == 1:
            assert np.array_equal(out.values, want)
        tol = 1e-13 * f.sum_abs() * np.max(np.abs(s.values))
        assert np.max(np.abs(out.values - want), initial=0.0) <= tol

    @given(f=trains(max_span=12), stride=st.integers(1, 6), n=st.integers(1, 12),
           start=st.integers(-60, 60), n_out=st.integers(1, 40), axis=st.integers(0, 1),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_windowed_apply_along_either_axis(self, f, stride, n, start, n_out, axis, seed):
        if not len(f.c):
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        k0, c = f.k0, f.c
        want = brute_lattice_apply(c, k0, stride, x, start, n_out)
        got = _lattice_apply(c, k0, stride, x if axis == 0 else x.T, axis, start, n_out)
        got = got if axis == 0 else got.T
        tol = 1e-13 * f.sum_abs() * np.max(np.abs(x))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= tol

    # (x shape, stride, kernel length): columns per block are 2 * stride * width.
    # With more input blocks than columns the band cut shrinks the chunk as
    # the kernel grows, until there would be more products than columns; 1-D
    # inputs also cross over where a product would make fewer than 16
    # outputs, or where the signal is long enough to need more products than
    # its 2 * stride columns. Where no product is taken, kernels and inputs
    # of at least _MIN_FFT = 64 blocks each go to the FFT if the shorter of
    # them times the column count reaches _MIN_FFT_WORK = 2048.
    @pytest.mark.parametrize(
        "shape,stride,n_c,path",
        [
            ((40, 16), 1, 20, "gemm"),  # chunks of 13 blocks, cut by the band
            ((40, 16), 1, 30, "gemm"),  # 23 products of 3 blocks
            ((40, 16), 1, 31, "column"),  # 35 products of 2 blocks
            ((32,), 2, 1, "gemm"),
            ((32,), 2, 2, "column"),  # 3 x 4 outputs per product
            ((2048,), 8, 1, "gemm"),  # 16 products
            ((2056,), 8, 1, "column"),  # 17 products
            ((5, 4), 2, 40, "gemm"),  # fewer input blocks than columns
            ((5,), 1, 40, "column"),
            ((400, 64), 1, 3, "gemm"),  # many chunks, edge and interior
            ((64, 16), 1, 64, "fft"),  # 64 blocks each, 32 columns: 2048
            ((63, 16), 1, 64, "column"),  # input one block short
            ((64, 16), 1, 63, "column"),  # kernel one term short
            ((64, 15), 1, 64, "column"),  # 30 columns: 1920
            ((1024,), 16, 64, "fft"),  # 1-D, 32 columns from the stride
            ((70, 16), 1, 300, "fft"),  # kernel longer than the input: 2 kernel segments
            ((400, 16), 1, 70, "fft"),  # input longer than the kernel: 3 input segments
        ],
    )
    def test_both_paths_at_their_boundary(self, shape, stride, n_c, path):
        rng = np.random.default_rng(n_c)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c, k0 = rng.normal(size=n_c), -2
        start, n_out = k0 * stride, shape[0] + (n_c - 1) * stride
        # the whole output, then a window that starts and ends inside a
        # segment; cropping may move a narrow window to another path
        for w_start, w_out in ((start, n_out), (start + n_out // 3 + 1, n_out // 3)):
            with lattice_branches(lowered=False) as branches:
                got = _lattice_apply(c, k0, stride, x, 0, w_start, w_out)
            taken = "gemm" if "gemm" in branches else "fft" if branches else "column"
            assert taken == path or (path != "fft" and w_out < n_out)
            want = brute_lattice_apply(c, k0, stride, x, w_start, w_out)
            sum_c, max_x = np.sum(np.abs(c)), np.max(np.abs(x))
            if taken == "fft":
                tol = fft_bound(-(-shape[0] // stride) + n_c - 1, sum_c, max_x)
            else:
                tol = 1e-13 * sum_c * max_x
            assert np.max(np.abs(got - want)) <= tol


def band_cut_chunk(n_c, qx, qy, cols):
    """``_gemm_chunk`` of an output with more blocks than there are columns:
    chunks of at least the kernel length and 16 blocks, cut, when the input
    has more blocks than columns, to a band no wider than the columns."""
    chunk = min(qy, max(n_c, 16))
    if qx > cols:
        chunk = min(chunk, cols - n_c + 1)
    if chunk < 1 or chunk * cols < 16 or -(-qy // chunk) > cols:
        return 0
    return chunk


class TestOutputWindow:
    """The branch rule counts the output: a window of no more blocks than
    there are columns is one banded product whatever the kernel's length,
    and that band holds no more entries than the input slice it reads."""

    # (kernel terms, input blocks, output blocks, columns) of validate's calls
    @pytest.mark.parametrize(
        "args,chunk",
        [
            ((2361, 2368, 4728, 32), 0),  # the round trip's inverse apply at rho = 0.99, whole
            ((2361, 2369, 4730, 32), 0),
            ((41, 48, 88, 32), 0),  # ... at rho = 0.5
            ((2361, 8, 2368, 32), 2361),  # its forward apply: fewer input blocks than columns
            ((38, 7, 32, 2048), 32),  # a t2 pass of separable_factorization's tiles
            ((1, 8, 8, 32), 8),  # rho = 0: one term
        ],
    )
    def test_whole_outputs_keep_their_chunk(self, args, chunk):
        assert echo_kernels._gemm_chunk(*args) == chunk == band_cut_chunk(*args)

    @given(n_c=st.integers(1, 300), qx=st.integers(1, 300), qy=st.integers(1, 600),
           cols=st.integers(1, 64))
    @settings(max_examples=500, deadline=None)
    def test_band_cut_unless_no_band_meets_it(self, n_c, qx, qy, cols):
        chunk = echo_kernels._gemm_chunk(n_c, qx, qy, cols)
        if qx > cols and n_c > cols >= qy:
            # no band fits the columns, but the whole output does: one product
            assert chunk == (qy if qy * cols >= 16 else 0)
        else:
            assert chunk == band_cut_chunk(n_c, qx, qy, cols)

    @pytest.mark.parametrize("n_c", [41, 2361, 191130])
    def test_narrow_windows_take_one_band_product(self, n_c):
        # 128 complex samples at stride 16: 8 output blocks, 32 columns
        assert echo_kernels._gemm_chunk(n_c, n_c + 7, 8, 32) == 8

    @given(n_c=st.integers(1, 400), qx=st.integers(1, 400), qy=st.integers(1, 400),
           cols=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_band_never_outweighs_both_output_and_input(self, n_c, qx, qy, cols):
        chunk = echo_kernels._gemm_chunk(n_c, qx, qy, cols)
        if not chunk:
            return
        assert chunk * cols >= 16 and -(-qy // chunk) <= cols
        band = min(qx, chunk + n_c - 1)  # input blocks one product reads
        if qx > cols:
            # K is chunk x band: no larger than the chunk x cols output, or
            # one product over the whole output and no larger than the
            # band x cols input slice it reads
            assert band <= cols or chunk == qy <= cols

    @pytest.mark.parametrize("n_c", [41, 2361])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("offset", [0, 5, 16 * 30 + 9], ids=["aligned", "off_block", "inside"])
    def test_narrow_window_matches_the_whole_apply(self, n_c, dtype, offset):
        stride, n_win, k0 = 16, 128, -n_c + 1  # anticausal, as kernel_ab
        rng = np.random.default_rng(n_c + offset)
        c = rng.normal(size=n_c)
        n = (n_c + 7) * stride  # more input blocks than columns
        x = rng.normal(size=n)
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=n)
        n_full = n + (n_c - 1) * stride
        whole = _lattice_apply(c, k0, stride, x, 0, k0 * stride, n_full)
        start = offset  # the window inside the whole output, off a block boundary or not
        with lattice_branches(lowered=False) as taken:
            window = _lattice_apply(c, k0, stride, x, 0, start, n_win)
        assert taken == ["gemm"]
        assert window.dtype == dtype and window.shape == (n_win,)
        want = whole[start - k0 * stride : start - k0 * stride + n_win]
        # the window's direct sum within n_c eps sum|c| max|x| of the exact
        # one, the whole apply within that or the FFT's bound
        sum_c, max_x = np.sum(np.abs(c)), np.max(np.abs(x))
        tol = n_c * np.finfo(float).eps * sum_c * max_x + fft_bound(n_full // stride, sum_c, max_x)
        assert np.max(np.abs(window - want)) <= tol

    @given(n_c=st.integers(0, 12), d0=st.integers(-25, 35), n_rows=st.integers(1, 12),
           n_cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(n_c=10, d0=-6, n_rows=4, n_cols=2, seed=0)  # the band ends before c
    @example(n_c=10, d0=14, n_rows=4, n_cols=5, seed=0)  # ... starts after it
    @settings(max_examples=300, deadline=None)
    def test_toeplitz_band_is_the_reversed_sliding_window(self, n_c, d0, n_rows, n_cols, seed):
        c = np.random.default_rng(seed).normal(size=n_c)
        # row r of K is c[d0 + r - n_cols + 1 .. d0 + r] reversed, zero outside c
        lo = d0 - n_cols + 1
        seg = np.array([c[i] if 0 <= i < n_c else 0.0 for i in range(lo, lo + n_rows + n_cols - 1)])
        want = sliding_window_view(seg, n_cols)[:, ::-1]
        got = echo_kernels._toeplitz_band(c, d0, n_rows, n_cols)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestTrainSumsByFFT:
    """``convolve`` and ``correlate`` on ``_lattice_apply``'s FFT branch."""

    @given(f=trains(), g=trains())
    @settings(max_examples=150, deadline=None)
    def test_within_rounding_bound_of_pairwise_sums(self, f, g):
        # the train's own rounding bound, for the branch its sum took: the FFT
        # with lowered thresholds, the direct sum at the defaults
        for fast, ref in ((convolve, reference_convolve), (correlate, reference_correlate)):
            want = ref(f, g)
            for lowered in (True, False):
                with lattice_branches(lowered) as taken:
                    got = fast(f, g)
                fft = min(len(f.c), len(g.c)) >= 2 and lowered
                assert ("fft" in taken) == fft
                assert set(got.offsets) == set(want)
                tol = got.rounding + underflow_bound(len(got.c))
                for k, w in want.items():
                    assert abs(got.weight(k) - w) <= tol
                if fft:
                    tol = fft_bound(len(got.c), f.sum_abs(), g.sum_abs())
                    assert all(abs(got.weight(k) - w) <= tol for k, w in want.items())

    @given(h=trains())
    @settings(max_examples=150, deadline=None)
    def test_autocorrelation_exactly_symmetric_on_both_branches(self, h):
        direct = correlate(h, h)
        # symmetrising the direct sum changes no bit
        assert np.array_equal(direct.c, echo_kernels._lattice_sum(h, h, reverse_f=True).c)
        with lattice_branches(lowered=True) as taken:
            by_fft = correlate(h, h)
        assert ("fft" in taken) == (len(h.c) >= 2)
        want = reference_correlate(h, h)
        for train in (direct, by_fft):
            assert np.array_equal(train.c, train.c[::-1])
            assert train.k0 == -(len(train.c) // 2)
            # the symmetrised train keeps its sum's rounding bound
            tol = train.rounding + underflow_bound(len(train.c))
            assert all(abs(train.weight(k) - w) <= tol for k, w in want.items())

    # the branch rule reads the column count, which a complex input doubles,
    # and BLAS and FFT rounding depend on the batch width; only two direct
    # sums are the same np.convolve per column
    @given(f=trains(max_span=12), stride=st.integers(1, 6), n=st.integers(1, 12),
           width=st.integers(0, 3), start=st.integers(-60, 60), n_out=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_real_input_gives_the_real_part(self, f, stride, n, width, start, n_out, seed):
        if not len(f.c):
            return
        rng = np.random.default_rng(seed)
        shape = (n, width) if width else (n,)  # width 0: a 1-D signal
        x = rng.normal(size=shape)
        z = x + 1j * rng.normal(size=shape)
        want = brute_lattice_apply(f.c, f.k0, stride, x, start, n_out).real
        n_blocks = -(-n // stride) + len(f.c) - 1
        for lowered in (False, True):
            with lattice_branches(lowered) as real_taken:
                real = _lattice_apply(f.c, f.k0, stride, x, 0, start, n_out)
            with lattice_branches(lowered) as full_taken:
                full = _lattice_apply(f.c, f.k0, stride, z, 0, start, n_out)
            assert real.dtype == np.float64 and real.shape == full.shape
            if not real_taken and not full_taken:
                assert np.array_equal(real, full.real)
            sum_c, max_x = np.sum(np.abs(f.c)), np.max(np.abs(x))
            tol = fft_bound(n_blocks, sum_c, max_x) if "fft" in real_taken else 1e-13 * sum_c * max_x
            assert np.max(np.abs(real - want)) <= tol

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9999])
    def test_junction_path_rounding_is_tau_squared_the_circulating_trains(self, rho):
        # at 0.9999 both sums take the FFT, below it the direct sum
        j = JunctionCoupling(rho)
        kca = kernel_ca(j, 1.0)
        circ = correlate(kca, kca)
        assert circ.rounding > 0.0
        assert output_commutator_decomposition(j).rounding == j.tau**2 * circ.rounding

    def test_trains_from_weights_carry_no_rounding(self):
        j = JunctionCoupling(0.5)
        for train in (kernel_ca(j, 1.0), kernel_ba(j, 1.0), kernel_ab(j, 1.0), DeltaTrain(1.0, 0, [1.0])):
            assert train.rounding == 0.0

    def test_high_q_kernels_take_the_fft(self):
        j = JunctionCoupling(0.9999)
        kba, kab = kernel_ba(j, 1.0), kernel_ab(j, 1.0)
        unit = DeltaTrain(1.0, 0, [1.0])
        for sum_, f, g in ((correlate, kba, kba), (convolve, kab, kba)):
            with lattice_branches(lowered=False) as taken:
                train = sum_(f, g)
            assert taken == ["fft"]
            # the unit train, up to the truncated tails and the FFT's rounding
            assert train.weight(0) == pytest.approx(1.0)
            tol = train.tail_bound + fft_bound(len(train.c), f.sum_abs(), g.sum_abs())
            assert train.max_abs_diff(unit) <= tol


class TestLatticeApplyMemory:
    """On a whole output, ``_lattice_apply`` holds at most three outputs'
    worth of memory: the blocked input copy (none for a block-aligned
    input), the output, and band matrices no larger than it together."""

    @pytest.mark.parametrize(
        "shape,stride",
        [((2000, 2000), 8), ((1 << 20,), 1), ((1 << 20,), 16)],
    )
    def test_peak_within_three_outputs(self, shape, stride):
        # rho = 0 gives a one-term kernel, whose output is no larger than its
        # input: a copy of the input and the band matrix weigh the most there
        f = kernel_ba(JunctionCoupling(0.0), 1.0)
        k0, c = f.k0, f.c
        assert len(c) == 1
        x = np.random.default_rng(0).normal(size=shape).astype(complex)
        n_out = shape[0] + (len(c) - 1) * stride
        out_bytes = n_out * x[0].size * 16
        tracemalloc.start()
        try:
            out = _lattice_apply(c, k0, stride, x, 0, k0 * stride, n_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n_out,) + shape[1:]
        assert np.array_equal(out, c[0] * x)
        assert peak <= 3 * out_bytes

    def test_direct_branch_frees_the_blocked_copy(self):
        # an input off the block grid is copied into blocks; the direct sum
        # transposes that copy and drops it before the output is made, so it
        # holds two outputs' worth, not three
        f = kernel_ba(JunctionCoupling(0.0), 1.0)
        x = np.random.default_rng(1).normal(size=1 << 20).astype(complex)
        stride, n_out = 16, len(x) - 1
        with lattice_branches(lowered=False) as taken:
            tracemalloc.start()
            try:
                out = _lattice_apply(f.c, f.k0, stride, x, 0, f.k0 * stride + 1, n_out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert taken == []
        assert np.array_equal(out, f.c[0] * x[1:])
        assert peak <= 2.1 * out.size * 16

    def test_blocked_product_refuses_blocks_of_another_pad(self):
        # the geometry refuses a window off its pad's block grid, and the
        # product refuses blocks cut at another pad than its geometry's
        blocks = echo_kernels._lattice_blocks(np.ones(40), 0, 8, 3)
        with pytest.raises(ValueError, match="not on a block boundary"):
            echo_kernels._sum_geometry(np.ones(3), 0, 8, 3, *blocks.xb.shape, 4, 16)
        geometry = echo_kernels._sum_geometry(np.ones(3), 0, 8, 4, *blocks.xb.shape, 4, 16)
        with pytest.raises(ValueError, match="do not fit"):
            echo_kernels._blocked_product(geometry, blocks)

    # (shape, stride, kernel terms, branches): band products, the direct sum, the FFT
    @pytest.mark.parametrize(
        "shape,stride,n_c,branches",
        [((1024, 64), 8, 3, {"gemm"}), ((1 << 14,), 2, 3, set()), ((1 << 14,), 1, 3000, {"fft"})],
    )
    def test_block_aligned_input_read_in_place(self, shape, stride, n_c, branches):
        # a C-contiguous input that starts and ends on block boundaries is
        # blocked by a reshape, not copied; every output byte stays the one a
        # copied (here: strided) input of the same values gives
        rng = np.random.default_rng(n_c)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        strided = np.repeat(x, 2, axis=0)[::2]
        assert not strided.flags.c_contiguous and np.array_equal(strided, x)
        c = rng.normal(size=n_c)
        n_out = shape[0] + (n_c - 1) * stride
        with lattice_branches(lowered=False) as taken:
            tracemalloc.start()
            try:
                out = _lattice_apply(c, 0, stride, x, 0, 0, n_out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert set(taken) == branches
        assert np.array_equal(out, _lattice_apply(c, 0, stride, strided, 0, 0, n_out))
        if branches == {"gemm"}:
            # the output and its band matrices, nine of 16 x 18 entries,
            # held together; a blocked copy would add a whole input
            out_bytes = out.size * 16
            assert peak <= out_bytes + out_bytes // 4

    # (samples, stride, kernel terms): a long signal, the quasimode job's
    # shape at rho = 0.999, and a kernel three times longer than its signal
    @pytest.mark.parametrize(
        "n,stride,n_c", [(1 << 20, 1, 20_000), (12_954, 2, 19_909), (1 << 16, 1, 200_000)]
    )
    def test_fft_peak_within_four_outputs(self, n, stride, n_c):
        """Overlap-add keeps three FFT-length arrays beside the output (and
        the blocked copy of an input that is not block-aligned); one
        transform of the whole output would hold more."""
        rng = np.random.default_rng(n_c)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = rng.normal(size=n_c)
        n_out = n + (n_c - 1) * stride
        with lattice_branches(lowered=False) as taken:
            tracemalloc.start()
            try:
                out = _lattice_apply(c, 0, stride, x, 0, 0, n_out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert taken == ["fft"]
        assert peak <= 4 * n_out * 16
        # spot rows against the direct sum, within the FFT rounding bound
        tol = fft_bound(-(-n // stride) + n_c - 1, np.sum(np.abs(c)), np.max(np.abs(x)))
        for r in rng.integers(0, n_out, 8):
            k = np.arange(n_c)
            src = r - k * stride
            ok = (src >= 0) & (src < n)
            assert abs(out[r] - np.dot(c[ok], x[src[ok]])) <= tol


class TestRealAmplitudes:
    """Real amplitudes are stored and summed as float64, complex ones as
    complex128. A real input gives the real part of its complex twin, the
    same call on ``x.astype(complex)``: an imaginary part of exactly 0, and
    real parts within ``eps log2(n) sum|c| max|x|``. Not bit for bit: the
    branch rule counts float columns, which the complex twin has twice of,
    so the two can take different branches."""

    @pytest.mark.parametrize(
        "values",
        [[1.0, -2.0], np.arange(3), np.array([True, False]), np.ones(2, np.float32)],
        ids=["list", "int", "bool", "float32"],
    )
    def test_real_input_is_stored_as_float64(self, values):
        assert SampledSignal(0.0, 1.0, values).values.dtype == np.float64

    @pytest.mark.parametrize(
        "values",
        [[1.0 + 0j, 2.0], np.arange(3) + 0j, np.ones(2, np.complex64)],
        ids=["list", "zero-imaginary", "complex64"],
    )
    def test_complex_input_is_stored_as_complex128(self, values):
        assert SampledSignal(0.0, 1.0, values).values.dtype == np.complex128

    def test_float64_and_complex128_values_are_not_copied(self):
        for v in (np.ones(4), np.ones(4, complex)):
            assert SampledSignal(0.0, 1.0, v).values is v

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 0.999])
    def test_apply_train_keeps_the_dtype(self, rho):
        # 256 blocks of 8 samples: the FFT branch at rho 0.97 and 0.999; at
        # rho 0 the real input takes the direct sum and its twin a matrix product
        k = kernel_ba(JunctionCoupling(rho), 1.0)
        x = np.random.default_rng(7).normal(size=2048)
        real = apply_train(k, SampledSignal(0.0, 0.125, x))
        twin = apply_train(k, SampledSignal(0.0, 0.125, x.astype(complex)))
        assert real.values.dtype == np.float64 and twin.values.dtype == np.complex128
        assert (real.t0, len(real)) == (twin.t0, len(twin))
        assert not np.any(twin.values.imag)
        n_blocks = 256 + len(k.c) - 1
        tol = fft_bound(n_blocks, k.sum_abs(), np.max(np.abs(x)))
        assert np.max(np.abs(real.values - twin.values.real)) <= tol

    def test_empty_kernel_keeps_the_dtype(self):
        empty = DeltaTrain(1.0, 0, [])
        for v in (np.ones(4), np.ones(4, complex)):
            out = apply_train(empty, SampledSignal(0.0, 0.5, v))
            assert out.values.dtype == v.dtype and not np.any(out.values)
            window = apply_train(empty, SampledSignal(0.0, 0.5, v), 1.5, 3)
            assert window.values.dtype == v.dtype and window.values.tobytes() == bytes(3 * v.itemsize)

    def test_lattice_apply_on_every_branch(self):
        """Random shapes, strides, axes and windows reach all three branches
        on both dtypes."""
        rng = np.random.default_rng(20240916)
        seen = {np.float64: set(), np.complex128: set()}
        for _ in range(300):
            stride = int(rng.integers(1, 40))
            c = rng.normal(size=int(rng.choice([1, 2, 5, 30, 80, 200])))
            k0 = int(rng.integers(-5, 5))
            if rng.random() < 0.5:
                n, axis = int(rng.integers(1, 3000)), 0
                shape = (n,)
            else:
                n, width, axis = int(rng.integers(1, 300)), int(rng.integers(1, 8)), int(rng.integers(2))
                shape = (n, width) if axis == 0 else (width, n)
            start = int(rng.integers(-50, 50))
            n_out = int(rng.integers(1, n + len(c) * stride + 10))
            x = rng.normal(size=shape)
            out = {}
            for dtype in seen:
                with lattice_branches(lowered=False) as taken:
                    out[dtype] = _lattice_apply(c, k0, stride, x.astype(dtype), axis, start, n_out)
                seen[dtype].update(taken or ["direct"])
                assert out[dtype].dtype == dtype
            real, twin = out[np.float64], out[np.complex128]
            assert not np.any(twin.imag)
            n_blocks = -(-n // stride) + len(c)
            tol = fft_bound(n_blocks, np.sum(np.abs(c)), np.max(np.abs(x)))
            assert np.max(np.abs(real - twin.real)) <= tol
        assert seen[np.float64] == seen[np.complex128] == {"gemm", "fft", "direct"}
