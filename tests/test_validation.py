"""Checks of the ``validate`` suite itself: a check fails where it should,
``unimodularity`` reads the coupling under test, ``negative_control``
reports a miss as one, ``ladder_resummation`` runs at the order its
truncation bound asks for and its rounding term still sees a wrong weight,
the weight checks see a 1e-8 fault in the weights they read and stay small
at rho = 0.9999, ``noise_quadrature_match`` sees a wrong noise power or loss
factor, a NaN in any one reading fails the check that reduces it,
``separable_factorization`` walks its window tile by tile in bounded memory,
``dispersion_cancellation`` filters with the suite's ``kernel_ba``,
``causality`` sees an output that arrives early, ``peak_ratio_bounded`` sees
a ratio other than that of the two damping rates, and no check's arrays
outlive it."""

import math
import tracemalloc
import types

import numpy as np
import pytest

import ringecho.core_response as core_response
import ringecho.echo_kernels as echo_kernels
import ringecho.lossy_cavity as lossy_cavity
import ringecho.validation as validation
from ringecho import DeltaTrain
from ringecho.validation import run_suite
from walksteps import walk_steps


def _result(results, name):
    (r,) = [r for r in results if r.name == name]
    return r


def _perturb_window_cell(monkeypatch, cell, delta):
    """Make the check's tile walk add ``delta`` to one cell (t1, t2) of its
    window, negative indices counting from the window's end; returns the
    list of tiles that held the cell."""
    tiles = validation._transform_tiles
    hits = []

    def perturbed(phi, kernel, t1_start, t2_start, plan):
        n = max(rows.stop for rows, _ in plan)  # the last tile row is always compared
        i, k = (c % n for c in cell)
        for rows, cols, tile in tiles(phi, kernel, t1_start, t2_start, plan):
            if rows.start <= i < rows.stop and cols.start <= k < cols.stop:
                tile[i - rows.start, k - cols.start] += delta
                hits.append((rows, cols))
            yield rows, cols, tile

    monkeypatch.setattr(validation, "_transform_tiles", perturbed)
    return hits


# at rho = 0.5 the window is 369 x 369: 2 x 2 tiles of up to 256 x 256
@pytest.mark.parametrize(
    "cell", [(0, 0), (-1, -1), (256, 255)], ids=["first", "last", "tile_boundary"]
)
@pytest.mark.parametrize("delta", [1e-9, np.nan])  # ten times the tolerance; a NaN
def test_separable_factorization_sees_every_cell(monkeypatch, cell, delta):
    hits = _perturb_window_cell(monkeypatch, cell, delta)
    r = _result(run_suite(0.5), "separable_factorization")
    assert len(hits) == 1
    assert not r.passed
    assert f"deviation = {delta:.3g} (every cell: 136161 of 136161 cells, 4 tiles)" in r.detail


def test_separable_factorization_exact_window_reads_0():
    # at rho = 0 the transform only delays the product input by a round
    # trip, so every cell's deviation is 0: max |d|, taken as max(max d,
    # -min d), reads "0" and not "-0"
    passed, detail = validation._separable_factorization(validation._Suite(0.0, 1.0, 1e-12))
    assert passed
    assert detail.startswith("outer-product deviation = 0 (every cell: 2401 of 2401 cells, 1 tiles)")


def test_separable_factorization_sampled_tiles_see_the_corners(monkeypatch):
    # rho = 0.99: 18929^2 cells, over the every-cell budget
    hits = _perturb_window_cell(monkeypatch, (0, -1), 1e-9)
    r = _result(run_suite(0.99), "separable_factorization")
    assert len(hits) == 1
    assert not r.passed
    assert "deviation = 1e-09 (sampled tiles: 16293601 of 358307041 cells, 256 tiles)" in r.detail


def test_separable_tiles_above_the_budget():
    n = 18929
    plan = validation._separable_tiles(n, np.random.default_rng(1))
    side, nt = 256, -(-n // 256)
    picked = {(rows.start // side, cols.start // side) for rows, cols_list in plan for cols in cols_list}
    cells = sum(
        (rows.stop - rows.start) * (cols.stop - cols.start)
        for rows, cols_list in plan for cols in cols_list
    )
    assert cells <= validation._SAMPLED_CELLS
    assert {(0, 0), (0, nt - 1), (nt - 1, 0), (nt - 1, nt - 1)} <= picked
    edge = {t for t in picked if 0 in t or nt - 1 in t}
    assert len(picked) - len(edge) == validation._INTERIOR_TILES
    # evenly spaced along each edge: no gap much wider than the average
    top = sorted(b for a, b in picked if a == 0)
    assert max(np.diff(top)) <= -(-(nt - 1) // (len(top) - 1))
    assert plan[-1][0] == slice((nt - 1) * side, n)


@pytest.mark.parametrize("rho", [0.5, 0.99])
def test_separable_tiles_take_the_gemm_branch(monkeypatch, rho):
    # each tile row runs one t1 pass and blocks its strip once (256-wide
    # tiles at stride 8 share one pad); the t2 pass makes its geometry once
    # per tile column and row height, and runs one banded product step per
    # tile. Every pass is banded Toeplitz matrix products, as the whole
    # window's were, so the check covers that branch on wide inputs
    tiles = validation._transform_tiles
    chunk = echo_kernels._gemm_chunk
    walking, chunks, plans = [False], [], []

    def spied_chunk(*args):
        out = chunk(*args)
        if walking[0]:
            chunks.append(out)
        return out

    def spied_tiles(*args):
        plans.append(args[4])
        it = tiles(*args)
        while True:
            walking[0] = True
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                walking[0] = False
            yield item

    monkeypatch.setattr(echo_kernels, "_gemm_chunk", spied_chunk)
    monkeypatch.setattr(validation, "_transform_tiles", spied_tiles)
    with walk_steps(lambda: walking[0]) as steps:
        r = _result(run_suite(rho), "separable_factorization")
    calls = [step for step, _ in steps]
    used = [branch for step, branch in steps if step == "_blocked_product"]
    assert r.passed, r.detail
    n_tiles = int(r.detail.rsplit(", ", 1)[1].split()[0])
    (plan,) = plans
    columns = {
        (cols.start, cols.stop, rows.stop - rows.start) for rows, cols_list in plan for cols in cols_list
    }
    assert len(used) == n_tiles
    assert calls.count("_sum_geometry") == len(columns)
    assert 0 < calls.count("_lattice_apply") == calls.count("_lattice_blocks") < n_tiles
    # each t1 pass and each t2 geometry picks its branch once, and every
    # tile's product step runs matrix products
    assert len(chunks) == calls.count("_lattice_apply") + calls.count("_sum_geometry")
    assert min(chunks) > 0
    assert set(used) == {"products"}
    if rho == 0.99:  # sampled tiles: many share a column
        assert len(columns) < n_tiles


def test_checks_free_their_arrays(monkeypatch):
    # traced memory still held as each result is recorded, after its check
    # returned and before the next starts: the suite's kernels (0.5 MiB at
    # rho = 0.999) and draws, plus the first-use caches of the libraries,
    # not the arrays of any check that ran before (21.7 MiB in one body)
    record = validation.CheckResult
    held = []

    def recording(name, *args, **kwargs):
        held.append((tracemalloc.get_traced_memory()[0], name))
        return record(name, *args, **kwargs)

    monkeypatch.setattr(validation, "CheckResult", recording)
    tracemalloc.start()
    try:
        run_suite(0.999)
    finally:
        tracemalloc.stop()
    assert [name for _, name in held] == list(validation.CHECK_NAMES)
    most, name = max(held)
    assert most < 4 * 2**20, f"{most / 2**20:.1f} MiB held after {name}"


def test_run_suite_097_peak_memory():
    # the whole 6569^2 window would be 690 MB; tiles keep the suite small
    tracemalloc.start()
    try:
        results = run_suite(0.97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_apply_round_trip_reads_only_its_window():
    # at rho = 0.9999 the whole round trip would be 6.1 million complex
    # samples; the inverse kernel is applied on the signal's 128 alone, so
    # the forward apply's 3.1 million samples (46.7 MiB) weigh most. The
    # inverse apply reads them in place: a blocked copy would add as much
    suite = validation._Suite(0.9999, 1.0, 1e-12)
    tracemalloc.start()
    try:
        passed, detail = validation._apply_round_trip(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed, detail
    assert peak < 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("rho,nmax", [(0.5, 29), (0.9, 134)])
def test_ladder_resummation_order_meets_1e_10(rho, nmax):
    # the smallest order whose tripled truncation bound is within 1e-10
    r = _result(run_suite(rho), "ladder_resummation")
    assert r.passed, r.detail
    assert f"(tol 1e-10, nmax {nmax})" in r.detail


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
def test_unimodularity_reads_the_coupling_under_test(monkeypatch, rho):
    g_ba = validation.g_ba

    def skewed(omega, j, T, Gamma=0.0):
        out = g_ba(omega, j, T, Gamma)
        return out * (1.0 + 1e-9) if j.rho == rho else out

    monkeypatch.setattr(validation, "g_ba", skewed)
    r = _result(run_suite(rho), "unimodularity")
    assert not r.passed, r.detail


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
def test_ladder_resummation_sees_resummed_weights_off_by_1e6(monkeypatch, rho):
    ladder, calls = validation._ladder, []

    def skewed(first, r, eps):
        calls.append(first)
        c, tail = ladder(first, r, eps)
        return c * (1.0 + 1e-6), tail

    monkeypatch.setattr(validation, "_ladder", skewed)
    passed, detail = validation._ladder_resummation(validation._Suite(rho, 1.0, 1e-12))
    assert len(calls) == 1
    assert not passed, detail


def _faulted(train, seed=5):
    """``train`` with each weight off by a random-sign relative 1e-8."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], len(train.c))
    return DeltaTrain(train.period, train.k0, train.c * (1.0 + 1e-8 * signs), train.eps, train.tail_bound)


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
@pytest.mark.parametrize("check", ["kernel_spectrum_match", "factor_form_equivalence"])
def test_weight_checks_see_a_kernel_fault(monkeypatch, rho, check):
    kernel_ba = validation.kernel_ba
    monkeypatch.setattr(validation, "kernel_ba", lambda *args: _faulted(kernel_ba(*args)))
    passed, detail = getattr(validation, f"_{check}")(validation._Suite(rho, 1.0, 1e-12))
    assert not passed, detail


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
@pytest.mark.parametrize("check", ["ladder_resummation", "reindexing_identity"])
def test_weight_checks_see_a_correlate_fault(monkeypatch, rho, check):
    correlate = validation.correlate
    monkeypatch.setattr(validation, "correlate", lambda f, g: _faulted(correlate(f, g)))
    passed, detail = getattr(validation, f"_{check}")(validation._Suite(rho, 1.0, 1e-12))
    assert not passed, detail


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
def test_dispersion_cancellation_reads_kernel_ba(monkeypatch, rho):
    # the output kernel with its prompt reflection +rho: its autocorrelation
    # is no longer the unit train, and the check filters with that kernel
    kernel_ba = validation.kernel_ba

    def flipped(*args):
        k = kernel_ba(*args)
        c = k.c.copy()
        c[0] = -c[0]
        return DeltaTrain(k.period, k.k0, c, k.eps, k.tail_bound)

    monkeypatch.setattr(validation, "kernel_ba", flipped)
    passed, detail = validation._dispersion_cancellation(validation._Suite(rho, 1.0, 1e-12))
    assert not passed, detail


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99, 0.9999])
def test_causality_sees_an_early_output(monkeypatch, rho):
    # apply_train's output window one sample late on the signal's grid: each
    # sample holds the output one sample after its time, so the prompt
    # weight arrives at t = -dt
    grid_offset = echo_kernels._grid_offset
    suite = validation._Suite(rho, 1.0, 1e-12)
    assert validation._causality(suite)[0]
    monkeypatch.setattr(echo_kernels, "_grid_offset", lambda *args: grid_offset(*args) + 1)
    passed, detail = validation._causality(suite)
    assert not passed, detail
    assert detail.startswith(f"max |y(t < 0)| = {suite.kca.c[0]:.3g} ")


@pytest.mark.parametrize("rho", [1e-300, 0.5, 0.99, 0.9999])
def test_peak_ratio_bounded_sees_a_wrong_ratio(monkeypatch, rho):
    # (1 - rho) / (1 - rho^2) = 1 / (1 + rho) lies in (0, 1] as well
    monkeypatch.setattr(validation, "peak_ratio", lambda j: (1.0 - j.rho) / (1.0 - j.rho**2))
    passed, detail = validation._peak_ratio_bounded(validation._Suite(rho, 1.0, 1e-12))
    assert not passed, detail


def _noise_prefactor_of_one_pass(monkeypatch):
    # 1 - exp(-Gamma T) where the noise power takes 1 - exp(-2 Gamma T)
    monkeypatch.setattr(lossy_cavity, "_noise_scale", lambda Gamma, T: -math.expm1(-Gamma * T))


def _noise_power_off_by_1e8(monkeypatch):
    noise_power = validation.noise_power
    monkeypatch.setattr(validation, "noise_power", lambda *args: noise_power(*args) * (1.0 + 1e-8))


def _g_ca_without_loss(monkeypatch):
    # g_ca's half-angle coefficients at Gamma = 0, in g_ca and in noise_power
    # alike, while g_ba keeps its loss
    terms = core_response._terms

    def lossless_ca(j, T, Gamma, output):
        return terms(j, T, Gamma if output else 0.0, output)

    monkeypatch.setattr(core_response, "_terms", lossless_ca)
    monkeypatch.setattr(lossy_cavity, "_terms", lossless_ca)


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
@pytest.mark.parametrize(
    "fault", [_noise_prefactor_of_one_pass, _noise_power_off_by_1e8, _g_ca_without_loss]
)
def test_noise_quadrature_match_sees_a_noise_fault(monkeypatch, rho, fault):
    suite = validation._Suite(rho, 1.0, 1e-12)
    fault(monkeypatch)
    passed, detail = validation._noise_quadrature_match(suite)
    assert not passed, detail


def test_noise_quadrature_match_passes_at_099999():
    passed, detail = validation._noise_quadrature_match(validation._Suite(0.99999, 1.0, 1e-12))
    assert passed, detail


@pytest.mark.parametrize("check", ["kernel_spectrum_match", "factor_form_equivalence"])
def test_weight_checks_build_no_signal(check):
    # at rho = 0.9999 the output kernel has 191,130 weights (1.5 MiB); an
    # apply to a signal would build outputs of about 3 million samples
    suite = validation._Suite(0.9999, 1.0, 1e-12)
    n = len(suite.kba.c)
    bound = 16 * 2**20
    if check == "kernel_spectrum_match":
        # the complex exp table of 101 frequencies by one block of weights,
        # four arrays of one block of 8-byte values (the block's magnitudes
        # and the index, offset and magnitude arrays of its phase term), and
        # 256 KiB for the arrays of 101 frequencies and numpy's ufunc
        # buffers: 0.94 MiB, and no array of n weights
        block = max(validation._MIN_DFT_BLOCK, math.isqrt(n))
        bound = 16 * 101 * block + 4 * 8 * block + (256 << 10)
    tracemalloc.start()
    try:
        passed, detail = getattr(validation, f"_{check}")(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed, detail
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def _with_nan(train, lag=3):
    """``train`` with a NaN weight at ``lag``, inside its span."""
    c = train.c.copy()
    c[lag - train.k0] = math.nan
    return DeltaTrain(train.period, train.k0, c, train.eps, train.tail_bound, train.rounding)


def _nan_in_correlate(monkeypatch, suite):
    correlate = validation.correlate
    monkeypatch.setattr(validation, "correlate", lambda f, g: _with_nan(correlate(f, g)))


def _nan_in_envelope(monkeypatch, suite):
    quasimode_commutator = validation.quasimode_commutator

    def nan_at_5(dt_sep, k):
        env = quasimode_commutator(dt_sep, k)
        env[5] = math.nan
        return env

    monkeypatch.setattr(validation, "quasimode_commutator", nan_at_5)


def _nan_in_fsr_integral(monkeypatch, suite):
    # the second of the four couplings the check integrates, 0.5
    fsr_integral = validation.fsr_integral
    monkeypatch.setattr(
        validation, "fsr_integral", lambda j, T: math.nan if j.rho == 0.5 else fsr_integral(j, T)
    )


def _nan_in_oracle_impulse(monkeypatch, suite):
    run = validation.run

    def nan_at_trip_3(signal, j, geometry, M, *rest):
        out, *more = run(signal, j, geometry, M, *rest)
        values = out.values.copy()
        values[3 * M] = math.nan
        return (types.SimpleNamespace(values=values), *more)

    monkeypatch.setattr(validation, "run", nan_at_trip_3)


def _nan_in_output_kernel(monkeypatch, suite):
    suite.kba = _with_nan(suite.kba)


def _nan_in_sum_rule(monkeypatch, suite):
    # a NaN in the second of the three loss rates' residuals
    sum_rule_residual = validation.sum_rule_residual

    def nan_at_0_2(ws, j, T, Gamma):
        r = sum_rule_residual(ws, j, T, Gamma)
        if Gamma * T == 0.2:
            r = r.copy()
            r[7] = math.nan
        return r

    monkeypatch.setattr(validation, "sum_rule_residual", nan_at_0_2)


@pytest.mark.parametrize(
    "check,fault",
    [
        ("cavity_commutator", _nan_in_correlate),
        ("ladder_resummation", _nan_in_correlate),
        ("envelope_interpolation", _nan_in_envelope),
        ("fsr_state_count", _nan_in_fsr_integral),
        ("oracle_impulse_match", _nan_in_oracle_impulse),
        ("kernel_unitarity", _nan_in_output_kernel),
        ("lossy_sum_rule", _nan_in_sum_rule),
    ],
)
def test_a_nan_reading_fails_the_check(monkeypatch, check, fault):
    # each reading is reduced by a max that keeps a NaN wherever it falls;
    # Python's max() drops one that does not come first
    suite = validation._Suite(0.75, 1.0, 1e-12)
    fault(monkeypatch, suite)
    passed, detail = getattr(validation, f"_{check}")(suite)
    assert not passed, detail
    assert "nan" in detail


@pytest.mark.parametrize("rho,detects", [(0.5, True), (0.99, True), (0.9999, False)])
def test_negative_control_guards_the_unit_train_tolerance(monkeypatch, rho, detects):
    # loosened to 1e-3, the shared unit-train test passes the flipped sign's
    # 2 rho tau^2 = 4e-4 at rho = 0.9999, and the control, which runs that
    # same test, must then report the miss
    monkeypatch.setattr(validation, "_UNIT_TOL", 1e-3)
    passed, detail = validation._negative_control(validation._Suite(rho, 1.0, 1e-12))
    assert passed == detects, detail


def test_negative_control_reports_a_miss(monkeypatch):
    monkeypatch.setattr(validation, "_unit_deviation", lambda train: (0.0, 0.0))
    r = _result(run_suite(0.75), "negative_control")
    assert not r.passed
    assert r.detail == "sign-flipped kernel breaks unitarity by 0 (not detected)"
