"""Acceptance gate: every product-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test prints ``ACCEPTANCE <n> PASS/FAIL`` before asserting, so
the report is complete even on failure.
"""

import math

import numpy as np

from ringecho import (
    JunctionCoupling,
    RingGeometry,
    SampledSignal,
    TwoPhotonGaussian,
    F_m,
    convolve,
    correlate,
    cw_output,
    fsr_integral,
    g_ba,
    g_ca,
    gaussian_amplitude,
    gaussian_output_closed_form,
    kernel_ab,
    kernel_ba,
    kernel_ca,
    noise_power,
    outer_product_grid,
    output_commutator_check,
    peak_locate,
    peak_ratio,
    quasimode_field_error,
    resummation_check,
    run,
    separability_rank,
    separable_output,
    sum_rule_residual,
    transform_output,
    transform_output_on_window,
)

T = 1.0


def _report(n: int, desc: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"criterion {n}: {desc} ({detail})"


def test_criterion_01_unimodularity():
    rng = np.random.default_rng(101)
    rhos = rng.uniform(0.0, 0.9999, 10_000)
    omegas = rng.uniform(-200.0, 200.0, 10_000)
    worst = max(
        abs(abs(g_ba(w, JunctionCoupling(r), T)) - 1.0)
        for r, w in zip(rhos, omegas)
    )
    _report(1, "output transfer unimodular over 1e4 random draws",
            worst < 1e-12, f"max deviation {worst:.3g}")


def test_criterion_02_fsr_state_count():
    worst = max(
        abs(fsr_integral(JunctionCoupling(r), T) - 1.0)
        for r in (0.0, 0.5, 0.75, 0.98)
    )
    _report(2, "FSR average of |g_ca|^2 equals 1", worst < 1e-6,
            f"max deviation {worst:.3g}")


def test_criterion_03_resonance_peak():
    j = JunctionCoupling(0.75)
    # independent oracle: partial geometric sums of the echo ladder
    total = sum(j.rho**n for n in range(201))
    oracle = (j.tau * total) ** 2
    value = abs(g_ca(0.0, j, T)) ** 2
    rel = abs(value / oracle - 1.0)
    ok = rel < 1e-12 and abs(value - 7.0) < 1e-10
    _report(3, "resonant peak (1+rho)/(1-rho) = 7 at rho 0.75", ok,
            f"value {value:.12f}, rel err vs series {rel:.3g}")


def test_criterion_04_kernel_inverse():
    j = JunctionCoupling(0.75)
    inv = convolve(kernel_ab(j, T, 1e-12), kernel_ba(j, T, 1e-12))
    zero_err = abs(inv.weight(0) - 1.0)
    spurious = max(abs(c) for k, c in inv.weights.items() if k != 0)
    ok = zero_err < 1e-10 and spurious < 1e-10
    _report(4, "inverse kernel composes to the unit train", ok,
            f"c0 err {zero_err:.3g}, max off-zero {spurious:.3g}")


def test_criterion_05_cavity_commutator():
    worst = 0.0
    worst_bf = 0.0
    for rho in (0.3, 0.75, 0.97):
        j = JunctionCoupling(rho)
        corr = correlate(kernel_ca(j, T, 1e-12), kernel_ca(j, T, 1e-12))
        # brute force: bin tau^2 rho^(n+m) by lag without any closed form
        n_terms = max(200, int(math.ceil(-30.0 / math.log(rho))))
        n = np.arange(n_terms + 1)
        outer = j.tau**2 * np.outer(rho**n, rho**n)
        lags = (n[:, None] - n[None, :]) + n_terms
        binned = np.zeros(2 * n_terms + 1)
        np.add.at(binned, lags.ravel(), outer.ravel())
        for k in range(-10, 11):
            worst = max(worst, abs(corr.weight(k) - rho ** abs(k)))
            worst_bf = max(worst_bf, abs(binned[k + n_terms] - rho ** abs(k)))
    ok = worst < 1e-12 and worst_bf < 1e-12
    _report(5, "circulating-field commutator is rho^|k| on the lattice", ok,
            f"correlate dev {worst:.3g}, brute-force dev {worst_bf:.3g}")


def test_criterion_06_output_commutator():
    worst_unit = 0.0
    worst_disagree = 0.0
    for rho in (0.3, 0.75, 0.97):
        res = output_commutator_check(JunctionCoupling(rho), eps=1e-12, T=T)
        worst_unit = max(worst_unit, res.weight_zero_error, res.max_spurious)
        worst_disagree = max(worst_disagree, res.path_disagreement)
    ok = worst_unit < 1e-10 and worst_disagree < 1e-12
    _report(6, "output commutator stays free-space by both derivations", ok,
            f"unit-train dev {worst_unit:.3g}, paths differ {worst_disagree:.3g}")


def test_criterion_07_highq_diagnostics():
    # frozen oracle values of (1-rho)/ln(1/rho); the formula is authoritative
    r97 = peak_ratio(JunctionCoupling(0.97))
    r70 = peak_ratio(JunctionCoupling(0.70))
    ratios_ok = (
        abs(r97 - 0.9849238531587152) < 1e-5
        and abs(r70 - 0.8411019756171388) < 1e-5
    )

    def pulse(width, t_end):
        t = np.arange(-4.0 * width, t_end, T / 8)
        return SampledSignal(
            t[0], T / 8, np.exp(-(t**2) / (2.0 * width**2)).astype(complex)
        )

    # band-limited drives (widths 20T and 4T, both under the FSR/20 guard)
    err_hq = quasimode_field_error(
        pulse(20.0, 80.0 + 6.0 / math.log(1 / 0.99)), JunctionCoupling(0.99), T
    )
    err_lq = quasimode_field_error(pulse(4.0, 41.0), JunctionCoupling(0.70), T)
    ok = ratios_ok and err_hq < 0.01 and err_lq > 0.05
    _report(7, "single-mode limit accurate deep in high-Q only", ok,
            f"ratios ({r97:.6f}, {r70:.6f}), L2 {err_hq:.2%} at 0.99 vs "
            f"{err_lq:.2%} at 0.70")


def test_criterion_08_dispersion_cancellation():
    j = JunctionCoupling(0.75)
    dt = T / 8
    x = np.arange(-130.0 * T, 130.0 * T + 1e-9, dt)
    d = SampledSignal(x[0], dt, np.exp(-(x**2) / (2.0 * 0.4**2)))
    residual, _ = cw_output(d, j, T, kmax=120)
    kmaxes = np.arange(12, 44, 4)
    x2 = np.arange(-60.0 * T, 60.0 * T + 1e-9, dt)
    d2 = SampledSignal(x2[0], dt, np.exp(-(x2**2) / (2.0 * 0.4**2)))
    residuals = np.array([cw_output(d2, j, T, int(k))[0] for k in kmaxes])
    slope = np.polyfit(kmaxes, np.log(residuals), 1)[0]
    slope_rel = abs(slope - math.log(0.75)) / abs(math.log(0.75))
    ok = residual < 1e-9 and slope_rel < 0.02
    _report(8, "cw pair correlation survives the cavity exactly", ok,
            f"residual {residual:.3g} at kmax 120, decay slope off by {slope_rel:.2%}")


def test_criterion_09_ladder_resummation():
    dt = T / 8
    x = np.arange(-24.0 * T, 24.0 * T + 1e-9, dt)
    d = SampledSignal(x[0], dt, np.exp(-(x**2) / (2.0 * 0.4**2)))
    err = resummation_check(0.5, d, T, nmax=80)
    _report(9, "pair ladder equals its geometric resummation", err < 1e-10,
            f"max deviation {err:.3g}")


def test_criterion_10_closed_form_vs_direct():
    worst = 0.0
    combos = [
        (sigma, beta, tau)
        for (sigma, beta) in ((0.3, 0.3), (0.2, 0.7), (0.5, 0.2))
        for tau in (0.999, 0.95, 0.85, 0.60)
    ]
    assert len(combos) == 12
    for sigma, beta, tau in combos:
        g = TwoPhotonGaussian(sigma, beta)
        j = JunctionCoupling.from_tau(tau)
        dt = T / 8
        phi = gaussian_amplitude(g, dt=dt)
        n_out = phi.values.shape[0] + 8 * 8
        direct = transform_output_on_window(
            phi, j, T, phi.t1_start, n_out, eps=1e-12
        )
        closed = gaussian_output_closed_form(
            g, j, T, phi.t1_start, n_out, dt, eps=1e-12
        )
        worst = max(worst, float(np.max(np.abs(direct.values - closed.values))))
    # flat-pulse limit of the ladder sums
    g_flat = TwoPhotonGaussian(0.3, 1e6)
    j75 = JunctionCoupling(0.75)
    worst_f = max(
        abs(F_m(m, 0.0, g_flat, j75, T) - 0.75 ** abs(m)) for m in range(7)
    )
    ok = worst < 1e-8 and worst_f < 1e-9
    _report(10, "pulsed-Gaussian closed form equals the tensor transform", ok,
            f"12-combo max dev {worst:.3g}, flat-limit ladder dev {worst_f:.3g}")


def test_criterion_11_figure_reproduction():
    g5 = TwoPhotonGaussian(0.3, 0.3)
    peaks = {}
    ranks = {}
    for tau in (0.999, 0.60):
        j = JunctionCoupling.from_tau(tau)
        out = transform_output(gaussian_amplitude(g5, dt=T / 16), j, T, eps=1e-10)
        peaks[tau] = peak_locate(out)
        ranks[tau] = float(separability_rank(out)[1])
    g6 = TwoPhotonGaussian(0.2, 0.7)
    out6 = transform_output(
        gaussian_amplitude(g6, dt=T / 8), JunctionCoupling.from_tau(0.85), T,
        eps=1e-10,
    )
    rank6 = float(separability_rank(out6)[1])
    ok = (
        peaks[0.999] == (T, T)
        and peaks[0.60] == (0.0, 0.0)
        and ranks[0.999] < 1e-6
        and ranks[0.60] < 1e-6
        and rank6 > 0.05
    )
    _report(11, "coincidence peaks and separability match the figure panels", ok,
            f"peaks {peaks}, s2/s1 separable {max(ranks.values()):.3g}, "
            f"entangled {rank6:.3g}")


def test_criterion_12_product_state_factorization():
    t = np.arange(-2.4, 2.4 + 1e-12, T / 8)
    f1 = SampledSignal(t[0], T / 8, np.exp(-(t**2) / (2 * 0.3**2)))
    f2 = SampledSignal(t[0], T / 8, np.exp(-((t - 0.2) ** 2) / (2 * 0.45**2)))
    j = JunctionCoupling.from_tau(0.85)
    p1, p2 = separable_output(f1, f2, j, T, eps=1e-12)
    full = transform_output(outer_product_grid(f1, f2), j, T, eps=1e-12)
    err = float(np.max(np.abs(np.outer(p1.values, p2.values) - full.values)))
    _report(12, "product-state output factorizes into per-photon transforms",
            err < 1e-10, f"max deviation {err:.3g}")


def test_criterion_13_lossy_sum_rule():
    rng = np.random.default_rng(113)
    omegas = rng.uniform(-80.0, 80.0, 500)
    worst = 0.0
    for rho in (0.0, 0.75):
        for gamma_t in (0.0, 0.2, 2.0):
            j = JunctionCoupling(rho)
            worst = max(
                worst,
                float(np.max(np.abs(sum_rule_residual(omegas, j, T, gamma_t / T)))),
            )
    j = JunctionCoupling(0.75)
    z = np.exp(1j * omegas * T)
    recover = max(
        float(np.max(np.abs(g_ca(omegas, j, T, Gamma=0.0) - j.tau / (1.0 - j.rho * z)))),
        float(np.max(np.abs(g_ba(omegas, j, T, Gamma=0.0) - (z - j.rho) / (1.0 - j.rho * z)))),
        float(np.max(np.abs(noise_power(omegas, j, T, 0.0)))),
    )
    ok = worst < 1e-12 and recover < 1e-12
    _report(13, "absorbed power returns as fluctuations, sum rule exact", ok,
            f"max residual {worst:.3g}, lossless recovery dev {recover:.3g}")


def test_criterion_14_oracle_cross_validation():
    geom = RingGeometry(T, 1.0)
    j = JunctionCoupling(0.75)

    # impulse response: lattice-exact, no discretization dependence
    train = kernel_ba(j, T)
    weight_sets = []
    worst_w = 0.0
    for M in (8, 32):
        vals = np.zeros(6 * M, dtype=complex)
        vals[0] = 1.0
        out, _ = run(SampledSignal(0.0, T / M, vals), j, geom, M)
        samples = [out.values[n * M] for n in range(6)]
        weight_sets.append(samples)
        worst_w = max(
            worst_w,
            max(
                abs(s.real - train.weight(n)) / max(np.spacing(1.0), abs(train.weight(n)))
                for n, s in enumerate(samples)
            ),
        )
    lattice_exact = weight_sets[0] == weight_sets[1] and worst_w < 1e-14

    # lossless steady-state transfer
    M = 16
    omega = 2.31
    n_trips = 90
    t = np.arange(n_trips * M) * (T / M)
    drive = SampledSignal(0.0, T / M, np.exp(-1j * omega * t))
    out, _ = run(drive, j, geom, M)
    err_ba = abs(out.values[-1] / drive.values[-1] - g_ba(omega, j, T))

    # lossy: output transfer stays lattice-exact; the intracavity probe
    # carries the O(dt) half-step loss bias and halves as M doubles
    Gamma = 0.4
    errs = []
    err_ba_lossy = 0.0
    for M in (16, 32, 64):
        t = np.arange(80 * M) * (T / M)
        drive = SampledSignal(0.0, T / M, np.exp(-1j * omega * t))
        out, probe = run(drive, j, geom, M, Gamma)
        err_ba_lossy = max(
            err_ba_lossy,
            abs(out.values[-1] / drive.values[-1] - g_ba(omega, j, T, Gamma=Gamma)),
        )
        expected = abs(g_ca(omega, j, T, Gamma=Gamma))
        errs.append(abs(abs(probe.values[-1] / drive.values[-1]) - expected))
    halves = all(
        abs(errs[i] / errs[i + 1] - 2.0) < 0.2 for i in range(len(errs) - 1)
    )
    dt_bound = Gamma * T / 16  # O(dt) at the coarsest grid
    ok = (
        lattice_exact
        and err_ba < 1e-9
        and err_ba_lossy < 1e-12
        and max(errs) < dt_bound
        and halves
    )
    _report(14, "independent lattice simulator confirms every transfer", ok,
            f"impulse dev {worst_w:.3g}, transfer dev {err_ba:.3g}, "
            f"probe errors {[f'{e:.2e}' for e in errs]} halving {halves}")
