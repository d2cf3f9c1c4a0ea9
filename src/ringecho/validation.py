"""Cross-module invariant suite behind the ``validate`` CLI command.

Each check is quick, deterministic (fixed RNG seeds), and returns a record
that serializes cleanly. The suite also contains one negative control: a
deliberately sign-flipped kernel must make the unitarity check fail, which
guards against the suite itself going soft.

Memory stays bounded as rho -> 1. ``separable_factorization`` compares the
2-D transform of a product input with ``p2 (x) p1`` on a square window whose
side grows as 1/(1 - rho), 6569 samples at rho = 0.97 and about 171k at
0.999. It never stores the window: it computes it one square tile of
``_COMPARE_CELLS`` cells at a time (``two_photon._transform_tiles``) and
compares each tile while it is in cache. Windows of up to
``_EVERY_CELL_BUDGET`` cells, which covers every rho <= 0.97, are compared
cell by cell. Larger ones are compared on a fixed tile set of at most about
``_SAMPLED_CELLS`` cells: the four corners, evenly spaced tiles along the
first and last tile rows and columns, and seeded interior tiles. The detail
line names the mode ("every cell" or "sampled tiles"), the cells compared
out of the total, and the tile count.

Signals and grids are stored as float64 for real values and complex128
otherwise. The impulses, Gaussian pulses and two-photon grids of the suite
are real, and the kernels' weights are real, so their sums run on one float
column per sample instead of two; only ``apply_round_trip``'s random signal
and the oracle's drive tone are complex.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import (
    DeltaTrain,
    JointAmplitudeGrid,
    JunctionCoupling,
    RingGeometry,
    SampledSignal,
    TwoPhotonGaussian,
    apply_train,
    convolve,
    correlate,
    cw_output,
    fsr_integral,
    g_ab,
    g_ba,
    g_ca,
    gaussian_amplitude,
    gaussian_output_closed_form,
    kappa,
    kernel_ab,
    kernel_ba,
    kernel_ca,
    noise_power,
    noise_power_quadrature,
    output_commutator_check,
    peak_ratio,
    quasimode_commutator,
    resummation_check,
    run,
    spacetime_commutator_support,
    sum_rule_residual,
    transform_output_on_window,
)
from .commutators import _unit_deviation
from .two_photon import _transform_tiles


# separable_factorization: cells per square tile; windows of up to
# _EVERY_CELL_BUDGET cells (rho <= 0.97) are compared in full, larger ones on
# a fixed tile set of at most about _SAMPLED_CELLS cells
_COMPARE_CELLS = 1 << 16
_EVERY_CELL_BUDGET = 1 << 26
_SAMPLED_CELLS = 1 << 24
_INTERIOR_TILES = 8
# sample times per block of kernel_spectrum_match's DFT matrix (6.6 MB with
# its 101 frequencies); one block holds the 2361 lattice samples at rho = 0.99
# and eps 1e-12, 191,130 at rho = 0.9999 take 47
_DFT_BLOCK = 4096


def _separable_tiles(n: int, rng: np.random.Generator) -> list[tuple[slice, list[slice]]]:
    """Tiles of the n x n separable_factorization window to compare, as
    ``(t1 range, [t2 ranges])`` per tile row, in row-major order.

    Square tiles of ``_COMPARE_CELLS`` cells (the last row and column of
    tiles may be narrower). Every tile while the window holds at most
    ``_EVERY_CELL_BUDGET`` cells. Above that, the four corner tiles, evenly
    spaced tiles along the first and last tile rows and columns (the
    strongest echoes and the truncation edge), and ``_INTERIOR_TILES``
    interior tiles drawn from ``rng``: at most ``_SAMPLED_CELLS`` cells.
    """
    side = math.isqrt(_COMPARE_CELLS)
    nt = -(-n // side)
    if n * n <= _EVERY_CELL_BUDGET:
        picked = [(a, b) for a in range(nt) for b in range(nt)]
    else:
        per_edge = (_SAMPLED_CELLS // _COMPARE_CELLS - _INTERIOR_TILES + 4) // 4
        edge = np.linspace(0, nt - 1, min(nt, per_edge)).round().astype(int).tolist()
        inner = rng.choice((nt - 2) ** 2, _INTERIOR_TILES, replace=False).tolist()
        picked = sorted(
            {(e, i) for e in (0, nt - 1) for i in edge}
            | {(i, e) for e in (0, nt - 1) for i in edge}
            | {(1 + k // (nt - 2), 1 + k % (nt - 2)) for k in inner}
        )
    rows: dict[int, list[slice]] = {}
    for a, b in picked:
        rows.setdefault(a, []).append(slice(b * side, min(n, (b + 1) * side)))
    return [(slice(a * side, min(n, (a + 1) * side)), cols) for a, cols in rows.items()]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _impulse(T: float, stride: int, n_trips: int) -> SampledSignal:
    vals = np.zeros(stride * n_trips)
    vals[0] = 1.0
    return SampledSignal(0.0, T / stride, vals)


# round trips the oracle_transfer_match drive runs at most: the transient
# rho^n falls to 1e-10 by then at every rho <= 0.999
_MAX_DRIVE_TRIPS = math.ceil(math.log(1e-10) / math.log(0.999))


def oracle_transfer_deviation(
    j: JunctionCoupling, T: float = 1.0, M: int = 16
) -> tuple[float, float, int]:
    """Drive the FDTD oracle with a tone at 0.37 FSR until its transient has
    decayed, and compare the last output sample with ``g_ba``.

    Runs ``ceil(ln 1e-10 / ln rho)`` round trips (at least 60, at most
    ``_MAX_DRIVE_TRIPS``), so the transient ``rho^n`` is below 1e-10.
    Returns the deviation, its tolerance ``max(1e-9, 10 rho^n)`` and n.
    """
    w_drive = 0.37 * (2.0 * math.pi / T)
    n_trips = 60
    if j.rho > 0.0:
        n_trips = max(60, math.ceil(math.log(1e-10) / math.log(j.rho)))
    n_trips = min(_MAX_DRIVE_TRIPS, n_trips)
    tol = max(1e-9, 10.0 * j.rho**n_trips)
    tgrid = np.arange(n_trips * M) * (T / M)
    drive = SampledSignal(0.0, T / M, np.exp(-1j * w_drive * tgrid))
    out, _ = run(drive, j, RingGeometry(T, 1.0), M)
    ratio = out.values[-1] / drive.values[-1]
    return abs(ratio - g_ba(w_drive, j, T)), tol, n_trips


# every check of the suite, in the order it runs at every rho
CHECK_NAMES = (
    "unimodularity", "inverse_identity", "periodicity", "fsr_state_count",
    "kernel_unitarity", "kernel_inverse", "apply_round_trip", "apply_parseval",
    "kernel_spectrum_match", "cavity_commutator", "causality",
    "equal_time_single_support", "output_commutator", "reindexing_identity",
    "envelope_interpolation", "peak_ratio_bounded", "lossy_sum_rule",
    "noise_quadrature_match", "oracle_impulse_match", "oracle_transfer_match",
    "dispersion_cancellation", "ladder_resummation", "closed_form_match",
    "factor_form_equivalence", "separable_factorization", "negative_control",
)


class CheckOutOfMemory(MemoryError):
    """A check of the suite asked for more memory than it could get."""


def run_suite(rho: float = 0.75, T: float = 1.0, eps: float = 1e-12) -> list[CheckResult]:
    """Run the full invariant suite at one coupling value.

    Raises
    ------
    CheckOutOfMemory
        If a check fails to allocate; the message names the check and
        repeats the allocation error, which states the size requested.
    """
    results: list[CheckResult] = []
    try:
        _run_checks(rho, T, eps, results)
    except MemoryError as exc:
        name = CHECK_NAMES[len(results)]
        raise CheckOutOfMemory(f"check {name} at rho = {rho:g}: {exc}") from exc
    return results


def _run_checks(rho: float, T: float, eps: float, results: list[CheckResult]) -> None:
    """Body of ``run_suite``: appends one result per name in ``CHECK_NAMES``.

    Every frequency draw, grid, width and time threshold is in units of T
    (or 1/T), so the suite checks the same thing at every round-trip time.
    """
    j = JunctionCoupling(rho)
    rng = np.random.default_rng(20240901)

    def check(name: str, passed: bool, detail: str, skipped: bool = False) -> None:
        results.append(CheckResult(name, bool(passed), detail, skipped))

    # -- spectral identities ------------------------------------------------
    rhos = rng.uniform(0.0, 0.999, 1000)
    omegas = rng.uniform(-80.0, 80.0, 1000) / T
    worst = max(
        abs(abs(g_ba(w, JunctionCoupling(r), T)) - 1.0)
        for r, w in zip(rhos, omegas)
    )
    check("unimodularity", worst < 1e-12, f"max | |g_ba| - 1 | = {worst:.3g}")

    w200 = omegas[:200]
    worst = float(np.max(np.abs(g_ab(w200, j, T) * g_ba(w200, j, T) - 1.0)))
    check("inverse_identity", worst < 1e-14, f"max |g_ab*g_ba - 1| = {worst:.3g}")

    fsr = 2.0 * math.pi / T
    worst = float(np.max(np.abs(g_ca(w200 + fsr, j, T) - g_ca(w200, j, T))))
    check("periodicity", worst < 1e-10, f"max |g_ca(w+FSR) - g_ca(w)| = {worst:.3g}")

    vals = [abs(fsr_integral(JunctionCoupling(r), T) - 1.0) for r in (0.0, 0.5, rho, 0.98)]
    check("fsr_state_count", max(vals) < 1e-6, f"max |integral - 1| = {max(vals):.3g}")

    # -- kernel algebra -----------------------------------------------------
    kca = kernel_ca(j, T, eps)
    kba = kernel_ba(j, T, eps)
    kab = kernel_ab(j, T, eps)
    u1 = abs(kca.sum_sq() - 1.0)
    u2 = abs(kba.sum_sq() - 1.0)
    check("kernel_unitarity", max(u1, u2) < 1e-10, f"|sum c^2 - 1| = {max(u1, u2):.3g}")

    zero_err, spurious = _unit_deviation(convolve(kab, kba))
    ok = zero_err < 1e-10 and spurious < 1e-10
    check("kernel_inverse", ok, f"c0 err {zero_err:.3g}, max off {spurious:.3g}")

    stride = 16
    sig = SampledSignal(
        0.0, T / stride, rng.normal(size=8 * stride) + 1j * rng.normal(size=8 * stride)
    )
    round_trip = apply_train(kab, apply_train(kba, sig))
    i0 = round(((sig.t0 - round_trip.t0) / sig.dt))
    err = float(np.max(np.abs(round_trip.values[i0 : i0 + len(sig)] - sig.values)))
    check("apply_round_trip", err < 1e-9, f"max reconstruction error = {err:.3g}")

    parseval = abs(apply_train(kba, sig).energy() - sig.energy()) / sig.energy()
    check("apply_parseval", parseval < 1e-10, f"relative energy change = {parseval:.3g}")

    imp = _impulse(T, stride, 2)
    train_sig = apply_train(kba, imp)
    ws = np.linspace(-2.5 * fsr, 2.5 * fsr, 101)
    nz = np.flatnonzero(train_sig.values)  # the lattice samples, and any stray one
    dft = np.zeros(len(ws), dtype=complex)
    for i in range(0, len(nz), _DFT_BLOCK):
        blk = nz[i : i + _DFT_BLOCK]
        times = train_sig.t0 + train_sig.dt * blk
        dft += np.exp(1j * np.multiply.outer(ws, times)) @ train_sig.values[blk]
    err = float(np.max(np.abs(dft - g_ba(ws, j, T))))
    check("kernel_spectrum_match", err < 1e-8, f"max DFT deviation = {err:.3g}")

    # -- commutators ----------------------------------------------------------
    train = correlate(kca, kca)
    err = max(abs(train.weight(k) - rho ** abs(k)) for k in range(-10, 11))
    # certified truncation tail plus the rounding of the lattice sum
    rounding = len(kca.c) * np.finfo(float).eps * (kca.sum_abs() + kca.tail_bound) ** 2
    tol = train.tail_bound + rounding
    check(
        "cavity_commutator",
        err <= tol,
        f"max |c_k - rho^|k|| = {err:.3g} (tol {tol:.3g})",
    )

    causal = kca.k0 >= 0
    check("causality", causal, "no support at negative lags")

    L = T
    zp = 0.333 * L
    zs = np.append(np.linspace(0.0, L, 97, endpoint=False), zp)
    hits = 0
    for z in zs:
        pts = spacetime_commutator_support(j, z, zp, T, 8)
        hits += sum(1 for (_, _, t_hit) in pts if abs(t_hit) < 1e-12 * T)
    check("equal_time_single_support", hits == 1, f"crossings at t=t' = {hits}")

    occ = output_commutator_check(j, T, eps)
    ok = (
        occ.weight_zero_error < 1e-10
        and occ.max_spurious < 1e-10
        and occ.path_disagreement < 1e-12
    )
    detail = (
        f"c0 err {occ.weight_zero_error:.3g}, spurious {occ.max_spurious:.3g}, "
        f"paths differ by {occ.path_disagreement:.3g}"
    )
    check("output_commutator", ok, detail)

    f = rng.integers(-9, 10, size=51).astype(float)
    g = rng.integers(-9, 10, size=51).astype(float)

    def side_a() -> float:
        tot = 0.0
        for n in range(51):
            for m in range(n + 1):
                if n + m < 51:
                    tot += f[n + m] * g[n - m]
        return tot

    def side_b() -> float:
        tot = 0.0
        for k in range(51):
            for s in range(51):
                if k + 2 * s < 51:
                    tot += f[k + 2 * s] * g[k]
        return tot

    check("reindexing_identity", side_a() == side_b(), "double-sum reindexing exact")

    # -- quasimode ------------------------------------------------------------
    if j.rho > 0.0:
        env = quasimode_commutator(np.arange(21) * T, kappa(j, T, "exact"))
        err = max(abs(float(env[k]) - rho**k) for k in range(21))
        check("envelope_interpolation", err < 1e-13, f"max |e^-k kT - rho^k| = {err:.3g}")
        pr = peak_ratio(j)
        check(
            "peak_ratio_bounded",
            0.0 < pr <= 1.0,
            f"(1-rho)/ln(1/rho) = {pr:.6f}",
        )
    else:
        check("envelope_interpolation", True, "skipped: rho = 0", skipped=True)
        check("peak_ratio_bounded", True, "skipped: rho = 0", skipped=True)

    # -- lossy cavity -----------------------------------------------------------
    ws = rng.uniform(-40.0, 40.0, 200) / T
    worst = 0.0
    for gt in (0.0, 0.2, 2.0):
        worst = max(worst, float(np.max(np.abs(sum_rule_residual(ws, j, T, gt / T)))))
    check("lossy_sum_rule", worst < 1e-12, f"max residual = {worst:.3g}")

    nq = noise_power_quadrature(ws[:50], j, T, 0.2 / T)
    err = float(np.max(np.abs(nq - noise_power(ws[:50], j, T, 0.2 / T))))
    check("noise_quadrature_match", err < 1e-6, f"max quadrature deviation = {err:.3g}")

    # -- oracle ---------------------------------------------------------------
    geom = RingGeometry(T, 1.0)
    M = 16
    imp = _impulse(T, M, 6)
    out, _ = run(imp, j, geom, M)
    errs = [abs(out.values[n * M].real - kba.weight(n)) for n in range(6)]
    # offsets outside the kernel's span were cut off: allow its tail bound there
    ok = all(
        err < 1e-14 + (0.0 if kba.k0 <= n < kba.k0 + len(kba.c) else kba.tail_bound)
        for n, err in enumerate(errs)
    )
    check(
        "oracle_impulse_match",
        ok,
        f"lattice weight error = {max(errs):.3g} "
        f"(tol 1e-14, plus tail bound {kba.tail_bound:.3g} on dropped offsets)",
    )

    err, tol, n_trips = oracle_transfer_deviation(j, T, M)
    check(
        "oracle_transfer_match",
        err < tol,
        f"steady-state deviation = {err:.3g} (tol {tol:.3g}, {n_trips} round trips)",
    )

    # -- two-photon -------------------------------------------------------------
    gspec = TwoPhotonGaussian(0.4 * T, 0.4 * T)
    dgrid = np.arange(-40 * T, (40 + 1e-9) * T, T / 8)
    d = SampledSignal(dgrid[0], T / 8, np.exp(-(dgrid**2) / (2 * (0.4 * T) ** 2)))
    if j.rho > 0.0:
        kmax = max(10, int(math.ceil(math.log(1e-10) / math.log(rho))))
        residual, _ = cw_output(d, j, T, kmax)
        check("dispersion_cancellation", residual < 1e-9, f"residual = {residual:.3g}")
        kwin = 24
        x = np.arange(-kwin * T, (kwin + 1e-9) * T, T / 8)
        d_narrow = SampledSignal(x[0], T / 8, np.exp(-(x**2) / (2 * (0.4 * T) ** 2)))
        # certified truncation deficit of the pair ladder at order nmax is
        # pref rho^(2 nmax - kwin); take the smallest nmax that puts 3x it within 1e-10
        pref = rho**2 / (1.0 - rho**2)
        nmax = max(1, math.ceil((kwin + math.log(1e-10 / (3.0 * pref)) / math.log(rho)) / 2))
        bound = pref * rho ** (2 * nmax - kwin)
        tol = max(1e-10, 3.0 * bound)
        err = resummation_check(rho, d_narrow, T, nmax=nmax)
        check(
            "ladder_resummation",
            err < tol,
            f"max deviation = {err:.3g} (tol {tol:.3g}, nmax {nmax})",
        )
    else:
        residual, _ = cw_output(d, j, T, 10)
        check("dispersion_cancellation", residual < 1e-12, f"residual = {residual:.3g}")
        check("ladder_resummation", True, "skipped: rho = 0", skipped=True)

    phi = gaussian_amplitude(gspec, dt=T / 8)
    n_out = phi.values.shape[0] + 6 * 8
    direct = transform_output_on_window(phi, j, T, phi.t1_start, n_out, eps)
    closed = gaussian_output_closed_form(
        gspec, j, T, phi.t1_start, n_out, T / 8, eps
    )
    err = float(np.max(np.abs(direct.values - closed.values)))
    check("closed_form_match", err < 1e-8, f"max pointwise deviation = {err:.3g}")

    t = np.arange(-3.0 * T, (3.0 + 1e-9) * T, T / 8)
    f1 = SampledSignal(t[0], T / 8, np.exp(-(t**2) / (2 * (0.35 * T) ** 2)))
    f2 = SampledSignal(t[0], T / 8, np.exp(-((t - 0.25 * T) ** 2) / (2 * (0.5 * T) ** 2)))
    p1, p2 = apply_train(kba, f1), apply_train(kba, f2)
    if j.rho > 0.0:
        # the algebraically equivalent -rho phi + (tau^2/rho) sum rho^n phi(t - nT),
        # on the kernel's span; it divides by rho
        ks = np.arange(kba.k0, kba.k0 + len(kba.c))
        w = np.where(ks == 0, -rho, (j.tau * j.tau / rho) * rho**ks)
        reflective = DeltaTrain(T, kba.k0, w, eps, kba.tail_bound)
        q1, q2 = apply_train(reflective, f1), apply_train(reflective, f2)
        err = float(
            max(
                np.max(np.abs(p1.values - q1.values)),
                np.max(np.abs(p2.values - q2.values)),
            )
        )
        check("factor_form_equivalence", err < 1e-12, f"kernel vs reflective form: {err:.3g}")
    else:
        check(
            "factor_form_equivalence",
            True,
            "skipped: rho = 0 (reflective factor form undefined, kernel form used)",
            skipped=True,
        )
    prod_in = JointAmplitudeGrid(f1.t0, f2.t0, f1.dt, np.outer(f1.values, f2.values))
    n = len(p1)
    err, cells, n_tiles = 0.0, 0, 0
    tiles = _transform_tiles(prod_in, j, T, p1.t0, p2.t0, _separable_tiles(n, rng), eps)
    for rows, cols, tile in tiles:
        # tile.T is C-contiguous (the t2 pass is outermost): compare in that layout
        block = np.multiply.outer(p2.values[cols], p1.values[rows])
        block -= tile.T
        err = float(np.maximum(err, np.max(np.abs(block))))  # keeps a NaN
        cells += block.size
        n_tiles += 1
    scope = "every cell" if cells == n * n else "sampled tiles"
    check(
        "separable_factorization",
        err < 1e-10,
        f"outer-product deviation = {err:.3g} "
        f"({scope}: {cells} of {n * n} cells, {n_tiles} tiles)",
    )

    # -- negative control -------------------------------------------------------
    # wrong junction sign; below eps the kernel has no offset 0, so 0.5 goes there
    bad_c = np.concatenate([np.zeros(kba.k0), kba.c])  # offsets 0 .. (kba.k0 is 0 or 1)
    bad_c[0] = -bad_c[0] if kba.k0 == 0 else 0.5
    bad = DeltaTrain(T, 0, bad_c, kba.eps, kba.tail_bound)
    zero_err, spurious = _unit_deviation(correlate(bad, bad))
    detects = zero_err > 1e-6 or (j.rho > 0.0 and spurious > 1e-6)
    check(
        "negative_control",
        detects,
        f"sign-flipped kernel breaks unitarity by {spurious:.3g} (detected)",
    )
