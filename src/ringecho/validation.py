"""Cross-module invariant suite behind the ``validate`` CLI command.

Each check is quick, deterministic (fixed RNG seeds), and returns a record
that serializes cleanly. The suite also contains one negative control: a
deliberately faulted output kernel must fail the one unit-train test
(``_unit_train``) that ``kernel_inverse`` and ``output_commutator`` apply,
which guards against the suite itself going soft. The fault flips the sign
of the prompt reflection where that moves the train by more than
``_FAULT_FLOOR`` (2 rho tau^2 at lags +-1), and puts 0.5 at offset 0
elsewhere, so that its signal stays above the floor at every rho.

The suite is a table. Each check is one private function ``_<name>(suite)``
that returns ``(passed, detail)``; ``_CHECKS`` lists them in the order they
run, and ``CHECK_NAMES`` is read off the function names. ``run_suite`` loops
over the table: it builds each ``CheckResult``, reports the checks whose
formulas divide by rho or take ln(1/rho) as skipped at rho = 0, and names
the check (or the setup) in ``CheckOutOfMemory``. A check's arrays are freed
when its function returns, so no check's memory adds to a later one's peak.

What the checks share is built once per run, in a ``_Suite``: the coupling,
T, eps, the kernels ``kernel_ca``, ``kernel_ba`` and ``kernel_ab``, and
every random draw of the seeded generator, made up front in a fixed order.
``separable_factorization`` draws its interior tiles from the same generator
after them. A new draw therefore goes after the existing ones; drawn
anywhere earlier, it would shift every later draw and so every later detail.
Checks that use the same derived array, such as the 128-sample signal of
the apply checks, each build it from the suite.

Identities between lattice weights are checked on the weights, since an
apply to a signal would add only rounding and work: ``kernel_spectrum_match``,
``factor_form_equivalence``, ``ladder_resummation``, ``reindexing_identity``.
``kernel_spectrum_match`` sums its DFT in blocks of weights
(``_MIN_DFT_BLOCK``), so besides one table it holds one block.
Signals are read by the checks of the apply layer and what is built on it:
``apply_round_trip``, ``apply_parseval``, ``dispersion_cancellation``,
``closed_form_match``, ``separable_factorization`` and the three checks
that drive the oracle.

The lossy cavity's reference is the oracle with loss: ``noise_quadrature_match``
compares an impulse's output and its undelivered echoes in closed form
(``_undelivered``) with ``g_ba``, ``noise_power`` and ``absorbed_fraction``.

Memory stays bounded as rho -> 1. ``apply_round_trip`` reads only its
window: it applies the output kernel to its 128-sample signal, then
evaluates the inverse kernel's output at those 128 sample times alone
(``apply_train`` asked for that window, one banded product), not over
the whole round trip of about 6 million samples at rho = 0.9999.
``separable_factorization`` compares the 2-D transform of a product input
with ``p2 (x) p1`` on a window whose side grows as 1/(1 - rho), 6569 samples
at rho = 0.97, one reused tile of ``_COMPARE_CELLS`` cells at a time on the
tiles ``_separable_tiles`` picks, and never stores the window.

Signals and grids are stored as float64 for real values and complex128
otherwise. The impulses, Gaussian pulses and two-photon grids of the suite
are real, and the kernels' weights are real, so their sums run on one float
column per sample instead of two; only ``apply_round_trip``'s random signal
and the oracle's drive tone are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import (
    DeltaTrain,
    JointAmplitudeGrid,
    JunctionCoupling,
    RingGeometry,
    SampledSignal,
    TwoPhotonGaussian,
    absorbed_fraction,
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
    output_commutator_decomposition,
    peak_ratio,
    quasimode_commutator,
    run,
    spacetime_commutator_support,
    sum_rule_residual,
    transform_output_on_window,
)
from .commutators import _unit_deviation
from .echo_kernels import _ladder
from .two_photon import _transform_tiles


# separable_factorization: cells per square tile; windows of up to
# _EVERY_CELL_BUDGET cells (rho <= 0.97) are compared in full, larger ones on
# a fixed tile set of at most about _SAMPLED_CELLS cells
_COMPARE_CELLS = 1 << 16
_EVERY_CELL_BUDGET = 1 << 26
_SAMPLED_CELLS = 1 << 24
_INTERIOR_TILES = 8
# kernel_spectrum_match's DFT takes blocks of max(_MIN_DFT_BLOCK, isqrt(n))
# of the kernel's n weights: one exp(i w j T) table of 101 x block and one
# phase per block and frequency, about 2 x 101 sqrt(n) exponentials in all
# (437 weights a block at rho = 0.9999 and eps 1e-12, a 0.7 MB table); the
# floor keeps a short kernel to a few blocks, each a few numpy calls
_MIN_DFT_BLOCK = 64


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


def _impulse(T: float, stride: int, n_trips: int) -> SampledSignal:
    vals = np.zeros(stride * n_trips)
    vals[0] = 1.0
    return SampledSignal(0.0, T / stride, vals)


def _undelivered(w, j: JunctionCoupling, T: float, n: int, Gamma: float = 0.0):
    """The output kernel's echoes from round trip n on at frequency w, with
    ``L = exp(-Gamma T)``: ``sum_{k>=n} tau^2 L (rho L)^(k-1) exp(i w k T) =
    tau L (rho L)^(n-1) exp(i w n T) g_ca(w, Gamma)``; without loss, L = 1.0
    and the value is ``tau rho^(n-1) exp(i w n T) g_ca(w)`` bit for bit."""
    L = math.exp(-Gamma * T)
    return j.tau * L * (j.rho * L) ** (n - 1) * np.exp(1j * w * (n * T)) * g_ca(w, j, T, Gamma)


# round trips of oracle_transfer_match's drive, at every rho
_DRIVE_TRIPS = 60
# round trips of noise_quadrature_match's lossy impulse, at Gamma T = 0.2
_LOSSY_TRIPS = 20


def oracle_transfer_deviation(j: JunctionCoupling, T: float = 1.0, M: int = 16) -> float:
    """Drive the FDTD oracle with a tone at 0.37 FSR for N = ``_DRIVE_TRIPS``
    round trips, and compare its last output sample over the last input
    sample with the exact response to that finite drive.

    That sample holds the output kernel's first N weights, so the ratio is
    ``g_ba(w)`` less the echoes the drive has not reached yet
    (``_undelivered``). The reference reads only ``g_ba`` and ``g_ca``,
    never the kernels, and holds to rounding at every rho. Returns the
    deviation.
    """
    w_drive = 0.37 * (2.0 * math.pi / T)
    n = _DRIVE_TRIPS
    tgrid = np.arange(n * M) * (T / M)
    drive = SampledSignal(0.0, T / M, np.exp(-1j * w_drive * tgrid))
    out, _ = run(drive, j, RingGeometry(T, 1.0), M)
    ratio = out.values[-1] / drive.values[-1]
    return float(abs(ratio - (g_ba(w_drive, j, T) - _undelivered(w_drive, j, T, n))))


class _Suite:
    """What the checks of one run share, built once: the coupling, T, eps,
    the three kernels and every random draw, in the order drawn.

    Every frequency draw, grid, width and time threshold of the suite is in
    units of T (or 1/T), so the suite checks the same thing at every
    round-trip time.
    """

    def __init__(self, rho: float, T: float, eps: float) -> None:
        self.j, self.T, self.eps = JunctionCoupling(rho), T, eps
        self.kca = kernel_ca(self.j, T, eps)
        self.kba = kernel_ba(self.j, T, eps)
        self.kab = kernel_ab(self.j, T, eps)
        # separable_factorization draws its interior tiles from rng after all
        # the draws below: a new draw goes after them, or every later detail moves
        self.rng = np.random.default_rng(20240901)
        # skip the 1000 steps where the suite once drew couplings it never
        # read: every later draw, and so every detail, stays where it was
        self.rng.bit_generator.advance(1000)
        # unimodularity; inverse_identity and periodicity read the first 200
        self.omegas = self.rng.uniform(-80.0, 80.0, 1000) / T
        # the complex signal of apply_round_trip and apply_parseval
        self.noise = self.rng.normal(size=128) + 1j * self.rng.normal(size=128)
        # reindexing_identity: integer values keep every float sum exact
        self.f = self.rng.integers(-9, 10, size=51).astype(float)
        self.g = self.rng.integers(-9, 10, size=51).astype(float)
        # lossy_sum_rule; noise_quadrature_match reads the first 50
        self.ws = self.rng.uniform(-40.0, 40.0, 200) / T


# -- spectral identities ------------------------------------------------------
def _unimodularity(suite: _Suite) -> tuple[bool, str]:
    worst = float(np.max(np.abs(np.abs(g_ba(suite.omegas, suite.j, suite.T)) - 1.0)))
    return worst < 1e-12, f"max | |g_ba| - 1 | = {worst:.3g}"


def _inverse_identity(suite: _Suite) -> tuple[bool, str]:
    w200, j, T = suite.omegas[:200], suite.j, suite.T
    worst = float(np.max(np.abs(g_ab(w200, j, T) * g_ba(w200, j, T) - 1.0)))
    return worst < 1e-14, f"max |g_ab*g_ba - 1| = {worst:.3g}"


def _periodicity(suite: _Suite) -> tuple[bool, str]:
    w200, j, T = suite.omegas[:200], suite.j, suite.T
    fsr = 2.0 * math.pi / T
    worst = float(np.max(np.abs(g_ca(w200 + fsr, j, T) - g_ca(w200, j, T))))
    return worst < 1e-10, f"max |g_ca(w+FSR) - g_ca(w)| = {worst:.3g}"


def _fsr_state_count(suite: _Suite) -> tuple[bool, str]:
    rhos = (0.0, 0.5, suite.j.rho, 0.98)
    vals = [abs(fsr_integral(JunctionCoupling(r), suite.T) - 1.0) for r in rhos]
    return max(vals) < 1e-6, f"max |integral - 1| = {max(vals):.3g}"


# -- kernel algebra -------------------------------------------------------------
def _kernel_unitarity(suite: _Suite) -> tuple[bool, str]:
    u1 = abs(suite.kca.sum_sq() - 1.0)
    u2 = abs(suite.kba.sum_sq() - 1.0)
    return max(u1, u2) < 1e-10, f"|sum c^2 - 1| = {max(u1, u2):.3g}"


# the unit-train test's tolerance, on c_0 - 1 and on every other weight
_UNIT_TOL = 1e-10
# the negative control's sign flip moves lags +-1 by 2 rho tau^2; below this
# floor, ten times _UNIT_TOL, it puts 0.5 at offset 0 instead. A literal, so
# that a looser _UNIT_TOL leaves the fault as it is and the control fails
_FAULT_FLOOR = 1e-9


def _unit_train(train: DeltaTrain) -> tuple[bool, float, float]:
    """The one unit-train test of ``kernel_inverse``, ``output_commutator``
    and ``negative_control``: whether ``|c_0 - 1|`` and the largest other
    ``|c_k|`` both lie within ``_UNIT_TOL``, then those two readings."""
    zero_err, spurious = _unit_deviation(train)
    return zero_err < _UNIT_TOL and spurious < _UNIT_TOL, zero_err, spurious


def _kernel_inverse(suite: _Suite) -> tuple[bool, str]:
    ok, zero_err, spurious = _unit_train(convolve(suite.kab, suite.kba))
    return ok, f"c0 err {zero_err:.3g}, max off {spurious:.3g}"


def _signal(suite: _Suite) -> SampledSignal:
    """The random signal of the apply checks: 8 round trips at stride 16."""
    return SampledSignal(0.0, suite.T / 16, suite.noise)


def _apply_round_trip(suite: _Suite) -> tuple[bool, str]:
    # the inverse kernel's output, only at the signal's own sample times
    sig = _signal(suite)
    back = apply_train(suite.kab, apply_train(suite.kba, sig), sig.t0, len(sig))
    err = float(np.max(np.abs(back.values - sig.values)))
    return err < 1e-9, f"max reconstruction error = {err:.3g}"


def _apply_parseval(suite: _Suite) -> tuple[bool, str]:
    sig = _signal(suite)
    parseval = abs(apply_train(suite.kba, sig).energy() - sig.energy()) / sig.energy()
    return parseval < 1e-10, f"relative energy change = {parseval:.3g}"


def _kernel_spectrum_match(suite: _Suite) -> tuple[bool, str]:
    # two independent evaluations: the output kernel's weights summed against
    # complex exponentials, and g_ba's closed form in tan(omega T / 2)
    kba, T = suite.kba, suite.T
    fsr = 2.0 * math.pi / T
    ws = np.linspace(-2.5 * fsr, 2.5 * fsr, 101)
    # exp(i w k T) as one phase exp(i w (k0 + b) T) per block of weights,
    # times a table exp(i w j T) for the offsets j in a block; blocks of
    # about sqrt(n) weights make as many phases as table entries
    n = len(kba.c)
    block = max(_MIN_DFT_BLOCK, math.isqrt(n))
    table = np.multiply.outer(1j * ws, np.arange(min(block, n)) * T)
    np.exp(table, out=table)
    dft = np.zeros(len(ws), dtype=complex)
    # sum |c_k| and sum |c_k| |k T| for the tolerance below, block by block
    mass = moment = 0.0
    for b in range(0, n, block):
        blk = kba.c[b : b + block]
        dft += np.exp(1j * ws * ((kba.k0 + b) * T)) * (table[:, : len(blk)] @ blk)
        mags = np.abs(blk)
        mass += float(mags.sum())
        moment += float(mags @ np.abs((kba.k0 + b + np.arange(len(blk))) * T))
    # the truncated kernel's spectrum is g_ba less the echoes it dropped
    j, N = suite.j, kba.k0 + n
    err = float(np.max(np.abs(dft - (g_ba(ws, j, T) - _undelivered(ws, j, T, N)))))
    # the DFT's rounding to first order (Higham ch. 3): each phase fl(w t)
    # within eps |w t|, each of the two exponentials and their product within
    # eps, the n-term sum within sqrt(2) gamma_n sum|c| < n eps sum|c|; g_ba's
    # 4 eps; and the dropped echoes' phase and 8 eps of their sum, at most
    # the kernel's tail bound
    eps, wmax = np.finfo(float).eps, float(np.max(np.abs(ws)))
    tail = kba.tail_bound * (wmax * N * T + 8.0)
    tol = eps * ((n + 3) * mass + wmax * moment + 4.0 + tail)
    return err <= tol, f"max DFT deviation = {err:.3g} (tol {tol:.3g})"


# -- commutators ------------------------------------------------------------------
def _cavity_commutator(suite: _Suite) -> tuple[bool, str]:
    kca = suite.kca
    train = correlate(kca, kca)
    err = max(abs(train.weight(k) - suite.j.rho ** abs(k)) for k in range(-10, 11))
    # certified truncation tail plus the rounding bound of the branch the
    # lattice sum took
    tol = train.tail_bound + train.rounding
    return err <= tol, f"max |c_k - rho^|k|| = {err:.3g} (tol {tol:.3g})"


def _causality(suite: _Suite) -> tuple[bool, str]:
    return suite.kca.k0 >= 0, "no support at negative lags"


def _equal_time_single_support(suite: _Suite) -> tuple[bool, str]:
    T = suite.T  # positions are in time units, so the loop is T long
    zp = 0.333 * T
    zs = np.append(np.linspace(0.0, T, 97, endpoint=False), zp)
    hits = 0
    for z in zs:
        pts = spacetime_commutator_support(suite.j, z, zp, T, 8)
        hits += sum(1 for (_, _, t_hit) in pts if abs(t_hit) < 1e-12 * T)
    return hits == 1, f"crossings at t=t' = {hits}"


def _output_commutator(suite: _Suite) -> tuple[bool, str]:
    # the output kernel's autocorrelation is the unit train, and it agrees
    # term by term with the path through the junction relation
    train = correlate(suite.kba, suite.kba)
    unit, zero_err, spurious = _unit_train(train)
    other = output_commutator_decomposition(suite.j, suite.T, suite.eps)
    paths = train.max_abs_diff(other)
    # each path is within its tail bound and its lattice sum's rounding of
    # the exact train
    tol = train.tail_bound + other.tail_bound + train.rounding + other.rounding
    return unit and paths <= tol, (
        f"c0 err {zero_err:.3g}, spurious {spurious:.3g}, "
        f"paths differ by {paths:.3g} (tol {tol:.3g})"
    )


def _reindexing_identity(suite: _Suite) -> tuple[bool, str]:
    # correlate's weights against the diagonal sums sum_n f_n g_(n+k) of the
    # outer product; integer weights keep both sides exact
    f, g = suite.f, suite.g
    train = correlate(DeltaTrain(suite.T, 0, f), DeltaTrain(suite.T, 0, g))
    outer = np.multiply.outer(f, g)
    diagonals = [np.trace(outer, k) for k in range(train.k0, train.k0 + len(train.c))]
    err = float(np.max(np.abs(train.c - diagonals)))
    return err == 0.0, f"max |correlate - diagonal sums| = {err:.3g} (exact)"


# -- quasimode --------------------------------------------------------------------
def _envelope_interpolation(suite: _Suite) -> tuple[bool, str]:
    env = quasimode_commutator(np.arange(21) * suite.T, kappa(suite.j, suite.T, "exact"))
    err = max(abs(float(env[k]) - suite.j.rho**k) for k in range(21))
    return err < 1e-13, f"max |e^-k kT - rho^k| = {err:.3g}"


def _peak_ratio_bounded(suite: _Suite) -> tuple[bool, str]:
    pr = peak_ratio(suite.j)
    return 0.0 < pr <= 1.0, f"(1-rho)/ln(1/rho) = {pr:.6f}"


# -- lossy cavity -----------------------------------------------------------------
def _lossy_sum_rule(suite: _Suite) -> tuple[bool, str]:
    ws, j, T = suite.ws, suite.j, suite.T
    worst = 0.0
    for gt in (0.0, 0.2, 2.0):
        worst = max(worst, float(np.max(np.abs(sum_rule_residual(ws, j, T, gt / T)))))
    return worst < 1e-12, f"max residual = {worst:.3g}"


def _noise_quadrature_match(suite: _Suite) -> tuple[bool, str]:
    # the lossy oracle's impulse at one cell per round trip gives the lossy
    # output kernel's weights b_k, k < n; with the undelivered echoes, its
    # spectrum is g_ba, 1 - |.|^2 the noise power, 1 - energy the absorbed fraction
    ws, j, T = suite.ws[:50], suite.j, suite.T
    gamma, n, eps = 0.2 / T, _LOSSY_TRIPS, np.finfo(float).eps
    b = run(_impulse(T, 1, n), j, RingGeometry(T, 1.0), 1, gamma)[0].values
    k, mags = np.arange(n), np.abs(b)
    spectrum = np.exp(1j * np.multiply.outer(ws, k * T)) @ b + _undelivered(ws, j, T, n, gamma)
    noise, absorbed = noise_power(ws, j, T, gamma), absorbed_fraction(j, T, gamma)
    # the undelivered echoes tau^2 L r^(m-1), m >= n, r = rho L, all in phase
    # at w = 0: their 1-norm, their moment sum m |b_m| and their energy
    r, rest = j.rho * math.exp(-gamma * T), abs(_undelivered(0.0, j, T, n, gamma))
    mass, moment = float(mags.sum()) + rest, float(mags @ k) + rest * (n + r / (1.0 - r))
    energy = float(mags @ mags) + rest * rest * (1.0 - r) / (1.0 + r)
    errs = (
        float(np.max(np.abs(spectrum - g_ba(ws, j, T, gamma)))),
        float(np.max(np.abs(1.0 - np.abs(spectrum) ** 2 - noise))),
        abs(1.0 - energy - absorbed),
    )
    # first-order rounding, one eps per rounding (Higham, ch. 3): b_k within
    # (3k + 1) eps |b_k| (a trip rounds at rho, at the loss factor and in it);
    # each phase within eps |w k T|, and the fl(w T) and tan of g_ba and g_ca
    # move each side by eps (|w T| + 1) sum k |b_k|; each exponential and
    # product within 3 eps, the sum n eps, the echoes (n + 20) eps, g_ba 16 eps.
    # |.|^2 doubles that and rounds within 3 eps, noise_power within 15 eps;
    # |b_k|^2 within 2 (3k + 1) eps, the energies (2n + 30) eps,
    # absorbed_fraction 8 eps and the subtractions 2 eps
    tol = eps * ((n + 20) * mass + (4.0 + 3.0 * float(np.max(np.abs(ws))) * T) * moment + 16.0)
    tol_noise = 2.0 * tol + eps * (3.0 + 15.0 * float(np.max(noise)))
    tol_energy = eps * ((2 * n + 30) * energy + 6.0 * float(mags**2 @ k) + 2.0 + 8.0 * absorbed)
    tols = (tol, tol_noise, tol_energy)
    detail = ", ".join(
        f"{what} {err:.3g} (tol {tol:.3g})"
        for what, err, tol in zip(("spectrum", "noise power", "absorbed"), errs, tols)
    )
    ok = all(err <= tol for err, tol in zip(errs, tols))
    return ok, f"{detail}; oracle impulse, {n} round trips at Gamma T = 0.2"


# -- oracle -----------------------------------------------------------------------
def _oracle_impulse_match(suite: _Suite) -> tuple[bool, str]:
    kba, M = suite.kba, 16
    out, _ = run(_impulse(suite.T, M, 6), suite.j, RingGeometry(suite.T, 1.0), M)
    errs = [abs(out.values[n * M].real - kba.weight(n)) for n in range(6)]
    # offsets outside the kernel's span were cut off: allow its tail bound there
    ok = all(
        err < 1e-14 + (0.0 if kba.k0 <= n < kba.k0 + len(kba.c) else kba.tail_bound)
        for n, err in enumerate(errs)
    )
    return ok, (
        f"lattice weight error = {max(errs):.3g} "
        f"(tol 1e-14, plus tail bound {kba.tail_bound:.3g} on dropped offsets)"
    )


def _oracle_transfer_match(suite: _Suite) -> tuple[bool, str]:
    err = oracle_transfer_deviation(suite.j, suite.T, 16)
    return err < 1e-9, f"finite-drive deviation = {err:.3g} (tol 1e-09, {_DRIVE_TRIPS} round trips)"


# -- two-photon -------------------------------------------------------------------
def _dispersion_cancellation(suite: _Suite) -> tuple[bool, str]:
    rho, T = suite.j.rho, suite.T
    dgrid = np.arange(-40 * T, (40 + 1e-9) * T, T / 8)
    d = SampledSignal(dgrid[0], T / 8, np.exp(-(dgrid**2) / (2 * (0.4 * T) ** 2)))
    if rho > 0.0:
        kmax = max(10, int(math.ceil(math.log(1e-10) / math.log(rho))))
        residual, _ = cw_output(d, suite.j, T, kmax)
        return residual < 1e-9, f"residual = {residual:.3g}"
    residual, _ = cw_output(d, suite.j, T, 10)
    return residual < 1e-12, f"residual = {residual:.3g}"


def _ladder_resummation(suite: _Suite) -> tuple[bool, str]:
    # the pair ladder sum_{n,m=1}^{nmax} rho^(n+m) at lag k = m - n, the
    # autocorrelation of [rho, ..., rho^nmax], against its resummation
    # pref rho^|k|, pref = rho^2 / (1 - rho^2), at lags |k| <= kwin
    rho, T = suite.j.rho, suite.T
    kwin = 24
    # certified truncation deficit of the pair ladder at order nmax is
    # pref rho^(2 nmax - kwin); take the smallest nmax that puts 3x it within
    # 1e-10, sized from log pref, which holds where pref underflows
    pref = rho**2 / (1.0 - rho**2)
    log_pref = 2.0 * math.log(rho) - math.log1p(-(rho**2))
    nmax = max(1, math.ceil((kwin + (math.log(1e-10 / 3.0) - log_pref) / math.log(rho)) / 2))
    bound = pref * rho ** (2 * nmax - kwin)
    tol = max(1e-10, 3.0 * bound)
    ladder = DeltaTrain(T, 1, rho ** np.arange(1, nmax + 1))
    pairs = correlate(ladder, ladder)
    # the resummed weights at lags 0 .. kwin, down to 1e-18: running products,
    # so the first kwin do not depend on how many follow; the floor
    # pref rho^(kwin + 2) stops them a product or two past lag kwin; where
    # pref rho underflows to 0, so do all of them
    tail = np.zeros(0)
    if pref * rho > 0.0:
        tail, _ = _ladder(pref * rho, rho, max(1e-18, pref * rho ** (kwin + 2)))
    resummed = DeltaTrain(T, 0, np.concatenate([[pref], tail[:kwin]]))
    err = max(abs(pairs.weight(k) - resummed.weight(abs(k))) for k in range(-kwin, kwin + 1))
    # rounding per lag, to first order in eps (Higham, ch. 3-4 and section
    # 24.1), with S = sum_{n=1}^{nmax} rho^n: correlate's pair-ladder weights
    # within (2 nmax + 6) eps pref rho^|k| + eps log2(2 nmax - 1) S^2, the
    # resummed weights, running products after pref, within a relative
    # (pref + |k| + 4) eps; the largest over the lags compared
    k = np.arange(kwin + 1)
    s_total = rho * (1.0 - rho**nmax) / (1.0 - rho)
    rounding = float(np.max(np.finfo(float).eps * (
        pref * rho**k * ((2 * nmax + 6) + (pref + k + 4))
        + math.log2(2 * nmax - 1) * s_total**2
    )))
    return err < tol + rounding, (
        f"max deviation = {err:.3g} (tol {tol:.3g}, nmax {nmax}) plus rounding {rounding:.3g}"
    )


def _closed_form_match(suite: _Suite) -> tuple[bool, str]:
    j, T, eps = suite.j, suite.T, suite.eps
    gspec = TwoPhotonGaussian(0.4 * T, 0.4 * T)
    phi = gaussian_amplitude(gspec, dt=T / 8)
    n_out = phi.values.shape[0] + 6 * 8
    direct = transform_output_on_window(phi, j, T, phi.t1_start, n_out, eps)
    closed = gaussian_output_closed_form(gspec, j, T, phi.t1_start, n_out, T / 8, eps)
    err = float(np.max(np.abs(direct.values - closed.values)))
    return err < 1e-8, f"max pointwise deviation = {err:.3g}"


def _pulses(suite: _Suite) -> tuple[SampledSignal, SampledSignal, SampledSignal, SampledSignal]:
    """The two Gaussian pulses of the separable check, then each after the
    output kernel: ``(f1, f2, p1, p2)``."""
    T = suite.T
    t = np.arange(-3.0 * T, (3.0 + 1e-9) * T, T / 8)
    f1 = SampledSignal(t[0], T / 8, np.exp(-(t**2) / (2 * (0.35 * T) ** 2)))
    f2 = SampledSignal(t[0], T / 8, np.exp(-((t - 0.25 * T) ** 2) / (2 * (0.5 * T) ** 2)))
    return f1, f2, apply_train(suite.kba, f1), apply_train(suite.kba, f2)


def _factor_form_equivalence(suite: _Suite) -> tuple[bool, str]:
    # the algebraically equivalent -rho delta(t) + (tau^2/rho) sum rho^n
    # delta(t - nT), on the kernel's span; it divides by rho
    rho, tau, kba = suite.j.rho, suite.j.tau, suite.kba
    ks = np.arange(kba.k0, kba.k0 + len(kba.c))
    reflective = np.where(ks == 0, -rho, (tau * tau / rho) * rho**ks)
    err = float(np.max(np.abs(kba.c - reflective)))
    return err < 1e-12, f"kernel vs reflective form: {err:.3g}"


def _separable_factorization(suite: _Suite) -> tuple[bool, str]:
    f1, f2, p1, p2 = _pulses(suite)
    prod_in = JointAmplitudeGrid(f1.t0, f2.t0, f1.dt, np.outer(f1.values, f2.values))
    n = len(p1)
    err, cells, n_tiles = 0.0, 0, 0
    plan = _separable_tiles(n, suite.rng)
    buf = np.empty(_COMPARE_CELLS)  # every tile's deviation, in turn
    # each tile's reference p2[cols] (x) p1[rows] as one matrix product with a
    # zero second column and row: every cell p2 p1 + 0 0, the once-rounded
    # product (up to the sign of an exact zero, which the max below ignores)
    side = math.isqrt(_COMPARE_CELLS)
    lhs, rhs = np.zeros((side, 2)), np.zeros((2, side))
    for rows, cols, tile in _transform_tiles(prod_in, suite.kba, p1.t0, p2.t0, plan):
        # tile.T is C-contiguous (the t2 pass is outermost): compare in that layout
        n2, n1 = tile.T.shape
        block = buf[: tile.size].reshape(n2, n1)
        lhs[:n2, 0], rhs[0, :n1] = p2.values[cols], p1.values[rows]
        np.matmul(lhs[:n2], rhs[:, :n1], out=block)
        np.subtract(block, tile.T, out=block)
        # max |d| as max(max d, 0 - min d), keeping a NaN; 0 - min, not -min,
        # so that an exact tile reads 0 and not -0
        err = np.maximum(err, np.maximum(block.max(), 0.0 - block.min()))
        cells += block.size
        n_tiles += 1
    scope = "every cell" if cells == n * n else "sampled tiles"
    return err < 1e-10, (
        f"outer-product deviation = {err:.3g} "
        f"({scope}: {cells} of {n * n} cells, {n_tiles} tiles)"
    )


# -- negative control -------------------------------------------------------------
def _negative_control(suite: _Suite) -> tuple[bool, str]:
    kba, j = suite.kba, suite.j
    # wrong junction sign where its signal clears the floor, else 0.5 at
    # offset 0 (at rho = 0 the kernel has no offset 0); the control passes
    # exactly when the unit-train test rejects the faulted train
    bad_c = np.concatenate([np.zeros(kba.k0), kba.c])  # offsets 0 .. (kba.k0 is 0 or 1)
    bad_c[0] = -bad_c[0] if 2.0 * j.rho * j.tau * j.tau > _FAULT_FLOOR else 0.5
    bad = DeltaTrain(suite.T, 0, bad_c, kba.eps, kba.tail_bound)
    unit, _, spurious = _unit_train(correlate(bad, bad))
    detects = not unit
    verdict = "detected" if detects else "not detected"
    return detects, f"sign-flipped kernel breaks unitarity by {spurious:.3g} ({verdict})"


# every check of the suite, in the order it runs at every rho
_CHECKS = (
    _unimodularity, _inverse_identity, _periodicity, _fsr_state_count,
    _kernel_unitarity, _kernel_inverse, _apply_round_trip, _apply_parseval,
    _kernel_spectrum_match, _cavity_commutator, _causality,
    _equal_time_single_support, _output_commutator, _reindexing_identity,
    _envelope_interpolation, _peak_ratio_bounded, _lossy_sum_rule,
    _noise_quadrature_match, _oracle_impulse_match, _oracle_transfer_match,
    _dispersion_cancellation, _ladder_resummation, _closed_form_match,
    _factor_form_equivalence, _separable_factorization, _negative_control,
)
CHECK_NAMES = tuple(check.__name__[1:] for check in _CHECKS)

# checks that take ln(1/rho) or divide by rho: at rho = 0 the report marks
# them skipped, their detail "skipped: rho = 0" and then this note
_UNDEFINED_AT_RHO_0 = {
    _envelope_interpolation: "",
    _peak_ratio_bounded: "",
    _ladder_resummation: "",
    _factor_form_equivalence: " (reflective factor form undefined, kernel form used)",
}


class CheckOutOfMemory(MemoryError):
    """A check of the suite asked for more memory than it could get."""


def run_suite(rho: float = 0.75, T: float = 1.0, eps: float = 1e-12) -> list[CheckResult]:
    """Run the full invariant suite at one coupling value: one result per
    entry of ``_CHECKS``, in its order.

    Raises
    ------
    CheckOutOfMemory
        If the setup or a check fails to allocate; the message names which
        and repeats the allocation error, which states the size requested.
    """
    results = []
    step = "suite setup"
    try:
        suite = _Suite(rho, T, eps)
        for check in _CHECKS:
            name = check.__name__[1:]
            if suite.j.rho == 0.0 and check in _UNDEFINED_AT_RHO_0:
                detail = "skipped: rho = 0" + _UNDEFINED_AT_RHO_0[check]
                results.append(CheckResult(name, True, detail, skipped=True))
                continue
            step = f"check {name}"
            passed, detail = check(suite)
            results.append(CheckResult(name, bool(passed), detail))
    except MemoryError as exc:
        raise CheckOutOfMemory(f"{step} at rho = {rho!r}: {exc}") from exc
    return results
