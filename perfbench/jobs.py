"""Workload definitions for the ringecho benchmark: jobs, inputs and references.

A job has two parts: ``run`` is the timed call into the program, and
``check`` compares what ``run`` returned with the job's reference and
returns a failure reason or None.
Library functions are looked up on their module at call time
(``ringecho.echo_kernels.correlate``, never a name bound at import), so the
traced run sees every call through the wrappers it installs.

Tolerances come from two sources only: a kernel's certified ``tail_bound``
plus the rounding error of the sums it enters, or the 1e-13 equality that
ROADMAP item 2 asks refactors to keep.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ringecho
import ringecho.cli

EPS_MACH = float(np.finfo(float).eps)
EQUALITY = 1e-13
NEGATIVE_CONTROL = "negative_control"

# Jobs that fail on the seed because of defects listed in ROADMAP item 4.
# They stay in the job lists and count in failed_frac; a job here that
# starts to pass is a fix, and a failure of any job not here is a regression.
KNOWN_DEFECTS = {
    "validate_1e-06": "checker cancels O(1/rho^2) terms and ignores the kernel tail bound",
    "validate_0.001": "checker cancels O(1/rho^2) terms and ignores the kernel tail bound",
    "validate_0.99": "separable_factorization allocates an 18929^2 complex window",
    "fsr_integral_0.999": "fixed 4096-point quadrature aliases at high Q",
    "fsr_integral_0.9999": "fixed 4096-point quadrature aliases at high Q",
}

PAPER_COMMANDS = {
    "figure_fig2": ["figure", "fig2"],
    "figure_fig3": ["figure", "fig3"],
    "figure_fig4": ["figure", "fig4"],
    "figure_fig5": ["figure", "fig5"],
    "figure_fig6": ["figure", "fig6"],
    "sweep_peak_ratio": ["sweep", "peak_ratio", "--start", "0.5", "--stop", "0.99", "--count", "25"],
    "sweep_cw_residual": ["sweep", "cw_residual", "--start", "10", "--stop", "40", "--rho", "0.75"],
    "sweep_absorbed_fraction": ["sweep", "absorbed_fraction", "--start", "0", "--stop", "2", "--rho", "0"],
}
VALIDATE_RHOS = ("0", "1e-06", "0.001", "0.5", "0.75", "0.9", "0.97", "0.99")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    out_dir: Path | None = None  # where a CLI job writes its files


# -- file summaries -------------------------------------------------------------


def summarize(values: np.ndarray) -> dict:
    """Compact summary of a numeric array: shape, sums and the peak location."""
    a = np.asarray(values, dtype=float)
    flat = a.ravel()
    absval = np.abs(flat)
    i = int(np.argmax(absval)) if flat.size else 0
    return {
        "shape": list(a.shape),
        "sum": float(np.sum(flat)),
        "sumsq": float(np.sum(flat * flat)),
        "sumabs": float(np.sum(absval)),
        "maxabs": float(absval[i]) if flat.size else 0.0,
        "argmax": i,
    }


def summary_mismatch(new: np.ndarray, ref: dict) -> str | None:
    """Compare an array with a stored summary, allowing every element to move
    by the 1e-13 equality (relative to the array's largest magnitude, with an
    absolute floor of 1e-13). The sum bounds follow from that per-element bound."""
    got = summarize(new)
    if got["shape"] != ref["shape"]:
        return f"shape {got['shape']} != {ref['shape']}"
    n = max(1, int(np.prod(ref["shape"])))
    delta = EQUALITY * max(1.0, ref["maxabs"])
    bounds = {
        "sum": n * delta,
        "sumabs": n * delta,
        "sumsq": n * delta * (2.0 * ref["maxabs"] + delta),
        "maxabs": delta,
    }
    for key, tol in bounds.items():
        err = abs(got[key] - ref[key])
        if not err <= tol:
            return f"{key} {got[key]!r} differs from {ref[key]!r} by {err:.3g} > {tol:.3g}"
    flat = np.asarray(new, dtype=float).ravel()
    peak = abs(flat[ref["argmax"]])
    if not abs(peak - ref["maxabs"]) <= delta:
        return f"peak at index {ref['argmax']} moved: {peak!r} vs {ref['maxabs']!r}"
    return None


def _read_csv(path: Path) -> tuple[str | None, np.ndarray]:
    text = path.read_text()
    first, _, rest = text.partition("\n")
    header = None
    if any(ch.isalpha() and ch not in "eE" for ch in first):
        header, text = first, rest
    lines = text.count("\n")
    values = np.fromstring(text.replace("\n", ","), sep=",")
    cols = values.size // lines if lines else 0
    return header, values.reshape(lines, cols)


def _json_numbers(obj) -> list[float]:
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _json_numbers(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _json_numbers(v)]
    return []


def file_arrays(path: Path) -> tuple[str | None, dict[str, np.ndarray]]:
    """The header and the numeric arrays a data file is compared by: a
    table (a CSV with a header row) column by column, anything else whole.

    A ``*_phase.csv`` is read together with its ``*_magnitude.csv`` as the
    field ``magnitude * exp(i phase)``: a phase of +pi and -pi, or the phase
    of a value that rounds to zero, is the same field.
    """
    if path.suffix == ".json":
        return None, {"numbers": np.array(_json_numbers(json.loads(path.read_text())))}
    if path.name.endswith("_phase.csv"):
        _, phase = _read_csv(path)
        _, mag = _read_csv(path.with_name(path.name.replace("_phase", "_magnitude")))
        field = mag * np.exp(1j * phase)
        return None, {"field.re": field.real, "field.im": field.imag}
    header, values = _read_csv(path)
    if header is None:
        return None, {"values": values}
    return header, {f"column.{name}": values[:, i] for i, name in enumerate(header.split(","))}


def summarize_dir(out_dir: Path) -> dict:
    """Summaries of every data file a CLI command wrote, by file name."""
    out: dict = {}
    for path in sorted(out_dir.iterdir()):
        header, arrays = file_arrays(path)
        out[path.name] = {"header": header, **{k: summarize(a) for k, a in arrays.items()}}
    return out


def dir_mismatch(out_dir: Path, ref: dict) -> str | None:
    names = sorted(p.name for p in out_dir.iterdir())
    if names != sorted(ref):
        return f"files {names} != {sorted(ref)}"
    for name in names:
        header, arrays = file_arrays(out_dir / name)
        want = ref[name]
        if header != want["header"]:
            return f"{name}: header {header!r} != {want['header']!r}"
        for key, arr in arrays.items():
            bad = summary_mismatch(arr, want[key])
            if bad:
                return f"{name} {key}: {bad}"
    return None


# -- CLI jobs -------------------------------------------------------------------


def _cli_job(name: str, argv: list[str], out_dir: Path, check_dir) -> Job:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return ringecho.cli.main(argv + ["--out", str(out_dir)])

    def check(rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        return check_dir(out_dir)

    return Job(name, run, check, out_dir)


def figure_jobs(work: Path, reference: dict) -> list[Job]:
    jobs = [
        _cli_job(name, argv, work / name,
                 lambda d, ref=reference["outputs"][name]: dir_mismatch(d, ref))
        for name, argv in PAPER_COMMANDS.items()
    ]
    # negative control: fig2 judged against its sign-flipped reference
    flipped = reference["negative_control"]
    jobs.append(_cli_job(NEGATIVE_CONTROL, PAPER_COMMANDS["figure_fig2"],
                         work / NEGATIVE_CONTROL, lambda d: dir_mismatch(d, flipped)))
    return jobs


def validate_jobs(work: Path, reference: dict) -> list[Job]:
    names = reference["validate_checks"]

    def check_report(out_dir: Path) -> str | None:
        """Every stored check is reported, and every reported check passed;
        a change may add checks but not drop one."""
        report = json.loads((out_dir / "validation_report.json").read_text())
        got = {c["name"] for c in report["checks"]}
        missing = [n for n in names if n not in got]
        if missing:
            return f"checks missing from the report: {missing}"
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"failed checks {failed}" if failed else None

    jobs = [
        _cli_job(f"validate_{r}", ["validate", "--rho", r], work / f"validate_{r}", check_report)
        for r in VALIDATE_RHOS
    ]
    jobs.append(kernel_negative_control())
    return jobs


# -- library jobs ---------------------------------------------------------------


def _lattice_rounding(*trains) -> float:
    """Rounding bound for a lattice sum: terms times eps times the product of
    the trains' total absolute weights."""
    terms = max(len(t.offsets) for t in trains)
    return terms * EPS_MACH * math.prod(t.sum_abs() + t.tail_bound for t in trains)


def _train_check(want: dict[int, float]):
    """Check that a computed lattice train has the weights ``want`` (lag ->
    weight) within its tail bound plus rounding."""
    def check(train) -> str | None:
        lags = set(train.offsets) | set(want)
        err = max(abs(train.weight(k) - want.get(k, 0.0)) for k in lags)
        tol = train.tail_bound + _lattice_rounding(train)
        return None if err <= tol else f"differs from reference by {err:.3g} > tol {tol:.3g}"
    return check


def kernel_negative_control(rho: float = 0.75) -> Job:
    """Output commutator judged against the sign-flipped kernel's commutator,
    mirroring the negative control in ``ringecho.validation``: it must fail.
    The wrong reference is summed here, lag by lag, from the weights
    ``-rho``, ``tau^2 rho^(n-1)`` with the first sign flipped."""
    j = ringecho.JunctionCoupling(rho)
    n = math.ceil(math.log(1e-12 / j.tau**2) / math.log(rho)) + 1
    bad = [rho] + [j.tau**2 * rho ** (m - 1) for m in range(1, n)]
    wrong = {k: math.fsum(bad[m] * bad[m + abs(k)] for m in range(n - abs(k)))
             for k in range(-(n - 1), n)}

    def run():
        k = ringecho.echo_kernels.kernel_ba(j, 1.0)
        return ringecho.echo_kernels.correlate(k, k)

    return Job(NEGATIVE_CONTROL, run, _train_check(wrong))


def highq_jobs(rng: np.random.Generator) -> list[Job]:
    T = 1.0
    rhos = (0.99, math.sqrt(0.998), 0.999)
    J = {r: ringecho.JunctionCoupling(r) for r in rhos}
    j99, j998, j999 = (J[r] for r in rhos)
    jobs: list[Job] = []

    def add(name, run, check):
        jobs.append(Job(name, run, check))

    # kernel construction: squared weights sum to 1 minus a dropped part of at
    # most eps * tail_bound; kernel_ab mirrors kernel_ba exactly
    def run_kernels():
        ek = ringecho.echo_kernels
        return [(ek.kernel_ca(J[r], T), ek.kernel_ba(J[r], T), ek.kernel_ab(J[r], T)) for r in rhos]

    def check_kernels(out) -> str | None:
        for r, trains in zip(rhos, out):
            for label, k in zip(("ca", "ba", "ab"), trains):
                err = abs(k.sum_sq() - 1.0)
                tol = k.eps * k.tail_bound + len(k.offsets) * EPS_MACH
                if not err <= tol:
                    return f"kernel_{label}({r:.6g}): |sum c^2 - 1| = {err:.3g} > {tol:.3g}"
            ba, ab = trains[1], trains[2]
            if ab.offsets != tuple(sorted(-k for k in ba.offsets)) or any(
                    ab.weight(-k) != ba.weight(k) for k in ba.offsets):
                return f"kernel_ab({r:.6g}) is not the mirror of kernel_ba"
        return None

    add("kernels", run_kernels, check_kernels)

    def run_correlate():
        k = ringecho.echo_kernels.kernel_ba(j99, T)
        return ringecho.echo_kernels.correlate(k, k)

    def run_convolve():
        ek = ringecho.echo_kernels
        return ek.convolve(ek.kernel_ab(j99, T), ek.kernel_ba(j99, T))

    unit = {0: 1.0}
    add("correlate_unit_0.99", run_correlate, _train_check(unit))
    add("convolve_unit_0.99", run_convolve, _train_check(unit))

    # apply_train: kernel_ab after kernel_ba restores the input (0.99);
    # kernel_ba alone preserves energy (0.999)
    sig_rt = ringecho.SampledSignal(0.0, T / 4, rng.normal(size=4096) + 1j * rng.normal(size=4096))

    def run_round_trip():
        ek = ringecho.echo_kernels
        kba, kab = ek.kernel_ba(j99, T), ek.kernel_ab(j99, T)
        return kba, kab, ek.apply_train(kab, ek.apply_train(kba, sig_rt))

    def check_round_trip(out) -> str | None:
        kba, kab, back = out
        i0 = round((sig_rt.t0 - back.t0) / sig_rt.dt)
        err = float(np.max(np.abs(back.values[i0 : i0 + len(sig_rt)] - sig_rt.values)))
        s_ba, s_ab = kba.sum_abs(), kab.sum_abs()
        tail = kab.tail_bound * (s_ba + kba.tail_bound) + kba.tail_bound * s_ab
        tol = (tail + 2 * _lattice_rounding(kba, kab)) * float(np.max(np.abs(sig_rt.values)))
        return None if err <= tol else f"reconstruction error {err:.3g} > tol {tol:.3g}"

    add("apply_round_trip_0.99", run_round_trip, check_round_trip)

    sig_pv = ringecho.SampledSignal(0.0, T / 2, rng.normal(size=2048) + 1j * rng.normal(size=2048))

    def run_parseval():
        k = ringecho.echo_kernels.kernel_ba(j999, T)
        return k, ringecho.echo_kernels.apply_train(k, sig_pv)

    def check_parseval(out) -> str | None:
        k, y = out
        rel = abs(y.energy() - sig_pv.energy()) / sig_pv.energy()
        tol = (1.0 + k.tail_bound) ** 2 - 1.0 + _lattice_rounding(k)
        return None if rel <= tol else f"relative energy change {rel:.3g} > tol {tol:.3g}"

    add("apply_parseval_0.999", run_parseval, check_parseval)

    # the oracle's impulse response samples kernel_ba on the lattice
    M, trips = 8, 8000
    imp_vals = np.zeros(M * trips, dtype=np.complex128)
    imp_vals[0] = 1.0
    impulse = ringecho.SampledSignal(0.0, T / M, imp_vals)
    geom = ringecho.RingGeometry(T, 1.0)

    def run_oracle():
        out, _ = ringecho.fdtd_oracle.run(impulse, j998, geom, M)
        return out, ringecho.echo_kernels.kernel_ba(j998, T)

    def check_oracle(result) -> str | None:
        out, kba = result
        lattice = out.values[::M]
        want = np.array([kba.weight(n) for n in range(trips)])
        err = float(np.max(np.abs(lattice - want)))
        off = np.delete(out.values.reshape(trips, M), 0, axis=1)
        err = max(err, float(np.max(np.abs(off))))
        return None if err <= EQUALITY else f"lattice error {err:.3g} > {EQUALITY:g}"

    add("oracle_impulse_sqrt0.998", run_oracle, check_oracle)

    # windowed direct transform against the pulsed-Gaussian closed form
    u = rng.uniform(0.4, 0.6)
    gspec = ringecho.TwoPhotonGaussian(0.8 * T * u, 0.8 * T * (1.0 - u))
    dt8 = T / 8
    phi = ringecho.gaussian_amplitude(gspec, dt=dt8)
    n_out = phi.values.shape[0] + 6 * 8

    def run_window():
        tp = ringecho.two_photon
        direct = tp.transform_output_on_window(phi, j99, T, phi.t1_start, n_out)
        closed = tp.gaussian_output_closed_form(gspec, j99, T, phi.t1_start, n_out, dt8)
        return direct, closed

    def check_window(out) -> str | None:
        direct, closed = out
        k = ringecho.echo_kernels.kernel_ba(j99, T)
        err = float(np.max(np.abs(direct.values - closed.values)))
        # each side drops at most tail (S + tail) per unit input, |phi| <= 1
        tol = 2.0 * (((k.sum_abs() + k.tail_bound) ** 2 - k.sum_abs() ** 2)
                     + _lattice_rounding(k, k))
        return None if err <= tol else f"direct vs closed form {err:.3g} > tol {tol:.3g}"

    add("window_vs_closed_form_0.99", run_window, check_window)

    j90 = ringecho.JunctionCoupling(0.9)

    def run_full():
        return ringecho.two_photon.transform_output(phi, j90, T)

    def check_full(out) -> str | None:
        k = ringecho.echo_kernels.kernel_ba(j90, T)
        rel = abs(out.norm_sq() - phi.norm_sq()) / phi.norm_sq()
        tol = (1.0 + k.tail_bound) ** 4 - 1.0 + 2 * _lattice_rounding(k)
        if not rel <= tol:
            return f"relative norm change {rel:.3g} > tol {tol:.3g}"
        sym = out.exchange_symmetry_error()
        tol = EQUALITY * float(np.max(np.abs(out.values)))
        return None if sym <= tol else f"exchange symmetry error {sym:.3g} > {tol:.3g}"

    add("transform_full_0.9", run_full, check_full)

    # bulk spectral evaluation on 2^20 random frequencies
    omega = rng.uniform(-40.0, 40.0, 2**20) * (2.0 * math.pi / T)
    gamma = 0.2 / T

    def run_bulk():
        cr, lc = ringecho.core_response, ringecho.lossy_cavity
        return (cr.g_ca(omega, j999, T), cr.g_ba(omega, j999, T), cr.g_ab(omega, j999, T),
                lc.noise_power(omega, j999, T, gamma),
                lc.sum_rule_residual(omega, j999, T, gamma))

    def check_bulk(out) -> str | None:
        gca, gba, gab, noise, resid = out
        rho, tau = j999.rho, j999.tau
        # the resonant denominator 1 - rho z amplifies rounding by up to (1+rho)/(1-rho)
        cond = (1.0 + rho) / (1.0 - rho)
        errs = {
            "| |g_ba| - 1 |": (float(np.max(np.abs(np.abs(gba) - 1.0))), EQUALITY),
            "|g_ab g_ba - 1|": (float(np.max(np.abs(gab * gba - 1.0))), EQUALITY),
            "|rho g_ba + 1 - tau g_ca|": (
                float(np.max(np.abs(rho * gba + 1.0 - tau * gca))), 8 * EPS_MACH * cond),
            "sum-rule residual": (float(np.max(np.abs(resid))), EQUALITY),
            "noise power outside [0, 1]": (float(max(0.0, -np.min(noise), np.max(noise) - 1.0)), 0.0),
        }
        for label, (err, tol) in errs.items():
            if not err <= tol:
                return f"{label} = {err:.3g} > {tol:.3g}"
        return None

    add("bulk_spectral_2^20", run_bulk, check_bulk)

    for r in (0.97, 0.99, 0.999, 0.9999):
        jr = ringecho.JunctionCoupling(r)

        def run_fsr(jr=jr):
            return ringecho.core_response.fsr_integral(jr, T)

        def check_fsr(value, r=r) -> str | None:
            err = abs(value - 1.0)
            return None if err <= EQUALITY else f"|integral - 1| = {err:.3g} > {EQUALITY:g}"

        add(f"fsr_integral_{r:g}", run_fsr, check_fsr)

    # quasimode reduction deep in the high-Q regime: below one percent
    dtq = T / 2
    center = rng.uniform(-10.0, 10.0) * T
    tq = np.arange(-240.0 * T, (240.0 + 6.0 / math.log(1 / 0.999)) * T, dtq)
    pulse = ringecho.SampledSignal(tq[0], dtq, np.exp(-((tq - center) ** 2) / (2.0 * (60.0 * T) ** 2)))

    def run_quasimode():
        return ringecho.highq.quasimode_field_error(pulse, j999, T)

    def check_quasimode(err) -> str | None:
        return None if err < 0.01 else f"relative L2 error {err:.3g} >= 0.01"

    add("quasimode_error_0.999", run_quasimode, check_quasimode)
    jobs.append(kernel_negative_control())
    return jobs


# -- workload assembly ----------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs from ``seed`` and return its jobs in a
    seed-dependent order."""
    rng = np.random.default_rng(seed)
    if workload == "paper_figures":
        jobs = figure_jobs(work, load_reference())
    elif workload == "validate_rho":
        jobs = validate_jobs(work, load_reference())
    elif workload == "highq_layers":
        jobs = highq_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warm_up(workload: str, work: Path) -> None:
    """One cheap call through the workload's entry point before timing."""
    if workload == "highq_layers":
        k = ringecho.echo_kernels.kernel_ba(ringecho.JunctionCoupling(0.5), 1.0)
        ringecho.echo_kernels.correlate(k, k)
        return
    argv = ["figure", "fig2"] if workload == "paper_figures" else ["validate", "--rho", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        ringecho.cli.main(argv + ["--out", str(work / "warm_up")])
    shutil.rmtree(work / "warm_up", ignore_errors=True)
