"""Command-line front end: figure datasets, validation suite, parameter sweeps.

Emits data files only (CSV by default, JSON on request); plotting is left to
whatever the user prefers. Outputs are deterministic: identical configuration
gives byte-identical files, floats are written at 17 significant digits, and
no timestamps ever enter a data file, nor does a NaN or an infinity.

Every command runs in round trips: its windows and widths scale with
``--T`` and every Gaussian is taken in units of its width, so one code path
serves every ``--T`` from about 1e-305 to 1e305.

Exit codes: 0 success, 1 validation failure, 2 bad arguments, a request
larger than the memory available, arithmetic outside the floating-point
range (at the ends of ``--T`` itself: a subnormal T, or one where
``2 pi / T`` or a window's last time overflows; every command stops at its
first overflow or NaN and the message names ``--T``), or a data file that
would hold a non-finite value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .commutators import commutator_figure
from .core_response import JunctionCoupling, g_ca
from .highq import FIG4_TRIPS, fig4_dataset
from .lossy_cavity import absorbed_fraction
from .two_photon import (
    TwoPhotonGaussian,
    gaussian_output_closed_form,
    peak_locate,
    separability_rank,
    symmetric_axis,
)
from .validation import run_suite

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
# the RunConfig fields each command reads; it refuses any other flag or config key
READS = {
    "figure fig2": ("rho", "tau", "T", "out", "format"),
    "figure fig3": ("rho", "tau", "T", "out", "format"),
    "figure fig4": ("rho", "tau", "T", "out", "format"),
    "figure fig5": ("rho", "tau", "T", "eps", "dt", "out", "format"),
    "figure fig6": ("rho", "tau", "T", "eps", "dt", "out", "format"),
    "validate": ("rho", "tau", "T", "eps", "out"),
    "sweep peak_ratio": ("out", "format"),
    "sweep cw_residual": ("rho", "tau", "T", "out", "format"),
    "sweep absorbed_fraction": ("rho", "tau", "T", "out", "format"),
}
FIGURE_EPS = 1e-10  # kernel truncation floor of the figure datasets
VALIDATE_EPS = 1e-12  # the loosest floor the suite's tolerances are derived for
SWEEP_METRICS = ("peak_ratio", "cw_residual", "absorbed_fraction")


class BadArguments(ValueError):
    pass


@dataclass
class RunConfig:
    rho: float | None = None
    tau: float | None = None
    T: float = 1.0
    eps: float | None = None  # None: the command's own floor
    dt: float | None = None
    out: str = "."
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.rho is not None and self.tau is not None:
            raise BadArguments("give exactly one of --rho or --tau, not both")
        if self.eps is not None and not 0.0 < self.eps <= 1e-3:
            raise BadArguments(f"eps must lie in (0, 1e-3], got {self.eps}")
        if not 0.0 < self.T < math.inf:
            raise BadArguments(f"T must be finite and positive, got {self.T}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise BadArguments(f"dt must be finite and positive, got {self.dt}")
        if self.format not in ("csv", "json"):
            raise BadArguments(f"format must be csv or json, got {self.format}")

    def junction(self, default_rho: float) -> JunctionCoupling:
        if self.tau is not None:
            return JunctionCoupling.from_tau(self.tau)
        return JunctionCoupling(self.rho if self.rho is not None else default_rho)

    @property
    def coupling_given(self) -> bool:
        return self.rho is not None or self.tau is not None

    @property
    def coupling(self) -> str:
        """The coupling as given, for messages."""
        if self.rho is not None:
            return f"--rho {self.rho!r}"
        if self.tau is not None:
            return f"--tau {self.tau!r}"
        return "the command's default coupling"


def _normal_T(T: float) -> float:
    """``T``, refused where it is subnormal: times built from it would keep
    fewer than 53 bits (``figure fig5 --T 1e-320`` would write magnitudes
    0.015 off). Raised as a float-range error, the exit-2 message of the
    other ends of ``--T``."""
    if T < sys.float_info.min:
        raise FloatingPointError(f"T below {sys.float_info.min:g} keeps fewer than 53 bits")
    return T


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _non_finite(path: Path) -> BadArguments:
    return BadArguments(f"{path} would hold non-finite values; not written")


def _write_rows(path: Path, matrix: np.ndarray, header: list[str] | None = None) -> Path:
    """The one CSV writer: an optional header, then one line per matrix row."""
    if not np.isfinite(matrix).all():
        raise _non_finite(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in matrix:
            writer.writerow([_fmt(float(v)) for v in row])
    return path


def _write_json(path: Path, doc: dict, indent: int | None = None) -> Path:
    """The one JSON writer; it refuses NaN and infinities before opening."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise _non_finite(path) from None
    path.write_text(text)
    return path


def write_table(path: Path, header: list[str], columns: list[np.ndarray], fmt: str) -> Path:
    table = np.column_stack(columns)
    if fmt == "csv":
        return _write_rows(path.with_suffix(".csv"), table, header)
    return _write_json(path.with_suffix(".json"), {"columns": header, "data": table.tolist()})


def write_matrix(
    path: Path, matrix: np.ndarray, meta: dict, fmt: str
) -> list[Path]:
    if fmt == "csv":
        return [
            _write_rows(path.with_suffix(".csv"), matrix),
            _write_json(path.with_name(path.name + "_axes").with_suffix(".json"), meta),
        ]
    return [_write_json(path.with_suffix(".json"), {**meta, "values": matrix.tolist()})]


def cmd_figure(name: str, cfg: RunConfig) -> int:
    if name not in FIGURES:
        raise BadArguments(f"unknown figure {name!r}; choose from {FIGURES}")
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise BadArguments(f"output directory not writable: {exc}") from exc
    T = _normal_T(cfg.T)
    written: list[Path] = []

    if name == "fig2":
        j = cfg.junction(0.75)
        fsr = 2.0 * math.pi / T
        omega = -1.5 * fsr + (3.0 * fsr / 1200) * np.arange(1201)
        dos = np.abs(g_ca(omega, j, T)) ** 2
        dos_flat = np.abs(g_ca(omega, JunctionCoupling(0.0), T)) ** 2
        written.append(
            write_table(
                out_dir / "fig2",
                ["omega", "dos", "dos_flat"],
                [omega, dos, dos_flat],
                cfg.format,
            )
        )
        peak = float(np.max(dos))
        print(f"fig2: rho={j.rho:g} T={T:g}  max |g_ca|^2 = {peak:.6f} "
              f"(closed form {(1 + j.rho) / (1 - j.rho):.6f})")

    elif name == "fig3":
        j = cfg.junction(math.sqrt(0.998))
        for label, zp in (("a", 0.0), ("b", 0.333), ("c", 0.666)):
            z_vals, t_vals, matrix = commutator_figure(j, zp * T, T)
            meta = {
                "zprime": zp * T,
                "broadening": T / 100.0,  # the stripe width commutator_figure draws
                "z_values": [float(z) for z in z_vals],
                "t_values": [float(t) for t in t_vals],
            }
            written.extend(write_matrix(out_dir / f"fig3{label}", matrix, meta, cfg.format))
            row0 = np.argmin(np.abs(t_vals))
            z_at_peak = float(z_vals[int(np.argmax(matrix[row0]))])
            print(
                f"fig3{label}: zprime={zp:g}  t=0 crossing at z = {z_at_peak:.4f} "
                f"(expected {zp * T:g})"
            )

    elif name == "fig4":
        couplings = (
            [cfg.junction(0.97)]
            if cfg.coupling_given
            else [JunctionCoupling(0.97), JunctionCoupling(0.70)]
        )
        for j in couplings:
            dt_sep, rendered, envelope = fig4_dataset(j, T)
            label = f"fig4_rho{j.rho!r}".replace(".", "p")
            written.append(
                write_table(
                    out_dir / label,
                    ["dt", "exact_rendered", "approx_envelope"],
                    [dt_sep, rendered, envelope],
                    cfg.format,
                )
            )
            # the samples at dt = T, 2T, ..., FIG4_TRIPS T
            lattice = np.arange(1, FIG4_TRIPS + 1) * ((len(dt_sep) - 1) // FIG4_TRIPS)
            dev = float(np.max(np.abs(envelope[lattice] - rendered[lattice])))
            flag = "significant deviation" if dev > 0.02 else "envelope tracks train"
            print(f"fig4 rho={j.rho!r}: max lattice deviation = {dev:.4f} ({flag})")

    elif name in ("fig5", "fig6"):
        g = (
            TwoPhotonGaussian(0.3 * T, 0.3 * T)
            if name == "fig5"
            else TwoPhotonGaussian(0.2 * T, 0.7 * T)
        )
        # (tau label, coupling) per panel, each coupling built once from the
        # value given, so a --tau panel is labelled with that value
        if cfg.coupling_given:
            j = cfg.junction(0.97)
            panels = [(cfg.tau if cfg.tau is not None else j.tau, j)]
        else:
            panels = [(tau, JunctionCoupling.from_tau(tau)) for tau in (0.999, 0.95, 0.85, 0.60)]
        dt = cfg.dt if cfg.dt is not None else T / 16.0
        t_start, n_in = symmetric_axis(g, dt)
        n = n_in + int(round(4 * T / dt))
        for tau, j in panels:
            eps = cfg.eps if cfg.eps is not None else FIGURE_EPS
            grid = gaussian_output_closed_form(g, j, T, t_start, n, dt, eps)
            label = f"{name}_tau{tau:g}".replace(".", "p")
            meta = {"tau": tau, "sigma": g.sigma, "beta": g.beta}
            axes = {"t1_start": grid.t1_start, "t2_start": grid.t2_start, "dt": grid.dt}
            mag, phase = np.abs(grid.values), np.angle(grid.values)
            if cfg.format == "csv":
                written.append(_write_rows(out_dir / f"{label}_magnitude.csv", mag))
                written.append(_write_rows(out_dir / f"{label}_phase.csv", phase))
                doc = {**axes, "shape": list(mag.shape), **meta}
                p = out_dir / f"{label}_axes.json"
            else:
                doc = {**axes, **meta, "magnitude": mag.tolist(), "phase": phase.tolist()}
                p = (out_dir / label).with_suffix(".json")
            written.append(_write_json(p, doc))
            pk = peak_locate(grid)
            sv = separability_rank(grid)
            ratio = float(sv[1]) if len(sv) > 1 else 0.0
            print(
                f"{name} tau={tau:g}: peak at (t1, t2) = ({pk[0]:.4f}, {pk[1]:.4f}), "
                f"s2/s1 = {ratio:.3g}"
            )

    print(f"{name}: wrote {len(written)} file(s) to {out_dir}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    j = cfg.junction(0.75)
    eps = cfg.eps if cfg.eps is not None else VALIDATE_EPS
    if eps > VALIDATE_EPS:
        raise BadArguments(
            f"validate needs eps <= {VALIDATE_EPS:g}: its tolerances are derived "
            f"for kernels cut off at that floor or below, got {eps:g}"
        )
    results = run_suite(rho=j.rho, T=_normal_T(cfg.T), eps=eps)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "config": {"rho": j.rho, "T": cfg.T, "eps": eps},
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    report_path = _write_json(out_dir / "validation_report.json", report, indent=2)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.skipped:
            status = "SKIP"
        print(f"{status:4s} {r.name}: {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"validate: {len(results) - n_fail}/{len(results)} checks passed "
          f"at eps {eps:g}; report at {report_path}")
    return 0 if n_fail == 0 else 1


def cmd_sweep(
    metric: str, start: float, stop: float, count: int, cfg: RunConfig
) -> int:
    if metric not in SWEEP_METRICS:
        raise BadArguments(f"unknown metric {metric!r}; choose from {SWEEP_METRICS}")
    if count < 2:
        raise BadArguments(f"count must be >= 2, got {count}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if metric == "peak_ratio":
        from .highq import peak_ratio

        rhos = np.linspace(start, stop, count)
        if np.any(rhos <= 0.0) or np.any(rhos >= 1.0):
            raise BadArguments("peak_ratio sweep needs rho in (0, 1)")
        vals = np.array([peak_ratio(JunctionCoupling(r)) for r in rhos])
        path = write_table(out_dir / "sweep_peak_ratio", ["rho", "peak_ratio"],
                           [rhos, vals], cfg.format)

    elif metric == "cw_residual":
        from .echo_kernels import DeltaTrain, SampledSignal, _gaussian, kernel_ba
        from .two_photon import cw_output

        j, T = cfg.junction(0.75), _normal_T(cfg.T)
        if j.rho <= 0.0:
            raise BadArguments("cw_residual sweep needs rho > 0")
        kmaxes = np.unique(np.round(np.linspace(start, stop, count)).astype(int))
        if kmaxes.min() < 1:
            raise BadArguments("cw_residual sweep needs kmax >= 1")
        dt = T / 8.0
        half = (int(kmaxes.max()) + 6) * int(round(T / dt))
        x = dt * np.arange(-half, half + 1)
        d = SampledSignal(x[0], dt, _gaussian(x, 0.4 * T))
        # one kernel_ba down to tau^2 rho^max(kmax), or the smallest normal
        # float where that underflows; each kmax keeps -rho and kmax echoes
        top = int(kmaxes.max())
        kb = kernel_ba(j, T, max(j.tau * j.tau * j.rho**top, sys.float_info.min))
        vals = np.array([cw_output(d, DeltaTrain(T, 0, kb.c[:k + 1]))[0] for k in kmaxes])
        path = write_table(out_dir / "sweep_cw_residual", ["kmax", "residual"],
                           [kmaxes.astype(float), vals], cfg.format)

    else:  # absorbed_fraction
        j = cfg.junction(0.0)
        gts = np.linspace(start, stop, count)
        if np.any(gts < 0.0):
            raise BadArguments("absorbed_fraction sweep needs Gamma*T >= 0")
        # the fraction depends on Gamma T alone: taken at T = 1, where Gamma
        # is Gamma T exactly, it is the same at every --T
        vals = np.array([absorbed_fraction(j, 1.0, gt) for gt in gts])
        path = write_table(out_dir / "sweep_absorbed_fraction",
                           ["GammaT", "absorbed_fraction"], [gts, vals], cfg.format)

    print(f"sweep {metric}: wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged and fills a new namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="ringecho",
        description="Ring-cavity response datasets, validation, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rho", type=float, help="junction reflection in [0, 1)")
        p.add_argument("--tau", type=float, help="junction transmission in (0, 1]")
        p.add_argument("--T", type=float, default=None, help="round-trip time")
        p.add_argument("--eps", type=float, default=None, help="kernel truncation floor")
        p.add_argument("--dt", type=float, default=None, help="grid spacing")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON config file")

    p_fig = sub.add_parser("figure", help="write a figure dataset with baked-in defaults")
    p_fig.add_argument("name", choices=FIGURES)
    add_common(p_fig)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    add_common(p_val)

    p_sw = sub.add_parser("sweep", help="tabulate a metric over a parameter range")
    p_sw.add_argument("metric", choices=SWEEP_METRICS)
    p_sw.add_argument("--start", type=float, required=True)
    p_sw.add_argument("--stop", type=float, required=True)
    p_sw.add_argument("--count", type=int, default=20)
    add_common(p_sw)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config file values, overridden by flags; ``RunConfig`` fills the rest.

    A flag or config key that the command does not read (``READS``) is
    refused rather than ignored.
    """
    keys = [f.name for f in fields(RunConfig)]
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        unknown = set(base) - set(keys)
        if unknown:
            raise BadArguments(f"unknown config keys: {sorted(unknown)}")
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    command = " ".join(
        getattr(args, a) for a in ("command", "name", "metric") if hasattr(args, a)
    )
    ignored = [key for key in keys if key in base and key not in READS[command]]
    if ignored:
        raise BadArguments(
            f"{command} does not use {', '.join(ignored)}; "
            f"it reads only {', '.join(READS[command])}"
        )
    return RunConfig(**base)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        # every command scales with T: at its ends, stop at the first
        # overflow or NaN rather than warn and go on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "figure":
                return cmd_figure(args.name, cfg)
            if args.command == "validate":
                return cmd_validate(cfg)
            return cmd_sweep(args.metric, args.start, args.stop, args.count, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: outside the floating-point range at --T {cfg.T:g} and "
              f"{cfg.coupling}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
