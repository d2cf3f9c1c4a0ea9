import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ringecho
from ringecho.cli import main
from ringecho.validation import CHECK_NAMES, CheckOutOfMemory, run_suite


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    return header, data


class TestFigureCommand:
    def test_fig2_defaults(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fig2.csv")
        assert header == ["omega", "dos", "dos_flat"]
        assert np.max(data[:, 1]) == pytest.approx(7.0, rel=1e-9)
        assert np.allclose(data[:, 2], 1.0)
        assert "max |g_ca|^2 = 7.0" in capsys.readouterr().out

    def test_fig2_deterministic(self, tmp_path):
        main(["figure", "fig2", "--out", str(tmp_path / "a")])
        main(["figure", "fig2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/fig2.csv").read_bytes() == (
            tmp_path / "b/fig2.csv"
        ).read_bytes()

    def test_fig2_json_format(self, tmp_path):
        main(["figure", "fig2", "--format", "json", "--out", str(tmp_path)])
        obj = json.loads((tmp_path / "fig2.json").read_text())
        assert obj["columns"] == ["omega", "dos", "dos_flat"]

    def test_fig3_panels(self, tmp_path, capsys):
        assert main(["figure", "fig3", "--out", str(tmp_path)]) == 0
        for label in ("a", "b", "c"):
            assert (tmp_path / f"fig3{label}.csv").exists()
            meta = json.loads((tmp_path / f"fig3{label}_axes.json").read_text())
            assert "z_values" in meta and "t_values" in meta
            assert meta["broadening"] == 0.01  # the stripe width, T/100
        out = capsys.readouterr().out
        assert "fig3b" in out

    def test_fig4_flags_regimes(self, tmp_path, capsys):
        assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "significant deviation" in out  # rho = 0.70 panel
        assert "envelope tracks train" in out  # rho = 0.97 panel
        header, data = read_csv(tmp_path / "fig4_rho0p97.csv")
        assert header == ["dt", "exact_rendered", "approx_envelope"]
        assert data[0, 2] == 1.0

    def test_fig5_peak_reports(self, tmp_path, capsys):
        main(["figure", "fig5", "--tau", "0.999", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "peak at (t1, t2) = (1.0000, 1.0000)" in out
        main(["figure", "fig5", "--tau", "0.60", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "peak at (t1, t2) = (0.0000, 0.0000)" in out
        for suffix in ("magnitude.csv", "phase.csv", "axes.json"):
            assert (tmp_path / f"fig5_tau0p999_{suffix}").exists()

    def test_fig6_nonseparable(self, tmp_path, capsys):
        main(["figure", "fig6", "--tau", "0.85", "--out", str(tmp_path)])
        ratio = float(capsys.readouterr().out.split("s2/s1 = ")[1].split()[0])
        assert ratio > 0.05

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_tau_flag_reproduces_default_panels(self, tmp_path, name):
        # each --tau panel is the default run's panel for that tau, byte for byte,
        # its axes file labelled with the value given
        assert main(["figure", name, "--out", str(tmp_path / "default")]) == 0
        for tau in ("0.999", "0.95", "0.85", "0.60"):
            out = tmp_path / tau
            assert main(["figure", name, "--tau", tau, "--out", str(out)]) == 0
            paths = sorted(out.iterdir())
            assert len(paths) == 3
            for path in paths:
                assert path.read_bytes() == (tmp_path / "default" / path.name).read_bytes()

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_rho_flag_reaches_closed_form_unchanged(self, tmp_path, monkeypatch, name):
        import ringecho.cli as cli

        seen = []
        closed_form = cli.gaussian_output_closed_form

        def spy(g, j, *args):
            seen.append(j.rho)
            return closed_form(g, j, *args)

        monkeypatch.setattr(cli, "gaussian_output_closed_form", spy)
        rhos = [0.5, 0.3, 0.97, 0.01]  # 0.5 once became 0.5000000000000001
        for rho in rhos:
            assert main(["figure", name, "--rho", str(rho), "--out", str(tmp_path)]) == 0
        assert seen == rhos

    def test_tau_rho_cannot_carry_exits_2(self, tmp_path, capsys):
        assert main(["figure", "fig5", "--tau", "1e-8", "--out", str(tmp_path)]) == 2
        assert "tau = 1e-08 does not survive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig4_labels_tell_close_couplings_apart(self, tmp_path):
        for rho in ("0.9999991", "0.9999992"):
            assert main(["figure", "fig4", "--rho", rho, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig4_rho0p9999991.csv", "fig4_rho0p9999992.csv"
        ]

    def test_unknown_figure_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_conflicting_coupling_exits_2(self, tmp_path):
        code = main(
            ["figure", "fig2", "--rho", "0.5", "--tau", "0.9", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        assert main(["figure", "fig5", "--eps", "0.5", "--out", str(tmp_path)]) == 2
        assert "eps must lie in (0, 1e-3]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig2"],
            ["figure", "fig3"],
            ["figure", "fig4"],
            ["validate"],
            ["sweep", "peak_ratio", "--start", "0.5", "--stop", "0.9"],
            ["sweep", "cw_residual", "--start", "10", "--stop", "20"],
            ["sweep", "absorbed_fraction", "--start", "0", "--stop", "2"],
        ],
        ids=lambda argv: "_".join(argv[:2]),
    )
    def test_dt_refused_where_ignored(self, tmp_path, capsys, argv):
        assert main(argv + ["--dt", "0.125", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        command = " ".join(argv[:2]) if argv[0] != "validate" else argv[0]
        assert f"error: {command} does not use dt; it reads only " in err
        assert not any(tmp_path.iterdir())

    def test_dt_from_config_refused_where_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0.125}))
        assert main(["figure", "fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "figure fig2 does not use dt" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["argv", "config"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (argv, flag)
            for argv, ignored in [
                (["figure", "fig2"], ["eps", "dt"]),
                (["figure", "fig3"], ["eps", "dt"]),
                (["figure", "fig4"], ["eps", "dt"]),
                (["validate"], ["dt", "format"]),
                (["sweep", "peak_ratio", "--start", "0.5", "--stop", "0.9"],
                 ["rho", "tau", "T", "eps", "dt"]),
                (["sweep", "cw_residual", "--start", "10", "--stop", "20"], ["eps", "dt"]),
                (["sweep", "absorbed_fraction", "--start", "0", "--stop", "2"], ["eps", "dt"]),
            ]
            for flag in ignored
        ],
        ids=lambda v: "_".join(v[:2]) if isinstance(v, list) else v,
    )
    def test_ignored_flag_refused(self, tmp_path, capsys, argv, flag, source):
        value = {"rho": 0.5, "tau": 0.9, "T": 1.0, "eps": 1e-12, "dt": 0.125,
                 "format": "json"}[flag]
        out = tmp_path / "out"
        if source == "argv":
            extra = [f"--{flag}", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: value}))
            extra = ["--config", str(cfg)]
        assert main(argv + extra + ["--out", str(out)]) == 2
        command = " ".join(argv[:2]) if argv[0] != "validate" else argv[0]
        assert f"error: {command} does not use {flag}; it reads only " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0", "-0.0625", "nan", "inf"])
    def test_bad_dt_exits_2(self, tmp_path, capsys, dt):
        assert main(["figure", "fig5", "--dt", dt, "--out", str(tmp_path)]) == 2
        assert "dt must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["0", "-1", "nan", "inf"])
    def test_bad_round_trip_exits_2(self, tmp_path, capsys, T):
        assert main(["figure", "fig2", "--T", T, "--out", str(tmp_path)]) == 2
        assert "T must be finite and positive" in capsys.readouterr().err


def assert_all_finite(out_dir):
    """Every number in every file under ``out_dir`` is finite."""
    def refuse(token):
        raise AssertionError(f"non-finite {token} written")

    for path in out_dir.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=refuse)
            continue
        for line in text.splitlines():
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:  # a header
                    continue
                assert math.isfinite(value), f"{path.name}: {field}"


class TestRoundTripRange:
    """Figures at either end of --T: the right files, or exit 2 naming --T,
    with no numpy warning first and no file of NaN."""

    @pytest.mark.parametrize("T", ["1e-300", "1e-200", "1e-3", "2", "11", "1e160", "1e300"])
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_finite_files_or_exit_2(self, tmp_path, capsys, name, T):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["figure", name, "--T", T, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 2)
        if rc == 2:
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert errors and f"--T {float(T):g}" in errors[0]
        assert_all_finite(tmp_path)

    @pytest.mark.parametrize("T", ["1e-310", "1e308"])
    @pytest.mark.parametrize(
        "command",
        [
            ["validate"],
            ["sweep", "cw_residual", "--start", "1", "--stop", "3", "--count", "2"],
        ],
    )
    def test_validate_and_sweeps_exit_2_naming_T(self, tmp_path, capsys, command, T):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(command + ["--T", T, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert rc == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and f"--T {float(T):g} and the command's default coupling" in errors[0]

    @pytest.mark.parametrize("flag", ["--rho", "--tau"])
    def test_exit_2_names_the_coupling_given(self, tmp_path, capsys, flag):
        argv = ["figure", "fig3", "--T", "1e175", flag, "0.5", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"--T 1e+175 and {flag} 0.5: " in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["1e-310", "1e308"])
    def test_absorbed_fraction_sweep_same_at_every_T(self, tmp_path, T):
        # the fraction depends on Gamma T alone, so the file is --T 1's
        command = ["sweep", "absorbed_fraction", "--start", "0", "--stop", "1", "--count", "3"]
        assert main(command + ["--out", str(tmp_path / "unit")]) == 0
        assert main(command + ["--T", T, "--out", str(tmp_path / "edge")]) == 0
        name = "sweep_absorbed_fraction.csv"
        assert (tmp_path / "edge" / name).read_bytes() == (tmp_path / "unit" / name).read_bytes()

    def test_fig3_cost_does_not_grow_as_T_shrinks(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["figure", "fig3", "--T", "1e-3", "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 10.0

    def test_fig3_summary_scales_expected_crossing_with_T(self, tmp_path, capsys):
        assert main(["figure", "fig3", "--T", "2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig3b: zprime=0.333  t=0 crossing at z = 0.6625 (expected 0.666)" in out
        assert "(expected 1.332)" in out

    def test_fig4_spans_ten_round_trips(self, tmp_path):
        assert main(["figure", "fig4", "--T", "11", "--rho", "0.5", "--out", str(tmp_path)]) == 0
        _, data = read_csv(tmp_path / "fig4_rho0p5.csv")
        assert data[-1, 0] == 110.0
        assert data[1200, 0] == pytest.approx(33.0, rel=1e-15)  # 4001 samples over 10T
        assert data[1200, 1] == pytest.approx(0.5**3, rel=1e-12)


class TestValidateCommand:
    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; a flag given to one call
        # must not reach the next
        assert main(["validate", "--rho", "0.5", "--out", str(tmp_path / "a")]) == 0
        assert main(["validate", "--out", str(tmp_path / "b")]) == 0
        for sub, rho in (("a", 0.5), ("b", 0.75)):
            report = json.loads((tmp_path / sub / "validation_report.json").read_text())
            assert report["config"]["rho"] == rho

    def test_default_run_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("T", ["1e-12", "1e-30", "1e6"])
    @pytest.mark.parametrize("rho", ["0", "0.5", "0.99"])
    def test_passes_away_from_unit_round_trip(self, tmp_path, capsys, rho, T):
        # every grid, width, threshold and frequency draw of the suite scales with T
        assert main(["validate", "--rho", rho, "--T", T, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "26/26 checks passed" in out

    def test_open_junction_edge_notes_skips(self, tmp_path, capsys):
        assert main(["validate", "--rho", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        skipped = [c["name"] for c in report["checks"] if c.get("skipped")]
        assert "factor_form_equivalence" in skipped
        # the output commutator's junction path holds at rho = 0 too
        assert "c0 err 0, spurious 0, paths differ by 0 (tol " in capsys.readouterr().out

    def test_high_q_runs_under_a_400_mib_address_space(self, tmp_path):
        # `ringecho validate --rho 0.9999` in a child process whose address
        # space, and only its, is capped at 400 MiB: between the about 270 MiB
        # it takes and the about 610 MiB that evaluating apply_round_trip's
        # inverse kernel over the whole round trip, not its window, would take
        resource = pytest.importorskip("resource")
        cap = 400 << 20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(Path(ringecho.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        argv = [sys.executable, "-m", "ringecho.cli", "validate", "--rho", "0.9999",
                "--out", str(tmp_path)]
        run = subprocess.run(argv, env=env, preexec_fn=limit, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "26/26 checks passed" in run.stdout

    def test_report_records_eps_used(self, tmp_path, capsys):
        assert main(["validate", "--eps", "1e-13", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["config"]["eps"] == 1e-13
        assert "at eps 1e-13" in capsys.readouterr().out

    def test_default_eps_is_the_strict_floor(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["config"]["eps"] == 1e-12
        assert "at eps 1e-12" in capsys.readouterr().out

    def test_eps_above_the_floor_exits_2(self, tmp_path, capsys):
        # the suite's tolerances hold only for kernels truncated at 1e-12 or below
        assert main(["validate", "--eps", "1e-6", "--out", str(tmp_path)]) == 2
        assert "validate needs eps <= 1e-12" in capsys.readouterr().err
        assert not (tmp_path / "validation_report.json").exists()

    def test_out_of_memory_exits_2_naming_the_check(self, tmp_path, capsys, monkeypatch):
        import ringecho.validation as validation

        def refuse(*args):
            raise MemoryError("Unable to allocate 5.34 GiB for an array with "
                              "shape (18929, 18929) and data type complex128")

        # separable_factorization builds its input grid here, before the transform
        monkeypatch.setattr(validation, "JointAmplitudeGrid", refuse)
        assert main(["validate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "out of memory: check separable_factorization at rho = 0.75" in err
        assert "Unable to allocate 5.34 GiB" in err

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_out_of_memory_in_any_check_names_it(self, tmp_path, capsys, monkeypatch, name):
        import ringecho.validation as validation

        def refuse(suite):
            raise MemoryError("Unable to allocate 1.00 TiB")

        refuse.__name__ = f"_{name}"
        table = [refuse if c.__name__ == refuse.__name__ else c for c in validation._CHECKS]
        monkeypatch.setattr(validation, "_CHECKS", tuple(table))
        with pytest.raises(CheckOutOfMemory, match=f"^check {name} at rho = 0.75: Unable"):
            run_suite(0.75)
        assert main(["validate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"out of memory: check {name} at rho = 0.75: Unable to allocate 1.00 TiB" in err
        assert not (tmp_path / "validation_report.json").exists()

    def test_out_of_memory_in_the_setup_names_it(self, tmp_path, capsys, monkeypatch):
        import ringecho.validation as validation

        def refuse(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        # the suite builds its kernels once, before the first check
        monkeypatch.setattr(validation, "kernel_ab", refuse)
        with pytest.raises(CheckOutOfMemory, match="^suite setup at rho = 0.75: Unable"):
            run_suite(0.75)
        # every digit of rho, not the six of :g that read 0.9999999 as 1; the
        # first kernel refuses, so no kernel of that rho is built
        monkeypatch.setattr(validation, "kernel_ca", refuse)
        with pytest.raises(CheckOutOfMemory, match="^suite setup at rho = 0.9999999: Unable"):
            run_suite(0.9999999)
        assert main(["validate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "out of memory: suite setup at rho = 0.75: Unable to allocate 1.00 TiB" in err

    def test_memory_error_from_the_suite_exits_2(self, tmp_path, capsys, monkeypatch):
        import ringecho.cli as cli

        def refuse(**kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "run_suite", refuse)
        assert main(["validate", "--out", str(tmp_path)]) == 2
        assert "error: out of memory: Unable to allocate 1.00 TiB" in capsys.readouterr().err

    def test_report_deterministic(self, tmp_path):
        main(["validate", "--out", str(tmp_path / "a")])
        main(["validate", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/validation_report.json").read_bytes() == (
            tmp_path / "b/validation_report.json"
        ).read_bytes()


class TestSweepCommand:
    def test_peak_ratio_monotone(self, tmp_path):
        assert (
            main(
                ["sweep", "peak_ratio", "--start", "0.5", "--stop", "0.99",
                 "--count", "12", "--out", str(tmp_path)]
            )
            == 0
        )
        _, data = read_csv(tmp_path / "sweep_peak_ratio.csv")
        vals = data[:, 1]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_absorbed_fraction_single_pass_curve(self, tmp_path):
        main(
            ["sweep", "absorbed_fraction", "--start", "0", "--stop", "2",
             "--count", "9", "--rho", "0", "--out", str(tmp_path)]
        )
        _, data = read_csv(tmp_path / "sweep_absorbed_fraction.csv")
        expected = 1.0 - np.exp(-2.0 * data[:, 0])
        assert np.max(np.abs(data[:, 1] - expected)) < 1e-12

    def test_cw_residual_decay_slope(self, tmp_path):
        main(
            ["sweep", "cw_residual", "--start", "10", "--stop", "34",
             "--count", "7", "--rho", "0.75", "--out", str(tmp_path)]
        )
        _, data = read_csv(tmp_path / "sweep_cw_residual.csv")
        slope = np.polyfit(data[:, 0], np.log(data[:, 1]), 1)[0]
        assert slope == pytest.approx(np.log(0.75), rel=0.05)

    def test_unknown_metric_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "nope", "--start", "0", "--stop", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.5, "out": str(tmp_path / "o")}))
        assert main(["figure", "fig2", "--config", str(cfg)]) == 0
        _, data = read_csv(tmp_path / "o/fig2.csv")
        assert np.max(data[:, 1]) == pytest.approx(3.0, rel=1e-9)  # (1+.5)/(1-.5)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.5}))
        assert (
            main(["figure", "fig2", "--config", str(cfg), "--rho", "0.75",
                  "--out", str(tmp_path)])
            == 0
        )
        _, data = read_csv(tmp_path / "fig2.csv")
        assert np.max(data[:, 1]) == pytest.approx(7.0, rel=1e-9)

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.5, "bogus": 1}))
        assert main(["figure", "fig2", "--config", str(cfg)]) == 2
