"""Smoke test of the benchmark's job definitions: fourteen high-Q layer jobs run
through ``perfbench/jobs.py`` and pass that file's own checks, and the
validation suite still reports every check the benchmark's reference
names."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ringecho.validation import run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # the import must leave perfbench/ untouched
import jobs  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize(
    "name",
    [
        "kernels",  # offsets, weights, sum_sq, eps and tail bounds; kernel_ab mirrors kernel_ba
        "convolve_unit_0.99",
        "apply_round_trip_0.99",
        "correlate_unit_0.99",
        "window_vs_closed_form_0.99",
        "transform_full_0.9",
        "quasimode_error_0.999",  # FFT overlap-add, a kernel longer than its signal
        "oracle_impulse_sqrt0.998",  # the per-round-trip oracle
        "apply_parseval_0.999",  # FFT overlap-add in kernel segments
        "bulk_spectral_2^20",  # the one-phase sum-rule residual
        # |integral - 1| <= 1e-13: the half-period quadrature with tau^2 = p q
        "fsr_integral_0.97",
        "fsr_integral_0.99",
        "fsr_integral_0.999",
        "fsr_integral_0.9999",
    ],
)
def test_highq_job_passes_its_check(name):
    (job,) = [j for j in jobs.highq_jobs(np.random.default_rng(1)) if j.name == name]
    assert job.check(job.run()) is None


def test_validate_reports_every_reference_check():
    # the benchmark lets a change add validation checks but never drop one
    names = json.loads((PERFBENCH / "reference.json").read_text())["validate_checks"]
    reported = {r.name for r in run_suite(0.5)}
    assert [n for n in names if n not in reported] == []
