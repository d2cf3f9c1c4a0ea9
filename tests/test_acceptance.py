"""Acceptance gate: the ``validate`` invariant suite across the coupling range,
plus the two product-level criteria no unit test reaches.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
result: ``ACCEPTANCE <rho> <check> PASS|FAIL|SKIP: <detail>`` for each check
of ``run_suite`` at each coupling, and ``ACCEPTANCE <n> PASS|FAIL`` for the
two criteria. Every line is printed before asserting, so the report is
complete even on failure.
"""

import functools
import re

import numpy as np
import pytest

from ringecho import (
    JunctionCoupling,
    TwoPhotonGaussian,
    g_ba,
    gaussian_amplitude,
    peak_locate,
    separability_rank,
    transform_output,
)
from ringecho.validation import CHECK_NAMES, run_suite

T = 1.0

RHOS = (0.0, 1e-300, 1e-13, 1e-7, 1e-6, 1e-3, 0.3, 0.5, 0.75, 0.9, 0.97, 0.99, 0.999, 0.9999)


@functools.cache
def _suite(rho: float) -> dict:
    """``run_suite(rho)`` by check name, computed once per coupling."""
    return {r.name: r for r in run_suite(rho)}


# every rho reports these, in this order: the names of validation's check
# table, which run_suite also gives a check that runs out of memory
CHECKS = CHECK_NAMES


@pytest.mark.parametrize("rho,name", [(rho, name) for rho in RHOS for name in CHECKS])
def test_run_suite(rho, name):
    results = _suite(rho)
    assert tuple(results) == CHECKS, f"run_suite({rho}) reports {list(results)}"
    r = results[name]
    status = "SKIP" if r.skipped else "PASS" if r.passed else "FAIL"
    print(f"ACCEPTANCE {rho:g} {name} {status}: {r.detail}")
    assert r.passed, r.detail
    if name == "separable_factorization":
        # every cell through 0.97; a fixed tile set above the cell budget
        assert ("(every cell: " in r.detail) == (rho <= 0.97), r.detail
    if name == "noise_quadrature_match":
        # each derived tolerance within 10^3 of its reading, or of eps
        pairs = re.findall(r"(\S+) \(tol (\S+)\)", r.detail)
        assert len(pairs) == 3, r.detail
        for reading, tol in pairs:
            assert float(tol) <= 1e3 * max(float(reading), np.finfo(float).eps), r.detail
    if r.skipped:
        pytest.skip(r.detail)


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
