"""Checks of the ``validate`` suite itself: a check fails where it should,
and ``ladder_resummation`` runs at the order its truncation bound asks for."""

import numpy as np
import pytest

import ringecho.validation as validation
from ringecho.validation import run_suite


def _result(results, name):
    (r,) = [r for r in results if r.name == name]
    return r


@pytest.mark.parametrize("cell", [(0, 0), (-1, -1)], ids=["first", "last"])
@pytest.mark.parametrize("delta", [1e-9, np.nan])  # ten times the tolerance; a NaN
def test_separable_factorization_sees_every_cell(monkeypatch, cell, delta):
    transform = validation.transform_output_on_window

    def perturbed(*args, **kwargs):
        out = transform(*args, **kwargs)
        out.values[cell] += delta
        return out

    monkeypatch.setattr(validation, "transform_output_on_window", perturbed)
    r = _result(run_suite(0.5), "separable_factorization")
    assert not r.passed
    assert f"deviation = {delta:.3g}" in r.detail


@pytest.mark.parametrize("rho,nmax", [(0.5, 29), (0.9, 134)])
def test_ladder_resummation_order_meets_1e_10(rho, nmax):
    # the smallest order whose tripled truncation bound is within 1e-10
    r = _result(run_suite(rho), "ladder_resummation")
    assert r.passed, r.detail
    assert f"(tol 1e-10, nmax {nmax})" in r.detail

