import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringecho import (
    JunctionCoupling,
    commutator_figure,
    correlate,
    kernel_ba,
    kernel_ca,
    output_commutator_check,
    output_commutator_decomposition,
    spacetime_commutator_support,
)
from ringecho.cli import write_matrix
from trainview import weights


def brute_force_pair_ladder(rho, tau, n_terms):
    """Oracle for the circulating-field commutator: the raw double echo sum.

    Bins tau^2 rho^(n+m) by lag k = n - m without using any closed form.
    """
    n = np.arange(n_terms + 1)
    outer = tau * tau * np.outer(rho**n, rho**n)
    lags = n[:, None] - n[None, :]
    out = np.zeros(2 * n_terms + 1)
    np.add.at(out, (lags + n_terms).ravel(), outer.ravel())
    return {int(k - n_terms): float(v) for k, v in enumerate(out)}


def reference_decomposition(j, eps):
    """The junction path's original dict arithmetic, term by term, over
    every lag it reaches (zero weights included)."""
    rho, tau = j.rho, j.tau
    kca = kernel_ca(j, 1.0, eps)
    out = {k: tau * tau * c for k, c in weights(correlate(kca, kca)).items()}
    for n, c in weights(kca).items():
        out[n + 1] = out.get(n + 1, 0.0) - rho * tau * c
        out[-n - 1] = out.get(-n - 1, 0.0) - rho * tau * c
    out[0] = out.get(0, 0.0) + rho * rho
    return out


def cavity_commutator(rho):
    """The circulating-field commutator train, ``correlate(kernel_ca, kernel_ca)``."""
    k = kernel_ca(JunctionCoupling(rho), 1.0)
    return correlate(k, k)


class TestCavityCommutator:
    def test_free_space_limit(self):
        assert weights(cavity_commutator(0.0)) == {0: 1.0}

    @pytest.mark.parametrize("rho", [0.3, 0.75, 0.97])
    def test_against_brute_force_double_sum(self, rho):
        j = JunctionCoupling(rho)
        n_terms = max(200, int(np.ceil(-30.0 / np.log(rho))))
        oracle = brute_force_pair_ladder(rho, j.tau, n_terms)
        train = cavity_commutator(rho)
        for k in range(-10, 11):
            assert oracle[k] == pytest.approx(rho ** abs(k), abs=1e-12)
            assert train.weight(k) == pytest.approx(oracle[k], abs=1e-12)

    def test_specific_value(self):
        assert cavity_commutator(0.75).weight(2) == pytest.approx(0.5625, abs=1e-15)

    @given(rho=st.floats(0.0, 0.99), k=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, rho, k):
        train = cavity_commutator(rho)
        assert train.weight(k) == train.weight(-k)

    def test_matches_kernel_autocorrelation(self):
        k_ca = kernel_ca(JunctionCoupling(0.8), 1.0)
        train = correlate(k_ca, k_ca)
        for k in range(-15, 16):
            assert train.weight(k) == pytest.approx(0.8 ** abs(k), abs=1e-12)


class TestSpacetimeSupport:
    def test_same_position_reduces_to_lattice(self):
        j = JunctionCoupling(0.5)
        pts = spacetime_commutator_support(j, 0.25, 0.25, 1.0, 4)
        for k, w, t_hit in pts:
            assert t_hit == pytest.approx(-k * 1.0)
            assert w == pytest.approx(0.5 ** abs(k))

    def test_equal_time_single_crossing(self):
        """Scanning positions at equal times finds exactly one support point."""
        j = JunctionCoupling(0.9)
        zp = 0.333
        zs = np.append(np.linspace(0.0, 1.0, 101, endpoint=False), zp)
        hits = [
            z
            for z in zs
            for (k, w, t_hit) in spacetime_commutator_support(j, z, zp, 1.0, 6)
            if abs(t_hit) < 1e-12
        ]
        assert hits == [zp]

    def test_crossings_shift_with_reference_position(self):
        j = JunctionCoupling(0.9)
        for zp in (0.0, 0.333, 0.666):
            pts = spacetime_commutator_support(j, 0.1, zp, 1.0, 3)
            for k, _, t_hit in pts:
                assert t_hit == pytest.approx(0.1 - zp - k)

    def test_rejects_outside_loop(self):
        j = JunctionCoupling(0.5)
        for z, z_ref in ((1.5, 0.0), (0.0, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError, match="outside the loop"):
                spacetime_commutator_support(j, z, z_ref, 1.0, 2)


class TestCrossCommutator:
    """The circulating/input cross commutator is ``kernel_ca`` itself."""

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.75, 0.97])
    def test_causality_no_negative_lags(self, rho):
        assert all(k >= 0 for k in kernel_ca(JunctionCoupling(rho), 1.0).offsets)

    def test_free_space(self):
        assert weights(kernel_ca(JunctionCoupling(0.0), 1.0)) == {0: 1.0}

    def test_equals_forward_kernel(self):
        j = JunctionCoupling(0.75)
        kern = kernel_ca(j, 1.0)
        for k in kern.offsets:
            assert kern.weight(k) == pytest.approx(j.tau * 0.75**k, rel=1e-14)


class TestOutputCommutator:
    @pytest.mark.parametrize("rho", [0.3, 0.75, 0.97])
    def test_unit_train_both_paths(self, rho):
        j = JunctionCoupling(rho)
        res = output_commutator_check(j, 1.0, 1e-12)
        assert res.weight_zero_error < 1e-10
        assert res.max_spurious < 1e-10
        assert res.path_disagreement < 1e-12

    def test_positional_order_is_T_then_eps(self):
        # (j, T, eps) like output_commutator_decomposition and the kernels
        j = JunctionCoupling(0.75)
        pos = output_commutator_check(j, 0.7, 1e-10)
        kw = output_commutator_check(j, eps=1e-10, T=0.7)
        k = kernel_ba(j, 0.7, 1e-10)
        for res in (pos, kw):
            assert res.train.period == 0.7
            assert weights(res.train) == weights(correlate(k, k))
        assert (pos.weight_zero_error, pos.max_spurious, pos.path_disagreement) == (
            kw.weight_zero_error, kw.max_spurious, kw.path_disagreement)

    def test_free_space_exact(self):
        res = output_commutator_check(JunctionCoupling(0.0))
        assert weights(res.train) == {0: 1.0}
        assert res.path_disagreement == 0.0

    def test_paths_agree_term_by_term(self):
        j = JunctionCoupling(0.75)
        k = kernel_ba(j, 1.0, 1e-12)
        a = correlate(k, k)
        b = output_commutator_decomposition(j, 1.0, 1e-12)
        assert a.max_abs_diff(b) < 1e-12

    @pytest.mark.parametrize("rho", [0.0, 1e-3, 0.75, 0.999])
    def test_junction_path_matches_reference_arithmetic(self, rho):
        j = JunctionCoupling(rho)
        want = reference_decomposition(j, 1e-12)
        got = output_commutator_decomposition(j, 1.0, 1e-12)
        assert got.offsets == tuple(sorted(want))
        assert weights(got) == want

    @pytest.mark.parametrize("rho", [0.0, 1e-6, 1e-3])
    def test_junction_path_well_conditioned_at_small_rho(self, rho):
        # nothing is divided by rho, so the paths agree to rounding of O(1)
        # weights where a 1/rho form cancels terms of size 1/rho^2
        res = output_commutator_check(JunctionCoupling(rho))
        assert res.path_disagreement <= 4 * np.finfo(float).eps


class TestReindexingIdentity:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_double_sum_reindexing_exact(self, seed):
        """Triangle double sum equals the lag/offset re-indexed sum, exactly.

        Integer-valued inputs keep float addition exact, so the two
        evaluation orders must agree bit for bit.
        """
        rng = np.random.default_rng(seed)
        f = rng.integers(-9, 10, size=51).astype(float)
        g = rng.integers(-9, 10, size=51).astype(float)
        lhs = sum(
            f[n + m] * g[n - m]
            for n in range(51)
            for m in range(n + 1)
            if n + m < 51
        )
        rhs = sum(
            f[k + 2 * s] * g[k]
            for k in range(51)
            for s in range(51)
            if k + 2 * s < 51
        )
        assert lhs == rhs


def reference_figure_matrix(
    j, zprime, T, broadening, v=1.0, t_range=(-3.0, 3.0), nt=1201, nz=240
):
    """The map's stripes with weights, skip rule and hit times derived in place."""
    t_lo, t_hi = t_range
    t_vals = np.linspace(t_lo, t_hi, nt)
    z_vals = (np.arange(nz) + 0.5) * (v * T / nz)
    k_lo = math.floor((-t_hi - 1.0 * T) / T) - 1
    k_hi = math.ceil((-t_lo + 1.0 * T) / T) + 1
    norm = 1.0 / (broadening * math.sqrt(2.0 * math.pi))
    matrix = np.zeros((nt, nz))
    for ik, z in enumerate(z_vals):
        base = (z - zprime) / v
        for k in range(k_lo, k_hi + 1):
            w = j.rho ** abs(k)
            if w < 1e-300:
                continue
            t_hit = base - k * T
            matrix[:, ik] += w * norm * np.exp(
                -((t_vals - t_hit) ** 2) / (2.0 * broadening**2)
            )
    return matrix


class TestCommutatorFigure:
    # the map's window is always t_range = (-3T, 3T) and its width T/100
    @pytest.mark.parametrize(
        "rho,zprime,T,t_range",
        [
            (np.sqrt(0.998), 0.0, 1.0, (-3.0, 3.0)),
            (np.sqrt(0.998), 0.333, 1.0, (-3.0, 3.0)),
            (np.sqrt(0.998), 0.666, 1.0, (-3.0, 3.0)),
            (0.0, 0.333, 1.0, (-3.0, 3.0)),
            (0.5, 0.333 * 1.7, 1.7, (-3.0 * 1.7, 3.0 * 1.7)),
        ],
    )
    def test_bitwise_equals_reference_loop(self, rho, zprime, T, t_range):
        j = JunctionCoupling(rho)
        _, _, matrix = commutator_figure(j, zprime, T)
        want = reference_figure_matrix(j, zprime, T, T / 100.0, t_range=t_range)
        assert matrix.tobytes() == want.tobytes()

    def test_stripe_mass_conserved(self):
        """Area under each rendered stripe equals the underlying delta weight."""
        j = JunctionCoupling(np.sqrt(0.998))
        broadening = 0.01
        z_vals, t_vals, matrix = commutator_figure(j, 0.0, 1.0, nt=6001)
        dt = t_vals[1] - t_vals[0]
        iz = 0  # z close to 0, stripes at t = -k
        col = matrix[:, iz]
        z0 = z_vals[iz]
        for k in (-2, -1, 0, 1, 2):
            t_hit = z0 - k
            sel = np.abs(t_vals - t_hit) < 6 * broadening
            mass = float(np.sum(col[sel]) * dt)
            assert mass == pytest.approx(j.rho ** abs(k), rel=1e-4)

    def test_single_crossing_on_t0_row(self):
        j = JunctionCoupling(np.sqrt(0.998))
        zp = 0.333
        z_vals, t_vals, matrix = commutator_figure(j, zp, 1.0, nz=300)
        row = matrix[int(np.argmin(np.abs(t_vals)))]
        peak_z = z_vals[int(np.argmax(row))]
        assert peak_z == pytest.approx(zp, abs=2.0 / 300)
        # a single stripe: values far from z' on this row are negligible
        far = np.abs(z_vals - zp) > 0.1
        assert np.max(row[far]) < 1e-6 * np.max(row)

    def test_map_is_nonnegative_and_shaped(self):
        z_vals, t_vals, matrix = commutator_figure(JunctionCoupling(0.9), 0.5, 1.0, nt=301, nz=50)
        assert matrix.shape == (len(t_vals), len(z_vals)) == (301, 50)
        assert np.all(matrix >= 0.0)

    def test_csv_export(self, tmp_path):
        z_vals, t_vals, matrix = commutator_figure(JunctionCoupling(0.5), 0.0, 1.0, nt=51, nz=10)
        meta = {
            "z_values": [float(z) for z in z_vals],
            "t_values": [float(t) for t in t_vals],
        }
        csv_path, meta_path = write_matrix(tmp_path / "map", matrix, meta, "csv")
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 51
        import json

        meta = json.loads(meta_path.read_text())
        assert len(meta["z_values"]) == 10
