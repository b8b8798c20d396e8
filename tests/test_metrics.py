import math
from itertools import combinations

import numpy as np
import pytest

from clustreg import (
    FitResult,
    ModelParams,
    Responsibilities,
    adjusted_rand,
    bic,
    param_mse,
)


def pair_counting_ari(a, b):
    """Textbook pairwise-agreement oracle for the adjusted Rand index."""
    a11 = a10 = a01 = a00 = 0
    for i, j in combinations(range(len(a)), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        if sa and sb:
            a11 += 1
        elif sa:
            a10 += 1
        elif sb:
            a01 += 1
        else:
            a00 += 1
    num = 2 * (a11 * a00 - a10 * a01)
    den = (a11 + a10) * (a10 + a00) + (a11 + a01) * (a01 + a00)
    if den == 0:
        return 1.0
    return num / den


class TestAdjustedRand:
    def test_identical_partitions(self):
        assert adjusted_rand([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_relabeled_partition(self):
        assert adjusted_rand([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_crossed_pairs_minus_half(self):
        assert adjusted_rand([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_single_cluster_both_sides(self):
        assert adjusted_rand([0, 0, 0], [1, 1, 1]) == 1.0

    def test_label_values_irrelevant(self):
        a = ["x", "x", "y", "z"]
        b = [10, 10, 3, 7]
        assert adjusted_rand(a, b) == 1.0

    def test_against_pair_counting_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            ka = int(rng.integers(1, 5))
            kb = int(rng.integers(1, 5))
            a = rng.integers(0, ka, n)
            b = rng.integers(0, kb, n)
            assert adjusted_rand(a, b) == pytest.approx(
                pair_counting_ari(a.tolist(), b.tolist()), abs=1e-13
            )

    def test_symmetric(self):
        rng = np.random.default_rng(51)
        a = rng.integers(0, 3, 20)
        b = rng.integers(0, 4, 20)
        assert adjusted_rand(a, b) == adjusted_rand(b, a)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            adjusted_rand([0, 1], [0, 1, 1])

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            adjusted_rand([0], [0])


class TestParamMse:
    def test_exact_match_is_zero(self):
        p = ModelParams(
            np.array([0.4, 0.6]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([0.5, 1.5]),
        )
        report = param_mse(p, p)
        assert report.avg_mse_beta == 0.0
        assert report.avg_mse_sigma == 0.0
        assert report.matching_permutation == (0, 1)

    def test_label_swap_recovered(self):
        truth = ModelParams(
            np.array([0.4, 0.6]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([0.5, 1.5]),
        )
        swapped = ModelParams(
            np.array([0.6, 0.4]),
            truth.coefficients[::-1].copy(),
            truth.variances[::-1].copy(),
        )
        report = param_mse(truth, swapped)
        assert report.avg_mse_beta == 0.0
        assert report.avg_mse_sigma == 0.0
        assert report.matching_permutation == (1, 0)

    def test_hand_computed_values(self):
        truth = ModelParams(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.array([1.0, 4.0]),
        )
        est = ModelParams(
            np.array([0.5, 0.5]),
            np.array([[1.0, 1.0], [10.0, 12.0]]),
            np.array([2.0, 5.0]),
        )
        report = param_mse(truth, est)
        # identity matching: coefficient SSE = 1 + 1 + 0 + 4 = 6 over G*J = 4
        assert report.avg_mse_beta == pytest.approx(6.0 / 4.0)
        assert report.avg_mse_sigma == pytest.approx(1.0)
        assert report.matching_permutation == (0, 1)

    def test_matching_ignores_variances(self):
        # the permutation must come from the coefficients alone, even when
        # variances would prefer the other matching
        truth = ModelParams(
            np.array([0.5, 0.5]),
            np.array([[0.0], [5.0]]),
            np.array([9.0, 1.0]),
        )
        est = ModelParams(
            np.array([0.5, 0.5]),
            np.array([[0.1], [5.1]]),
            np.array([1.0, 9.0]),
        )
        report = param_mse(truth, est)
        assert report.matching_permutation == (0, 1)
        assert report.avg_mse_sigma == pytest.approx(64.0)

    def test_three_component_brute_force(self):
        rng = np.random.default_rng(52)
        truth = ModelParams(
            np.full(3, 1 / 3),
            rng.normal(size=(3, 2)),
            rng.uniform(0.5, 2.0, 3),
        )
        perm = [2, 0, 1]
        est = ModelParams(
            truth.weights[perm],
            truth.coefficients[perm] + 0.01,
            truth.variances[perm],
        )
        report = param_mse(truth, est)
        assert report.matching_permutation == (1, 2, 0)  # inverse of perm
        assert report.avg_mse_beta == pytest.approx(0.0001, rel=1e-10)

    def test_rejects_mismatched_shapes(self):
        a = ModelParams(np.array([1.0]), np.zeros((1, 2)), np.ones(1))
        b = ModelParams(np.array([0.5, 0.5]), np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            param_mse(a, b)

    def test_rejects_mismatched_coefficient_dimensions(self):
        a = ModelParams(np.array([1.0]), np.zeros((1, 2)), np.ones(1))
        b = ModelParams(np.array([1.0]), np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="^coefficient dimensions differ$"):
            param_mse(a, b)


def _stub_fit(loglik, degenerate=False):
    params = ModelParams(np.array([1.0]), np.zeros((1, 1)), np.ones(1))
    resp = Responsibilities(np.ones((2, 1)))
    return FitResult(
        params=params,
        loglik=loglik,
        loglik_trace=np.array([loglik]),
        responsibilities=resp,
        stop_reason="degenerate" if degenerate else "tolerance",
        iterations=1,
    )


class TestBic:
    def test_hetn_arithmetic(self):
        # n = e^2 makes log(n) = 2; G=2, J=3: q = 1 + 6 + 2 = 9
        fit = _stub_fit(-6.0)
        n = math.exp(2)
        assert bic(fit, n, "hetn", G=2, J=3) == pytest.approx(12.0 + 18.0)

    def test_homn_arithmetic(self):
        # G=2, J=3 homoscedastic: q = 1 + 6 + 1 = 8
        fit = _stub_fit(-6.0)
        n = math.exp(2)
        assert bic(fit, n, "homn", G=2, J=3) == pytest.approx(12.0 + 16.0)

    def test_single_component_counts(self):
        # G=1, J=2: both variants have q = 0 + 2 + 1 = 3
        fit = _stub_fit(-1.0)
        assert bic(fit, math.e, "hetn", G=1, J=2) == pytest.approx(2.0 + 3.0)
        assert bic(fit, math.e, "homn", G=1, J=2) == pytest.approx(2.0 + 3.0)

    def test_conc_rejected(self):
        with pytest.raises(ValueError):
            bic(_stub_fit(-1.0), 10, "conc", G=2, J=2)

    def test_degenerate_warns(self):
        with pytest.warns(RuntimeWarning):
            bic(_stub_fit(-1.0, degenerate=True), 10, "hetn", G=1, J=1)

    def test_lower_is_better_with_fewer_params(self):
        fit = _stub_fit(-100.0)
        assert bic(fit, 50, "homn", G=3, J=2) < bic(fit, 50, "hetn", G=3, J=2)
