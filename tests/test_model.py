import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import clustreg
from clustreg import (
    Dataset,
    InvalidParameterError,
    ModelParams,
    Responsibilities,
    classify,
    log_likelihood,
    min_variance_ratio,
    posterior_probs,
)
from clustreg import model
from conftest import random_dataset, random_params
from reference import component_density


def mp_density(y, x, beta, sigma2):
    """High-precision oracle for the component density."""
    with mpmath.workdps(50):
        resid = mpmath.mpf(y) - mpmath.fsum(
            mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(x, beta)
        )
        s2 = mpmath.mpf(sigma2)
        val = mpmath.exp(-resid ** 2 / (2 * s2)) / mpmath.sqrt(2 * mpmath.pi * s2)
        return float(val)


class TestComponentDensity:
    def test_zero_residual_normalizer_cancels(self):
        assert component_density(3.0, (1.0, 2.0), (1.0, 1.0), 1.0 / (2 * math.pi)) == pytest.approx(1.0, abs=1e-14)

    def test_standard_normal_at_one(self):
        assert component_density(1.0, (1.0,), (0.0,), 1.0) == pytest.approx(
            0.24197072451914337, abs=1e-15
        )

    def test_against_high_precision_oracle(self):
        y, x, beta, s2 = 2.0, (1.0, 0.5), (1.0, 2.0), 4.0
        assert component_density(y, x, beta, s2) == pytest.approx(
            mp_density(y, x, beta, s2), rel=1e-14
        )

    def test_random_points_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            y = rng.normal()
            x = rng.normal(size=3)
            beta = rng.normal(size=3)
            s2 = rng.uniform(0.01, 10)
            assert component_density(y, x, beta, s2) == pytest.approx(
                mp_density(y, x, beta, s2), rel=1e-12
            )

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidParameterError):
            component_density(1.0, (1.0,), (0.0,), 0.0)
        with pytest.raises(InvalidParameterError):
            component_density(1.0, (1.0,), (0.0,), -1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            component_density(1.0, (1.0, 2.0), (0.0,), 1.0)

    def test_integrates_to_one(self):
        # trapezoid quadrature over +-10 sigma
        beta = np.array([0.7, -0.3])
        x = np.array([1.0, 2.0])
        s2 = 2.5
        mu = x @ beta
        grid = np.linspace(mu - 10 * math.sqrt(s2), mu + 10 * math.sqrt(s2), 20001)
        vals = [component_density(y, x, beta, s2) for y in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)


def mp_log_likelihood(data, params):
    """Direct extended-precision summation oracle."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for i in range(data.n):
            mix = mpmath.mpf(0)
            for g in range(params.n_components):
                resid = mpmath.mpf(float(data.responses[i])) - mpmath.fsum(
                    mpmath.mpf(float(a)) * mpmath.mpf(float(b))
                    for a, b in zip(data.design[i], params.coefficients[g])
                )
                s2 = mpmath.mpf(float(params.variances[g]))
                mix += mpmath.mpf(float(params.weights[g])) * mpmath.exp(
                    -resid ** 2 / (2 * s2)
                ) / mpmath.sqrt(2 * mpmath.pi * s2)
            total += mpmath.log(mix)
        return float(total)


class TestLogLikelihood:
    def test_single_component_reduces_to_sum_of_logs(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 10, 2)
        params = random_params(rng, 1, 2)
        direct = sum(
            math.log(
                component_density(
                    data.responses[i], data.design[i], params.coefficients[0],
                    params.variances[0],
                )
            )
            for i in range(data.n)
        )
        assert log_likelihood(data, params) == pytest.approx(direct, rel=1e-12)

    def test_duplicated_sample_doubles_value(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 8, 2)
        params = random_params(rng, 2, 2)
        doubled = Dataset(
            np.concatenate([data.responses, data.responses]),
            np.vstack([data.design, data.design]),
        )
        assert log_likelihood(doubled, params) == pytest.approx(
            2 * log_likelihood(data, params), rel=1e-12
        )

    def test_four_point_two_component_fixture_oracle(self):
        data = Dataset(
            np.array([0.5, 1.5, -0.2, 2.2]),
            np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [1.0, 2.0]]),
        )
        params = ModelParams(
            np.array([0.3, 0.7]),
            np.array([[0.0, 1.0], [1.0, 0.5]]),
            np.array([0.5, 2.0]),
        )
        assert log_likelihood(data, params) == pytest.approx(
            mp_log_likelihood(data, params), rel=1e-13
        )

    def test_no_overflow_with_tiny_variance(self):
        data = Dataset(np.array([0.0, 5.0]), np.array([[1.0], [1.0]]))
        params = ModelParams(
            np.array([0.5, 0.5]), np.array([[0.0], [5.0]]), np.array([1e-300, 1.0])
        )
        value = log_likelihood(data, params)
        assert math.isfinite(value)

    def test_total_underflow_is_flagged(self):
        data = Dataset(np.array([1e200]), np.array([[1.0]]))
        params = ModelParams(np.array([1.0]), np.array([[0.0]]), np.array([1.0]))
        with pytest.warns(RuntimeWarning) as record:
            value = log_likelihood(data, params)
        assert value == -math.inf
        assert record[0].filename == __file__       # attributed to log_likelihood's caller

    def test_dimension_mismatch(self):
        data = Dataset(np.array([1.0, 2.0]), np.array([[1.0], [1.0]]))
        params = ModelParams(np.array([1.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            log_likelihood(data, params)

    def test_invariant_under_component_relabeling(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 12, 3)
        params = random_params(rng, 3, 3)
        perm = [2, 0, 1]
        shuffled = ModelParams(
            params.weights[perm], params.coefficients[perm], params.variances[perm]
        )
        assert log_likelihood(data, params) == pytest.approx(
            log_likelihood(data, shuffled), rel=1e-13
        )


class TestPosteriorProbs:
    def test_single_component_rows_are_one(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 6, 2)
        params = random_params(rng, 1, 2)
        resp = posterior_probs(data, params)
        assert np.allclose(resp.probs, 1.0)

    def test_symmetric_components_give_half(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 9, 2)
        beta = np.array([0.4, -1.1])
        params = ModelParams(
            np.array([0.5, 0.5]), np.array([beta, beta]), np.array([1.3, 1.3])
        )
        resp = posterior_probs(data, params)
        assert np.allclose(resp.probs, 0.5, atol=1e-14)

    def test_three_point_fixture_against_bayes_oracle(self):
        data = Dataset(
            np.array([0.0, 1.0, 3.0]),
            np.array([[1.0, -1.0], [1.0, 0.5], [1.0, 2.0]]),
        )
        params = ModelParams(
            np.array([0.4, 0.6]),
            np.array([[0.2, 0.9], [1.5, -0.3]]),
            np.array([0.7, 1.8]),
        )
        resp = posterior_probs(data, params)
        for i in range(3):
            num = [
                params.weights[g]
                * mp_density(
                    float(data.responses[i]), data.design[i], params.coefficients[g],
                    float(params.variances[g]),
                )
                for g in range(2)
            ]
            denom = sum(num)
            for g in range(2):
                assert resp.probs[i, g] == pytest.approx(num[g] / denom, rel=1e-12)

    @staticmethod
    def _overflowing_residual():
        # the first residual squares past the largest float
        data = Dataset(np.array([1e200, 0.0]), np.array([[1.0], [1.0]]))
        params = ModelParams(
            np.array([0.5, 0.5]), np.array([[0.0], [0.1]]), np.array([1.0, 1.0])
        )
        return data, params

    def test_underflow_rows_fall_back_to_uniform(self):
        resp = posterior_probs(*self._overflowing_residual())
        assert resp.underflow[0]
        assert not resp.underflow[1]
        assert np.allclose(resp.probs[0], [0.5, 0.5])

    def test_overflowing_residual_warns_nothing(self):
        data, params = self._overflowing_residual()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = posterior_probs(data, params)
        assert resp.underflow[0]

    def test_rows_sum_to_one_property(self):
        # >= 1000 random fixtures
        rng = np.random.default_rng(6)
        for _ in range(1000):
            G = int(rng.integers(1, 5))
            J = int(rng.integers(1, 4))
            n = int(rng.integers(1, 8))
            data = random_dataset(rng, n, J)
            params = random_params(rng, G, J, var_low=1e-4, var_high=50.0)
            resp = posterior_probs(data, params)
            assert np.all(np.abs(resp.probs.sum(axis=1) - 1.0) <= 1e-10)


class TestClassify:
    def test_argmax(self):
        resp = Responsibilities(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert classify(resp).tolist() == [0, 1]

    def test_tie_breaks_to_smallest_index(self):
        resp = Responsibilities(np.array([[0.5, 0.5]]))
        assert classify(resp).tolist() == [0]

    def test_matches_posterior_fixture(self):
        data = Dataset(
            np.array([0.0, 1.0, 3.0]),
            np.array([[1.0, -1.0], [1.0, 0.5], [1.0, 2.0]]),
        )
        params = ModelParams(
            np.array([0.4, 0.6]),
            np.array([[0.2, 0.9], [1.5, -0.3]]),
            np.array([0.7, 1.8]),
        )
        resp = posterior_probs(data, params)
        assert classify(resp).tolist() == np.argmax(resp.probs, axis=1).tolist()


class TestMinVarianceRatio:
    @pytest.mark.parametrize(
        "variances,expected",
        [((2.0, 2.0, 2.0), 1.0), ((1.0, 4.0), 0.25), ((0.5, 2.0, 8.0), 0.0625)],
    )
    def test_values(self, variances, expected):
        params = ModelParams(
            np.full(len(variances), 1.0 / len(variances)),
            np.zeros((len(variances), 1)),
            np.array(variances),
        )
        assert min_variance_ratio(params) == pytest.approx(expected, rel=1e-14)

    def test_single_component(self):
        params = ModelParams(np.array([1.0]), np.zeros((1, 1)), np.array([3.0]))
        assert min_variance_ratio(params) == 1.0


class TestInvariants:
    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, np.nan]), np.ones((2, 1)))

    def test_dataset_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0]), np.ones((2, 1)))

    def test_params_reject_bad_weights(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(np.array([0.6, 0.6]), np.zeros((2, 1)), np.ones(2))

    def test_params_reject_nonpositive_variance(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(np.array([0.5, 0.5]), np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_responsibilities_reject_bad_rows(self):
        with pytest.raises(ValueError):
            Responsibilities(np.array([[0.7, 0.7]]))

    @pytest.mark.parametrize("responses, design, names, message", [
        (np.ones((2, 1)), np.ones((2, 1)), (), "responses must be 1-d and design 2-d"),
        (np.ones(2), np.ones(2), (), "responses must be 1-d and design 2-d"),
        (np.ones(0), np.ones((0, 1)), (), "need at least one observation"),
        (np.ones(2), np.empty((2, 0)), (),
         "design has no columns: an intercept or a regressor is needed"),
        (np.ones(2), np.ones((2, 2)), ("a",), "feature_names length must match design columns"),
    ], ids=["2-d-responses", "1-d-design", "empty", "no-columns", "names-length"])
    def test_dataset_rejects_bad_layout(self, responses, design, names, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(responses, design, names)

    @pytest.mark.parametrize("weights, coefficients, variances, message", [
        (np.ones((1, 1)), np.zeros((1, 1)), np.ones(1), "bad parameter shapes"),
        (np.ones(1), np.zeros(1), np.ones(1), "bad parameter shapes"),
        (np.ones(1), np.zeros((1, 1)), np.ones((1, 1)), "bad parameter shapes"),
        (np.full(2, 0.5), np.zeros((1, 1)), np.ones(2), "must share G >= 1"),
        (np.full(2, 0.5), np.zeros((2, 1)), np.ones(3), "must share G >= 1"),
        (np.ones(0), np.zeros((0, 1)), np.ones(0), "must share G >= 1"),
    ], ids=["2-d-weights", "1-d-coefficients", "2-d-variances", "coefficients-G",
            "variances-G", "no-components"])
    def test_params_reject_bad_shapes(self, weights, coefficients, variances, message):
        with pytest.raises(InvalidParameterError, match=f"{message}$"):
            ModelParams(weights, coefficients, variances)

    @pytest.mark.parametrize("probs, message", [
        (np.full(2, 0.5), "probs must be a matrix"),
        (np.array([[1.5, -0.5]]), "probabilities outside [0, 1]"),
    ], ids=["vector", "outside-unit-interval"])
    def test_responsibilities_reject_bad_values(self, probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Responsibilities(probs)


def _reference_fault(w, B, v):
    """The full classification of one parameter set, first fault in _PARAM_FAULTS order."""
    if not (np.isfinite(w).all() and np.isfinite(B).all() and np.isfinite(v).all()):
        return 0
    if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
        return 1
    if (v <= 0).any():
        return 2
    return -1


class TestCheckParams:
    FAULTS = ("w-nan", "w-inf", "B-nan", "B-inf", "v-nan", "v-inf",
              "w-negative", "w-sum", "v-zero")

    @staticmethod
    def _inject(rng, w, B, v, fault):
        g = rng.integers(w.size)
        kind, what = fault.split("-")
        if what in ("nan", "inf"):
            target = {"w": w, "v": v}.get(kind)
            value = math.nan if what == "nan" else rng.choice([math.inf, -math.inf])
            if target is None:
                B[g, rng.integers(B.shape[1])] = value
            else:
                target[g] = value
        elif what == "negative":
            w[g] = -w[g] - 1e-3
        elif what == "sum":
            w[g] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.5, -1.0)
        else:
            v[g] = 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_codes_equal_full_classification(self, seed):
        # members with zero, one or several faults at once, over two member axes
        rng = np.random.default_rng(seed)
        G, J = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        shape = (3, 4)
        w = rng.dirichlet(np.ones(G), size=shape)
        B = rng.normal(0.0, 3.0, size=(*shape, G, J))
        v = rng.uniform(0.1, 4.0, size=(*shape, G))
        for idx in np.ndindex(*shape):
            for fault in rng.choice(self.FAULTS, size=rng.integers(0, 4), replace=False):
                self._inject(rng, w[idx], B[idx], v[idx], fault)
        expected = np.array([_reference_fault(w[i], B[i], v[i]) for i in np.ndindex(*shape)])
        assert model._check_params(w, B, v).tolist() == expected.reshape(shape).tolist()
        for i in np.ndindex(*shape):          # each member alone, valid ones on the fast path
            assert model._check_params(w[i], B[i], v[i]) == _reference_fault(w[i], B[i], v[i])
        valid = expected.reshape(shape) < 0
        if valid.any():
            assert model._check_params(w[valid], B[valid], v[valid]).tolist() == [-1] * valid.sum()

    def test_fast_path_with_no_members(self):
        codes = model._check_params(np.ones((0, 2)) / 2, np.zeros((0, 2, 3)), np.ones((0, 2)))
        assert codes.shape == (0,)


def test_import_loads_no_scipy():
    src = str(Path(clustreg.__file__).resolve().parents[1])
    code = "import sys, clustreg; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
