import math
import warnings

import mpmath
import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    Dataset,
    EmConfig,
    InvalidParameterError,
    ModelParams,
    NumericalError,
    Responsibilities,
    SingularComponentError,
    Variant,
    clamp_variances,
    component_density,
    homoscedastic_variance,
    initialize,
    log_likelihood,
    m_step_betas,
    m_step_variances,
    m_step_weights,
    min_variance_ratio,
    multi_start_fit,
    posterior_probs,
    run_em,
)
from clustreg import em, io
from conftest import make_two_line_data, random_dataset, random_params


def mp_weighted_ols(X, y, z):
    """Extended-precision normal-equations oracle for one component."""
    with mpmath.workdps(60):
        n, J = X.shape
        A = mpmath.zeros(J, J)
        b = mpmath.zeros(J, 1)
        for i in range(n):
            zi = mpmath.mpf(float(z[i]))
            for a in range(J):
                b[a] += zi * mpmath.mpf(float(X[i, a])) * mpmath.mpf(float(y[i]))
                for c in range(J):
                    A[a, c] += zi * mpmath.mpf(float(X[i, a])) * mpmath.mpf(float(X[i, c]))
        sol = mpmath.lu_solve(A, b)
        return np.array([float(sol[j]) for j in range(J)])


class TestEStep:
    def test_posterior_is_bayes_rule(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng, 10, 2)
        params = random_params(rng, 2, 2)
        joint = np.array([
            [
                params.weights[g] * component_density(
                    data.responses[i], data.design[i], params.coefficients[g],
                    params.variances[g],
                )
                for g in range(2)
            ]
            for i in range(data.n)
        ])
        want = joint / joint.sum(axis=1, keepdims=True)
        assert np.allclose(posterior_probs(data, params).probs, want, rtol=1e-12, atol=0)

    def test_single_component_all_ones(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 5, 2)
        params = random_params(rng, 1, 2)
        assert np.allclose(posterior_probs(data, params).probs, 1.0)


class TestMStepWeights:
    def test_hard_assignment(self):
        resp = Responsibilities(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        )
        assert m_step_weights(resp).tolist() == [0.5, 0.5]

    def test_constant_rows(self):
        resp = Responsibilities(np.tile([0.25, 0.75], (6, 1)))
        assert np.allclose(m_step_weights(resp), [0.25, 0.75])

    def test_random_matrix_column_means(self):
        rng = np.random.default_rng(2)
        raw = rng.dirichlet(np.ones(3), size=5)
        resp = Responsibilities(raw)
        assert np.allclose(m_step_weights(resp), raw.mean(axis=0), atol=1e-15)
        assert abs(m_step_weights(resp).sum() - 1.0) <= 1e-12


class TestMStepBetas:
    def test_exact_line_recovery(self):
        x = np.arange(6.0)
        data = Dataset(2 + 3 * x, np.column_stack([np.ones(6), x]))
        resp = Responsibilities(np.ones((6, 1)))
        betas = m_step_betas(data, resp)
        assert np.allclose(betas[0], [2.0, 3.0], atol=1e-10)

    def test_weight_scale_cancels(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 10, 2)
        full = Responsibilities(np.ones((10, 1)))
        # rows need not sum to 1 for the math, but the type enforces it, so
        # compare one-component fits on z = 1 vs z = 0.5 via a 2-component trick
        half = Responsibilities(np.full((10, 2), 0.5))
        b_full = m_step_betas(data, full)[0]
        b_half = m_step_betas(data, half)
        assert np.allclose(b_half[0], b_full, atol=1e-12)
        assert np.allclose(b_half[1], b_full, atol=1e-12)

    def test_weighted_fixture_against_oracle(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(6), rng.normal(size=(6, 1))])
        y = rng.normal(size=6)
        data = Dataset(y, X)
        z = rng.dirichlet(np.ones(2), size=6)
        betas = m_step_betas(data, Responsibilities(z))
        for g in range(2):
            expected = mp_weighted_ols(X, y, z[:, g])
            assert np.allclose(betas[g], expected, rtol=1e-12)

    def test_singular_design_raises_with_component(self):
        X = np.column_stack([np.ones(5), np.ones(5)])  # collinear columns
        data = Dataset(np.arange(5.0), X)
        resp = Responsibilities(np.ones((5, 1)))
        with pytest.raises(SingularComponentError) as exc:
            m_step_betas(data, resp)
        assert exc.value.component == 0

    def test_underweighted_component_raises(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 6, 3)
        z = np.column_stack([np.full(6, 0.999), np.full(6, 0.001)])
        with pytest.raises(SingularComponentError) as exc:
            m_step_betas(data, Responsibilities(z))
        assert exc.value.component == 1

    def test_singular_member_leaves_the_other_members_bits(self):
        # two members solved together, the first on collinear columns: the
        # failure names it, and the second gets the bits of its own solve
        rng = np.random.default_rng(6)
        good = random_dataset(rng, 8, 2)
        X = np.stack([np.ones((8, 2)), good.design])
        Xt = np.ascontiguousarray(X.swapaxes(1, 2))
        y = np.stack([good.responses] * 2)[:, None]
        Z = np.stack([rng.dirichlet(np.ones(2), size=8).T] * 2)
        betas, failures = em._solve_betas(Xt, y, Z, Z.sum(axis=-1))
        alone, none = em._solve_betas(Xt[1:], y[1:], Z[1:], Z[1:].sum(axis=-1))
        assert none == []
        assert [(a, type(exc)) for a, exc in failures] == [(0, SingularComponentError)]
        assert np.array_equal(betas[1], alone[0])

    @staticmethod
    def _two_scale_design(scale):
        # Component 0 owns four rows of [1, +-1] (cross-product diag(4, 4)),
        # component 1 four rows of [1, +-scale] (diag(4, 4 scale^2)), so the
        # 2-norm condition number of component 1 is 1 / scale^2.
        x = np.array([1.0, -1.0, 1.0, -1.0, scale, -scale, scale, -scale])
        data = Dataset(np.arange(8.0), np.column_stack([np.ones(8), x]))
        z = np.repeat([[1.0, 0.0], [0.0, 1.0]], 4, axis=0)
        return data, Responsibilities(z)

    def test_condition_number_above_limit_raises(self):
        data, resp = self._two_scale_design(10.0 ** -6.5)
        X = data.design[4:]
        assert np.linalg.cond(X.T @ X) == pytest.approx(1e13, rel=1e-6)
        with pytest.raises(SingularComponentError, match="condition number") as exc:
            m_step_betas(data, resp)
        assert exc.value.component == 1

    def test_condition_number_below_limit_passes(self):
        data, resp = self._two_scale_design(10.0 ** -5.5)
        X = data.design[4:]
        assert np.linalg.cond(X.T @ X) == pytest.approx(1e11, rel=1e-6)
        betas = m_step_betas(data, resp)
        assert np.all(np.isfinite(betas))


class TestMStepVariances:
    def test_perfect_fit_gives_zero(self):
        x = np.arange(5.0)
        data = Dataset(1 + 2 * x, np.column_stack([np.ones(5), x]))
        resp = Responsibilities(np.ones((5, 1)))
        v = m_step_variances(data, resp, np.array([[1.0, 2.0]]))
        assert v[0] == pytest.approx(0.0, abs=1e-20)

    def test_unit_weights_mean_of_squares(self):
        data = Dataset(np.array([1.0, -1.0]), np.array([[1.0], [1.0]]))
        resp = Responsibilities(np.ones((2, 1)))
        v = m_step_variances(data, resp, np.array([[0.0]]))
        assert v[0] == pytest.approx(1.0)

    def test_weighted_fixture_against_oracle(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 5, 2)
        z = rng.dirichlet(np.ones(2), size=5)
        betas = np.array([[0.3, -0.2], [1.0, 0.5]])
        v = m_step_variances(data, Responsibilities(z), betas)
        resid = data.responses[:, None] - data.design @ betas.T
        for g in range(2):
            expected = float(np.sum(z[:, g] * resid[:, g] ** 2) / np.sum(z[:, g]))
            assert v[g] == pytest.approx(expected, rel=1e-13)

    def test_empty_component_raises(self):
        data = Dataset(np.array([1.0, 2.0]), np.array([[1.0], [1.0]]))
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularComponentError, match="zero total responsibility") as info:
            m_step_variances(data, Responsibilities(z), np.zeros((2, 1)))
        assert info.value.component == 1


class TestHomoscedasticVariance:
    def test_single_component_matches_per_component(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 8, 2)
        resp = Responsibilities(np.ones((8, 1)))
        betas = np.array([[0.1, 0.2]])
        assert homoscedastic_variance(data, resp, betas) == pytest.approx(
            m_step_variances(data, resp, betas)[0], rel=1e-14
        )

    def test_hard_assignment_equal_variances(self):
        # two groups each with residuals (+1, -1) around their own line
        data = Dataset(
            np.array([1.0, -1.0, 6.0, 4.0]),
            np.array([[1.0], [1.0], [1.0], [1.0]]),
        )
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        betas = np.array([[0.0], [5.0]])
        assert homoscedastic_variance(data, Responsibilities(z), betas) == pytest.approx(1.0)

    def test_soft_assignment_double_sum_oracle(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 5, 2)
        z = rng.dirichlet(np.ones(3), size=5)
        betas = rng.normal(size=(3, 2))
        resid = data.responses[:, None] - data.design @ betas.T
        expected = float(np.sum(z * resid**2) / data.n)
        assert homoscedastic_variance(data, Responsibilities(z), betas) == pytest.approx(
            expected, rel=1e-13
        )


class TestClampVariances:
    def test_c_one_forces_target(self):
        spec = ConstraintSpec.constrained(1.0, 2.0)
        assert clamp_variances(np.array([5.0, 0.1]), spec).tolist() == [2.0, 2.0]

    def test_quarter_example(self):
        spec = ConstraintSpec.constrained(0.25, 4.0)
        assert spec.lower == pytest.approx(2.0)
        assert spec.upper == pytest.approx(8.0)
        assert clamp_variances(np.array([1.0, 5.0, 10.0]), spec).tolist() == [2.0, 5.0, 8.0]

    def test_vanishing_c_passes_through(self):
        target = 3.0
        spec = ConstraintSpec.constrained(1e-12, target)
        raw = np.array([target * 1e-5, target, target * 1e5])
        assert np.array_equal(clamp_variances(raw, spec), raw)

    def test_output_satisfies_ratio_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = rng.uniform(0.01, 1.0)
            spec = ConstraintSpec.constrained(c, rng.uniform(0.5, 5.0))
            raw = rng.uniform(1e-4, 100.0, size=4)
            clamped = clamp_variances(raw, spec)
            assert clamped.min() / clamped.max() >= c - 1e-12

    def test_rejects_wrong_variant(self):
        with pytest.raises(ValueError):
            clamp_variances(np.array([1.0]), ConstraintSpec.heteroscedastic())


class TestConstraintSpec:
    def test_bounds_satisfy_ratio(self):
        spec = ConstraintSpec.constrained(0.3, 2.5)
        assert spec.lower / spec.upper == pytest.approx(0.3, rel=1e-12)

    def test_rejects_out_of_range_c(self):
        for c in (0.0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                ConstraintSpec.constrained(c, 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_target_not_positive_and_finite(self, target):
        with pytest.raises(ValueError, match="positive finite target"):
            ConstraintSpec.constrained(0.5, target)

    def test_unconstrained_variants_take_no_c(self):
        with pytest.raises(ValueError):
            ConstraintSpec(Variant.HETN, c=0.5)


class TestEmConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", math.nan),
        ("tolerance", 0.0), ("tolerance", -1e-8), ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("variance_floor", 0.0), ("variance_floor", math.nan),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            EmConfig(**{field: value})


class TestInitialize:
    def test_single_component_is_ols(self):
        data, _, _ = make_two_line_data(seed=10, n=40)
        params = initialize(data, 1, ConstraintSpec.heteroscedastic(), seed=0)
        coef, *_ = np.linalg.lstsq(data.design, data.responses, rcond=None)
        assert np.allclose(params.coefficients[0], coef, atol=1e-10)
        assert params.weights.tolist() == [1.0]

    def test_deterministic_given_seed(self):
        data, _, _ = make_two_line_data(seed=11, n=40)
        a = initialize(data, 2, ConstraintSpec.heteroscedastic(), seed=5)
        b = initialize(data, 2, ConstraintSpec.heteroscedastic(), seed=5)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.variances, b.variances)

    def test_constrained_init_is_feasible(self):
        data, _, _ = make_two_line_data(seed=12, n=40)
        for c in (1e-6, 0.1, 1.0):
            spec = ConstraintSpec.constrained(c, 0.9)
            params = initialize(data, 2, spec, seed=3)
            assert np.all(params.variances >= spec.lower - 1e-15)
            assert np.all(params.variances <= spec.upper + 1e-15)

    def test_rejects_too_small_sample(self):
        data = Dataset(np.arange(4.0), np.column_stack([np.ones(4), np.arange(4.0)]))
        with pytest.raises(ValueError):
            initialize(data, 2, ConstraintSpec.heteroscedastic(), seed=0)


class TestRunEm:
    @pytest.mark.parametrize("variant", ["hetn", "homn", "conc"])
    def test_recovers_separated_lines(self, variant):
        data, truth, _ = make_two_line_data(seed=13, n=100, noise=(0.05, 0.05))
        if variant == "conc":
            spec = ConstraintSpec.constrained(0.5, 0.0025)
        elif variant == "hetn":
            spec = ConstraintSpec.heteroscedastic()
        else:
            spec = ConstraintSpec.homoscedastic()
        fit = multi_start_fit(data, 2, spec, EmConfig(), 5, seed=1)
        est = fit.params.coefficients
        order = np.argsort(est[:, 0])
        want = truth[np.argsort(truth[:, 0])]
        assert np.allclose(est[order], want, atol=0.05)

    def test_conc_c_one_matches_homn_loglik(self):
        data, _, _ = make_two_line_data(seed=14, n=80)
        config = EmConfig(tolerance=1e-12)
        hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), config, 10, seed=2)
        target = float(hom.params.variances[0])
        spec = ConstraintSpec.constrained(1.0, target)
        conc = multi_start_fit(data, 2, spec, config, 10, seed=2)
        assert np.allclose(conc.params.variances, target)
        assert conc.loglik == pytest.approx(hom.loglik, abs=1e-5)

    def test_conc_vanishing_c_matches_hetn(self):
        data, _, _ = make_two_line_data(seed=15, n=80)
        config = EmConfig(tolerance=1e-12)
        hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), config, 5, seed=3)
        target = float(hom.params.variances[0])
        spec = ConstraintSpec.constrained(1e-12, target)
        init_c = initialize(data, 2, spec, seed=4)
        conc = run_em(data, 2, spec, config, init_c)
        het = run_em(
            data, 2, ConstraintSpec.heteroscedastic(), config,
            ModelParams(init_c.weights, init_c.coefficients, init_c.variances),
        )
        assert not het.degenerate
        assert conc.loglik == pytest.approx(het.loglik, abs=1e-6)

    def test_trace_monotone_and_final_entry(self):
        data, _, _ = make_two_line_data(seed=16, n=60)
        fit = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 3, seed=5)
        assert fit.loglik == fit.loglik_trace[-1]
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_degenerate_collapse_flagged(self):
        # four points exactly on a line embedded in scatter: a heteroscedastic
        # component seeded on them collapses its variance
        rng = np.random.default_rng(17)
        x = np.concatenate([np.array([0.0, 1.0, 2.0, 3.0]), rng.uniform(-3, 3, 26)])
        y = np.concatenate(
            [2 + 3 * x[:4], rng.normal(0, 4, 26)]
        )
        data = Dataset(y, np.column_stack([np.ones(30), x]))
        init = ModelParams(
            np.array([0.15, 0.85]),
            np.array([[2.0, 3.0], [0.0, 0.0]]),
            np.array([1e-4, 16.0]),
        )
        fit = run_em(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), init)
        assert fit.degenerate

    def test_zero_responsibility_component_is_singular(self):
        # A component with zero weight gets zero responsibility everywhere;
        # the normal equations reject it before any variance update could
        # find it empty.
        data, _, _ = make_two_line_data(seed=27, n=40)
        init = ModelParams(
            np.array([1.0, 0.0]), np.array([[2.0, 3.0], [-1.0, -2.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularComponentError, match="effective sample size 0 < 2") as info:
            run_em(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), init)
        assert info.value.component == 1

    def test_conc_requires_feasible_init(self):
        data, _, _ = make_two_line_data(seed=18, n=40)
        spec = ConstraintSpec.constrained(0.9, 1.0)
        bad = ModelParams(
            np.array([0.5, 0.5]), np.zeros((2, 2)), np.array([100.0, 1.0])
        )
        with pytest.raises(ValueError):
            run_em(data, 2, spec, EmConfig(), bad)

    def test_fixed_point_consistency(self):
        data, _, _ = make_two_line_data(seed=19, n=80)
        config = EmConfig(tolerance=1e-10)
        fit = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), config, 5, seed=6)
        assert fit.converged
        again = run_em(data, 2, ConstraintSpec.heteroscedastic(),
                       EmConfig(max_iterations=1, tolerance=1e-300), fit.params)
        for before, after in (
            (fit.params.weights, again.params.weights),
            (fit.params.coefficients, again.params.coefficients),
            (fit.params.variances, again.params.variances),
        ):
            rel = np.abs(after - before) / (1.0 + np.abs(before))
            assert np.all(rel < 1e-6)

    def test_homn_single_component_equals_ols(self):
        data, _, _ = make_two_line_data(seed=20, n=50)
        fit = multi_start_fit(data, 1, ConstraintSpec.homoscedastic(), EmConfig(), 1, seed=0)
        oracle = mp_weighted_ols(data.design, data.responses, np.ones(data.n))
        assert np.allclose(fit.params.coefficients[0], oracle, rtol=1e-10, atol=1e-12)


class TestEquivariance:
    def test_matched_iterates_scale_with_response(self):
        a = 10.0
        data, _, _ = make_two_line_data(seed=21, n=80)
        scaled = Dataset(a * data.responses, data.design, data.feature_names)
        config = EmConfig(max_iterations=40, tolerance=1e-300)
        for make_spec in (
            lambda t: ConstraintSpec.heteroscedastic(),
            lambda t: ConstraintSpec.homoscedastic(),
            lambda t: ConstraintSpec.constrained(0.3, t),
        ):
            base_target = 1.0
            fit = run_em(
                data, 2, make_spec(base_target), config,
                initialize(data, 2, make_spec(base_target), seed=7),
            )
            fit_s = run_em(
                scaled, 2, make_spec(base_target * a * a), config,
                initialize(scaled, 2, make_spec(base_target * a * a), seed=7),
            )
            assert np.max(np.abs(fit.responsibilities.probs - fit_s.responsibilities.probs)) < 1e-6
            assert np.array_equal(fit.labels, fit_s.labels)
            rel_b = np.abs(fit_s.params.coefficients - a * fit.params.coefficients) / (
                np.abs(a * fit.params.coefficients) + 1e-12
            )
            assert np.max(rel_b) < 1e-6
            rel_v = np.abs(fit_s.params.variances - a * a * fit.params.variances) / (
                a * a * fit.params.variances
            )
            assert np.max(rel_v) < 1e-6


class TestMultiStart:
    def test_one_start_equals_run_em(self):
        data, _, _ = make_two_line_data(seed=22, n=60)
        spec = ConstraintSpec.heteroscedastic()
        config = EmConfig()
        best = multi_start_fit(data, 2, spec, config, 1, seed=9)
        base = np.random.SeedSequence(9)
        init = initialize(data, 2, spec, base.spawn(1)[0])
        direct = run_em(data, 2, spec, config, init)
        assert best.loglik == direct.loglik

    def test_best_dominates_all_starts(self):
        data, _, _ = make_two_line_data(seed=23, n=60)
        best, outcomes = multi_start_fit(
            data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 6, seed=10,
            return_all=True,
        )
        for res in outcomes:
            if not isinstance(res, Exception) and not res.degenerate:
                assert best.loglik >= res.loglik

    @staticmethod
    def _pool(monkeypatch, outcomes):
        """The winner and outcomes of a pool whose kernel returns ``outcomes``.

        Each outcome is an exception or a (loglik, degenerate) pair.
        """
        def run(loglik, degenerate):
            return em._Run(np.full(2, 0.5), np.zeros((2, 2)), np.ones(2), loglik, [loglik],
                           "degenerate" if degenerate else "tolerance", 1, ())

        pool = [o if isinstance(o, Exception) else run(*o) for o in outcomes]
        monkeypatch.setattr(em, "_em_lanes", lambda *args: list(pool))
        data, _, _ = make_two_line_data(seed=22, n=60)
        return multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(),
                               len(pool), seed=0, return_all=True)

    def test_best_non_degenerate_beats_higher_degenerate(self, monkeypatch):
        best, outcomes = self._pool(monkeypatch, [
            SingularComponentError(0), (50.0, True), (-9.0, False), (-4.0, False),
            (-4.0, False), (-6.0, True),
        ])
        assert best is outcomes[3]

    def test_all_degenerate_returns_best_degenerate(self, monkeypatch):
        best, outcomes = self._pool(monkeypatch, [(-3.0, True), (-1.0, True), (-1.0, True)])
        assert best is outcomes[1]

    def test_equal_logliks_return_first_start(self):
        # with G = 1 every start reaches the same fit after its first M-step
        data, _, _ = make_two_line_data(seed=25, n=60)
        best, outcomes = multi_start_fit(
            data, 1, ConstraintSpec.heteroscedastic(), EmConfig(), 4, seed=13, return_all=True,
        )
        assert len({res.loglik for res in outcomes}) == 1
        assert best is outcomes[0]

    @pytest.mark.parametrize(
        "spec", [ConstraintSpec.heteroscedastic(), ConstraintSpec.homoscedastic()],
        ids=["hetn", "homn"],
    )
    def test_tiny_response_scale_raises_invalid_parameter(self, spec):
        # Variances of responses scaled by 1e-200 underflow to zero in the
        # first M-step; the candidate invariant check must reject that.
        # A start that fails the check leaves before its E-step, so no
        # log(0) warning is emitted on the way.
        data, _, _ = make_two_line_data(seed=26, n=40)
        tiny = Dataset(data.responses * 1e-200, data.design)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            message = "^variances must be strictly positive$"
            with pytest.raises(InvalidParameterError, match=message) as info:
                multi_start_fit(tiny, 2, spec, EmConfig(), 5, seed=12)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert isinstance(info.value, NumericalError)

    @pytest.mark.parametrize("variant", ["hetn", "homn", "conc"])
    def test_flat_response_is_a_numerical_error(self, variant):
        # 0.1 is not a binary fraction: least squares on a constant 0.1
        # leaves rounding residuals, and EM would report variances ~1e-33
        data, _, _ = make_two_line_data(seed=26, n=40)
        flat = Dataset(np.full(40, 0.1), data.design)
        spec = ConstraintSpec(variant, *((0.5, 1.0) if variant == "conc" else ()))
        init = ModelParams(np.full(2, 0.5), np.zeros((2, 2)), np.ones(2))
        message = r"^responses have no spread \(max == min\)$"
        with pytest.raises(NumericalError, match=message):
            multi_start_fit(flat, 2, spec, EmConfig(), 3, seed=0)
        with pytest.raises(NumericalError, match=message):
            run_em(flat, 2, spec, EmConfig(), init)

    @pytest.mark.parametrize("variant", ["hetn", "homn", "conc"])
    def test_exact_linear_response_is_degenerate(self, variant):
        # every observation lies on one line, so a component's variance
        # collapses to rounding noise (~1e-34) under every variant
        data, _, _ = make_two_line_data(seed=26, n=40)
        line = Dataset(0.1 + 0.3 * data.design[:, 1], data.design)
        spec = ConstraintSpec(variant, *((0.5, 1.0) if variant == "conc" else ()))
        fit = multi_start_fit(line, 2, spec, EmConfig(), 3, seed=0)
        assert fit.degenerate and not fit.converged
        init = ModelParams(np.full(2, 0.5), np.array([[0.0, 0.3], [0.2, 0.3]]), np.ones(2))
        fit = run_em(line, 2, spec, EmConfig(), init)
        assert fit.degenerate and not fit.converged

    def test_no_components_is_a_value_error(self):
        data, _, _ = make_two_line_data(seed=24, n=60)
        spec = ConstraintSpec.heteroscedastic()
        init = ModelParams(np.full(2, 0.5), np.zeros((2, 2)), np.ones(2))
        for G in (0, -1):
            with pytest.raises(ValueError, match="^G must be >= 1$"):
                multi_start_fit(data, G, spec, EmConfig(), 3, seed=0)
            with pytest.raises(ValueError, match="^G must be >= 1$"):
                run_em(data, G, spec, EmConfig(), init)

    def test_deterministic(self):
        data, _, _ = make_two_line_data(seed=24, n=60)
        a = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 4, seed=11)
        b = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 4, seed=11)
        assert a.loglik == b.loglik
        assert np.array_equal(a.params.coefficients, b.params.coefficients)


class TestStopReasons:
    """Each run ends for one reason of STOP_REASONS; ``converged`` means ``tolerance``."""

    @pytest.fixture(scope="class")
    def iris(self):
        return io.load_benchmark("iris").data

    def test_rejected_step_is_not_converged(self, iris):
        # the moving clamp target makes the last step of each start lower
        # the log-likelihood; the run keeps the iterate it started that step from
        spec = ConstraintSpec.constrained(0.1, 0.07534445197656116)
        _, outcomes = multi_start_fit(iris, 3, spec, EmConfig(), 5, seed=0, return_all=True)
        for fit in outcomes:
            assert fit.stop_reason == "rejected_step"
            assert fit.converged is False and fit.degenerate is False
            assert fit.loglik == fit.loglik_trace[-1]
            assert fit.iterations == len(fit.loglik_trace)    # the rejected step counts
        init = initialize(iris, 3, spec, np.random.SeedSequence(0).spawn(1)[0])
        fit = run_em(iris, 3, spec, EmConfig(), init, keep_history=True)
        assert fit.stop_reason == "rejected_step"
        assert len(fit.param_history) == len(fit.loglik_trace)
        assert np.array_equal(fit.param_history[-1].variances, fit.params.variances)

    def test_tolerance_met_on_the_capped_iteration(self, iris):
        spec = ConstraintSpec.heteroscedastic()
        init = initialize(iris, 3, spec, np.random.SeedSequence(0).spawn(1)[0])
        free = run_em(iris, 3, spec, EmConfig(), init)
        assert free.stop_reason == "tolerance" and free.converged
        at_cap = run_em(iris, 3, spec, EmConfig(max_iterations=free.iterations), init)
        assert at_cap.stop_reason == "tolerance" and at_cap.converged
        assert at_cap.loglik == free.loglik
        short = run_em(iris, 3, spec, EmConfig(max_iterations=free.iterations - 1), init)
        assert short.stop_reason == "max_iterations" and not short.converged

    def test_degenerate_takes_precedence(self):
        data, _, _ = make_two_line_data(seed=26, n=40)
        line = Dataset(0.1 + 0.3 * data.design[:, 1], data.design)
        init = ModelParams(np.full(2, 0.5), np.array([[0.0, 0.3], [0.2, 0.3]]), np.ones(2))
        fit = run_em(line, 2, ConstraintSpec.heteroscedastic(), EmConfig(max_iterations=1), init)
        assert fit.stop_reason == "degenerate" and fit.iterations == 1


class TestKernelEquivalence:
    """run_em must take exactly the steps the public step functions compose."""

    @staticmethod
    def _composed_steps(data, spec, init, k):
        params = init
        lls = [log_likelihood(data, params)]
        G = init.n_components
        for _ in range(k):
            resp = posterior_probs(data, params)
            weights = m_step_weights(resp)
            betas = m_step_betas(data, resp)
            if spec.variant is Variant.HOMN:
                variances = np.full(G, homoscedastic_variance(data, resp, betas))
            else:
                variances = m_step_variances(data, resp, betas)
            if spec.variant is Variant.CONC:
                target = homoscedastic_variance(data, resp, betas)
                variances = clamp_variances(variances, ConstraintSpec.constrained(spec.c, target))
            params = ModelParams(weights, betas, variances)
            lls.append(log_likelihood(data, params))
        return params, np.array(lls)

    @pytest.mark.parametrize(
        "spec",
        [
            ConstraintSpec.heteroscedastic(),
            ConstraintSpec.homoscedastic(),
            ConstraintSpec.constrained(0.3, 0.2),
        ],
        ids=["hetn", "homn", "conc"],
    )
    def test_run_em_matches_composed_steps(self, two_lines, spec):
        data, _, _ = two_lines
        k = 6
        init = initialize(data, 2, spec, seed=31)
        fit = run_em(data, 2, spec, EmConfig(max_iterations=k, tolerance=1e-300), init)
        assert fit.iterations == k and fit.loglik_trace.shape == (k + 1,)
        params, lls = self._composed_steps(data, spec, init, k)
        for got, want in (
            (fit.params.weights, params.weights),
            (fit.params.coefficients, params.coefficients),
            (fit.params.variances, params.variances),
            (fit.loglik_trace, lls),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestMonotonicityProperty:
    def test_random_fits_monotone_and_constrained(self):
        rng = np.random.default_rng(25)
        checked = 0
        for trial in range(60):
            G = int(rng.integers(1, 4))
            n = int(rng.integers(40, 80))
            x = rng.uniform(-3, 3, n)
            X = np.column_stack([np.ones(n), x])
            labels = rng.integers(0, G, n)
            B = rng.normal(0, 3, size=(G, 2))
            s = rng.uniform(0.2, 1.5, size=G)
            y = np.einsum("nj,nj->n", X, B[labels]) + rng.standard_normal(n) * s[labels]
            data = Dataset(y, X)
            c = float(rng.uniform(0.05, 1.0))
            target = float(np.var(y)) / 2
            for spec in (
                ConstraintSpec.heteroscedastic(),
                ConstraintSpec.homoscedastic(),
                ConstraintSpec.constrained(c, target),
            ):
                try:
                    init = initialize(data, G, spec, seed=trial)
                    fit = run_em(data, G, spec, EmConfig(), init, keep_history=True)
                except SingularComponentError:
                    continue
                checked += 1
                if not fit.degenerate:
                    assert np.all(np.diff(fit.loglik_trace) >= -1e-8)
                if spec.variant is Variant.CONC and G > 1:
                    for params in fit.param_history:
                        assert min_variance_ratio(params) >= c - 1e-12
        assert checked >= 100
