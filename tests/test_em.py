import math
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustreg import (
    ConstraintSpec,
    CvConfig,
    Dataset,
    EmConfig,
    InvalidParameterError,
    ModelParams,
    NumericalError,
    Responsibilities,
    SingularComponentError,
    Variant,
    adjusted_rand,
    clamp_variances,
    fit_conc,
    homoscedastic_variance,
    initialize,
    log_likelihood,
    m_step_betas,
    m_step_variances,
    min_variance_ratio,
    multi_start_fit,
    posterior_probs,
    run_em,
)
from clustreg import em, io
from conftest import make_two_line_data, random_dataset, random_params
from reference import component_density, em_history, m_step_weights, svd_lstsq


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


def _plain_eigvalsh_failures(A, totals):
    """The unscreened check: (member, component, reason) of every failing component."""
    J = A.shape[-1]
    eig = np.abs(np.linalg.eigvalsh(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = eig.max(axis=-1) / eig.min(axis=-1)
    return [(a, g, f"effective sample size {totals[a, g]:.3g} < {J}" if totals[a, g] < J
             else f"condition number {conds[a, g]:.3g}")
            for a, g in zip(*((totals < J) | ~(conds <= em._COND_LIMIT)).nonzero())]


def _first_per_member(failures):
    return [f for i, f in enumerate(failures) if i == 0 or failures[i - 1][0] != f[0]]


def _outcome(call):
    try:
        return call()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


@st.composite
def _gram_batches(draw):
    """(A, J, n) designs, (A, 1, n) responses and (A, G, n) weights whose Gram
    matrices X'diag(z)X span near-collinear, badly scaled, weightless and
    non-finite cases."""
    J, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    A, G = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((A, J, n))
    if J > 1 and draw(st.booleans()):
        # the last column is the first plus 10**-k noise: cond about 10**(2k), 1e6..1e16
        X[:, -1] = X[:, 0] + 10.0 ** -draw(st.floats(3.0, 8.0)) * rng.standard_normal((A, n))
    X *= 10.0 ** np.array(draw(st.lists(st.sampled_from([-150, -100, -78, -52, 0, 100, 150]),
                                        min_size=A, max_size=A)))[:, None, None]
    Z = rng.dirichlet(np.ones(G), size=(A, n)).swapaxes(1, 2).copy()
    Z[rng.random(Z.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        X[tuple(rng.integers(0, X.shape))] = value
    return X, rng.standard_normal((A, 1, n)), Z


class TestConditionScreen:
    """The trace/determinant screen in _solve_betas against plain eigvalsh."""

    @given(_gram_batches())
    @settings(max_examples=300)
    def test_screen_matches_plain_eigvalsh(self, batch):
        Xt, y, Z = batch
        J, totals = Xt.shape[1], Z.sum(axis=-1)
        seen, eigvalsh = [], np.linalg.eigvalsh

        def recording_eigvalsh(M):
            seen.append(M.copy())
            return eigvalsh(M)

        def screened():
            with mock.patch.object(np.linalg, "eigvalsh", recording_eigvalsh):
                _, failures = em._solve_betas(Xt, y, Z, totals)
            return [(a, exc.component, str(exc).split(": ", 1)[1]) for a, exc in failures]

        def each_alone():
            # every (member, component) on its own: the whole failing set
            out = []
            for a, g in np.ndindex(*totals.shape):
                _, failures = em._solve_betas(
                    Xt[a:a + 1], y[a:a + 1], Z[a:a + 1, g:g + 1], totals[a:a + 1, g:g + 1])
                out += [(a, g, str(exc).split(": ", 1)[1]) for _, exc in failures]
            return out

        # non-finite and huge entries warn in the products, here and in _solve_betas
        with np.errstate(all="ignore"):
            # the Gram matrices exactly as _solve_betas forms them
            A = (Xt[:, None] * Z[..., None, :]) @ Xt[:, None].swapaxes(-1, -2)
            tr, det = np.einsum("...jj->...", A), np.linalg.det(A)
            passed = ((0.0 < tr) & (np.finfo(float).tiny <= det) & (det < math.inf)
                      & (tr ** J / det <= 1e-2 * em._COND_LIMIT))
            # eigvalsh may not converge on non-finite entries: then both raise
            reference = _outcome(lambda: _plain_eigvalsh_failures(A, totals))
            first = reference if isinstance(reference, str) else _first_per_member(reference)
            assert _outcome(screened) == first
            if not isinstance(reference, str):
                assert each_alone() == reference
        # eigvalsh sees exactly the matrices the bound did not pass, in one call
        if passed.all():
            assert seen == []
        else:
            assert len(seen) == 1 and np.array_equal(seen[0], A[~passed], equal_nan=True)

    def test_near_singular_passes_only_through_eigvalsh(self):
        # cond just under the limit: the bound (100 times under it) cannot pass
        # the matrix, so eigvalsh decides, and the solve goes ahead
        data, resp = TestMStepBetas._two_scale_design(10.0 ** -5.5)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            betas = m_step_betas(data, resp)
        assert spy.call_count == 1 and spy.call_args[0][0].shape == (1, 2, 2)
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
        lower, upper = clamp_variances(np.array([0.0, np.inf]), spec)
        assert lower == pytest.approx(2.0)
        assert upper == pytest.approx(8.0)
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


class TestUpdateVariances:
    """The kernel's one variance rule: the clamp at c = 0 is HetN, at c = 1 HomN."""

    # n = 20 observations per row; the middle row's residuals are all exactly 0
    SS = np.array([[0.3, 1.7, 0.2], [0.0, 0.0, 0.0], [2.5, 0.1, 4.0]])
    TOTALS = np.array([[10.0, 7.5, 2.5], [6.0, 9.0, 5.0], [3.0, 12.0, 5.0]])

    def test_root_zero_is_the_raw_update(self):
        variances, binds = em._update_variances(self.SS, self.TOTALS, 20, np.zeros(3))
        assert variances.tobytes() == (self.SS / self.TOTALS).tobytes()
        assert binds is None

    def test_root_one_gives_every_component_the_pooled_target(self):
        variances, _ = em._update_variances(self.SS, self.TOTALS, 20, np.ones(3))
        target = self.SS.sum(axis=1) / 20
        assert variances.tobytes() == np.repeat(target[:, None], 3, axis=1).tobytes()

    def test_each_row_follows_its_own_root(self):
        roots = np.array([math.sqrt(0.2), 0.0, 1.0])
        variances, _ = em._update_variances(self.SS, self.TOTALS, 20, roots)
        for a in range(len(roots)):
            alone, _ = em._update_variances(self.SS[a:a + 1], self.TOTALS[a:a + 1], 20,
                                            roots[a:a + 1])
            assert variances[a].tobytes() == alone[0].tobytes()
        assert variances[0].tobytes() != (self.SS[0] / self.TOTALS[0]).tobytes()


class TestConstraintSpec:
    def test_bounds_satisfy_ratio(self):
        spec = ConstraintSpec.constrained(0.3, 2.5)
        lower, upper = clamp_variances(np.array([0.0, np.inf]), spec)
        assert lower / upper == pytest.approx(0.3, rel=1e-12)

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

    @pytest.mark.parametrize("value", [10.5, 10.0, "10", True])
    def test_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="^max_iterations must be an integer >= 1"):
            EmConfig(max_iterations=value)

    def test_max_iterations_accepts_numpy_integers(self):
        assert EmConfig(max_iterations=np.int32(10)).max_iterations == 10


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
            lower, upper = clamp_variances(np.array([0.0, np.inf]), spec)
            assert np.all(params.variances >= lower - 1e-15)
            assert np.all(params.variances <= upper + 1e-15)

    def test_rejects_too_small_sample(self):
        data = Dataset(np.arange(4.0), np.column_stack([np.ones(4), np.arange(4.0)]))
        with pytest.raises(ValueError):
            initialize(data, 2, ConstraintSpec.heteroscedastic(), seed=0)

    def test_rejects_no_components(self):
        data, _, _ = make_two_line_data(seed=10, n=40)
        with pytest.raises(ValueError, match="^G must be >= 1$"):
            initialize(data, 0, ConstraintSpec.heteroscedastic(), seed=0)

    def test_groups_are_array_split_of_the_permutation(self):
        # each group's coefficients are the SVD least-squares fit of np.array_split's
        # group, bit for bit, and lstsq's up to rounding
        data, _, _ = make_two_line_data(seed=14, n=23)
        for G in (1, 2, 3, 5):
            params = initialize(data, G, ConstraintSpec.heteroscedastic(), seed=G)
            perm = np.random.default_rng(G).permutation(data.n)
            for g, idx in enumerate(np.array_split(perm, G)):
                X, y = data.design[idx], data.responses[idx]
                assert np.array_equal(params.coefficients[g], svd_lstsq(X, y))
                coef, *_ = np.linalg.lstsq(X, y, rcond=None)
                np.testing.assert_allclose(params.coefficients[g], coef, rtol=1e-12)

    def test_no_full_rank_partition_names_no_component(self):
        data = Dataset(np.arange(12.0), np.ones((12, 2)))    # collinear columns
        with pytest.raises(SingularComponentError) as info:
            initialize(data, 2, ConstraintSpec.heteroscedastic(), seed=0)
        assert info.value.component is None
        assert str(info.value) == "no full-rank start partition in 20 tries"


class TestBatchedStarts:
    """A pool's starts are solved together, a lane batch at a time, with the bits of
    ``initialize``: each start draws from its own stream, and NumPy's stacked SVD
    solves each group's matrix on its own."""

    HETN = ConstraintSpec.heteroscedastic()

    @staticmethod
    def binary_design(n=24):
        # two ones in the binary column: a group without one has rank 2 < J = 3,
        # so about half of the first partitions are redrawn
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(n), np.arange(n) < 2, rng.normal(size=n)])
        return Dataset(X @ [1.0, 2.0, -1.0] + rng.normal(size=n), X)

    @staticmethod
    def fields(start):
        return start.weights, start.coefficients, start.variances

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        data = io.load_benchmark("temperature").data    # G = 5: groups of 12 and of 11 rows
        G, children = 5, np.random.SeedSequence(8).spawn(200)
        lanes = em._lane_count(G, data.n_features, data.n, False)
        assert len(children) > lanes
        chunked = []
        for step in (1, 7, lanes):
            monkeypatch.setattr(em, "_lane_count", lambda *shape, step=step: step)
            chunked.append([init for _, init, _ in em._starts(data, G, self.HETN, children)])
        for child, *starts in zip(children, *chunked):
            want = self.fields(initialize(data, G, self.HETN, child))
            for start in starts:
                assert all(map(np.array_equal, self.fields(start), want))

    def test_redrawn_partitions_match_a_start_alone(self, monkeypatch):
        data, G = self.binary_design(), 2
        children = np.random.SeedSequence(5).spawn(30)
        default_rng, made = np.random.default_rng, []

        class CountingRng:
            def __init__(self, seed):
                self.rng, self.draws = default_rng(seed), 0
                made.append(self)

            def permutation(self, n):
                self.draws += 1
                return self.rng.permutation(n)

        def draws_needed(child):
            # the oracle: permutations drawn until every group has full rank
            rng = default_rng(child)
            for draws in range(1, 21):
                groups = np.array_split(rng.permutation(data.n), G)
                if all(np.linalg.matrix_rank(data.design[g]) == 3 for g in groups):
                    return draws

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        batch = em._init_starts(data, G, self.HETN, children)
        batch_draws = [rng.draws for rng in made]
        for child, start, draws in zip(children, batch, batch_draws):
            made.clear()
            (alone,) = em._init_starts(data, G, self.HETN, [child])
            assert all(map(np.array_equal, self.fields(start), self.fields(alone)))
            assert draws == made[0].draws == draws_needed(child)
        assert min(batch_draws) == 1 and max(batch_draws) > 2

    def test_collinear_columns_fail_every_start(self):
        data = Dataset(np.arange(12.0), np.ones((12, 2)))
        starts = em._init_starts(data, 2, self.HETN, np.random.SeedSequence(0).spawn(3))
        assert [str(s) for s in starts] == ["no full-rank start partition in 20 tries"] * 3
        assert all(isinstance(s, SingularComponentError) and s.component is None
                   for s in starts)
        with pytest.raises(SingularComponentError, match="^all 3 starts failed: no full-rank "
                           r"start partition in 20 tries \(3 starts\)$"):
            multi_start_fit(data, 2, self.HETN, EmConfig(), 3, seed=0)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_groups_match_extended_precision_least_squares(self, offset):
        # a shifted regressor makes the groups' designs ill-conditioned
        data, _, _ = make_two_line_data(seed=14, n=23)
        data = Dataset(data.responses, data.design + [0.0, offset])
        for G in (1, 2, 3):
            params = initialize(data, G, self.HETN, seed=G)
            perm = np.random.default_rng(G).permutation(data.n)
            for g, idx in enumerate(np.array_split(perm, G)):
                want = mp_weighted_ols(data.design[idx], data.responses[idx], np.ones(idx.size))
                np.testing.assert_allclose(params.coefficients[g], want, rtol=1e-10)

    def test_iris_pool_solves_its_starts_in_lane_batches(self, monkeypatch):
        iris = io.load_benchmark("iris").data
        calls = {"lstsq": 0, "svd": 0, "chunks": 0}

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(em, "_init_starts", counting("chunks", em._init_starts))
        multi_start_fit(iris, 3, self.HETN, EmConfig(), 500, seed=77)
        chunks = math.ceil(500 / em._lane_count(3, iris.n_features, iris.n, False))
        # 150 rows in three groups of 50: one stacked SVD per chunk
        assert calls == {"lstsq": 0, "svd": chunks, "chunks": chunks} and chunks == 4

    def test_start_breaking_an_invariant_raises_as_its_model_params_would(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        data = Dataset(rng.normal(size=30) * 1e155, X)     # the residual squares overflow
        with pytest.raises(InvalidParameterError, match="^non-finite parameter values$"):
            initialize(data, 2, self.HETN, seed=0)
        with pytest.raises(InvalidParameterError, match="^non-finite parameter values$"):
            em._init_starts(data, 2, self.HETN, np.random.SeedSequence(0).spawn(3))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        data, _, _ = make_two_line_data(seed=22, n=60)
        message = f"^seed must be an integer >= 0, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            initialize(data, 2, self.HETN, seed)
        with pytest.raises(ValueError, match=message):
            multi_start_fit(data, 2, self.HETN, EmConfig(), 3, seed=seed)


class TestRunEm:
    def test_init_with_wrong_component_count_rejected(self):
        data, _, _ = make_two_line_data(seed=10, n=40)
        init = initialize(data, 3, ConstraintSpec.heteroscedastic(), seed=0)
        with pytest.raises(ValueError, match="^init has wrong number of components$"):
            run_em(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), init)

    def test_init_with_wrong_coefficient_width_rejected(self):
        # the message log_likelihood gives for the same parameters
        data, _, _ = make_two_line_data(seed=10, n=40)
        init = ModelParams(np.full(2, 0.5), np.zeros((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="^parameter and design dimensions disagree$"):
            run_em(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), init)

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

    def test_homn_runs_from_unequal_variances(self):
        # HomN is the clamp at c = 1, yet only a ConC init is checked for feasibility
        data, _, _ = make_two_line_data(seed=18, n=40)
        init = ModelParams(
            np.array([0.5, 0.5]), np.array([[2.0, 3.0], [-1.0, -2.0]]), np.array([100.0, 1.0]))
        fit = run_em(data, 2, ConstraintSpec.homoscedastic(), EmConfig(), init)
        assert fit.iterations >= 1 and not fit.degenerate
        assert fit.params.variances[0] == fit.params.variances[1]

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


SWAP_DATA = {name: io.load_benchmark(name).data for name in ("iris", "temperature")}
SWAP_SPECS = {
    "hetn": ConstraintSpec.heteroscedastic(),
    "homn": ConstraintSpec.homoscedastic(),
    "conc": ConstraintSpec.constrained(0.2, 1.0),
}


@settings(max_examples=20)
@given(
    name=st.sampled_from(sorted(SWAP_DATA)),
    variant=st.sampled_from(sorted(SWAP_SPECS)),
    seed=st.integers(0, 2**32 - 1),
    weight=st.floats(0.2, 0.8),
    spread=st.floats(1.0, 2.0),
)
def test_label_swap_equivariance(name, variant, seed, weight, spread):
    # G = 2: a start with its components swapped ends in the swapped fit, bit for bit
    data, spec = SWAP_DATA[name], SWAP_SPECS[variant]
    base = initialize(data, 2, spec, seed)
    init = ModelParams(np.array([weight, 1.0 - weight]), base.coefficients,
                       base.variances * np.array([1.0, spread]))
    swapped = ModelParams(init.weights[::-1], init.coefficients[::-1], init.variances[::-1])
    fits = []
    for start in (init, swapped):
        try:
            fits.append(run_em(data, 2, spec, EmConfig(), start))
        except SingularComponentError as exc:
            fits.append(exc)
    fit, mirror = fits
    assert type(fit) is type(mirror)
    if isinstance(fit, Exception):
        return
    assert (mirror.stop_reason, mirror.iterations) == (fit.stop_reason, fit.iterations)
    assert mirror.loglik_trace.tobytes() == fit.loglik_trace.tobytes()
    for got, want in (
        (mirror.params.weights, fit.params.weights[::-1]),
        (mirror.params.coefficients, fit.params.coefficients[::-1]),
        (mirror.params.variances, fit.params.variances[::-1]),
        (mirror.responsibilities.probs, fit.responsibilities.probs[:, ::-1]),
    ):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


PERM_G = {"iris": 3, "temperature": 2}


@settings(max_examples=20)
@given(
    name=st.sampled_from(sorted(SWAP_DATA)),
    variant=st.sampled_from(sorted(SWAP_SPECS)),
    seed=st.integers(0, 2**32 - 1),
    draws=st.data(),
)
def test_row_permutation_equivariance(name, variant, seed, draws):
    # a start on permuted rows takes the same steps; only summation order differs
    data, spec, G = SWAP_DATA[name], SWAP_SPECS[variant], PERM_G[name]
    perm = np.array(draws.draw(st.permutations(range(data.n))))
    try:
        init = initialize(data, G, spec, seed)
    except SingularComponentError:
        return
    fits = []
    for sample in (data, data.subset(perm)):
        try:
            fits.append(run_em(sample, G, spec, EmConfig(), init))
        except SingularComponentError as exc:
            fits.append(exc)
    fit, moved = fits
    assert type(fit) is type(moved)
    if isinstance(fit, Exception):
        return
    assert (moved.stop_reason, moved.iterations) == (fit.stop_reason, fit.iterations)
    for got, want in (
        (moved.params.weights, fit.params.weights),
        (moved.params.coefficients, fit.params.coefficients),
        (moved.params.variances, fit.params.variances),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert np.array_equal(moved.labels, fit.labels[perm])


class TestEdgeShapes:
    """Shapes at the edge of what a fit accepts, through the multi-start and ConC entries."""

    SPECS = [ConstraintSpec.heteroscedastic(), ConstraintSpec.homoscedastic()]

    @staticmethod
    def minimum_data():
        # n = G * (J + 1) with G = 2 and J = 2
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, 6)
        return Dataset(1.0 + 2.0 * x + rng.standard_normal(6), np.column_stack([np.ones(6), x]))

    @pytest.mark.parametrize("spec", SPECS, ids=["hetn", "homn"])
    def test_minimum_sample_size_fits(self, spec):
        fit = multi_start_fit(self.minimum_data(), 2, spec, EmConfig(), 10, seed=0)
        assert fit.params.n_components == 2 and np.isfinite(fit.loglik)
        assert not fit.degenerate

    def test_rounding_drop_at_a_fixed_point_converges(self):
        # HetN's M-step maximizes exactly, so a drop within the tolerance is
        # rounding: the run ends converged, keeping the iterate it started
        # from.  A ConC member at a c whose clamp never binds (the runs that
        # do not degenerate) takes the same steps bit for bit under the
        # inexact rule, and ends rejected_step.
        data, spec = self.minimum_data(), ConstraintSpec.heteroscedastic()
        seeds = np.random.SeedSequence(1).spawn(10)
        starts = em._init_starts(data, 2, spec, seeds)

        def kernel(c):
            return em._em_lanes([data], 2, EmConfig(), [(0, start, c) for start in starts])

        changed, runs = [], kernel(0.0)
        assert sum(isinstance(run, em._Run) for run in runs) == 8
        for hetn, conc in zip(runs, kernel(1e-12)):
            assert type(hetn) is type(conc)
            if isinstance(hetn, Exception):
                assert str(hetn) == str(conc)
                continue
            if hetn.stop_reason == "degenerate":
                continue
            for got, want in zip(hetn, conc):
                if isinstance(got, str):
                    changed += [(got, want)] * (got != want)
                else:
                    assert np.array_equal(got, want)
        assert changed == [("tolerance", "rejected_step")] * 2
        winner, outcomes = multi_start_fit(data, 2, spec, EmConfig(), 10, seed=1, return_all=True)
        assert winner.converged and winner.stop_reason == "tolerance"
        # one more step from the kept iterate drops again, within the tolerance
        again = run_em(data, 2, spec, EmConfig(max_iterations=1), winner.params)
        assert again.converged and again.iterations == 1 and again.loglik == winner.loglik
        assert np.array_equal(again.params.coefficients, winner.params.coefficients)

    def test_minimum_sample_size_has_no_cv_test_set(self):
        data = Dataset(np.arange(6.0) ** 2, np.column_stack([np.ones(6), np.arange(6.0)]))
        with pytest.raises(ValueError, match="empty test set for n=6$"):
            fit_conc(data, 2, CvConfig(), EmConfig(), 10)

    def test_duplicated_rows_double_the_log_likelihood(self):
        data, _, _ = make_two_line_data(seed=5, n=60)
        twice = Dataset(np.tile(data.responses, 2), np.vstack([data.design, data.design]))
        # ConC at a fixed c that binds here: a tuned c could differ, as CV
        # draws other folds from the doubled rows
        c = 0.9
        conc = ConstraintSpec.constrained(c, float(np.var(data.responses)) / 2)
        for spec in [*self.SPECS, conc]:
            once = multi_start_fit(data, 2, spec, EmConfig(), 10, seed=1)
            fit = multi_start_fit(twice, 2, spec, EmConfig(), 10, seed=1)
            assert fit.loglik == pytest.approx(2 * once.loglik, rel=1e-8)
        assert min_variance_ratio(fit.params) >= c * (1 - 1e-9)

    def test_one_component_is_ols(self):
        data, _, _ = make_two_line_data(seed=5, n=60)
        coef, *_ = np.linalg.lstsq(data.design, data.responses, rcond=None)
        resid = data.responses - data.design @ coef
        fits = [multi_start_fit(data, 1, spec, EmConfig(), 3, seed=0) for spec in self.SPECS]
        fits.append(fit_conc(data, 1, CvConfig(), EmConfig(), 3)[0])
        for fit in fits:
            np.testing.assert_allclose(fit.params.coefficients[0], coef, rtol=1e-12, atol=1e-14)
            assert fit.params.variances[0] == pytest.approx(resid @ resid / data.n, rel=1e-12)
            assert fit.params.weights.tolist() == [1.0]

    def test_huge_response_scale(self):
        # 1e150 squares to 1e300, a step from overflow; the fits match the
        # unscaled ones up to the units (the stopping rule is not scale-free)
        data, _, _ = make_two_line_data(seed=5, n=60)
        scale = 1e150
        big = Dataset(scale * data.responses, data.design)
        shift = data.n * math.log(scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pairs = [(multi_start_fit(data, 2, spec, EmConfig(), 10, seed=1),
                      multi_start_fit(big, 2, spec, EmConfig(), 10, seed=1))
                     for spec in self.SPECS]
            pairs.append((fit_conc(data, 2, CvConfig(seed=1), EmConfig(), 10)[0],
                          fit_conc(big, 2, CvConfig(seed=1), EmConfig(), 10)[0]))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for fit, fit_big in pairs:
            assert not fit_big.degenerate
            assert fit_big.loglik + shift == pytest.approx(fit.loglik, rel=1e-6)
            assert adjusted_rand(fit.labels, fit_big.labels) == 1.0


class TestHugeResponses:
    """A response variance that overflows fails a fit at the kernel's entry, without a warning."""

    MESSAGE = "^the variance of the responses overflows; rescale them$"

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        return Dataset(rng.normal(size=30) * 1e155, X)

    @pytest.mark.parametrize("floor", [None, 1.0])
    def test_pool(self, data, floor):
        with pytest.raises(NumericalError, match=self.MESSAGE):
            multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(),
                            EmConfig(variance_floor=floor), 10, seed=0)

    def test_run_em_and_fit_conc(self, data):
        init = ModelParams(np.full(2, 0.5), np.zeros((2, 2)), np.full(2, 1e300))
        with pytest.raises(NumericalError, match=self.MESSAGE):
            run_em(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), init)
        with pytest.raises(NumericalError, match=self.MESSAGE):
            fit_conc(data, 2, CvConfig(), EmConfig(), 10)

    def test_largest_variance_that_fits_still_fits(self, data):
        # the squares of 1e153 stay finite, a decade under the failing scale
        fit = multi_start_fit(Dataset(data.responses * 1e-2, data.design), 2,
                              ConstraintSpec.heteroscedastic(), EmConfig(), 10, seed=0)
        assert np.isfinite(fit.loglik)


class TestFitResults:
    """FitResults are built a batch at a time: the constructors' checks run once per batch."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_two_line_data(seed=31, n=50)[0]

    @pytest.fixture(scope="class")
    def run(self, data):
        (outcome,) = em._em_lanes([data], 2, EmConfig(), [
            (0, initialize(data, 2, ConstraintSpec.heteroscedastic(), 3), 0.0)])
        return outcome

    @pytest.mark.parametrize("field, index, value", [
        ("coefficients", (1, 0), math.nan),
        ("variances", 1, -1.0),
        ("weights", 0, 0.7),
    ], ids=["nan-coefficient", "negative-variance", "off-simplex"])
    def test_broken_run_raises_as_its_model_params_would(self, data, run, field, index, value):
        broken = getattr(run, field).copy()
        broken[index] = value
        bad = run._replace(**{field: broken})
        with pytest.raises(InvalidParameterError) as want:
            ModelParams(*bad[:3])
        outcomes = [run, run, bad, run]
        with pytest.raises(InvalidParameterError, match=f"^{want.value}$"):
            em._fit_results(data, 2, outcomes)
        # with a batch of one run, the same error comes from a later batch
        with mock.patch.object(em, "_lane_count", lambda *shape: 1):
            with pytest.raises(InvalidParameterError, match=f"^{want.value}$"):
                em._fit_results(data, 2, [run, run, bad, run])

    @pytest.mark.parametrize("probs, message", [
        (lambda P: P * 2.0, "probabilities outside [0, 1]"),
        (lambda P: P * 0.5, "responsibility rows must sum to 1"),
    ], ids=["outside", "unsummed"])
    def test_broken_posteriors_raise_as_responsibilities_would(self, data, run, probs, message,
                                                                monkeypatch):
        e_step = em._e_step

        def broken(*args):
            loglik, P, bad = e_step(*args)
            return loglik, probs(P), bad

        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            Responsibilities(probs(e_step(data.responses, data.design, *run[:3])[1]).T)
        monkeypatch.setattr(em, "_e_step", broken)
        with pytest.raises(ValueError, match=match):
            em._fit_results(data, 2, [run, run])

    def test_fields_are_read_only_and_pass_the_public_checks(self, data):
        _, outcomes = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 12,
                                      seed=4, return_all=True)
        for fit in outcomes:
            params, resp = fit.params, fit.responsibilities
            fields = (params.weights, params.coefficients, params.variances, resp.probs,
                      resp.underflow)
            assert not any(arr.flags.writeable for arr in fields)
            assert resp.probs.shape == (data.n, 2) and resp.underflow.dtype == bool
            rebuilt = ModelParams(*fields[:3]), Responsibilities(*fields[3:])
            for got, want in zip(fields, (*rebuilt[0].__dict__.values(),
                                          *rebuilt[1].__dict__.values())):
                assert np.array_equal(got, want) and got.dtype == want.dtype
            assert np.array_equal(resp.probs, posterior_probs(data, params).probs)

    @pytest.mark.parametrize("make, message", [
        (lambda: ModelParams(np.array([0.5, 0.6]), np.zeros((2, 2)), np.ones(2)),
         "weights must be a simplex vector"),
        (lambda: ModelParams(np.full(2, 0.5), np.zeros((2, 2)), np.array([1.0, 0.0])),
         "variances must be strictly positive"),
        (lambda: Responsibilities(np.array([[0.5, 0.6]])), "responsibility rows must sum to 1"),
        (lambda: Responsibilities(np.array([[1.5, -0.5]])), "probabilities outside .0, 1."),
    ], ids=["weights", "variances", "row-sum", "range"])
    def test_public_constructors_still_check(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


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

    def test_rejects_no_starts(self):
        data, _, _ = make_two_line_data(seed=22, n=60)
        with pytest.raises(ValueError, match="^n_starts must be >= 1$"):
            multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 0, seed=1)

    def test_all_failed_lists_each_reason_once_with_its_count(self, monkeypatch):
        errors = iter([SingularComponentError(None, "no start"),
                       SingularComponentError(1, "effective sample size 0.5 < 2"),
                       SingularComponentError(None, "no start")])

        def failing_starts(data, G, spec, seeds):
            return [next(errors) for _ in seeds]

        monkeypatch.setattr(em, "_init_starts", failing_starts)
        data, _, _ = make_two_line_data(seed=22, n=60)
        with pytest.raises(SingularComponentError) as info:
            multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), EmConfig(), 3, seed=1)
        assert info.value.component is None
        assert str(info.value) == (
            "all 3 starts failed: no start (2 starts); singular weighted least squares "
            "for component 1: effective sample size 0.5 < 2 (1 start)")

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
                           "degenerate" if degenerate else "tolerance", 1)

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
            with pytest.raises(NumericalError, match=message) as info:
                multi_start_fit(tiny, 2, spec, EmConfig(), 5, seed=12)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert type(info.value) is NumericalError

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

    @pytest.mark.parametrize("G", [1, 2])
    def test_noise_free_line_through_origin_is_degenerate(self, G):
        # every residual is exactly 0, so the pooled target is 0 as well: the
        # HetN update must not form its unused clamp bounds 0 * 0 and 0 / 0
        x = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 11.0])
        data = Dataset(2 * x, x[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = multi_start_fit(data, G, ConstraintSpec.heteroscedastic(), EmConfig(), 3, seed=0)
        assert fit.degenerate

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
        fit, history = em_history(iris, 3, spec, EmConfig(), init)
        assert fit.stop_reason == "rejected_step"
        assert len(history) == len(fit.loglik_trace)
        assert np.array_equal(history[-1].variances, fit.params.variances)

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
                    fit, history = em_history(data, G, spec, EmConfig(), init)
                except SingularComponentError:
                    continue
                checked += 1
                if not fit.degenerate:
                    assert np.all(np.diff(fit.loglik_trace) >= -1e-8)
                if spec.variant is Variant.CONC and G > 1:
                    for params in history:
                        assert min_variance_ratio(params) >= c - 1e-12
        assert checked >= 100
