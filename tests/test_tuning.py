import math

import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    CvConfig,
    CvReport,
    CvRow,
    Dataset,
    EmConfig,
    cv_loglik,
    default_c_grid,
    fit_conc,
    initialize,
    log_likelihood,
    make_split,
    multi_start_fit,
    run_em,
    select_c,
)
from conftest import make_two_line_data


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        grid = default_c_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == 1.0

    def test_log_spacing(self):
        grid = np.log(default_c_grid())
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_strictly_increasing(self):
        grid = default_c_grid()
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestCvConfig:
    def test_default_repeats_n_over_five(self):
        cv = CvConfig()
        assert cv.resolve_repeats(100) == 20
        assert cv.resolve_repeats(56) == 12  # ceil(56/5)
        assert cv.resolve_repeats(3) == 1

    def test_explicit_repeats_override(self):
        assert CvConfig(n_repeats=7).resolve_repeats(1000) == 7

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            CvConfig(c_grid=(0.5, 0.2))
        with pytest.raises(ValueError):
            CvConfig(c_grid=(0.0, 1.0))
        with pytest.raises(ValueError):
            CvConfig(c_grid=())

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            CvConfig(test_fraction=0.0)
        with pytest.raises(ValueError):
            CvConfig(test_fraction=1.0)


class TestMakeSplit:
    def test_partition_contract(self):
        rng = np.random.default_rng(0)
        train, test = make_split(50, 0.1, rng)
        assert len(test) == 5
        assert len(train) == 45
        combined = np.sort(np.concatenate([train, test]))
        assert np.array_equal(combined, np.arange(50))

    def test_test_size_floor(self):
        rng = np.random.default_rng(1)
        _, test = make_split(56, 0.1, rng)
        assert len(test) == 5  # floor(5.6)

    def test_empty_test_raises(self):
        with pytest.raises(ValueError):
            make_split(5, 0.1, np.random.default_rng(2))

    def test_deterministic_given_rng_state(self):
        a = make_split(40, 0.2, np.random.default_rng(3))
        b = make_split(40, 0.2, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestCvLoglik:
    def test_matches_naive_loop_oracle(self):
        data, _, _ = make_two_line_data(seed=30, n=60)
        em = EmConfig()
        cv = CvConfig(n_repeats=4, seed=7)
        spec0 = ConstraintSpec.homoscedastic()
        hom = multi_start_fit(data, 2, spec0, em, 3, seed=1)
        target = float(hom.params.variances[0])
        c = 0.3
        spec = ConstraintSpec.constrained(c, target)
        warm = multi_start_fit(data, 2, spec, em, 3, seed=2)

        score = cv_loglik(data, 2, c, warm.params, target, cv, em)

        # naive re-computation with the same split streams
        base = np.random.SeedSequence(cv.seed)
        total = 0.0
        for s in base.spawn(4):
            rng = np.random.default_rng(s)
            train_idx, test_idx = make_split(data.n, cv.test_fraction, rng)
            fit = run_em(data.subset(train_idx), 2, spec, em, warm.params)
            total += log_likelihood(data.subset(test_idx), fit.params)
        assert score.total == total
        assert score.n_fallback == 0

    def test_splits_shared_across_c(self):
        # the split streams depend only on the CV seed, so two different c
        # values scored with an identical (c-free) warm model agree exactly
        # when the model is feasible for both
        data, _, _ = make_two_line_data(seed=31, n=60)
        em = EmConfig()
        cv = CvConfig(n_repeats=3, seed=11)
        hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), em, 3, seed=1)
        target = float(hom.params.variances[0])
        warm = hom.params  # equal variances: feasible for every c
        a = cv_loglik(data, 2, 0.9, warm, target, cv, em)
        b = cv_loglik(data, 2, 1.0, warm, target, cv, em)
        # with c=0.9 the clamp interval is wider but both runs saw the same
        # splits; scores differ only through the trained models
        assert a.n_fallback == b.n_fallback == 0

    def test_single_component_score_independent_of_c(self):
        # with G=1 the ratio constraint is vacuous, so every candidate c
        # must produce the identical score
        rng = np.random.default_rng(32)
        x = rng.uniform(-2, 2, 50)
        data = Dataset(1.0 + 0.5 * x + rng.normal(0, 0.4, 50),
                       np.column_stack([np.ones(50), x]))
        em = EmConfig()
        cv = CvConfig(n_repeats=5, seed=3)
        hom = multi_start_fit(data, 1, ConstraintSpec.homoscedastic(), em, 1, seed=0)
        target = float(hom.params.variances[0])
        scores = []
        for c in (1e-3, 0.1, 1.0):
            spec = ConstraintSpec.constrained(c, target)
            warm = run_em(data, 1, spec, em, initialize(data, 1, spec, seed=4))
            scores.append(cv_loglik(data, 1, c, warm.params, target, cv, em).total)
        assert scores[0] == scores[1] == scores[2]


class TestSelectC:
    def test_report_contract(self):
        data, _, _ = make_two_line_data(seed=33, n=60)
        cv = CvConfig(n_repeats=3, c_grid=(0.01, 0.1, 1.0), seed=5)
        report = select_c(data, 2, cv, EmConfig(), 3)
        assert tuple(r.c for r in report.rows) == cv.c_grid
        assert report.selected_c in cv.c_grid
        best = max(r.cv_loglik for r in report.rows)
        assert any(r.c == report.selected_c and r.cv_loglik == best for r in report.rows)
        assert set(report.warm_start_params) == set(cv.c_grid)
        assert report.target_variance > 0

    def test_rows_match_per_c_cv_loglik(self):
        # the grid trains every c of a split together; each row must equal
        # scoring that c on its own
        data, _, _ = make_two_line_data(seed=34, n=60)
        cv = CvConfig(n_repeats=4, c_grid=(0.01, 0.05, 0.2, 0.5, 1.0), seed=9)
        em = EmConfig()
        report = select_c(data, 2, cv, em, 3)
        warm = report.warm_start_params[cv.c_grid[0]]
        finite = 0
        for row in report.rows:
            if row.cv_loglik == -math.inf:
                continue
            finite += 1
            score = cv_loglik(data, 2, row.c, warm, report.target_variance, cv, em)
            assert (row.cv_loglik, row.n_fallback) == (score.total, score.n_fallback)
        assert finite >= 2

    def test_deterministic(self):
        data, _, _ = make_two_line_data(seed=34, n=60)
        cv = CvConfig(n_repeats=3, c_grid=(0.05, 0.5, 1.0), seed=6)
        a = select_c(data, 2, cv, EmConfig(), 3)
        b = select_c(data, 2, cv, EmConfig(), 3)
        assert a.selected_c == b.selected_c
        assert [r.cv_loglik for r in a.rows] == [r.cv_loglik for r in b.rows]

    def test_tie_breaks_to_largest_c(self):
        # G=1 makes every candidate score identical, forcing a full tie
        rng = np.random.default_rng(35)
        x = rng.uniform(-2, 2, 50)
        data = Dataset(2.0 - x + rng.normal(0, 0.3, 50),
                       np.column_stack([np.ones(50), x]))
        cv = CvConfig(n_repeats=4, c_grid=(0.01, 0.1, 0.5, 1.0), seed=8)
        report = select_c(data, 1, cv, EmConfig(), 2)
        scores = {r.cv_loglik for r in report.rows}
        assert len(scores) == 1
        assert report.selected_c == 1.0

    def test_report_rejects_non_maximal_selection(self):
        rows = (CvRow(0.1, -5.0, 0), CvRow(1.0, -3.0, 0))
        with pytest.raises(ValueError):
            CvReport(rows=rows, selected_c=0.1, warm_start_params={}, target_variance=1.0)

    def test_infeasible_candidates_score_minus_inf(self):
        # strongly heteroscedastic groups: the temporary estimate's variance
        # ratio sits well below 1, so candidates above it have no defined
        # training fit and must be recorded with -inf, never selected
        data, _, _ = make_two_line_data(seed=39, n=120, noise=(0.05, 2.0))
        cv = CvConfig(n_repeats=4, c_grid=(0.001, 0.9999), seed=13)
        report = select_c(data, 2, cv, EmConfig(), 5)
        by_c = {r.c: r for r in report.rows}
        assert by_c[0.9999].cv_loglik == -math.inf
        assert by_c[0.9999].n_fallback == 0
        assert math.isfinite(by_c[0.001].cv_loglik)
        assert report.selected_c == 0.001

    def test_eligibility_edge_matches_warm_ratio(self):
        # eligible candidates form a prefix of the grid bounded by the
        # temporary estimate's variance ratio
        data, _, _ = make_two_line_data(seed=40, n=120, noise=(0.1, 1.0))
        cv = CvConfig(n_repeats=3, seed=14)
        report = select_c(data, 2, cv, EmConfig(), 5)
        finite = [math.isfinite(r.cv_loglik) for r in report.rows]
        # prefix property: once a candidate is ineligible, all larger ones are
        assert finite == sorted(finite, reverse=True)
        assert finite[0]  # the candidate the warm start was fitted at
        warm = report.warm_start_params[cv.c_grid[0]]
        ratio = float(warm.variances.min() / warm.variances.max())
        for r, is_finite in zip(report.rows, finite):
            assert is_finite == (ratio >= r.c * (1 - 1e-9))


class TestFitConc:
    def test_final_fit_uses_selected_c(self):
        data, _, _ = make_two_line_data(seed=36, n=80, noise=(0.1, 0.6))
        cv = CvConfig(n_repeats=4, c_grid=(0.01, 0.3, 1.0), seed=9)
        fit, report = fit_conc(data, 2, cv, EmConfig(), 3)
        assert not fit.degenerate
        v = fit.params.variances
        assert v.min() / v.max() >= report.selected_c - 1e-12

    def test_deterministic_end_to_end(self):
        data, _, _ = make_two_line_data(seed=37, n=60)
        cv = CvConfig(n_repeats=3, c_grid=(0.1, 1.0), seed=10)
        a, ra = fit_conc(data, 2, cv, EmConfig(), 3)
        b, rb = fit_conc(data, 2, cv, EmConfig(), 3)
        assert ra.selected_c == rb.selected_c
        assert a.loglik == b.loglik
        assert np.array_equal(a.params.coefficients, b.params.coefficients)

    def test_grid_refinement_monotone(self):
        # adding candidates can only improve (or tie) the attained CV score,
        # up to warm-start convergence noise: the shared candidates draw
        # different initializations once the grid changes
        data, _, _ = make_two_line_data(seed=38, n=60)
        em = EmConfig()
        coarse = CvConfig(n_repeats=3, c_grid=(0.01, 1.0), seed=12)
        fine = CvConfig(n_repeats=3, c_grid=(0.01, 0.1, 0.5, 1.0), seed=12)
        rc = select_c(data, 2, coarse, em, 3)
        rf = select_c(data, 2, fine, em, 3)
        best_coarse = max(r.cv_loglik for r in rc.rows)
        best_fine = max(r.cv_loglik for r in rf.rows)
        assert best_fine >= best_coarse - 1e-6 * (1 + abs(best_coarse))
