import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    CvConfig,
    CvReport,
    CvRow,
    Dataset,
    EmConfig,
    ModelParams,
    NumericalError,
    SingularComponentError,
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
from clustreg import em, io, tuning
from clustreg.simulate import ScenarioSpec, draw_scenario
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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                CvConfig(c_grid=(0.5, bad))

    def test_rejects_bad_fraction(self):
        for bad in (0.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CvConfig(test_fraction=bad)

    def test_rejects_bad_repeats(self):
        for bad in (0, math.nan):
            with pytest.raises(ValueError):
                CvConfig(n_repeats=bad)

    def test_repeats_must_be_an_integer(self):
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^n_repeats must be an integer >= 1"):
                CvConfig(n_repeats=bad)
        assert CvConfig(n_repeats=np.int64(3)).resolve_repeats(50) == 3

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {bad!r}$"):
            CvConfig(seed=bad)

    def test_seed_accepts_zero_and_numpy_integers(self):
        assert CvConfig(seed=0).seed == 0
        assert CvConfig(seed=np.uint32(7)).seed == 7


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

    @pytest.mark.parametrize("fraction", [1.0, 1.5])
    def test_no_training_data_raises(self, fraction):
        with pytest.raises(ValueError, match="^test set leaves no training data$"):
            make_split(10, fraction, np.random.default_rng(2))

    def test_deterministic_given_rng_state(self):
        a = make_split(40, 0.2, np.random.default_rng(3))
        b = make_split(40, 0.2, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def score_c(data, c, warm, cv, em_config):
    """cv_loglik's row for c alone: the grid narrowed to (c,)."""
    (row,) = cv_loglik(data, warm, replace(cv, c_grid=(c,)), em_config)
    return row


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

        score = score_c(data, c, warm.params, cv, em)

        # naive re-computation with the same split streams
        base = np.random.SeedSequence(cv.seed)
        total = 0.0
        for s in base.spawn(4):
            rng = np.random.default_rng(s)
            train_idx, test_idx = make_split(data.n, cv.test_fraction, rng)
            fit = run_em(data.subset(train_idx), 2, spec, em, warm.params)
            total += log_likelihood(data.subset(test_idx), fit.params)
        assert score == (c, total, 0)

    def test_splits_shared_across_c(self):
        # the split streams depend only on the CV seed, so two different c
        # values scored with an identical (c-free) warm model agree exactly
        # when the model is feasible for both
        data, _, _ = make_two_line_data(seed=31, n=60)
        em = EmConfig()
        cv = CvConfig(n_repeats=3, seed=11)
        hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), em, 3, seed=1)
        warm = hom.params  # equal variances: feasible for every c
        a = score_c(data, 0.9, warm, cv, em)
        b = score_c(data, 1.0, warm, cv, em)
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
            scores.append(score_c(data, c, warm.params, cv, em).cv_loglik)
        assert scores[0] == scores[1] == scores[2]

    def test_one_row_per_grid_c_infeasible_at_minus_inf(self, monkeypatch):
        # the warm start's variance ratio is 0.01: the two larger c have no
        # training fit and score exactly (c, -inf, 0), without raising
        data, B, _ = make_two_line_data(seed=39, n=120, noise=(0.05, 2.0))
        warm = ModelParams(np.full(2, 0.5), B, np.array([0.0025, 0.25]))
        cv = CvConfig(n_repeats=3, c_grid=(0.001, 0.005, 0.5, 1.0), seed=13)
        rows = cv_loglik(data, warm, cv, EmConfig())
        assert tuple(r.c for r in rows) == cv.c_grid
        assert all(math.isfinite(r.cv_loglik) for r in rows[:2])
        assert rows[2:] == (CvRow(0.5, -math.inf, 0), CvRow(1.0, -math.inf, 0))

        # with no feasible c, no split is drawn
        def no_split(*args):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(tuning, "make_split", no_split)
        assert cv_loglik(data, warm, replace(cv, c_grid=(0.5, 1.0)), EmConfig()) == rows[2:]


class TestSelectC:
    def test_report_contract(self):
        data, _, _ = make_two_line_data(seed=33, n=60)
        cv = CvConfig(n_repeats=3, c_grid=(0.01, 0.1, 1.0), seed=5)
        report = select_c(data, 2, cv, EmConfig(), 3)
        assert tuple(r.c for r in report.rows) == cv.c_grid
        assert report.selected_c in cv.c_grid
        best = max(r.cv_loglik for r in report.rows)
        assert any(r.c == report.selected_c and r.cv_loglik == best for r in report.rows)
        assert isinstance(report.warm_start, ModelParams)
        warm_ratio = report.warm_start.variances.min() / report.warm_start.variances.max()
        assert warm_ratio >= cv.c_grid[0] * (1 - 1e-9)
        assert report.target_variance > 0

    def test_rows_match_per_c_cv_loglik(self):
        # the grid trains every c of a split together; each row must equal
        # scoring that c on its own
        data, _, _ = make_two_line_data(seed=34, n=60)
        cv = CvConfig(n_repeats=4, c_grid=(0.01, 0.05, 0.2, 0.5, 1.0), seed=9)
        em = EmConfig()
        report = select_c(data, 2, cv, em, 3)
        warm = report.warm_start
        finite = 0
        for row in report.rows:
            if row.cv_loglik == -math.inf:
                continue
            finite += 1
            score = score_c(data, row.c, warm, cv, em)
            assert (row.cv_loglik, row.n_fallback) == (score.cv_loglik, score.n_fallback)
        assert finite >= 2
        assert report.rows == cv_loglik(data, warm, cv, em)

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

    def test_no_components_is_a_value_error(self):
        data, _, _ = make_two_line_data(seed=33, n=60)
        with pytest.raises(ValueError, match="^G must be >= 1$"):
            select_c(data, 0, CvConfig(n_repeats=2, seed=5), EmConfig(), 3)

    def test_report_rejects_non_maximal_selection(self):
        rows = (CvRow(0.1, -5.0, 0), CvRow(1.0, -3.0, 0))
        with pytest.raises(ValueError):
            CvReport(rows=rows, selected_c=0.1, warm_start=None, target_variance=1.0)

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
        warm = report.warm_start
        ratio = float(warm.variances.min() / warm.variances.max())
        for r, is_finite in zip(report.rows, finite):
            assert is_finite == (ratio >= r.c * (1 - 1e-9))


    def test_ratio_within_tolerance_of_c_is_feasible(self):
        # A grid c just above the warm start's variance ratio, inside the
        # relative 1e-9 tolerance, is scored, and run_em accepts the warm
        # start at that c: the grid and the kernel share one rule.
        data, _, _ = make_two_line_data(seed=40, n=120, noise=(0.1, 1.0))
        cv = CvConfig(n_repeats=3, c_grid=(0.001, 1.0), seed=14)
        warm = select_c(data, 2, cv, EmConfig(), 5).warm_start
        ratio = float(warm.variances.min() / warm.variances.max())
        c = ratio * (1 + 1e-10)
        assert ratio < c < 1.0
        report = select_c(data, 2, replace(cv, c_grid=(0.001, c)), EmConfig(), 5)
        assert np.array_equal(report.warm_start.variances, warm.variances)
        assert math.isfinite(report.rows[1].cv_loglik)
        target = report.target_variance
        run_em(data, 2, ConstraintSpec.constrained(c, target), EmConfig(), warm)
        with pytest.raises(ValueError, match="feasible initial guess"):
            run_em(data, 2, ConstraintSpec.constrained(ratio * (1 + 1e-8), target), EmConfig(), warm)


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


def oracle_rows(data, G, report, cv, em_config):
    """Reference CV rows: a one-member run_em per (c, split), scored by log_likelihood."""
    warm = report.warm_start
    ratio = float(warm.variances.min() / warm.variances.max())
    streams = np.random.SeedSequence(cv.seed).spawn(cv.resolve_repeats(data.n))
    splits = [make_split(data.n, cv.test_fraction, np.random.default_rng(s)) for s in streams]
    rows = []
    for c in cv.c_grid:
        if ratio < c * (1.0 - 1e-9):
            rows.append(CvRow(c, -math.inf, 0))
            continue
        spec = ConstraintSpec.constrained(c, report.target_variance)
        total, fallbacks = 0.0, 0
        for train, test in splits:
            try:
                model = run_em(data.subset(train), G, spec, em_config, warm).params
            except SingularComponentError:
                model = warm
                fallbacks += 1
            total += log_likelihood(data.subset(test), model)
        rows.append(CvRow(c, total, fallbacks))
    return rows


def criterion_6_cell():
    """One replication of the criterion-6 cell: n=100, G=2, equal mixing."""
    spec = ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(4.0, 9.0))
    return draw_scenario(spec, np.random.default_rng(2))[0]


class TestMergedGrid:
    """select_c trains every split x feasible c in one kernel batch."""

    @pytest.mark.parametrize("name, G, lanes", [
        ("temperature", 5, None),
        ("iris", 3, None),
        # 4 lanes on temperature's 51-row training sets: lanes refill across
        # split and c boundaries
        ("temperature", 5, 4),
        # one lane: every fork waits and re-enters through the member path
        ("temperature", 5, 1),
    ])
    def test_rows_equal_per_split_oracle(self, monkeypatch, name, G, lanes):
        if lanes is not None:
            monkeypatch.setattr(em, "_lane_count", lambda *shape: lanes)
        data = io.load_benchmark(name).data
        cv, em_config = CvConfig(seed=0), EmConfig()
        report = select_c(data, G, cv, em_config, 10)
        want = oracle_rows(data, G, report, cv, em_config)
        assert list(report.rows) == want
        assert any(r.cv_loglik == -math.inf for r in want)
        if name == "temperature":
            assert sum(r.n_fallback for r in want) > 0

    def test_rows_equal_oracle_on_study_cell(self, monkeypatch):
        # The criterion-6 cell: most shadows never fork, so most rows are
        # their split's leader outcome handed on.  Also with 4 lanes, where
        # forks wait for a lane, and with one lane, where every fork does.
        data = criterion_6_cell()
        cv, em_config = CvConfig(seed=3), EmConfig()
        report = select_c(data, 2, cv, em_config, 10)
        want = oracle_rows(data, 2, report, cv, em_config)
        assert list(report.rows) == want
        assert sum(math.isfinite(r.cv_loglik) for r in want) >= 10
        for lanes in (4, 1):
            monkeypatch.setattr(em, "_lane_count", lambda *shape: lanes)
            assert list(select_c(data, 2, cv, em_config, 10).rows) == want

    def test_shadows_take_no_lane_until_they_fork(self, monkeypatch):
        # Member rows through the variance update: the shared grid runs a
        # split's larger c only from the iteration its clamp first binds.
        data = criterion_6_cell()
        cv, em_config = CvConfig(seed=3), EmConfig()
        report = select_c(data, 2, cv, em_config, 10)
        rows, forked = [], []
        real = em._update_variances

        def counting(ss, totals, n, roots, shadows=None):
            rows.append(ss.shape[0])
            forked.append((roots > roots.min()).any())
            return real(ss, totals, n, roots, shadows)

        monkeypatch.setattr(em, "_update_variances", counting)
        cv_loglik(data, report.warm_start, cv, em_config)
        shared, rows[:] = sum(rows), []
        assert any(forked)      # some shadows do fork in this cell
        oracle_rows(data, 2, report, cv, em_config)
        assert 2 * shared < sum(rows)

    def test_underflowing_test_set_scores_minus_inf_with_warning(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 30)
        # collinear columns make every training fit singular, so every split
        # is scored with the warm start, whose density underflows everywhere
        data = Dataset(1e5 + x + rng.normal(0, 0.1, 30), np.column_stack([np.ones(30), x, x]))
        warm = ModelParams(np.array([1.0, 0.0]), np.zeros((2, 3)), np.full(2, 1e-300))
        with pytest.warns(RuntimeWarning, match="^mixture density") as record:
            score = score_c(data, 0.5, warm, CvConfig(n_repeats=2, seed=0), EmConfig())
        assert score == (0.5, -math.inf, 2)
        assert record[0].filename == __file__       # attributed to cv_loglik's caller


class TestInvariantFailure:
    """Responses scaled by 1e-200 make every training fit's variances underflow to 0."""

    @staticmethod
    def tiny_problem():
        data, _, _ = make_two_line_data(seed=26, n=40)
        tiny = Dataset(data.responses * 1e-200, data.design)
        # equal components: the first E-step splits every point evenly, so no
        # component empties before the variances underflow
        warm = ModelParams(np.full(2, 0.5), np.zeros((2, 2)), np.ones(2))
        return tiny, warm

    def test_select_c_and_cv_loglik_raise_without_warning(self):
        tiny, warm = self.tiny_problem()
        cv = CvConfig(n_repeats=3, c_grid=(0.1, 0.5, 1.0), seed=2)
        message = "^variances must be strictly positive$"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match=message):
                select_c(tiny, 2, cv, EmConfig(), 3)
            with pytest.raises(NumericalError, match=message):
                score_c(tiny, 0.5, warm, cv, EmConfig())
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_error_of_lowest_c_then_earliest_split(self, monkeypatch):
        # Two lanes: the splits run in turns, yet the error raised is the one
        # of the lowest c on the earliest split.
        tiny, warm = self.tiny_problem()
        cv = CvConfig(n_repeats=3, c_grid=(0.1, 0.5, 1.0), seed=2)
        monkeypatch.setattr(em, "_lane_count", lambda *shape: 2)
        seen = {}

        def recording_kernel(samples, G, config, members, **kwargs):
            members = list(members)
            outcomes = em._em_lanes(samples, G, config, members, **kwargs)
            seen.update(members=members, outcomes=outcomes)
            return outcomes

        monkeypatch.setattr(tuning, "_em_lanes", recording_kernel)
        with pytest.raises(NumericalError) as info:
            cv_loglik(tiny, warm, cv, EmConfig())
        assert info.value is seen["outcomes"][0]
        slot, _, c = seen["members"][0]
        assert (slot, c) == (0, cv.c_grid[0])

    def test_pending_forks_still_run_after_the_first_failure(self, monkeypatch):
        # A fork whose clamp binds while the pooled variance is below 0.9 x
        # the target gets NaN variances, in the kernel and the oracle alike.
        # With two lanes the first failure comes at a larger c than the
        # oracle's error, while forks of larger c still wait for a lane and
        # the splits that hold the oracle's error are not yet taken.
        data, _, _ = make_two_line_data(seed=5, n=60, noise=(0.2, 1.0))
        G, config = 2, EmConfig()
        target = tuning._estimate_target(data, G, 1, config, 3)
        spec = ConstraintSpec.constrained(1e-3, target)
        warm = multi_start_fit(data, G, spec, config, 3, seed=2).params
        grid = [c for c in default_c_grid() if em._feasible(warm, c)]
        cv = CvConfig(n_repeats=6, c_grid=grid, seed=1)
        roots, broken = np.sqrt(grid), []
        real = em._update_variances

        def breaking(ss, totals, n, lane_roots, shadows=None):
            variances, binds = real(ss, totals, n, lane_roots, shadows)
            bad = ((variances != ss / totals).any(axis=1) & (lane_roots > roots[0])
                   & (ss.sum(axis=1) / n < 0.9 * target))
            if bad.any():
                broken.append(lane_roots[bad].min())
            return np.where(bad[:, None], np.nan, variances), binds

        monkeypatch.setattr(em, "_update_variances", breaking)
        streams = np.random.SeedSequence(cv.seed).spawn(6)
        splits = [make_split(data.n, cv.test_fraction, np.random.default_rng(s)) for s in streams]

        def oracle():
            for j, c in enumerate(grid):
                for k, (train, _) in enumerate(splits):
                    try:
                        run_em(data.subset(train), G, replace(spec, c=c), config, warm)
                    except SingularComponentError:
                        pass
                    except NumericalError as exc:
                        return j, k, str(exc)

        j, k, message = oracle()
        broken.clear()
        monkeypatch.setattr(em, "_lane_count", lambda *shape: 2)
        seen, failures_before = {}, []

        def recording_kernel(samples, G, config, members, **kwargs):
            def source():
                for member in members:
                    failures_before.append(len(broken))
                    yield member

            seen["outcomes"] = em._em_lanes(samples, G, config, source(), **kwargs)
            return seen["outcomes"]

        monkeypatch.setattr(tuning, "_em_lanes", recording_kernel)
        with pytest.raises(NumericalError) as info:
            cv_loglik(data, warm, cv, config)
        assert str(info.value) == message
        assert info.value is seen["outcomes"][j * len(splits) + k]
        assert broken[0] > roots[j]          # the first failure is not the one raised
        assert failures_before[k] > 0        # its split was taken after that failure
