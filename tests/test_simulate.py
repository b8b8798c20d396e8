import math
from dataclasses import replace

import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    CvConfig,
    EmConfig,
    ScenarioSpec,
    SingularComponentError,
    StudyConfig,
    STUDY_COLUMNS,
    Variant,
    adjusted_rand,
    draw_inverse_gamma,
    draw_scenario,
    fit_conc,
    multi_start_fit,
    param_mse,
    run_study,
)
from clustreg import em, simulate, tuning


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=100, G=2, mixing=(0.5, 0.4), intercepts=(0.0, 5.0))
        with pytest.raises(ValueError):
            ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(0.0,))
        with pytest.raises(ValueError):
            ScenarioSpec(n=5, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 5.0))
        with pytest.raises(ValueError):
            ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 5.0),
                         variance_shape=1.0)
        for field, value in [
            ("mixing", (0.5, math.nan)), ("mixing", (math.inf, 0.5)),
            ("variance_shape", math.nan), ("variance_shape", math.inf),
            ("coef_low", 1.5), ("coef_low", math.nan), ("coef_low", -math.inf),
            ("coef_high", math.nan), ("coef_high", math.inf),
            ("variance_scale", -1.0), ("variance_scale", 0.0),
            ("variance_scale", math.nan), ("variance_scale", math.inf),
            ("intercepts", (0.0, math.nan)),
        ]:
            base = dict(n=100, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 5.0))
            with pytest.raises(ValueError) as info:
                ScenarioSpec(**{**base, field: value})
            if field in ("variance_scale", "intercepts"):
                assert str(info.value).startswith(field)

    @pytest.mark.parametrize("field, value", [
        ("n", 100.5), ("n", 100.0), ("G", 2.0), ("n_regressors", 1.5), ("n_regressors", -1),
    ])
    def test_integer_fields_reject_other_values(self, field, value):
        base = dict(n=100, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 5.0))
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ScenarioSpec(**{**base, field: value})

    def test_integer_fields_accept_numpy_integers(self):
        spec = ScenarioSpec(n=np.int64(100), G=np.int32(2), mixing=(0.5, 0.5),
                            intercepts=(0.0, 5.0), n_regressors=np.int16(2))
        assert spec.name == "n100_G2_p0.5-0.5"

    def test_auto_name(self):
        spec = ScenarioSpec(n=100, G=2, mixing=(0.2, 0.8), intercepts=(0.0, 5.0))
        assert spec.name == "n100_G2_p0.2-0.8"

    def test_explicit_name_kept(self):
        spec = ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 5.0),
                            name="baseline")
        assert spec.name == "baseline"


class TestDrawInverseGamma:
    def test_mean_matches_closed_form(self):
        # shape 3, scale 1 has mean scale/(shape-1) = 0.5
        rng = np.random.default_rng(60)
        draws = draw_inverse_gamma(rng, 3.0, 1.0, size=200_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.02)

    def test_quantiles_match_gamma_reciprocal_oracle(self):
        # if V ~ InvGamma(a, s) then s/V ~ Gamma(a, 1): compare empirical
        # quantiles of s/V with an independent gamma sample
        rng = np.random.default_rng(61)
        draws = draw_inverse_gamma(rng, 3.0, 2.0, size=100_000)
        back = 2.0 / draws
        oracle = np.random.default_rng(62).gamma(3.0, 1.0, size=100_000)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(back, q) == pytest.approx(
                np.quantile(oracle, q), rel=0.03
            )

    def test_positive(self):
        rng = np.random.default_rng(63)
        assert np.all(draw_inverse_gamma(rng, 2.0, 0.5, size=1000) > 0)


class TestDrawScenario:
    def setup_method(self):
        self.spec = ScenarioSpec(
            n=400, G=3, mixing=(0.2, 0.3, 0.5), intercepts=(0.0, 5.0, 10.0)
        )

    def test_shapes_and_names(self):
        data, truth, labels = draw_scenario(self.spec, np.random.default_rng(1))
        assert data.n == 400
        assert data.design.shape == (400, 4)
        assert np.allclose(data.design[:, 0], 1.0)
        assert data.feature_names == ("intercept", "x1", "x2", "x3")
        assert truth.coefficients.shape == (3, 4)
        assert labels.shape == (400,)

    def test_intercepts_and_mixing_fixed(self):
        data, truth, labels = draw_scenario(self.spec, np.random.default_rng(2))
        assert truth.coefficients[:, 0].tolist() == [0.0, 5.0, 10.0]
        assert truth.weights.tolist() == [0.2, 0.3, 0.5]
        assert np.bincount(labels, minlength=3).min() > 0

    def test_label_frequencies_lln(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(3)
        reps = 50
        for _ in range(reps):
            _, _, labels = draw_scenario(self.spec, rng)
            counts += np.bincount(labels, minlength=3)
        freq = counts / (reps * self.spec.n)
        assert np.allclose(freq, [0.2, 0.3, 0.5], atol=0.01)

    def test_slopes_within_range(self):
        _, truth, _ = draw_scenario(self.spec, np.random.default_rng(4))
        slopes = truth.coefficients[:, 1:]
        assert np.all(slopes >= -1.5)
        assert np.all(slopes <= 1.5)

    def test_regressors_standard_normal_lln(self):
        data, _, _ = draw_scenario(self.spec, np.random.default_rng(5))
        cols = data.design[:, 1:]
        assert abs(cols.mean()) < 0.1
        assert abs(cols.std() - 1.0) < 0.1

    def test_residual_variance_matches_truth(self):
        big = ScenarioSpec(n=20_000, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 50.0))
        data, truth, labels = draw_scenario(big, np.random.default_rng(6))
        for g in range(2):
            mask = labels == g
            resid = data.responses[mask] - data.design[mask] @ truth.coefficients[g]
            assert resid.var() == pytest.approx(truth.variances[g], rel=0.05)

    def test_undrawable_scenario_is_named(self):
        # a component of weight 1e-9 draws no member in any attempt
        spec = ScenarioSpec(n=20, G=2, mixing=(1e-9, 0.999999999), intercepts=(0.0, 5.0),
                            n_regressors=1)
        message = "^scenario 'n20_G2_p1e-09-1': a mixture component drew no members in 20 "
        with pytest.raises(ValueError, match=message):
            draw_scenario(spec, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        a = draw_scenario(self.spec, np.random.default_rng(7))
        b = draw_scenario(self.spec, np.random.default_rng(7))
        assert np.array_equal(a[0].responses, b[0].responses)
        assert np.array_equal(a[2], b[2])


class TestRunStudy:
    def _config(self, **kw):
        scenario = ScenarioSpec(
            n=80, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 10.0),
            n_regressors=1, variance_scale=0.2,
        )
        defaults = dict(
            scenarios=(scenario,),
            replications=3,
            n_starts=2,
            estimators=(Variant.HETN, Variant.HOMN),
            cv=CvConfig(n_repeats=2, c_grid=(0.1, 1.0)),
            em=EmConfig(),
            seed=1,
        )
        defaults.update(kw)
        return StudyConfig(**defaults)

    @pytest.mark.parametrize("field, value", [
        ("n_starts", 2.5), ("n_starts", 0), ("replications", 1.5), ("replications", 0),
        ("seed", 1.5), ("seed", -1),
    ])
    def test_integer_fields_reject_other_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            self._config(**{field: value})

    @pytest.mark.parametrize("estimators", [(), ("hetn", "hetn"), ("homn", "conc", "homn")],
                             ids=["empty", "hetn-twice", "homn-twice"])
    def test_estimators_must_be_distinct_and_present(self, estimators):
        with pytest.raises(ValueError, match=r"^estimators must list at least one variant"):
            self._config(estimators=estimators)

    def test_scenarios_must_be_present(self):
        with pytest.raises(ValueError, match=r"^scenarios must list at least one scenario"):
            self._config(scenarios=())

    def test_scenario_names_must_be_distinct(self):
        # the default name shows n, G and the mixing only, so these two share it
        first = ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(4.0, 9.0))
        second = replace(first, intercepts=(0.0, 1.0), n_regressors=1, name="")
        assert first.name == second.name == "n100_G2_p0.5-0.5"
        with pytest.raises(ValueError, match=r"^scenario name 'n100_G2_p0\.5-0\.5' is "
                                             r"repeated; set each scenario's 'name'$"):
            self._config(scenarios=(first, second))
        named = self._config(scenarios=(first, replace(second, name="one-regressor")))
        assert [s.name for s in named.scenarios] == ["n100_G2_p0.5-0.5", "one-regressor"]

    def test_integer_fields_accept_numpy_integers(self):
        def rows(**kw):
            return [[(k, str(v)) for k, v in row.items() if k != "time_s"]
                    for row in run_study(self._config(**kw))]

        assert (rows(n_starts=np.int64(2), replications=np.int32(1), seed=np.uint8(1))
                == rows(n_starts=2, replications=1, seed=1))

    def test_row_schema(self):
        rows = run_study(self._config())
        assert len(rows) == 2
        for row in rows:
            assert set(STUDY_COLUMNS) <= set(row)
            assert row["n_failed"] == 0
            assert math.isfinite(row["mse_beta"])
            assert math.isfinite(row["adj_rand"])

    def test_mean_c_only_for_conc(self):
        rows = run_study(self._config(estimators=(Variant.HETN, Variant.CONC)))
        by_est = {row["estimator"]: row for row in rows}
        assert math.isnan(by_est["hetn"]["mean_c"])
        assert 0.0 < by_est["conc"]["mean_c"] <= 1.0

    def test_well_separated_scenario_high_ari(self):
        rows = run_study(self._config())
        for row in rows:
            assert row["adj_rand"] > 0.95

    def test_deterministic(self):
        a = run_study(self._config())
        b = run_study(self._config())
        for ra, rb in zip(a, b):
            for key in ("mse_beta", "mse_sigma", "adj_rand", "mean_c"):
                assert ra[key] == rb[key] or (
                    math.isnan(ra[key]) and math.isnan(rb[key])
                )

    def test_keep_replications(self):
        rows, records = run_study(self._config(), keep_replications=True)
        assert len(records) == 3 * 2  # replications x estimators
        reps = {(r["estimator"], r["replication"]) for r in records}
        assert len(reps) == 6
        for rec in records:
            assert rec["scenario"].startswith("n80_G2")
            assert not rec["degenerate"]

    def test_rows_are_built_from_records(self, monkeypatch):
        # the second and sixth fits fail: HetN in replication 0, ConC in 1
        calls = iter(range(100))
        fit_estimator = simulate._fit_estimator

        def flaky(*args):
            if next(calls) in (1, 5):
                raise SingularComponentError(0)
            return fit_estimator(*args)

        monkeypatch.setattr(simulate, "_fit_estimator", flaky)
        config = self._config(estimators=(Variant.HOMN, Variant.HETN, Variant.CONC))
        rows, records = run_study(config, keep_replications=True)
        order = [(r["replication"], config.estimators.index(r["estimator"])) for r in records]
        assert order == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        for row in rows:
            mine = [r for r in records if r["estimator"] == row["estimator"]]
            assert row["n_failed"] == config.replications - len(mine)
            for col in ("mse_beta", "mse_sigma", "adj_rand", "time_s"):
                assert row[col] == float(np.mean([r[col] for r in mine]))
            if row["estimator"] == "conc":
                assert row["mean_c"] == float(np.mean([r["c"] for r in mine]))
            else:
                assert math.isnan(row["mean_c"])
        assert [row["n_failed"] for row in rows] == [0, 1, 1]

    def test_flat_response_replications_are_counted(self):
        # equal intercepts, no slopes and noise far below one ulp of 5: every
        # response is exactly 5, which each estimator's fit rejects as a
        # NumericalError
        flat = ScenarioSpec(n=20, G=2, mixing=(0.5, 0.5), intercepts=(5.0, 5.0),
                            n_regressors=0, variance_scale=1e-300)
        data, _, _ = draw_scenario(flat, np.random.default_rng(0))
        assert (data.responses == 5.0).all()
        config = self._config(scenarios=(flat,), replications=2,
                              estimators=(Variant.HOMN, Variant.HETN, Variant.CONC))
        rows, records = run_study(config, keep_replications=True)
        assert records == []
        assert [(row["estimator"], row["n_failed"]) for row in rows] == [
            ("homn", 2), ("hetn", 2), ("conc", 2)]
        assert all(math.isnan(row["adj_rand"]) for row in rows)

    def test_near_noiseless_recovers_partition_exactly(self):
        scenario = ScenarioSpec(
            n=60, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 20.0),
            n_regressors=1, variance_shape=3.0, variance_scale=1e-4,
        )
        config = self._config(scenarios=(scenario,), replications=2)
        _, records = run_study(config, keep_replications=True)
        for rec in records:
            assert rec["adj_rand"] == 1.0

    def test_two_scenarios_give_rows_per_cell(self):
        s1 = ScenarioSpec(n=60, G=2, mixing=(0.5, 0.5), intercepts=(0.0, 10.0),
                          n_regressors=1)
        s2 = ScenarioSpec(n=60, G=2, mixing=(0.3, 0.7), intercepts=(0.0, 10.0),
                          n_regressors=1)
        rows = run_study(self._config(scenarios=(s1, s2), replications=2))
        assert len(rows) == 4
        assert {row["scenario"] for row in rows} == {s1.name, s2.name}


# the criterion-6 cell
CELL = ScenarioSpec(n=100, G=2, mixing=(0.5, 0.5), intercepts=(4.0, 9.0))


def _replications(config):
    """Each replication of a one-scenario study as run_study draws it.

    Yields (replication, data, truth, labels, rep_seed).
    """
    for rep in range(config.replications):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(0, rep))
        rng = np.random.default_rng(ss.spawn(1)[0])
        data, truth, labels = draw_scenario(config.scenarios[0], rng)
        yield rep, data, truth, labels, int(ss.generate_state(1)[0])


def _without_time(records):
    return [{k: v for k, v in r.items() if k != "time_s"} for r in records]


class TestSharedFirstStage:
    """A replication trains HomN's, HetN's and ConC's target pool in one kernel batch."""

    @pytest.mark.parametrize("estimators", [
        (Variant.CONC,), (Variant.HETN, Variant.CONC), (Variant.CONC, Variant.HOMN, Variant.HETN),
    ], ids=["conc", "hetn-conc", "conc-homn-hetn"])
    def test_records_equal_one_estimator_at_a_time(self, estimators):
        config = StudyConfig(scenarios=(CELL,), replications=5, n_starts=10,
                             estimators=estimators, seed=2026)
        want = []
        for rep, data, truth, labels, rep_seed in _replications(config):
            for variant in estimators:
                if variant is Variant.CONC:
                    fit, report = fit_conc(data, CELL.G, replace(config.cv, seed=rep_seed),
                                           config.em, config.n_starts)
                    c = report.selected_c
                else:
                    fit = multi_start_fit(data, CELL.G, ConstraintSpec(variant), config.em,
                                          config.n_starts, seed=rep_seed)
                    c = None
                mse = param_mse(truth, fit.params)
                want.append({
                    "scenario": CELL.name, "replication": rep, "estimator": variant.value,
                    "mse_beta": mse.avg_mse_beta, "mse_sigma": mse.avg_mse_sigma,
                    "adj_rand": adjusted_rand(labels, fit.labels), "c": c,
                    "degenerate": fit.degenerate,
                })
        _, records = run_study(config, keep_replications=True)
        assert _without_time(records) == want

    def test_failed_target_pool_fails_only_conc(self, monkeypatch):
        config = StudyConfig(scenarios=(CELL,), replications=2, n_starts=3,
                             estimators=(Variant.HOMN, Variant.HETN, Variant.CONC),
                             cv=CvConfig(n_repeats=2, c_grid=(0.1, 1.0)), seed=7)
        seeds = [rep_seed for *_, rep_seed in _replications(config)]
        init_starts = em._init_starts

        def failing(data, G, spec, streams):
            # every start of replication 1's target pool: streams (0, i) of its seed
            return [SingularComponentError(None, "no start") if seed.entropy == seeds[1]
                    and len(seed.spawn_key) == 2 and seed.spawn_key[0] == 0 else start
                    for seed, start in zip(streams, init_starts(data, G, spec, streams))]

        _, intact = run_study(config, keep_replications=True)
        monkeypatch.setattr(em, "_init_starts", failing)
        rows, records = run_study(config, keep_replications=True)
        assert [(row["estimator"], row["n_failed"]) for row in rows] == [
            ("homn", 0), ("hetn", 0), ("conc", 1)]
        assert _without_time(records) == _without_time(intact[:-1])
        assert intact[-1]["replication"] == 1 and intact[-1]["estimator"] == "conc"

    def test_one_replication_makes_four_kernel_calls(self, monkeypatch):
        # the shared batch, then ConC's warm pool, CV grid and final pool
        lanes, calls = em._em_lanes, []

        def counting(*args, **kwargs):
            calls.append(args)
            return lanes(*args, **kwargs)

        monkeypatch.setattr(em, "_em_lanes", counting)
        monkeypatch.setattr(tuning, "_em_lanes", counting)
        config = StudyConfig(scenarios=(CELL,), replications=1, n_starts=10,
                             estimators=(Variant.HOMN, Variant.HETN, Variant.CONC), seed=2026)
        rows = run_study(config)
        assert [row["n_failed"] for row in rows] == [0, 0, 0]
        assert len(calls) == 4
