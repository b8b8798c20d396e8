"""The batched EM kernel must give every member exactly its single-member result."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustreg import (
    ConstraintSpec,
    EmConfig,
    SingularComponentError,
    initialize,
    io,
    multi_start_fit,
    run_em,
)
from clustreg.em import _em_lanes
from conftest import make_two_line_data

FIELDS = ("loglik", "converged", "degenerate", "iterations")
ARRAYS = (
    lambda f: f.params.weights,
    lambda f: f.params.coefficients,
    lambda f: f.params.variances,
    lambda f: f.loglik_trace,
    lambda f: f.responsibilities.probs,
    lambda f: f.responsibilities.underflow,
    lambda f: f.labels,
)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert got.component == want.component
        return
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for part in ARRAYS:
        assert np.array_equal(part(got), part(want))


def single_runs(data, G, spec, config, seeds):
    """Reference: initialize plus a one-member run_em per start."""
    out = []
    for seed in seeds:
        try:
            out.append(run_em(data, G, spec, config, initialize(data, G, spec, seed)))
        except SingularComponentError as exc:
            out.append(exc)
    return out


def homn_target(data, G):
    hom = multi_start_fit(data, G, ConstraintSpec.homoscedastic(), EmConfig(), 5, seed=3)
    return float(hom.params.variances[0])


@pytest.fixture(scope="module")
def iris():
    return io.load_benchmark("iris").data


@pytest.fixture(scope="module")
def temperature():
    return io.load_benchmark("temperature").data


class TestPoolParity:
    @pytest.mark.parametrize("variant", ["hetn", "homn", "conc"])
    def test_iris_pool_matches_single_runs(self, iris, variant):
        # 100 starts exceed iris's 36 lanes (G=3, n=150), so lanes are refilled
        G, n_starts, seed = 3, 100, 41
        spec = {
            "hetn": ConstraintSpec.heteroscedastic(),
            "homn": ConstraintSpec.homoscedastic(),
            "conc": ConstraintSpec.constrained(0.1, homn_target(iris, G)),
        }[variant]
        config = EmConfig()
        _, outcomes = multi_start_fit(iris, G, spec, config, n_starts, seed=seed, return_all=True)
        children = np.random.SeedSequence(seed).spawn(n_starts)
        reference = single_runs(iris, G, spec, config, children)
        assert len(outcomes) == n_starts
        for got, want in zip(outcomes, reference):
            assert_same_outcome(got, want)

    def test_temperature_pool_with_failed_starts(self, temperature):
        G, n_starts, seed = 5, 100, 8
        spec = ConstraintSpec.heteroscedastic()
        _, outcomes = multi_start_fit(
            temperature, G, spec, EmConfig(), n_starts, seed=seed, return_all=True)
        failed = sum(isinstance(o, SingularComponentError) for o in outcomes)
        assert 20 <= failed <= 60
        reference = single_runs(
            temperature, G, spec, EmConfig(), np.random.SeedSequence(seed).spawn(n_starts))
        for got, want in zip(outcomes, reference):
            assert_same_outcome(got, want)

    def test_iteration_cap_stops_every_member(self, iris):
        _, outcomes = multi_start_fit(
            iris, 3, ConstraintSpec.heteroscedastic(), EmConfig(max_iterations=3), 60,
            seed=5, return_all=True)
        fits = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(fits) == 60
        for fit in fits:
            assert fit.iterations == 3
            assert fit.converged is False
            assert fit.loglik_trace.shape == (4,)


# n = 1024 and G = 2 leave 8 lanes, so ten members already need a refill.
LANE_DATA, _, _ = make_two_line_data(seed=90, n=1024)
SPECS = {
    "hetn": ConstraintSpec.heteroscedastic(),
    "homn": ConstraintSpec.homoscedastic(),
    "conc": ConstraintSpec.constrained(0.2, 0.3),
}


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 39), min_size=1, max_size=14, unique=True),
    variant=st.sampled_from(sorted(SPECS)),
)
def test_result_independent_of_batch_composition(seeds, variant):
    spec = SPECS[variant]
    config = EmConfig(tolerance=1e-10)
    inits = [initialize(LANE_DATA, 2, spec, seed) for seed in seeds]
    batch = _em_lanes(LANE_DATA, 2, spec.variant, config, [(init, spec.c) for init in inits])
    assert len(batch) == len(seeds)
    for init, got in zip(inits, batch):
        assert_same_outcome(got, run_em(LANE_DATA, 2, spec, config, init))


def test_single_member_history_matches_trace():
    data, _, _ = make_two_line_data(seed=91, n=80)
    spec = ConstraintSpec.heteroscedastic()
    init = initialize(data, 2, spec, seed=2)
    fit = run_em(data, 2, spec, EmConfig(), init, keep_history=True)
    assert len(fit.param_history) == fit.loglik_trace.shape[0] > 2
    assert fit.param_history[0] is init
    last = fit.param_history[-1]
    assert np.array_equal(last.coefficients, fit.params.coefficients)
    assert np.array_equal(last.variances, fit.params.variances)
