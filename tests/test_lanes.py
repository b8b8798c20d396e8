"""The batched EM kernel must give every member exactly its single-member result."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustreg import (
    ConstraintSpec,
    EmConfig,
    FitResult,
    SingularComponentError,
    initialize,
    io,
    multi_start_fit,
    run_em,
)
from clustreg import em
from clustreg.em import _em_lanes
from conftest import make_two_line_data
from reference import em_history

FIELDS = ("loglik", "stop_reason", "converged", "degenerate", "iterations")
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
        G, n_starts, seed = 3, 160, 41
        assert n_starts > em._lane_count(G, iris.n_features, iris.n, False)     # lanes refill
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

    def test_only_the_winner_becomes_a_fit_result(self, temperature, monkeypatch):
        built = []

        def counting_fit(*fields):
            built.append(fields)
            return FitResult(*fields)

        monkeypatch.setattr(em, "FitResult", counting_fit)
        args = (temperature, 5, ConstraintSpec.heteroscedastic(), EmConfig(), 100)
        best = multi_start_fit(*args, seed=8)
        assert len(built) == 1
        winner, outcomes = multi_start_fit(*args, seed=8, return_all=True)
        fits = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(built) == 1 + len(fits)
        assert any(w is winner for w in fits)
        assert_same_outcome(best, winner)

    def test_pool_results_are_built_one_batch_at_a_time(self, iris, monkeypatch):
        # With 4 lanes, what a 200-start pool holds beyond the results it
        # returns stays within a few lanes' per-iteration arrays; posteriors
        # recomputed for every start at once would hold 200 lanes' worth.
        # Five iterations keep the traced run short.
        G, lanes = 3, 4
        monkeypatch.setattr(em, "_lane_count", lambda *shape: lanes)
        lane_bytes = 8 * iris.n * G * (iris.n_features + 3)
        args = (iris, G, ConstraintSpec.heteroscedastic(), EmConfig(max_iterations=5), 200)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = multi_start_fit(*args, seed=3, return_all=True)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result[1]) == 200
        assert peak - kept <= 4 * lanes * lane_bytes, (peak - kept) / (lanes * lane_bytes)

    def test_pool_memory_is_bounded_by_the_lane_budget(self, iris):
        # Beyond the results it returns, a 500-start pool holds a small
        # multiple of its lanes' buffers, whose bytes per lane _lane_count
        # budgets, and a second identical call peaks no higher: the buffers
        # live for one call.  An untraced call first does the lazy imports.
        G = 3
        lanes = em._lane_count(G, iris.n_features, iris.n, False)
        budget = lanes * 8 * iris.n * G * (iris.n_features + 1)
        assert 500 > lanes
        args = (iris, G, ConstraintSpec.heteroscedastic(), EmConfig(), 500)
        multi_start_fit(*args, seed=77, return_all=True)
        peaks, beyond = [], []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = multi_start_fit(*args, seed=77, return_all=True)
                kept, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - base)
                beyond.append(peak - kept)
                del result
        finally:
            tracemalloc.stop()
        assert max(beyond) <= 2 * budget, [b / budget for b in beyond]
        assert peaks[1] <= peaks[0]

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


LANE_DATA, _, _ = make_two_line_data(seed=90, n=1024)
MAX_MEMBERS = 36
SPECS = {
    "hetn": ConstraintSpec.heteroscedastic(),
    "homn": ConstraintSpec.homoscedastic(),
    "conc": ConstraintSpec.constrained(0.2, 0.3),
}


@settings(max_examples=15, deadline=None)
@given(members=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(sorted(SPECS))),
                        min_size=1, max_size=MAX_MEMBERS, unique_by=lambda m: m[0]),
       capacity=st.one_of(st.none(), st.integers(1, 8)))
def test_result_independent_of_batch_composition(members, capacity):
    # each member draws its own estimator, and one kernel call runs them all;
    # the longest lists also refill lanes.  A forced capacity of a few lanes
    # makes runs leave mid-block, tail lanes move into their rows and entrants
    # fill the tail on most iterations.
    assert MAX_MEMBERS > em._lane_count(2, LANE_DATA.n_features, LANE_DATA.n, False)
    config = EmConfig(tolerance=1e-10)
    specs = [SPECS[variant] for _, variant in members]
    inits = [initialize(LANE_DATA, 2, spec, seed) for (seed, _), spec in zip(members, specs)]
    lanes = em._lane_count if capacity is None else (lambda *shape: capacity)
    with mock.patch.object(em, "_lane_count", lanes):
        batch = _em_lanes([LANE_DATA], 2, config,
                          [(0, init, em._clamp_c(spec)) for init, spec in zip(inits, specs)])
    assert len(batch) == len(members)
    for spec, init, got in zip(specs, inits, em._fit_results(LANE_DATA, 2, batch)):
        assert_same_outcome(got, run_em(LANE_DATA, 2, spec, config, init))


def test_single_member_history_matches_trace():
    data, _, _ = make_two_line_data(seed=91, n=80)
    spec = ConstraintSpec.heteroscedastic()
    init = initialize(data, 2, spec, seed=2)
    fit, history = em_history(data, 2, spec, EmConfig(), init)
    assert len(history) == fit.loglik_trace.shape[0] > 2
    assert history[0] is init
    last = history[-1]
    assert np.array_equal(last.coefficients, fit.params.coefficients)
    assert np.array_equal(last.variances, fit.params.variances)
