"""The test-side oracle ``reference.em_history`` replays ``run_em`` exactly."""

import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    EmConfig,
    initialize,
    io,
    multi_start_fit,
    run_em,
)
from conftest import make_two_line_data
from reference import em_history


def assert_replays(data, G, spec, config, init):
    """``em_history`` gives ``run_em``'s fit bit for bit, its iterates ending at the fit."""
    fit = run_em(data, G, spec, config, init)
    replay, history = em_history(data, G, spec, config, init)
    assert (replay.stop_reason, replay.iterations) == (fit.stop_reason, fit.iterations)
    assert replay.loglik == fit.loglik
    for got, want in (
        (replay.loglik_trace, fit.loglik_trace),
        (replay.params.weights, fit.params.weights),
        (replay.params.coefficients, fit.params.coefficients),
        (replay.params.variances, fit.params.variances),
        (replay.responsibilities.probs, fit.responsibilities.probs),
        (history[-1].coefficients, fit.params.coefficients),
        (history[-1].variances, fit.params.variances),
    ):
        assert got.tobytes() == want.tobytes()
    assert history[0] is init
    # every step but a rejected last one adds an iterate
    assert len(history) == fit.iterations + (fit.stop_reason != "rejected_step")
    return fit


@pytest.mark.parametrize("spec", [
    ConstraintSpec.heteroscedastic(),
    ConstraintSpec.homoscedastic(),
    ConstraintSpec.constrained(0.3, 0.2),
], ids=["hetn", "homn", "conc"])
@pytest.mark.parametrize("config", [EmConfig(), EmConfig(max_iterations=7, tolerance=1e-13)],
                         ids=["default", "capped"])
def test_replay_equals_continuous_run(spec, config):
    data, _, _ = make_two_line_data(seed=92, n=80)
    for seed in range(3):
        assert_replays(data, 2, spec, config, initialize(data, 2, spec, seed))


def test_replay_of_a_rejected_step():
    iris = io.load_benchmark("iris").data
    spec = ConstraintSpec.constrained(0.1, 0.07534445197656116)
    init = initialize(iris, 3, spec, np.random.SeedSequence(0).spawn(1)[0])
    assert assert_replays(iris, 3, spec, EmConfig(), init).stop_reason == "rejected_step"


def test_replay_of_degenerate_runs():
    # criterion 9's pool: temperature, G = 5, a floor some starts collapse below
    data = io.load_benchmark("temperature").data
    config = EmConfig(tolerance=1e-10, variance_floor=1e-6 * float(np.var(data.responses)))
    spec = ConstraintSpec.heteroscedastic()
    _, outcomes = multi_start_fit(data, 5, spec, config, 100, seed=99, return_all=True)
    starts = np.random.SeedSequence(99).spawn(100)
    degenerate = [i for i, res in enumerate(outcomes)
                  if not isinstance(res, Exception) and res.degenerate]
    assert degenerate
    for i in degenerate:
        init = initialize(data, 5, spec, starts[i])
        assert assert_replays(data, 5, spec, config, init).degenerate
