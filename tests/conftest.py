import numpy as np
import pytest
from hypothesis import settings

from clustreg import Dataset, ModelParams

# Property tests draw the same examples on every run, and a slow stretch of a
# shared host cannot fail one on its deadline.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def make_two_line_data(seed=0, n=100, noise=(0.3, 0.5), betas=((2.0, 3.0), (-1.0, -2.0))):
    """Two well-separated regression lines with known generating values."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    x = rng.uniform(-3, 3, size=n)
    X = np.column_stack([np.ones(n), x])
    B = np.asarray(betas)
    s = np.asarray(noise)
    y = np.einsum("nj,nj->n", X, B[labels]) + rng.standard_normal(n) * s[labels]
    return Dataset(y, X), B, labels


def random_params(rng, G, J, var_low=0.1, var_high=4.0):
    w = rng.dirichlet(np.full(G, 5.0))
    B = rng.normal(0, 2, size=(G, J))
    v = rng.uniform(var_low, var_high, size=G)
    return ModelParams(w, B, v)


def random_dataset(rng, n, J):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, J - 1))])
    y = rng.normal(0, 3, size=n)
    return Dataset(y, X)


@pytest.fixture
def two_lines():
    return make_two_line_data()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria one-line reports into the run summary."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
