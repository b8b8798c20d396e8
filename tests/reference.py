"""Reference steps for the tests, built only from clustreg's public names.

The program has no use for these.  ``component_density`` is one component's
normal density at one point, ``m_step_weights`` the M-step's mixing
proportions, ``svd_lstsq`` one group's least-squares starting coefficients,
and ``em_history`` the iterates of an EM run, which the kernel does not
record.  Keeping them here keeps the oracle independent of the
kernel and out of the package.
"""

import dataclasses

import numpy as np

from clustreg import InvalidParameterError, run_em


def component_density(y: float, x, beta, sigma2: float) -> float:
    """Normal regression density of y given x under one component."""
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if x.shape != beta.shape:
        raise ValueError("x and beta must have the same length")
    resid = y - x @ beta
    return float(np.exp(-0.5 * np.log(2.0 * np.pi * sigma2) - resid * resid / (2.0 * sigma2)))


def m_step_weights(resp) -> np.ndarray:
    """Mixing proportions: column means of the responsibilities."""
    return resp.probs.mean(axis=0)


def svd_lstsq(X, y) -> np.ndarray:
    """Minimum-norm least squares of one full-rank group, V'((U'y)/s) from its thin SVD:
    the arithmetic ``initialize`` applies to each group of a start's partition."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return Vt.T @ ((U.T @ y) / s)


def em_history(data, G, spec, config, init):
    """``run_em``'s fit and the parameters after each accepted step: ``(fit, history)``.

    The run is replayed one iteration at a time, each step a ``run_em`` call
    with ``max_iterations=1`` from the parameters the step before returned,
    until a step stops for another reason or ``config``'s budget is spent.
    A run re-entered from its parameters gets back bit for bit the
    log-likelihood it left with, so the replay takes the continuous run's
    steps exactly.  ``history[0]`` is ``init``; a step that ends on
    ``rejected_step`` keeps the iterate it started from and adds no entry.
    """
    step = dataclasses.replace(config, max_iterations=1)
    history, traces = [init], []
    while True:
        fit = run_em(data, G, spec, step, history[-1])
        # each step's trace opens with the log-likelihood the last one ended on
        traces.append(fit.loglik_trace[1:] if traces else fit.loglik_trace)
        if fit.stop_reason != "rejected_step":
            history.append(fit.params)
        if fit.stop_reason != "max_iterations" or len(traces) == config.max_iterations:
            break
    return dataclasses.replace(fit, loglik_trace=np.concatenate(traces),
                               iterations=len(traces)), history
