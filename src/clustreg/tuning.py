"""Data-driven choice of the constraint constant c by cross-validated log-likelihood.

The selection loop follows the repeated random-split recipe: one full-sample
temporary estimate serves as the starting value for every training fit, then
K train/test splits shared across the whole grid (common random numbers),
scoring each trained model on its test set and summing the K test
contributions.  Each split is drawn once and the training fits of every
feasible c on it run as one batch of the EM kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Dataset, InvalidParameterError, ModelParams, log_likelihood
from .em import (
    ConstraintSpec,
    EmConfig,
    FitResult,
    SingularComponentError,
    Variant,
    _em_lanes,
    multi_start_fit,
)

__all__ = [
    "CvConfig",
    "CvRow",
    "CvReport",
    "CvScore",
    "default_c_grid",
    "make_split",
    "cv_loglik",
    "select_c",
    "fit_conc",
]


def default_c_grid(n_points: int = 20, low: float = 1e-3) -> tuple[float, ...]:
    """Log-spaced candidate grid for c, upper endpoint exactly 1."""
    grid = np.geomspace(low, 1.0, n_points)
    grid[-1] = 1.0
    return tuple(float(c) for c in grid)


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation layout: K repeats, test fraction, candidate grid, seed.

    ``n_repeats`` of None resolves to ceil(n / 5) at use, matching the
    K = n/5 protocol; the default test fraction is 1/10 of the sample.
    """

    n_repeats: int = None
    test_fraction: float = 0.1
    c_grid: tuple[float, ...] = field(default_factory=default_c_grid)
    seed: int = 0

    def __post_init__(self):
        if self.n_repeats is not None and self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        grid = tuple(float(c) for c in self.c_grid)
        if len(grid) == 0:
            raise ValueError("c_grid must not be empty")
        if any(not (0.0 < c <= 1.0) for c in grid):
            raise ValueError("c_grid values must lie in (0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("c_grid must be strictly increasing")
        object.__setattr__(self, "c_grid", grid)

    def resolve_repeats(self, n: int) -> int:
        if self.n_repeats is not None:
            return self.n_repeats
        return math.ceil(n / 5)


class CvRow(NamedTuple):
    c: float
    cv_loglik: float
    n_fallback: int


class CvScore(NamedTuple):
    total: float
    n_fallback: int

    def __float__(self):
        return self.total


@dataclass(frozen=True)
class CvReport:
    rows: tuple[CvRow, ...]
    selected_c: float
    warm_start_params: dict          # c -> ModelParams of the full-sample fit
    target_variance: float

    def __post_init__(self):
        best = max(row.cv_loglik for row in self.rows)
        attained = [row.c for row in self.rows if row.cv_loglik == best]
        if self.selected_c not in attained:
            raise ValueError("selected_c must attain the maximal cv log-likelihood")


def make_split(n: int, test_fraction: float, rng: np.random.Generator):
    """Uniform random (train, test) index partition; test size floor(n * fraction)."""
    n_test = int(n * test_fraction)
    if n_test < 1:
        raise ValueError(f"test fraction {test_fraction} gives an empty test set for n={n}")
    if n_test >= n:
        raise ValueError("test set leaves no training data")
    test = np.sort(rng.choice(n, size=n_test, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    train = np.flatnonzero(mask)
    return train, test


def _split_rngs(cv: CvConfig, n: int):
    # One child stream per repeat, derived from the CV seed only: every
    # candidate c sees the identical split sequence.
    base = np.random.SeedSequence(cv.seed)
    K = cv.resolve_repeats(n)
    return [np.random.default_rng(s) for s in base.spawn(K)]


def _cv_grid(data, G, cs, warm_start, target, cv, em) -> list[tuple[float, int]]:
    """(sum of test log-likelihoods, fallbacks) for every c in ``cs``.

    Each split is drawn and subset once; the training fits of all c then run
    together from ``warm_start``.  A training fit that fails hard contributes
    the warm-start model's test log-likelihood instead and counts as a
    fallback.  An invariant failure raises the error of the lowest c, earliest
    split, as scoring the candidates one after another would.
    """
    for c in cs:
        ConstraintSpec.constrained(c, target)     # validates c and the target
    if not cs:
        return []
    totals = [0.0] * len(cs)
    fallbacks = [0] * len(cs)
    invalid = None
    for rng in _split_rngs(cv, data.n):
        train_idx, test_idx = make_split(data.n, cv.test_fraction, rng)
        train = data.subset(train_idx)
        test = data.subset(test_idx)
        fits = _em_lanes(train, G, Variant.CONC, em, [(warm_start, c) for c in cs])
        for i, fit in enumerate(fits):
            if isinstance(fit, InvalidParameterError):
                if invalid is None or i < invalid[0]:
                    invalid = (i, fit)
                break
            if isinstance(fit, SingularComponentError):
                model = warm_start
                fallbacks[i] += 1
            else:
                model = fit.params
            totals[i] += log_likelihood(test, model)
    if invalid is not None:
        raise invalid[1]
    return list(zip(totals, fallbacks))


def cv_loglik(
    data: Dataset,
    G: int,
    c: float,
    warm_start: ModelParams,
    target: float,
    cv: CvConfig,
    em: EmConfig,
) -> CvScore:
    """Sum of K test-set log-likelihoods of models trained from ``warm_start``.

    A training fit that fails hard contributes the warm-start model's test
    log-likelihood instead and is counted in ``n_fallback``.
    """
    ((total, n_fallback),) = _cv_grid(data, G, [c], warm_start, target, cv, em)
    return CvScore(total, n_fallback)


def _estimate_target(data: Dataset, G: int, seed, em: EmConfig, n_starts: int) -> float:
    """Homoscedastic variance of a preliminary pool, the clamp target of ConC."""
    hom = multi_start_fit(
        data, G, ConstraintSpec.homoscedastic(), em, n_starts,
        seed=np.random.SeedSequence(entropy=seed, spawn_key=(0,)),
    )
    return float(hom.params.variances[0])


def select_c(data: Dataset, G: int, cv: CvConfig, em: EmConfig, n_starts: int) -> CvReport:
    """Grid search for c maximizing the cross-validated log-likelihood.

    The homoscedastic target is estimated once from a preliminary multi-start
    fit.  A single temporary estimate — a full-sample multi-start fit at the
    smallest (least constrained) grid value — provides the starting values
    for all training fits, and every candidate sees the same split sequence
    (common random numbers).  The constrained EM is only defined for starting
    values that satisfy the constraint, so candidates whose c exceeds the
    temporary estimate's variance ratio have no training fit and are recorded
    with a score of -inf.  Ties break toward the largest c.
    """
    target = _estimate_target(data, G, cv.seed, em, n_starts)
    warm = multi_start_fit(
        data, G, ConstraintSpec.constrained(cv.c_grid[0], target), em, n_starts,
        seed=np.random.SeedSequence(entropy=cv.seed, spawn_key=(1,)),
    )
    variances = warm.params.variances
    warm_ratio = float(variances.min() / variances.max())
    feasible = [c for c in cv.c_grid if not warm_ratio < c * (1.0 - 1e-9)]
    scores = dict(zip(feasible, _cv_grid(data, G, feasible, warm.params, target, cv, em)))
    rows = [CvRow(c, *scores[c]) if c in scores else CvRow(c, -math.inf, 0) for c in cv.c_grid]
    warm_params = {c: warm.params for c in cv.c_grid}
    best = -np.inf
    selected = rows[0].c
    for row in rows:
        if row.cv_loglik >= best:
            best = row.cv_loglik
            selected = row.c
    return CvReport(
        rows=tuple(rows),
        selected_c=selected,
        warm_start_params=warm_params,
        target_variance=target,
    )


def fit_conc(
    data: Dataset,
    G: int,
    cv: CvConfig,
    em: EmConfig,
    n_starts: int,
) -> tuple[FitResult, CvReport]:
    """Select c by cross-validation, then refit on the full sample at that c."""
    report = select_c(data, G, cv, em, n_starts)
    spec = ConstraintSpec.constrained(report.selected_c, report.target_variance)
    final = multi_start_fit(
        data, G, spec, em, n_starts,
        seed=np.random.SeedSequence(entropy=cv.seed, spawn_key=(2,)),
    )
    return final, report
