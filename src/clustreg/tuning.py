"""Data-driven choice of the constraint constant c by cross-validated log-likelihood.

The selection loop follows the repeated random-split recipe: one full-sample
temporary estimate serves as the starting value for every training fit, then
K train/test splits shared across the whole grid (common random numbers),
scoring each trained model on its test set and summing the K test
contributions.  ``cv_loglik`` is the one scorer and ``select_c`` calls it:
all splits are drawn first; the training fits of every split x feasible c
then run as one kernel batch, a leader per split carrying the larger c as
shadows (``em``); trained models are scored in one pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    _UNDERFLOW_WARNING,
    Dataset,
    InvalidParameterError,
    ModelParams,
    _e_step_arrays,
    _residual_rows,
)
from .em import (
    ConstraintSpec,
    EmConfig,
    FitResult,
    SingularComponentError,
    Variant,
    _em_lanes,
    _feasible,
    multi_start_fit,
)

__all__ = [
    "CvConfig",
    "CvRow",
    "CvReport",
    "default_c_grid",
    "make_split",
    "cv_loglik",
    "select_c",
    "fit_conc",
]


def default_c_grid() -> tuple[float, ...]:
    """20 log-spaced candidates for c from 1e-3, upper endpoint exactly 1."""
    grid = np.geomspace(1e-3, 1.0, 20)
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
        if self.n_repeats is not None and not self.n_repeats >= 1:
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


@dataclass(frozen=True)
class CvReport:
    rows: tuple[CvRow, ...]
    selected_c: float
    warm_start: ModelParams          # the full-sample temporary estimate
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


def cv_loglik(
    data: Dataset, warm_start: ModelParams, cv: CvConfig, em: EmConfig
) -> tuple[CvRow, ...]:
    """One CvRow per c of ``cv.c_grid``, in grid order: the sum of K test-set
    log-likelihoods of constrained models trained from ``warm_start``.

    The constrained EM needs a feasible start, so a c above the warm start's
    variance ratio has no training fit and scores -inf.  The training fits of
    every (feasible c, split) pair run as one kernel batch, a leader per split
    at the smallest c with the larger c as its shadows.  Each clamps to its
    own pooled variance, so no target enters.  A training fit that fails hard
    is scored with the warm-start model instead and counted in
    ``n_fallback``.  If training fits fail the parameter invariant check, the
    error raised is that of the lowest such c and, for that c, the earliest
    split: the kernel runs every fit to its end and returns them in (c, split)
    order.
    """
    # the grid ascends, so the feasible c form a prefix of it
    cs = [c for c in cv.c_grid if _feasible(warm_start, c)]
    infeasible = tuple(CvRow(c, -math.inf, 0) for c in cv.c_grid[len(cs):])
    if not cs:
        return infeasible
    # One child stream per repeat, derived from the CV seed only: every
    # candidate c sees the identical split sequence.
    seeds = np.random.SeedSequence(cv.seed).spawn(cv.resolve_repeats(data.n))
    splits = [make_split(data.n, cv.test_fraction, np.random.default_rng(s)) for s in seeds]
    K = len(splits)
    trains = [data.subset(train) for train, _ in splits]
    members = [(k, warm_start, cs[0]) for k in range(K)]
    fits = _em_lanes(trains, warm_start.n_components, Variant.CONC, em, members, shadows=cs[1:])
    for fit in fits:
        if isinstance(fit, InvalidParameterError):
            raise fit
    fallback = np.array([isinstance(fit, SingularComponentError) for fit in fits])
    models = [warm_start if failed else fit for fit, failed in zip(fits, fallback)]
    weights = np.array([m.weights for m in models])
    coefficients = np.array([m.coefficients for m in models])
    variances = np.array([m.variances for m in models])
    test = np.array([t for _, t in splits])[np.tile(np.arange(K), len(cs))]
    resid = _residual_rows(data.responses[test][:, None, :], data.design[test], coefficients)
    loglik, _, bad = _e_step_arrays(resid, weights, variances)
    if bad.any():
        warnings.warn(_UNDERFLOW_WARNING, RuntimeWarning, stacklevel=2)
    # cumsum adds the splits one by one in split order, as a running total
    # does; a pairwise sum would round differently
    totals = np.cumsum(loglik.reshape(len(cs), K), axis=1)[:, -1]
    counts = fallback.reshape(len(cs), K).sum(axis=1)
    return tuple(map(CvRow, cs, totals.tolist(), counts.tolist())) + infeasible


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
    (common random numbers); ``cv_loglik`` scores the grid, a candidate above
    the temporary estimate's variance ratio at -inf.  Ties break toward the
    largest c.
    """
    target = _estimate_target(data, G, cv.seed, em, n_starts)
    warm = multi_start_fit(
        data, G, ConstraintSpec.constrained(cv.c_grid[0], target), em, n_starts,
        seed=np.random.SeedSequence(entropy=cv.seed, spawn_key=(1,)),
    )
    rows = cv_loglik(data, warm.params, cv, em)
    return CvReport(
        rows=rows,
        selected_c=max(rows, key=lambda row: (row.cv_loglik, row.c)).c,
        warm_start=warm.params,
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
