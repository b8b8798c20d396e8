"""Synthetic data generation and the Monte Carlo comparison study.

A scenario draws clusterwise regression data with standard-normal regressors,
uniform slopes, fixed intercepts, and inverse-gamma component variances, then
the study harness fits each estimator on every replication and averages
parameter MSEs, adjusted Rand, wall time, and (for the constrained
estimator) the selected c.  A replication's first pools -- HomN's, HetN's
and ConC's target pool -- train as one kernel batch; each winner is the one
the estimator's own fit would pick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Dataset, ModelParams, _require_int
from .em import (
    ConstraintSpec,
    EmConfig,
    NumericalError,
    Variant,
    _fit_results,
    _pool_outcomes,
    _pool_winner,
)
from .tuning import CvConfig, _target_pool, fit_conc
from .metrics import adjusted_rand, param_mse

__all__ = [
    "ScenarioSpec",
    "StudyConfig",
    "draw_inverse_gamma",
    "draw_scenario",
    "run_study",
    "STUDY_COLUMNS",
]

STUDY_COLUMNS = (
    "scenario",
    "estimator",
    "mse_beta",
    "mse_sigma",
    "adj_rand",
    "time_s",
    "mean_c",
    "n_failed",
)

_REDRAW_ATTEMPTS = 20


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the factorial design."""

    n: int
    G: int
    mixing: tuple[float, ...]
    intercepts: tuple[float, ...]
    n_regressors: int = 3
    coef_low: float = -1.5
    coef_high: float = 1.5
    variance_shape: float = 3.0
    variance_scale: float = 1.0
    name: str = ""

    def __post_init__(self):
        for name, low in (("n", 1), ("G", 1), ("n_regressors", 0)):
            _require_int(name, getattr(self, name), low)
        mixing = tuple(float(p) for p in self.mixing)
        intercepts = tuple(float(b) for b in self.intercepts)
        if len(mixing) != self.G or len(intercepts) != self.G:
            raise ValueError("mixing and intercepts must have length G")
        if not abs(sum(mixing) - 1.0) <= 1e-12 or not all(p > 0 for p in mixing):
            raise ValueError("mixing must be a positive simplex vector")
        if not self.n >= self.G * (self.n_regressors + 2):
            raise ValueError("sample size too small for the scenario")
        if not 1.0 < self.variance_shape < np.inf:
            raise ValueError("variance_shape must be finite and exceed 1 (finite mean)")
        if not -np.inf < self.coef_low < self.coef_high < np.inf:
            raise ValueError("coefficient range must be finite and non-empty")
        if not 0.0 < self.variance_scale < np.inf:
            raise ValueError("variance_scale must be positive and finite")
        if not np.isfinite(intercepts).all():
            raise ValueError("intercepts must be finite")
        name = self.name or f"n{self.n}_G{self.G}_p" + "-".join(f"{p:g}" for p in mixing)
        object.__setattr__(self, "mixing", mixing)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "name", name)


@dataclass(frozen=True)
class StudyConfig:
    scenarios: tuple[ScenarioSpec, ...]
    replications: int = 250
    n_starts: int = 10
    estimators: tuple[Variant, ...] = (Variant.HOMN, Variant.HETN, Variant.CONC)
    cv: CvConfig = field(default_factory=CvConfig)
    em: EmConfig = field(default_factory=EmConfig)
    seed: int = 0

    def __post_init__(self):
        for name, low in (("replications", 1), ("n_starts", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), low)
        estimators = tuple(Variant(v) for v in self.estimators)
        if not estimators or len(set(estimators)) < len(estimators):
            raise ValueError("estimators must list at least one variant, none twice, got "
                             f"{[v.value for v in estimators]}")
        names = [s.name for s in self.scenarios]
        if not names:
            raise ValueError("scenarios must list at least one scenario")
        twice = [name for name in names if names.count(name) > 1]
        if twice:
            raise ValueError(f"scenario name {twice[0]!r} is repeated; set each scenario's 'name'")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "estimators", estimators)


def draw_inverse_gamma(rng: np.random.Generator, shape: float, scale: float, size=None):
    """Inverse-gamma draws with mean scale/(shape-1)."""
    return scale / rng.gamma(shape, 1.0, size=size)


def draw_scenario(spec: ScenarioSpec, rng: np.random.Generator):
    """Generate (data, true params, true labels) for one replication."""
    G, n, p = spec.G, spec.n, spec.n_regressors
    for _ in range(_REDRAW_ATTEMPTS):
        labels = rng.choice(G, size=n, p=spec.mixing)
        if np.bincount(labels, minlength=G).min() > 0:
            break
    else:
        raise ValueError(f"scenario {spec.name!r}: a mixture component drew no members "
                         f"in {_REDRAW_ATTEMPTS} attempts")
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    betas = np.column_stack(
        [np.asarray(spec.intercepts), rng.uniform(spec.coef_low, spec.coef_high, size=(G, p))]
    )
    variances = draw_inverse_gamma(rng, spec.variance_shape, spec.variance_scale, size=G)
    noise = rng.standard_normal(n) * np.sqrt(variances[labels])
    y = np.einsum("nj,nj->n", X, betas[labels]) + noise
    names = ("intercept",) + tuple(f"x{j + 1}" for j in range(p))
    data = Dataset(y, X, names)
    truth = ModelParams(np.asarray(spec.mixing), betas, variances)
    return data, truth, labels


def _first_stage(data, G, config, rep_seed) -> dict:
    """Each estimator's first pool, all in one kernel batch: its outcomes, by estimator.

    HomN and HetN fit their pool on ``rep_seed``; ConC's first pool is its
    target pool.  The kernel's check of the data raises a NumericalError,
    which fails every pool.
    """
    specs = {v: (ConstraintSpec(v), rep_seed) for v in (Variant.HOMN, Variant.HETN)}
    specs[Variant.CONC] = _target_pool(rep_seed)
    pools = [(spec, config.n_starts, seed) for spec, seed in map(specs.get, config.estimators)]
    return dict(zip(config.estimators, _pool_outcomes(data, G, config.em, pools)))


def _fit_estimator(variant, data, G, config, rep_seed, first):
    # ``first``: the estimator's entry of _first_stage
    winner = first[_pool_winner(first)]     # multi_start_fit's pick, and its errors
    if variant is not Variant.CONC:
        return _fit_results(data, G, [winner])[0], None
    cv = replace(config.cv, seed=rep_seed)
    fit, report = fit_conc(data, G, cv, config.em, config.n_starts,
                           target=float(winner.variances[0]))
    return fit, report.selected_c


def run_study(config: StudyConfig, keep_replications: bool = False):
    """Run the full scenario x replication x estimator grid.

    Returns one aggregate row (dict with STUDY_COLUMNS keys) per (scenario,
    estimator), built from one record per successful fit.  A fit that fails
    with a NumericalError is counted in ``n_failed``, never fatal.  With
    ``keep_replications`` the records, in (replication, estimator) order
    within each scenario, are returned as a second value.

    A replication trains its estimators' first pools (HomN's, HetN's and
    ConC's target pool) together in one kernel batch, then ConC's later
    stages.  So a record's ``time_s`` is the time from the start of that
    shared batch to the end of the estimator's last stage: the batch alone
    for HomN and HetN, the batch plus the rest of ``fit_conc`` for ConC.
    """
    rows = []
    records = []
    for s_idx, scenario in enumerate(config.scenarios):
        cell = []
        for rep in range(config.replications):
            ss = np.random.SeedSequence(
                entropy=config.seed, spawn_key=(s_idx, rep)
            )
            data_rng = np.random.default_rng(ss.spawn(1)[0])
            data, truth, true_labels = draw_scenario(scenario, data_rng)
            rep_seed = int(ss.generate_state(1)[0])
            t0 = time.perf_counter()
            try:
                firsts = _first_stage(data, scenario.G, config, rep_seed)
            except NumericalError:
                continue        # counted in every estimator's n_failed
            batch_s = time.perf_counter() - t0
            for variant in config.estimators:
                t0 = time.perf_counter()
                try:
                    fit, selected_c = _fit_estimator(
                        variant, data, scenario.G, config, rep_seed, firsts[variant]
                    )
                except NumericalError:
                    continue
                elapsed = batch_s + time.perf_counter() - t0
                mse = param_mse(truth, fit.params)
                cell.append(
                    {
                        "scenario": scenario.name,
                        "replication": rep,
                        "estimator": variant.value,
                        "mse_beta": mse.avg_mse_beta,
                        "mse_sigma": mse.avg_mse_sigma,
                        "adj_rand": adjusted_rand(true_labels, fit.labels),
                        "time_s": elapsed,
                        "c": selected_c,
                        "degenerate": fit.degenerate,
                    }
                )
        for variant in config.estimators:
            fits = [r for r in cell if r["estimator"] == variant.value]
            row = {"scenario": scenario.name, "estimator": variant.value}
            for col in STUDY_COLUMNS[2:-1]:
                # mean_c averages the records' c, which only ConC sets
                vals = [r[col.removeprefix("mean_")] for r in fits]
                vals = [v for v in vals if v is not None]
                row[col] = float(np.mean(vals)) if vals else float("nan")
            row["n_failed"] = config.replications - len(fits)
            rows.append(row)
        records += cell
    if keep_replications:
        return rows, records
    return rows
