"""EM engine for the three estimators.

Variants:
  * ``hetn``  -- unconstrained, free per-component variances
  * ``homn``  -- one shared variance across components
  * ``conc``  -- per-component variances clamped to [target*sqrt(c), target/sqrt(c)]

The constrained update recomputes its clamp target -- the pooled
(homoscedastic) variance of the current iteration -- at every M-step, so the
feasible interval shrinks and widens with the fit itself.  At c = 1 this
collapses onto the homoscedastic update exactly; as c -> 0 the clamp becomes
inactive and the heteroscedastic update is recovered.  The ``target_variance``
stored in a ConstraintSpec seeds the starting values and the feasibility check
of the initial guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    Dataset,
    ModelParams,
    Responsibilities,
    _check_params,
    _e_step_arrays,
    _residuals,
    posterior_probs,
    classify,
)

__all__ = [
    "Variant",
    "ConstraintSpec",
    "EmConfig",
    "FitResult",
    "SingularComponentError",
    "EmptyComponentError",
    "MultiStartError",
    "e_step",
    "m_step_weights",
    "m_step_betas",
    "m_step_variances",
    "homoscedastic_variance",
    "clamp_variances",
    "initialize",
    "run_em",
    "multi_start_fit",
]

_COND_LIMIT = 1e12
_INIT_ATTEMPTS = 20


class Variant(str, Enum):
    HETN = "hetn"
    HOMN = "homn"
    CONC = "conc"


class SingularComponentError(RuntimeError):
    """Weighted normal equations for one component are not solvable."""

    def __init__(self, component: int, reason: str = ""):
        self.component = component
        msg = f"singular weighted least squares for component {component}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class EmptyComponentError(RuntimeError):
    """A component received (numerically) zero total responsibility."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(
            f"component {component} has zero total responsibility; restart advised"
        )


class MultiStartError(RuntimeError):
    """Every start of a multi-start fit failed with a hard error."""


@dataclass(frozen=True)
class ConstraintSpec:
    """Estimator variant plus, for the constrained one, c and the target variance."""

    variant: Variant
    c: float = None
    target_variance: float = None

    def __post_init__(self):
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if variant is Variant.CONC:
            if self.c is None or not (0.0 < self.c <= 1.0):
                raise ValueError("conc requires c in (0, 1]")
            if self.target_variance is None or self.target_variance <= 0:
                raise ValueError("conc requires a positive target variance")
        else:
            if self.c is not None or self.target_variance is not None:
                raise ValueError(f"{variant.value} takes no c or target variance")

    @classmethod
    def heteroscedastic(cls) -> "ConstraintSpec":
        return cls(Variant.HETN)

    @classmethod
    def homoscedastic(cls) -> "ConstraintSpec":
        return cls(Variant.HOMN)

    @classmethod
    def constrained(cls, c: float, target_variance: float) -> "ConstraintSpec":
        return cls(Variant.CONC, c=c, target_variance=target_variance)

    @property
    def lower(self) -> float:
        return self.target_variance * math.sqrt(self.c)

    @property
    def upper(self) -> float:
        return self.target_variance / math.sqrt(self.c)


@dataclass(frozen=True)
class EmConfig:
    """EM stopping rule and degeneracy guard.

    ``variance_floor`` of None resolves at run time to 1e-10 times the sample
    variance of the responses.
    """

    max_iterations: int = 500
    tolerance: float = 1e-8
    variance_floor: float = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.variance_floor is not None and self.variance_floor <= 0:
            raise ValueError("variance_floor must be positive")

    def resolve_floor(self, data: Dataset) -> float:
        if self.variance_floor is not None:
            return self.variance_floor
        return 1e-10 * float(np.var(data.responses))


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    loglik: float
    loglik_trace: np.ndarray
    responsibilities: Responsibilities
    labels: np.ndarray
    converged: bool
    degenerate: bool
    iterations: int
    param_history: tuple = ()   # per-iteration ModelParams when requested


def e_step(data: Dataset, params: ModelParams) -> Responsibilities:
    """Posterior membership probabilities (delegates to the model core)."""
    return posterior_probs(data, params)


def m_step_weights(resp: Responsibilities) -> np.ndarray:
    """Mixing proportions: column means of the responsibilities."""
    return resp.probs.mean(axis=0)


def _solve_betas(Xt: np.ndarray, y: np.ndarray, Z: np.ndarray, totals: np.ndarray) -> np.ndarray:
    # Xt is the (J, n) transposed design, Z the (G, n) responsibilities and
    # totals their row sums.  b is summed by einsum rather than BLAS: near a
    # fixed point the stopping iteration hangs on last bits, and this order
    # keeps the scale-equivariance acceptance check (criterion 3) passing.
    J = Xt.shape[0]
    XZ = Xt * Z[:, None, :]                       # (G, J, n)
    A = XZ @ Xt.T                                 # (G, J, J)
    b = np.einsum("gjn,n->gj", XZ, y)             # (G, J)
    eig = np.abs(np.linalg.eigvalsh(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = eig.max(axis=1) / eig.min(axis=1)
    if totals.min() < J or not (conds <= _COND_LIMIT).all():
        for g in range(Z.shape[0]):
            if totals[g] < J:
                raise SingularComponentError(g, f"effective sample size {totals[g]:.3g} < {J}")
            if not np.isfinite(conds[g]) or conds[g] > _COND_LIMIT:
                raise SingularComponentError(g, f"condition number {conds[g]:.3g}")
    return np.linalg.solve(A, b[..., None])[..., 0]


def m_step_betas(data: Dataset, resp: Responsibilities) -> np.ndarray:
    """Per-component weighted least squares coefficients, shape (G, J).

    Raises SingularComponentError when a component's effective sample size is
    below the number of regressors or its weighted cross-product matrix has a
    2-norm condition number (largest over smallest eigenvalue magnitude) above
    1e12.
    """
    Z = resp.probs.T
    return _solve_betas(np.ascontiguousarray(data.design.T), data.responses, Z, Z.sum(axis=1))


def _weighted_ss(Z: np.ndarray, totals: np.ndarray, resid: np.ndarray) -> np.ndarray:
    if totals.min() <= 0.0:
        raise EmptyComponentError(int(np.flatnonzero(totals <= 0.0)[0]))
    return np.einsum("gn,gn->g", Z, resid * resid)


def m_step_variances(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> np.ndarray:
    """Responsibility-weighted mean squared residual per component."""
    Z = resp.probs.T
    totals = Z.sum(axis=1)
    return _weighted_ss(Z, totals, _residuals(data, np.asarray(betas))) / totals


def homoscedastic_variance(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> float:
    """Pooled variance: (1/n) sum over observations and components of z * residual^2."""
    Z = resp.probs.T
    ss = _weighted_ss(Z, Z.sum(axis=1), _residuals(data, np.asarray(betas)))
    return float(ss.sum() / data.n)


def clamp_variances(raw: np.ndarray, spec: ConstraintSpec) -> np.ndarray:
    """Clamp raw variance updates into [target*sqrt(c), target/sqrt(c)]."""
    if spec.variant is not Variant.CONC:
        raise ValueError("clamp_variances applies to the constrained variant only")
    return np.clip(np.asarray(raw, dtype=float), spec.lower, spec.upper)


def _seed_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def initialize(data: Dataset, G: int, spec: ConstraintSpec, seed) -> ModelParams:
    """Random near-equal hard partition + per-group OLS starting values.

    Weights start uniform.  Variances start at the pooled residual variance,
    except for the constrained variant where they start exactly at the target
    (feasible for any c).
    """
    n, J = data.n, data.n_features
    if G < 1:
        raise ValueError("G must be >= 1")
    if n < G * (J + 1):
        raise ValueError(f"need n >= G*(J+1) = {G * (J + 1)}, got {n}")
    rng = _seed_rng(seed)
    X, y = data.design, data.responses
    for _ in range(_INIT_ATTEMPTS):
        perm = rng.permutation(n)
        groups = np.array_split(perm, G)
        betas = np.empty((G, J))
        ok = True
        ss = 0.0
        for g, idx in enumerate(groups):
            coef, _, rank, _ = np.linalg.lstsq(X[idx], y[idx], rcond=None)
            if rank < J:
                ok = False
                break
            betas[g] = coef
            r = y[idx] - X[idx] @ coef
            ss += float(r @ r)
        if not ok:
            continue
        pooled = ss / n
        if pooled <= 0.0:
            pooled = max(1e-12 * float(np.var(y)), np.finfo(float).tiny)
        if spec.variant is Variant.CONC:
            variances = np.full(G, spec.target_variance)
        else:
            variances = np.full(G, pooled)
        weights = np.full(G, 1.0 / G)
        return ModelParams(weights, betas, variances)
    raise SingularComponentError(-1, f"no full-rank partition found in {_INIT_ATTEMPTS} attempts")


def _update_variances(ss: np.ndarray, totals: np.ndarray, n: int, spec: ConstraintSpec):
    # Same arithmetic as m_step_variances, homoscedastic_variance and
    # clamp_variances, from sums of squares computed once per iteration.
    if spec.variant is Variant.HOMN:
        return np.full(totals.shape[0], float(ss.sum() / n))
    raw = ss / totals
    # The clamp target is the current pooled variance, recomputed every
    # M-step.  With a single component the pooled and per-component updates
    # coincide and the clamp is skipped to keep the reduction bit-exact.
    if spec.variant is Variant.CONC and totals.shape[0] > 1:
        target = float(ss.sum() / n)
        return np.clip(raw, target * math.sqrt(spec.c), target / math.sqrt(spec.c))
    return raw


def run_em(
    data: Dataset,
    G: int,
    spec: ConstraintSpec,
    config: EmConfig,
    init: ModelParams,
    keep_history: bool = False,
) -> FitResult:
    """Iterate E and M steps from ``init`` until the stopping rule fires.

    Stops when the relative log-likelihood improvement drops below
    ``config.tolerance``, when ``config.max_iterations`` M-steps have run, or
    (heteroscedastic only) when a variance falls below the floor, in which
    case the fit is flagged degenerate.
    """
    if init.n_components != G:
        raise ValueError("init has wrong number of components")
    if spec.variant is Variant.CONC and G > 1:
        ratio = float(init.variances.min() / init.variances.max())
        if ratio < spec.c * (1.0 - 1e-9):
            raise ValueError(
                "constrained run requires a feasible initial guess "
                f"(variance ratio {ratio:.3g} < c = {spec.c:g})"
            )
    floor = config.resolve_floor(data)
    Xt, y, n = np.ascontiguousarray(data.design.T), data.responses, data.n
    weights, betas, variances = init.weights, init.coefficients, init.variances
    history = [init] if keep_history else None
    prev_ll = -np.inf
    converged = False
    degenerate = False
    iterations = 0
    ll, probs, underflow = _e_step_arrays(_residuals(data, betas), weights, variances)
    trace = [ll]
    for _ in range(config.max_iterations):
        if np.isfinite(ll) and abs(ll - prev_ll) <= config.tolerance * (1.0 + abs(ll)):
            converged = True
            break
        prev_ll = ll
        totals = probs.sum(axis=1)
        new_weights = totals / n
        new_betas = _solve_betas(Xt, y, probs, totals)
        resid = _residuals(data, new_betas)
        new_variances = _update_variances(_weighted_ss(probs, totals, resid), totals, n, spec)
        if spec.variant is Variant.HETN and new_variances.min() < floor:
            degenerate = True
            new_variances = np.maximum(new_variances, np.finfo(float).tiny)
        _check_params(new_weights, new_betas, new_variances)
        iterations += 1
        new_ll, new_probs, new_underflow = _e_step_arrays(resid, new_weights, new_variances)
        if not degenerate and new_ll < ll:
            # The moving clamp target makes the constrained update an inexact
            # maximization; reject a step that lowers the objective and stop.
            converged = True
            break
        weights, betas, variances = new_weights, new_betas, new_variances
        ll, probs, underflow = new_ll, new_probs, new_underflow
        if keep_history:
            history.append(ModelParams(weights, betas, variances))
        trace.append(ll)
        if degenerate:
            break
    resp = Responsibilities(probs.T, underflow=underflow)
    return FitResult(
        params=ModelParams(weights, betas, variances),
        loglik=ll,
        loglik_trace=np.array(trace),
        responsibilities=resp,
        labels=classify(resp),
        converged=converged,
        degenerate=degenerate,
        iterations=iterations,
        param_history=tuple(history) if keep_history else (),
    )


def multi_start_fit(
    data: Dataset,
    G: int,
    spec: ConstraintSpec,
    config: EmConfig,
    n_starts: int,
    seed,
    return_all: bool = False,
):
    """Best-of-``n_starts`` EM fit; starts own derived RNG streams.

    Non-degenerate results win; among equals the highest log-likelihood wins,
    ties resolved to the earliest start.  If every start degenerates the best
    degenerate result is returned.  With ``return_all`` the per-start outcomes
    (FitResult or exception) are returned alongside the winner.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = base.spawn(n_starts)
    outcomes = []
    for child in children:
        try:
            init = initialize(data, G, spec, child)
            outcomes.append(run_em(data, G, spec, config, init))
        except (SingularComponentError, EmptyComponentError) as exc:
            outcomes.append(exc)
    best = None
    best_degenerate = None
    errors = []
    for res in outcomes:
        if isinstance(res, Exception):
            errors.append(res)
            continue
        if res.degenerate:
            if best_degenerate is None or res.loglik > best_degenerate.loglik:
                best_degenerate = res
        else:
            if best is None or res.loglik > best.loglik:
                best = res
    winner = best if best is not None else best_degenerate
    if winner is None:
        raise MultiStartError(
            f"all {n_starts} starts failed: " + "; ".join(str(e) for e in errors)
        )
    if return_all:
        return winner, outcomes
    return winner
