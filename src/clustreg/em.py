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

There is one EM loop, the private lane kernel ``_em_lanes``.  It advances a
batch of members -- the starts of a pool, or the candidate values of c on
one CV split -- together: weights, coefficients, variances and posteriors
carry a leading member axis, so one iteration is a few NumPy calls whatever
the batch size.  The batch holds at most ``2**14 // (G*n)`` members (a fixed
budget of posterior elements, read off the input).  A member leaves as soon
as it converges, hits the iteration cap, degenerates, has a step rejected or
fails a check, and its lane is refilled with the next start, initialised
only then, in start order, on its own seed stream.  Every per-member
operation is the same floating-point arithmetic as a run on its own, so a
member's result does not depend on which others share its batch.  ``run_em``
is the one-member call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    _PARAM_FAULTS,
    Dataset,
    InvalidParameterError,
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
# Elements of (G, n) posteriors held over all lanes of one EM batch: the lane
# count is this budget over G*n, read off the input.
_LANE_BUDGET = 2**14
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


def _solve_betas(Xt: np.ndarray, y: np.ndarray, Z: np.ndarray, totals: np.ndarray):
    """Weighted least squares of A members at once: ((A, G, J) coefficients, failures).

    Xt is the (J, n) transposed design, Z the (A, G, n) responsibilities and
    totals their (A, G) row sums.  A member with a component whose effective
    sample size is below J, or whose cross-product matrix has a condition
    number above the limit, is not solved: its rows stay NaN and ``failures``
    lists (member, SingularComponentError) for its first such component.
    """
    # b is summed by einsum rather than BLAS: near a fixed point the stopping
    # iteration hangs on last bits, and this order keeps the scale-equivariance
    # acceptance check (criterion 3) passing.
    J = Xt.shape[0]
    XZ = Xt * Z[..., None, :]                     # (A, G, J, n)
    A = XZ @ Xt.T                                 # (A, G, J, J)
    b = np.einsum("...jn,n->...j", XZ, y)         # (A, G, J)
    eig = np.abs(np.linalg.eigvalsh(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = eig.max(axis=-1) / eig.min(axis=-1)
    bad = (totals < J) | ~(conds <= _COND_LIMIT)
    if not bad.any():
        return np.linalg.solve(A, b[..., None])[..., 0], []
    failures = []
    failed = bad.any(axis=1)
    for a in np.flatnonzero(failed):
        g = int(np.flatnonzero(bad[a])[0])
        if totals[a, g] < J:
            reason = f"effective sample size {totals[a, g]:.3g} < {J}"
        else:
            reason = f"condition number {conds[a, g]:.3g}"
        failures.append((a, SingularComponentError(g, reason)))
    ok = ~failed
    betas = np.full(b.shape, np.nan)
    betas[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    return betas, failures


def m_step_betas(data: Dataset, resp: Responsibilities) -> np.ndarray:
    """Per-component weighted least squares coefficients, shape (G, J).

    Raises SingularComponentError when a component's effective sample size is
    below the number of regressors or its weighted cross-product matrix has a
    2-norm condition number (largest over smallest eigenvalue magnitude) above
    1e12.
    """
    Z = resp.probs.T
    betas, failures = _solve_betas(
        np.ascontiguousarray(data.design.T), data.responses, Z[None], Z.sum(axis=1)[None])
    if failures:
        raise failures[0][1]
    return betas[0]


def _weighted_ss(Z: np.ndarray, resid: np.ndarray) -> np.ndarray:
    return np.einsum("...n,...n->...", Z, resid * resid)


def _require_mass(totals: np.ndarray) -> None:
    if totals.min() <= 0.0:
        raise EmptyComponentError(int(np.flatnonzero(totals <= 0.0)[0]))


def m_step_variances(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> np.ndarray:
    """Responsibility-weighted mean squared residual per component."""
    Z = resp.probs.T
    totals = Z.sum(axis=1)
    _require_mass(totals)
    return _weighted_ss(Z, _residuals(data, np.asarray(betas))) / totals


def homoscedastic_variance(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> float:
    """Pooled variance: (1/n) sum over observations and components of z * residual^2."""
    Z = resp.probs.T
    _require_mass(Z.sum(axis=1))
    ss = _weighted_ss(Z, _residuals(data, np.asarray(betas)))
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


def _update_variances(ss, totals, n, variant, roots):
    # Same arithmetic as m_step_variances, homoscedastic_variance and
    # clamp_variances, for the (A, G) sums of squares of A members; roots
    # holds each member's sqrt(c).
    if variant is Variant.HOMN:
        return np.repeat(ss.sum(axis=-1, keepdims=True) / n, ss.shape[-1], axis=-1)
    raw = ss / totals
    # The clamp target is the current pooled variance, recomputed every
    # M-step.  With a single component the pooled and per-component updates
    # coincide and the clamp is skipped to keep the reduction bit-exact.
    if variant is Variant.CONC and ss.shape[-1] > 1:
        target = ss.sum(axis=-1, keepdims=True) / n
        return np.clip(raw, target * roots[:, None], target / roots[:, None])
    return raw


def _check_init(G: int, variant: Variant, c, init: ModelParams) -> None:
    if init.n_components != G:
        raise ValueError("init has wrong number of components")
    if variant is Variant.CONC and G > 1:
        ratio = float(init.variances.min() / init.variances.max())
        if ratio < c * (1.0 - 1e-9):
            raise ValueError(
                "constrained run requires a feasible initial guess "
                f"(variance ratio {ratio:.3g} < c = {c:g})"
            )


def _em_lanes(data: Dataset, G: int, variant: Variant, config: EmConfig, members,
              keep_history: bool = False) -> list:
    """The EM loop: advance a stream of members together, a bounded number at a time.

    ``members`` yields ``(init, c)`` in member order, c being the constant of
    a constrained member; an exception in place of ``init`` is that member's
    outcome.  Returns one outcome per member: its FitResult, the
    SingularComponentError that stopped it, or the InvalidParameterError of a
    failed invariant check.  After an invariant failure no further member is
    admitted, so the outcomes may end early.
    """
    n = data.n
    Xt, y = np.ascontiguousarray(data.design.T), data.responses
    floor = config.resolve_floor(data)
    lanes = max(1, _LANE_BUDGET // (G * n))
    source = iter(members)
    outcomes, traces, history = [], {}, {}
    # Lane state, one row per active member: id (member index), w/b/v
    # (weights, coefficients, variances), p/u (posteriors, underflow mask),
    # ll (log-likelihood), it (iterations) and root (sqrt c).
    lane = None
    open_ = True      # members left to admit

    def leave(a, outcome=None, converged=False, degenerate=False):
        k = int(lane["id"][a])
        trace, hist = traces.pop(k), history.pop(k, None)
        if outcome is None:
            resp = Responsibilities(lane["p"][a].T, underflow=lane["u"][a])
            outcome = FitResult(
                params=ModelParams(lane["w"][a], lane["b"][a], lane["v"][a]),
                loglik=float(lane["ll"][a]),
                loglik_trace=np.array(trace),
                responsibilities=resp,
                labels=classify(resp),
                converged=bool(converged),
                degenerate=bool(degenerate),
                iterations=int(lane["it"][a]),
                param_history=tuple(hist) if hist is not None else (),
            )
        outcomes[k] = outcome

    def keep(mask, *arrays):
        nonlocal lane
        lane = {key: arr[mask] for key, arr in lane.items()}
        return [arr[mask] for arr in arrays]

    while True:
        # refill free lanes in member order
        fresh = []
        room = lanes - (0 if lane is None else lane["id"].size)
        while open_ and len(fresh) < room:
            item = next(source, None)
            if item is None:
                open_ = False
                break
            init, c = item
            outcomes.append(init)
            if not isinstance(init, Exception):
                _check_init(G, variant, c, init)
                fresh.append((len(outcomes) - 1, init, 1.0 if c is None else c))
        if fresh:
            ids, inits, cs = zip(*fresh)
            W = np.array([p.weights for p in inits])
            B = np.array([p.coefficients for p in inits])
            V = np.array([p.variances for p in inits])
            ll, P, U = _e_step_arrays(_residuals(data, B), W, V)
            new = dict(id=np.array(ids), w=W, b=B, v=V, p=P, u=U, ll=ll,
                       it=np.zeros(len(ids), dtype=np.intp), root=np.sqrt(cs))
            lane = new if lane is None else {k: np.concatenate([lane[k], new[k]]) for k in lane}
            for k, init, v in zip(ids, inits, ll.tolist()):
                traces[k] = [v]
                if keep_history:
                    history[k] = [init]
        if lane is None or lane["id"].size == 0:
            return outcomes

        # M-step; a member with a singular component leaves
        totals = lane["p"].sum(axis=-1)
        weights = totals / n
        betas, failures = _solve_betas(Xt, y, lane["p"], totals)
        if failures:
            ok = np.ones(lane["id"].size, dtype=bool)
            for a, exc in failures:
                leave(a, exc)
                ok[a] = False
            totals, weights, betas = keep(ok, totals, weights, betas)
            if lane["id"].size == 0:
                continue
        resid = _residuals(data, betas)
        ss = _weighted_ss(lane["p"], resid)
        variances = _update_variances(ss, totals, n, variant, lane["root"])
        degenerate = np.zeros(lane["id"].size, dtype=bool)
        if variant is Variant.HETN:
            degenerate = variances.min(axis=-1) < floor
            if degenerate.any():
                floored = np.maximum(variances, np.finfo(float).tiny)
                variances = np.where(degenerate[:, None], floored, variances)

        # invariant check; a member that fails it leaves before its E-step
        faults = _check_params(weights, betas, variances)
        if (faults >= 0).any():
            open_ = False
            for a in np.flatnonzero(faults >= 0):
                leave(a, InvalidParameterError(_PARAM_FAULTS[faults[a]]))
            weights, betas, variances, resid, degenerate = keep(
                faults < 0, weights, betas, variances, resid, degenerate)
            if lane["id"].size == 0:
                continue
        lane["it"] += 1

        # E-step, then reject or accept the step.  The moving clamp target
        # makes the constrained update an inexact maximization; a step that
        # lowers the objective is rejected and ends the run.
        ll, P, U = _e_step_arrays(resid, weights, variances)
        old = lane["ll"]
        rejected = ~degenerate & (ll < old)
        for a in np.flatnonzero(rejected):
            leave(a, converged=True)
        with np.errstate(invalid="ignore"):
            converged = np.isfinite(ll) & (abs(ll - old) <= config.tolerance * (1.0 + abs(ll)))
        capped = lane["it"] >= config.max_iterations
        lane.update(w=weights, b=betas, v=variances, p=P, u=U, ll=ll)
        for a, (k, v, r) in enumerate(zip(lane["id"].tolist(), ll.tolist(), rejected.tolist())):
            if not r:
                traces[k].append(v)
                if keep_history:
                    history[k].append(ModelParams(weights[a], betas[a], variances[a]))
        done = ~rejected & (degenerate | capped | converged)
        for a in np.flatnonzero(done):
            leave(a, converged=converged[a] and not capped[a] and not degenerate[a],
                  degenerate=degenerate[a])
        if (rejected | done).any():
            keep(~(rejected | done))


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
    (outcome,) = _em_lanes(data, G, spec.variant, config, [(init, spec.c)], keep_history)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _starts(data: Dataset, G: int, spec: ConstraintSpec, children):
    # Initialised when a lane frees up, in start order, each on its own stream.
    for child in children:
        try:
            init = initialize(data, G, spec, child)
        except SingularComponentError as exc:
            init = exc
        yield init, spec.c


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
    (FitResult or exception) are returned alongside the winner.  If a start
    fails the parameter invariant check, the lowest such start's
    InvalidParameterError is raised.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    starts = _starts(data, G, spec, base.spawn(n_starts))
    outcomes = _em_lanes(data, G, spec.variant, config, starts)
    for res in outcomes:
        if isinstance(res, InvalidParameterError):
            raise res
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
