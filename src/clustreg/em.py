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
batch of runs -- the starts of a pool, or every split x feasible c of a CV
grid -- together: parameters and posteriors carry a leading run axis, so one
iteration is a few NumPy calls whatever the batch size.  Runs may use
different samples of one size (the training sets of a CV grid); each carries
its sample's slot, and a batch on one sample broadcasts it.  The batch holds
at most ``2**14 // (G*n)`` runs (a fixed budget of posterior elements).  A
run leaves when a check fails or an iteration gives it a stop reason, the
first that holds of ``STOP_REASONS``: ``degenerate`` (a variance fell below
the floor), ``rejected_step`` (the step lowered the log-likelihood; the run
keeps the iterate it started from), ``tolerance`` (the log-likelihood moved
by at most tolerance * (1 + |loglik|)) and ``max_iterations``.  Its lane
takes a waiting fork (below) or the next member, a start being initialised
only then, in start order, on its own seed stream.  Every run enters one
way, from its parameters through a batched E-step, and every member runs to
its end; the outcomes come back in (c, member) order as raw arrays, which
only a caller returning a FitResult turns into one, recomputing the
posteriors.  Each per-run operation is the same floating-point arithmetic as
a run on its own, so a result does not depend on its batch.  ``run_em`` is
the one-member call.

Members that differ only in a larger c share a lane: until its clamp first
binds, such a member repeats bit for bit the steps at the smallest c, since
no other step depends on c.  So the smallest c runs as the leader and carries
the larger ones as shadows.  Shadows whose bounds bind in an M-step (a suffix,
the bounds being nested) fork: each waits as the leader's state at the start
of that iteration, posteriors left out, enters ahead of new members and
re-runs that M-step.  A leader's outcome is its shadows' outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import (
    _PARAM_FAULTS,
    Dataset,
    InvalidParameterError,
    ModelParams,
    Responsibilities,
    _check_params,
    _e_step_arrays,
    _residual_rows,
    _residuals,
    posterior_probs,
    classify,
    min_variance_ratio,
)

__all__ = [
    "Variant",
    "ConstraintSpec",
    "EmConfig",
    "FitResult",
    "STOP_REASONS",
    "SingularComponentError",
    "NumericalError",
    "MultiStartError",
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
# Why an EM run stopped, in order of precedence when several hold at once.
STOP_REASONS = ("degenerate", "rejected_step", "tolerance", "max_iterations")


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


class NumericalError(InvalidParameterError):
    """A fit broke down numerically: an invariant failed inside EM, or the response is flat."""


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
            if self.target_variance is None or not 0.0 < self.target_variance < math.inf:
                raise ValueError("conc requires a positive finite target variance")
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

    A run of any variant stops flagged degenerate when a variance falls below
    ``variance_floor``; None resolves at run time to 1e-10 times the sample
    variance of the responses.
    """

    max_iterations: int = 500
    tolerance: float = 1e-8
    variance_floor: float = None

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.tolerance == math.inf:
            raise ValueError("tolerance must be finite")
        if self.variance_floor is not None and not self.variance_floor > 0:
            raise ValueError("variance_floor must be positive")

    def resolve_floor(self, data: Dataset) -> float:
        if self.variance_floor is not None:
            return self.variance_floor
        return 1e-10 * float(np.var(data.responses))


@dataclass(frozen=True)
class FitResult:
    """An EM run's end state; ``converged``, ``degenerate`` and ``labels`` derive from it."""

    params: ModelParams
    loglik: float
    loglik_trace: np.ndarray
    responsibilities: Responsibilities
    stop_reason: str            # one of STOP_REASONS
    iterations: int
    param_history: tuple = ()   # per-iteration ModelParams when requested

    converged = property(lambda self: self.stop_reason == "tolerance")
    degenerate = property(lambda self: self.stop_reason == "degenerate")
    labels = property(lambda self: classify(self.responsibilities))


class _Run(NamedTuple):
    """A member's end state as the EM kernel leaves it; ``fit(data)`` makes the FitResult.

    The posteriors are not kept: they are a function of the parameters, and
    ``fit`` recomputes them with the same arithmetic as the member's last
    E-step, so only the fits a caller returns pay for them.
    """

    weights: np.ndarray
    coefficients: np.ndarray
    variances: np.ndarray
    loglik: float
    trace: list
    stop_reason: str
    iterations: int
    history: tuple

    def fit(self, data: Dataset) -> FitResult:
        params = ModelParams(self.weights, self.coefficients, self.variances)
        return FitResult(params, self.loglik, np.array(self.trace), posterior_probs(data, params),
                         self.stop_reason, self.iterations, self.history)


def m_step_weights(resp: Responsibilities) -> np.ndarray:
    """Mixing proportions: column means of the responsibilities."""
    return resp.probs.mean(axis=0)


def _solve_betas(Xt: np.ndarray, y: np.ndarray, Z: np.ndarray, totals: np.ndarray):
    """Weighted least squares of A members at once: ((A, G, J) coefficients, failures).

    Xt holds (S, J, n) transposed designs and y (S, 1, n) responses, S being
    1 (shared by every member) or A; Z holds the (A, G, n) responsibilities
    and totals their (A, G) row sums.  A member with a component whose
    effective sample size is below J, or whose cross-product matrix has a
    condition number above the limit, fails: ``failures`` lists (member,
    SingularComponentError) for its first such component, and its
    coefficients are a stand-in no caller reads.
    """
    # b is summed by einsum rather than BLAS: near a fixed point the stopping
    # iteration hangs on last bits, and this order keeps the scale-equivariance
    # acceptance check (criterion 3) passing.
    J = Xt.shape[-2]
    Xt = Xt[:, None]
    XZ = Xt * Z[..., None, :]                     # (A, G, J, n)
    A = XZ @ Xt.swapaxes(-1, -2)                  # (A, G, J, J)
    b = np.einsum("...jn,...n->...j", XZ, y)      # (A, G, J)
    eig = np.abs(np.linalg.eigvalsh(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = eig.max(axis=-1) / eig.min(axis=-1)
    bad = (totals < J) | ~(conds <= _COND_LIMIT)
    failures = []
    for a, g in zip(*bad.nonzero()):
        if failures and failures[-1][0] == a:
            continue                    # a member fails on its first such component
        if totals[a, g] < J:
            reason = f"effective sample size {totals[a, g]:.3g} < {J}"
        else:
            reason = f"condition number {conds[a, g]:.3g}"
        failures.append((a, SingularComponentError(int(g), reason)))
    # LAPACK solves each matrix on its own, so the identity stand-in leaves
    # every other member's bits as they are
    A[bad] = np.eye(J)
    return np.linalg.solve(A, b[..., None])[..., 0], failures


def m_step_betas(data: Dataset, resp: Responsibilities) -> np.ndarray:
    """Per-component weighted least squares coefficients, shape (G, J).

    Raises SingularComponentError when a component's effective sample size is
    below the number of regressors or its weighted cross-product matrix has a
    2-norm condition number (largest over smallest eigenvalue magnitude) above
    1e12.
    """
    Z = resp.probs.T
    betas, failures = _solve_betas(
        np.ascontiguousarray(data.design.T)[None], data.responses[None, None],
        Z[None], Z.sum(axis=1)[None])
    if failures:
        raise failures[0][1]
    return betas[0]


def _weighted_ss(Z: np.ndarray, resid: np.ndarray) -> np.ndarray:
    return np.einsum("...n,...n->...", Z, resid * resid)


def _require_mass(totals: np.ndarray) -> None:
    if totals.min() <= 0.0:
        raise SingularComponentError(int((totals <= 0.0).argmax()), "zero total responsibility")


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
    rng = np.random.default_rng(seed)
    X, y = data.design, data.responses
    for _ in range(_INIT_ATTEMPTS):
        perm = rng.permutation(n)
        groups = np.array_split(perm, G)
        betas = np.empty((G, J))
        ss = 0.0
        for g, idx in enumerate(groups):
            coef, _, rank, _ = np.linalg.lstsq(X[idx], y[idx], rcond=None)
            if rank < J:
                break
            betas[g] = coef
            r = y[idx] - X[idx] @ coef
            ss += float(r @ r)
        else:
            pooled = ss / n
            if pooled <= 0.0:
                pooled = max(1e-12 * float(np.var(y)), np.finfo(float).tiny)
            start = spec.target_variance if spec.variant is Variant.CONC else pooled
            return ModelParams(np.full(G, 1.0 / G), betas, np.full(G, start))
    raise SingularComponentError(-1, f"no full-rank partition found in {_INIT_ATTEMPTS} attempts")


def _update_variances(ss, totals, n, variant, roots, shadows=None):
    # Same arithmetic as m_step_variances, homoscedastic_variance and
    # clamp_variances, for the (A, G) sums of squares of A members; roots
    # holds each member's sqrt(c), 1 for HomN.  Given the (m,) roots of
    # shadows, also flags (A, m) the shadows whose own clamp would bind.
    raw = ss / totals
    if variant is Variant.HETN:
        return raw, None
    # The clamp target is the current pooled variance, recomputed every
    # M-step.  HomN is the clamp at c = 1, whose bounds are exactly the target;
    # with G = 1 every posterior is exactly 1, so raw is the target.
    target = ss.sum(axis=-1, keepdims=True) / n
    binds = None
    if shadows is not None:
        t, r = target[..., None], shadows[:, None]
        binds = ((raw[:, None] < t * r) | (raw[:, None] > t / r)).any(axis=-1)
    return np.clip(raw, target * roots[:, None], target / roots[:, None]), binds


def _feasible(params: ModelParams, c: float) -> bool:
    """Whether ``params`` satisfy the ConC constraint at ``c``, up to a relative 1e-9."""
    return not min_variance_ratio(params) < c * (1.0 - 1e-9)


def _check_init(G: int, variant: Variant, c, init: ModelParams) -> None:
    if init.n_components != G:
        raise ValueError("init has wrong number of components")
    if variant is Variant.CONC and not _feasible(init, c):
        raise ValueError(
            "constrained run requires a feasible initial guess "
            f"(variance ratio {min_variance_ratio(init):.3g} < c = {c:g})"
        )


def _em_lanes(samples, G: int, variant: Variant, config: EmConfig, members,
              keep_history: bool = False, shadows=()) -> list:
    """The EM loop: advance a stream of members together, a bounded number at a time.

    ``samples`` holds one or more datasets of one size.  ``members`` yields
    ``(slot, init, c)``: the member runs on ``samples[slot]`` from ``init``, c
    being the constant of a constrained member; an exception in place of
    ``init`` is that member's outcome.  Each of the ascending ``shadows``,
    all above every c, adds a shadow member at that constant to each member.
    Every member and shadow runs to its end.  Returns their outcomes (a _Run,
    the SingularComponentError that stopped the run, or the NumericalError
    of a failed check) ordered by rank, then member, rank r > 0 being the
    r-th shadow.
    """
    if G < 1:
        raise ValueError("G must be >= 1")
    n = samples[0].n
    # (S, n, J) designs, (S, J, n) transposes and (S, 1, n) responses.  Both
    # design layouts are kept because BLAS rounds them differently.  With one
    # sample S = 1 broadcasts over the lanes; otherwise the lanes' rows are
    # gathered where they are used, so only one gathered copy is alive at once.
    X = np.stack([s.design for s in samples])
    Xt = np.ascontiguousarray(X.swapaxes(-1, -2))
    Y = np.stack([s.responses for s in samples])[:, None, :]
    if (Y.max(axis=-1) == Y.min(axis=-1)).any():
        raise NumericalError("responses have no spread (max == min)")
    floors = np.array([config.resolve_floor(s) for s in samples])
    shared = len(samples) == 1

    def rows(stack, slots):
        return stack if shared else stack[slots]

    def residuals(slots, betas):
        return _residual_rows(rows(Y, slots), rows(X, slots), betas)

    lanes = max(1, _LANE_BUDGET // (G * n))
    roots, m = np.sqrt(shadows), len(shadows)
    source = iter(members)
    # A run's key is (m + 1) * member index + rank, so a run carrying q
    # shadows stands for keys key..key+q.  By key: outcomes, the (trace,
    # history) of each run in a lane, and the entry of each waiting fork.
    outcomes, logs, forks = {}, {}, {}
    taken = 0         # members taken from the source
    # Lane state, one row per run in logs: key, slot (its sample), w/b/v
    # (weights, coefficients, variances), p (posteriors), ll (log-likelihood),
    # it (iterations), root (sqrt c) and q (shadows carried: ranks 1..q).
    lane = None

    def leave(a, outcome):
        k = int(lane["key"][a])
        trace, hist = logs.pop(k)
        if isinstance(outcome, str):
            # copies, so an outcome does not hold the whole batch's arrays
            outcome = _Run(
                lane["w"][a].copy(), lane["b"][a].copy(), lane["v"][a].copy(),
                float(lane["ll"][a]), trace, outcome, int(lane["it"][a]), tuple(hist),
            )
        outcomes.update(dict.fromkeys(range(k, k + int(lane["q"][a]) + 1), outcome))

    def keep(mask, *arrays):
        nonlocal lane
        lane = {key: arr[mask] for key, arr in lane.items()}
        return [arr[mask] for arr in arrays]

    while True:
        # refill: waiting forks first, in key order, then new members.  Both
        # enter as (key, slot, parameters, iterations, trace, history, c, q)
        # through the first E-step, which gives a fork back bit for bit the
        # posteriors and log-likelihood it left with.
        entering = []
        while len(entering) < lanes - len(logs):
            if forks:
                entering.append(forks.pop(min(forks)))
                continue
            item = next(source, None)
            if item is None:
                break
            (slot, init, c), key = item, (m + 1) * taken
            taken += 1
            if isinstance(init, Exception):
                outcomes.update(dict.fromkeys(range(key, key + m + 1), init))
                continue
            _check_init(G, variant, shadows[-1] if m else c, init)
            entering.append((key, slot, (init.weights, init.coefficients, init.variances), 0,
                             [], [init] if keep_history else [], 1.0 if c is None else c, m))
        if entering:
            ks, slots, params, its, traces, hists, cs, qs = zip(*entering)
            W, B, V = (np.array(p) for p in zip(*params))
            ll, P, _ = _e_step_arrays(residuals(np.array(slots), B), W, V)
            for k, trace, hist, v in zip(ks, traces, hists, ll.tolist()):
                trace.append(v)
                logs[k] = trace, hist
            new = dict(key=np.array(ks), slot=np.array(slots), w=W, b=B, v=V, p=P, ll=ll,
                       it=np.array(its, dtype=np.intp), root=np.sqrt(cs), q=np.array(qs))
            lane = {f: np.concatenate([lane[f], new[f]]) for f in new} if lane else new
        if not logs:
            return [outcomes[(m + 1) * i + r] for r in range(m + 1) for i in range(taken)]

        # M-step; a member with a singular component leaves
        totals = lane["p"].sum(axis=-1)
        weights = totals / n
        betas, failures = _solve_betas(
            rows(Xt, lane["slot"]), rows(Y, lane["slot"]), lane["p"], totals)
        if failures:
            ok = np.ones(lane["key"].size, dtype=bool)
            for a, exc in failures:
                leave(a, exc)
                ok[a] = False
            totals, weights, betas = keep(ok, totals, weights, betas)
        resid = residuals(lane["slot"], betas)
        ss = _weighted_ss(lane["p"], resid)
        live = m and lane["q"].any()
        variances, binds = _update_variances(
            ss, totals, n, variant, lane["root"], roots if live else None)
        if live:
            # binding shadows fork, to re-run this M-step from the state the
            # leader started this iteration with
            binds &= np.arange(m) < lane["q"][:, None]
            for a in np.flatnonzero(binds.any(axis=1)):
                k, first = int(lane["key"][a]), int(binds[a].argmax())
                trace, hist = logs[k]
                slot, it = int(lane["slot"][a]), int(lane["it"][a])
                params = lane["w"][a], lane["b"][a], lane["v"][a]
                for r in range(first + 1, int(lane["q"][a]) + 1):
                    forks[k + r] = (k + r, slot, params, it, trace[:-1], hist[:],
                                    shadows[r - 1], 0)
                lane["q"][a] = first
        # a member with a variance below its sample's floor leaves degenerate
        degenerate = variances.min(axis=-1) < floors[lane["slot"]]
        if degenerate.any():
            floored = np.maximum(variances, np.finfo(float).tiny)
            variances = np.where(degenerate[:, None], floored, variances)

        # invariant check; a member that fails it leaves before its E-step
        faults = _check_params(weights, betas, variances)
        if (faults >= 0).any():
            for a in np.flatnonzero(faults >= 0):
                leave(a, NumericalError(_PARAM_FAULTS[faults[a]]))
            weights, betas, variances, resid, degenerate = keep(
                faults < 0, weights, betas, variances, resid, degenerate)
        lane["it"] += 1

        # E-step, then each run's stop: the index in STOP_REASONS of the first
        # reason that holds, len(STOP_REASONS) if none does.  The moving clamp
        # target makes the constrained update an inexact maximization; a step
        # that lowers the objective is rejected and ends the run before it.
        ll, P, _ = _e_step_arrays(resid, weights, variances)
        old = lane["ll"]
        with np.errstate(invalid="ignore"):
            met = np.isfinite(ll) & (abs(ll - old) <= config.tolerance * (1.0 + abs(ll)))
        stop = np.array([degenerate, ll < old, met, lane["it"] >= config.max_iterations,
                         np.ones_like(degenerate)]).argmax(axis=0)
        rejected, ended = stop == STOP_REASONS.index("rejected_step"), stop < len(STOP_REASONS)
        for a in np.flatnonzero(rejected):
            leave(a, "rejected_step")
        lane.update(w=weights, b=betas, v=variances, p=P, ll=ll)
        for a, (k, v) in enumerate(zip(lane["key"].tolist(), ll.tolist())):
            if k in logs:         # a rejected run has left
                logs[k][0].append(v)
                if keep_history:
                    logs[k][1].append(ModelParams(weights[a], betas[a], variances[a]))
        for a in np.flatnonzero(ended & ~rejected):
            leave(a, STOP_REASONS[stop[a]])
        if ended.any():
            keep(~ended)


def run_em(
    data: Dataset,
    G: int,
    spec: ConstraintSpec,
    config: EmConfig,
    init: ModelParams,
    keep_history: bool = False,
) -> FitResult:
    """Iterate E and M steps from ``init`` until one of ``STOP_REASONS`` holds.

    The fit's ``stop_reason`` names it; the module docstring says when each holds.
    """
    (outcome,) = _em_lanes([data], G, spec.variant, config, [(0, init, spec.c)], keep_history)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.fit(data)


def _starts(data: Dataset, G: int, spec: ConstraintSpec, children):
    # Initialised when a lane frees up, in start order, each on its own stream.
    for child in children:
        try:
            init = initialize(data, G, spec, child)
        except SingularComponentError as exc:
            init = exc
        yield 0, init, spec.c


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
    outcomes = _em_lanes([data], G, spec.variant, config, starts)
    for res in outcomes:
        if isinstance(res, InvalidParameterError):
            raise res
    runs = [i for i, res in enumerate(outcomes) if isinstance(res, _Run)]
    if not runs:
        raise MultiStartError(
            f"all {n_starts} starts failed: " + "; ".join(str(e) for e in outcomes)
        )
    winner = min(runs, key=lambda i: (outcomes[i].stop_reason == "degenerate",
                                      -outcomes[i].loglik, i))
    if not return_all:
        return outcomes[winner].fit(data)
    # in place, so each start's raw arrays are freed as its FitResult is built
    for i, res in enumerate(outcomes):
        if isinstance(res, _Run):
            outcomes[i] = res.fit(data)
    return outcomes[winner], outcomes
