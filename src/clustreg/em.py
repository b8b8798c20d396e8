"""EM engine for the three estimators.

Variants, one variance rule: each component's responsibility-weighted mean
squared residual is clamped to [target*sqrt(c), target/sqrt(c)], the target
being the pooled (homoscedastic) variance of the same M-step, so the interval
moves with the fit.  ``hetn`` is the clamp at c = 0, whose bounds 0 and +inf
never bind; ``homn`` the clamp at c = 1, whose bounds are the target itself;
``conc`` the clamp at its c in (0, 1].  The ``target_variance`` of a
ConstraintSpec only seeds the starting values and the initial guess's check.

There is one EM loop, the private lane kernel ``_em_lanes``.  It advances a
batch of runs -- the starts of a pool, or every split x feasible c of a CV
grid -- together, one per row (lane) of arrays allocated once per call, at
most ``_lane_count`` (a budget of bytes), so one iteration is a few NumPy
calls whatever the batch size.  Runs may use different samples of one size (a
CV grid's training sets), each lane holding its own.  A run leaves when a
check fails or an iteration gives it a stop reason, the first that holds of
``STOP_REASONS``: ``degenerate`` (a variance fell below the floor),
``rejected_step`` (the step lowered the log-likelihood; the run keeps the
iterate it started from), ``tolerance`` (the log-likelihood moved by at most
tolerance * (1 + |loglik|)) and ``max_iterations``.  At c = 0 and 1 the M-step
maximizes exactly, so a drop within the tolerance is rounding and ends as
``tolerance``, keeping the iterate it started from.  Tail lanes move into the
rows of those that leave; a waiting fork (below), then the next member, enters
the tail through an E-step from its parameters.  Every member runs to its end;
the outcomes come back in (c, member) order as raw arrays, which only a caller
returning a FitResult turns into one, checked a batch at a time.  A failed
member's outcome is a NumericalError.  Only a SingularComponentError (singular
M-step, no full-rank start) fails the member alone; ``_raise_fatal`` raises
the first other one, in outcome order.  Each per-run operation is the same
floating-point arithmetic as a run on its own, so a result depends on neither
its batch nor its lane.

Members that differ only in a larger c share a lane: until its clamp first
binds, such a member repeats bit for bit the steps at the smallest c, since
no other step depends on c.  So the smallest c runs as the leader and carries
the larger ones as shadows.  Shadows whose bounds bind in an M-step (a suffix,
the bounds being nested) fork: each waits as the leader's state at the start
of that iteration, posteriors left out, enters ahead of new members and
re-runs that M-step.  A leader's outcome is its shadows' outcome.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    _E_STEP_ERRORS,
    _PARAM_FAULTS,
    _PROB_FAULTS,
    Dataset,
    ModelParams,
    Responsibilities,
    _check_params,
    _check_probs,
    _e_step,
    _e_step_arrays,
    _raise_first,
    _require_int,
    _residual_rows,
    _unchecked,
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
    "m_step_betas",
    "m_step_variances",
    "homoscedastic_variance",
    "clamp_variances",
    "initialize",
    "run_em",
    "multi_start_fit",
]

_COND_LIMIT = 1e12
_TINY = np.finfo(float).tiny   # the smallest positive normal float
_LANE_BYTES = 3 * 2**19      # the bytes of one EM batch's lane arrays (_lane_count)
_INIT_ATTEMPTS = 20
# Why an EM run stopped, in order of precedence when several hold at once.
STOP_REASONS = ("degenerate", "rejected_step", "tolerance", "max_iterations")


class Variant(str, Enum):
    HETN = "hetn"
    HOMN = "homn"
    CONC = "conc"


class NumericalError(RuntimeError):
    """A fit broke down numerically: an invariant failed inside EM, or the response is flat."""


class SingularComponentError(NumericalError):
    """Weighted normal equations of one component (None: a start, or a pool) are unsolvable."""

    def __init__(self, component, reason: str = ""):
        self.component = component
        head = f"singular weighted least squares for component {component}"
        super().__init__(": ".join(filter(None, (component is not None and head, reason))))


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
        _require_int("max_iterations", self.max_iterations)
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.tolerance == math.inf:
            raise ValueError("tolerance must be finite")
        if self.variance_floor is not None and not self.variance_floor > 0:
            raise ValueError("variance_floor must be positive")


@dataclass(frozen=True)
class FitResult:
    """An EM run's end state; ``converged``, ``degenerate`` and ``labels`` derive from it."""

    params: ModelParams
    loglik: float
    loglik_trace: np.ndarray
    responsibilities: Responsibilities
    stop_reason: str            # one of STOP_REASONS
    iterations: int

    converged = property(lambda self: self.stop_reason == "tolerance")
    degenerate = property(lambda self: self.stop_reason == "degenerate")
    labels = property(lambda self: classify(self.responsibilities))


# A member's end state as the EM kernel leaves it, posteriors left out: _fit_results
# recomputes them with the arithmetic of its last E-step, for the fits a caller returns.
_Run = namedtuple("_Run", "weights coefficients variances loglik trace stop_reason iterations")


def _lane_count(G: int, J: int, n: int, gathered: bool) -> int:
    """Runs in one EM batch: the byte budget over the kernel's arrays of a run, its (G, J, n)
    product in ``_solve_betas`` (whose head holds the squared residuals), (G, n) posteriors
    and, for ``gathered`` rows of different samples, its sample's design, transpose and y."""
    return max(1, _LANE_BYTES // (8 * n * (G * (J + 1) + (2 * J + 1) * gathered)))


def _fit_results(data: Dataset, G: int, outcomes: list) -> list:
    """Replace the _Runs among ``outcomes`` by their FitResults on ``data``, in place, by
    one E-step per ``_lane_count`` runs, so raw arrays go as FitResults come.  A batch's
    stacked parameters, then posteriors, get ModelParams' and Responsibilities' checks."""
    todo = [i for i, res in enumerate(outcomes) if isinstance(res, _Run)]
    step = _lane_count(G, data.n_features, data.n, False)
    for lo in range(0, len(todo), step):
        runs = [(i, outcomes[i]) for i in todo[lo:lo + step]]
        W, B, V = (np.array(p) for p in zip(*(run[:3] for _, run in runs)))
        _raise_first(_check_params(W, B, V), _PARAM_FAULTS)
        _, P, bad = _e_step(data.responses, data.design, W, B, V)
        P = P.swapaxes(-1, -2)      # each run's (n, G) posteriors, as Responsibilities holds them
        _raise_first(_check_probs(P), _PROB_FAULTS, ValueError)
        for (i, run), w, b, v, p, u in zip(runs, W, B, V, P, bad):
            outcomes[i] = FitResult(_unchecked(ModelParams, w, b, v), run.loglik,
                                    np.array(run.trace), _unchecked(Responsibilities, p, u),
                                    run.stop_reason, run.iterations)
    return outcomes


def _solve_betas(Xt: np.ndarray, y: np.ndarray, Z: np.ndarray, totals: np.ndarray, out=None):
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
    XZ = np.multiply(Xt, Z[..., None, :], out=out)     # (A, G, J, n), into out if given
    A = XZ @ Xt.swapaxes(-1, -2)                  # (A, G, J, J)
    b = np.einsum("...jn,...n->...j", XZ, y)      # (A, G, J)
    bad = totals < J
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A positive-definite matrix has cond <= tr**J / det.  One with a normal det and
        # the bound 100 times under the limit passes; eigvalsh decides all others.
        tr, det = np.einsum("...jj->...", A), np.linalg.det(A)
        check = ~((0.0 < tr) & (_TINY <= det) & (det < math.inf)
                  & (tr ** J / det <= 1e-2 * _COND_LIMIT))
        if check.any():
            conds = np.zeros(bad.shape)
            eig = np.abs(np.linalg.eigvalsh(A[check]))
            conds[check] = eig.max(axis=-1) / eig.min(axis=-1)
            bad |= ~(conds <= _COND_LIMIT)
    if not bad.any():               # the usual case: every matrix passes
        return np.linalg.solve(A, b[..., None])[..., 0], []
    failures = []
    for a, g in zip(*bad.nonzero()):
        if failures and failures[-1][0] == a:
            continue                    # a member fails on its first such component
        if totals[a, g] < J:
            reason = f"effective sample size {totals[a, g]:.3g} < {J}"
        else:
            reason = f"condition number {conds[a, g]:.3g}"
        failures.append((a, SingularComponentError(int(g), reason)))
    A[bad] = np.eye(J)      # LAPACK solves each matrix alone: others' bits stay as they are
    return np.linalg.solve(A, b[..., None])[..., 0], failures


def m_step_betas(data: Dataset, resp: Responsibilities) -> np.ndarray:
    """Per-component weighted least squares coefficients, shape (G, J).

    Raises SingularComponentError when a component's effective sample size is
    below the number of regressors or its weighted cross-product matrix has a
    2-norm condition number (largest over smallest eigenvalue magnitude) above
    1e12; no eigenvalues are computed when cond <= trace**J / det is 100 times under it.
    """
    Z = resp.probs.T
    betas, failures = _solve_betas(
        np.ascontiguousarray(data.design.T)[None], data.responses[None, None],
        Z[None], Z.sum(axis=1)[None])
    if failures:
        raise failures[0][1]
    return betas[0]


def _weighted_ss(Z: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Responsibility-weighted sums of the squared residuals ``sq``."""
    return np.einsum("...n,...n->...", Z, sq)


def _require_mass(totals: np.ndarray) -> None:
    if totals.min() <= 0.0:
        raise SingularComponentError(int((totals <= 0.0).argmax()), "zero total responsibility")


def m_step_variances(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> np.ndarray:
    """Responsibility-weighted mean squared residual per component."""
    Z = resp.probs.T
    totals = Z.sum(axis=1)
    _require_mass(totals)
    resid = _residual_rows(data.responses, data.design, np.asarray(betas))
    return _weighted_ss(Z, resid * resid) / totals


def homoscedastic_variance(data: Dataset, resp: Responsibilities, betas: np.ndarray) -> float:
    """Pooled variance: (1/n) sum over observations and components of z * residual^2."""
    Z = resp.probs.T
    _require_mass(Z.sum(axis=1))
    resid = _residual_rows(data.responses, data.design, np.asarray(betas))
    return float(_weighted_ss(Z, resid * resid).sum() / data.n)


def clamp_variances(raw: np.ndarray, spec: ConstraintSpec) -> np.ndarray:
    """Clamp raw variance updates into [target*sqrt(c), target/sqrt(c)]."""
    if spec.variant is not Variant.CONC:
        raise ValueError("clamp_variances applies to the constrained variant only")
    root = math.sqrt(spec.c)
    return np.clip(np.asarray(raw, dtype=float), spec.target_variance * root,
                   spec.target_variance / root)


_Start = namedtuple("_Start", "weights coefficients variances")    # a checked start


def _seed_sequence(seed, *spawn_key) -> np.random.SeedSequence:
    """A SeedSequence ``seed`` as it is, or the stream ``spawn_key`` of an integer seed >= 0."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    _require_int("seed", seed, low=0)
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


def _init_starts(data: Dataset, G: int, spec: ConstraintSpec, seeds) -> list:
    """``initialize`` of one start per seed, solved together: each start's _Start or
    SingularComponentError.  A start breaking an invariant raises as its ModelParams would."""
    n, J = data.n, data.n_features
    if G < 1:
        raise ValueError("G must be >= 1")
    if n < G * (J + 1):
        raise ValueError(f"need n >= G*(J+1) = {G * (J + 1)}, got {n}")
    rngs = [np.random.default_rng(_seed_sequence(s)) for s in seeds]
    size, extra = divmod(n, G)      # np.array_split's groups: `extra` of size + 1, then of size
    stacks = [(lo, hi) for lo, hi in ((0, extra), (extra, G)) if lo < hi]
    betas, ss = np.empty((len(rngs), G, J)), np.empty((len(rngs), G))
    pending = np.arange(len(rngs))
    for _ in range(_INIT_ATTEMPTS):
        if not pending.size:
            break
        perms = np.array([rngs[i].permutation(n) for i in pending])
        full = np.ones(pending.size, dtype=bool)
        for lo, hi in stacks:
            rows = perms[:, lo * (size + 1):hi * size + extra].reshape(pending.size, hi - lo, -1)
            Xg, yg = data.design[rows], data.responses[rows]
            U, s, Vt = np.linalg.svd(Xg, full_matrices=False)
            # lstsq's rank rule; a dropped singular value's direction gets no weight
            kept = s > np.finfo(float).eps * max(rows.shape[-1], J) * s[..., :1]
            full &= kept.all(axis=(1, 2))
            uy = (U.swapaxes(-1, -2) @ yg[..., None])[..., 0] / np.where(kept, s, np.inf)
            betas[pending, lo:hi] = coef = (Vt.swapaxes(-1, -2) @ uy[..., None])[..., 0]
            r = yg - (Xg @ coef[..., None])[..., 0]
            ss[pending, lo:hi] = np.einsum("...m,...m->...", r, r)
        pending = pending[~full]
    ok = ~np.isin(np.arange(len(rngs)), pending)
    # the groups' sums in group order, as a running total: a pairwise sum rounds differently
    B, pooled = betas[ok], np.cumsum(ss[ok], axis=1)[:, -1] / n
    if (pooled <= 0.0).any():
        pooled[pooled <= 0.0] = max(1e-12 * float(np.var(data.responses)), _TINY)
    start = np.full_like(pooled, spec.target_variance) if spec.variant is Variant.CONC else pooled
    W, V = np.full(B.shape[:2], 1.0 / G), np.repeat(start[:, None], G, axis=1)
    _raise_first(_check_params(W, B, V), _PARAM_FAULTS)
    starts = map(_Start, W, B, V)
    failed = f"no full-rank start partition in {_INIT_ATTEMPTS} tries"
    return [next(starts) if good else SingularComponentError(None, failed) for good in ok]


def initialize(data: Dataset, G: int, spec: ConstraintSpec, seed) -> ModelParams:
    """Random near-equal hard partition + per-group least squares starting values.

    The groups are np.array_split's of a permutation of ``seed``'s stream (an
    integer >= 0 or a SeedSequence), redrawn up to 20 times while one has rank
    below J, its count of singular values above eps*max(rows, J)*s_max (lstsq's
    rule).  A group's coefficients are V'((U'y)/s) from its thin SVD.  Weights
    start uniform, variances at the pooled residual variance or, for the
    constrained variant, exactly at the target (feasible for any c).
    """
    (start,) = _init_starts(data, G, spec, [seed])
    if isinstance(start, Exception):
        raise start
    return ModelParams(*start)


def _update_variances(ss, totals, n, roots, shadows=None):
    # The one variance rule (module docstring) with the arithmetic of
    # m_step_variances, homoscedastic_variance and clamp_variances, for the
    # (A, G) sums of squares of A members at roots sqrt(c).  Root 1 clamps to
    # the target (with G = 1 raw is the target); root 0 keeps raw whatever the
    # target, even where 0 * target or target / 0 is NaN.  Given the (m,)
    # roots of shadows, also flags (A, m) the shadows whose own clamp would bind.
    raw = ss / totals
    target = ss.sum(axis=-1, keepdims=True) / n
    binds = None
    if shadows is not None:
        t, r = target[..., None], shadows[:, None]
        binds = ((raw[:, None] < t * r) | (raw[:, None] > t / r)).any(axis=-1)
    r = roots[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):    # bounds of root 0, unused
        return np.clip(raw, target * r, target / r, out=raw, where=r > 0), binds


def _feasible(params: ModelParams, c: float) -> bool:
    """Whether ``params`` satisfy the ConC constraint at ``c``, up to a relative 1e-9."""
    return not min_variance_ratio(params) < c * (1.0 - 1e-9)


def _clamp_c(spec: ConstraintSpec) -> float:
    """The constant c of ``spec``'s variance rule: 0 for HetN, 1 for HomN."""
    return {Variant.HETN: 0.0, Variant.HOMN: 1.0}.get(spec.variant, spec.c)


def _em_lanes(samples, G: int, config: EmConfig, members, shadows=()) -> list:
    """The EM loop: advance a stream of members together, a bounded number at a time.

    ``samples`` holds one or more datasets of one size.  ``members`` yields
    ``(slot, init, c)``: the member runs on ``samples[slot]`` from ``init``,
    unchecked, under the variance rule at c (HetN 0, HomN 1); an exception in
    place of ``init`` is that member's outcome.  Each of the ascending
    ``shadows``, all above every c, adds a shadow member at that constant.
    Every member and shadow runs to its end.  Returns their outcomes (a _Run,
    the SingularComponentError that stopped the run, or the NumericalError
    of a failed check) ordered by rank, then member, rank r > 0 being the
    r-th shadow.
    """
    if G < 1:
        raise ValueError("G must be >= 1")
    n = samples[0].n
    # (S, n, J) designs, (S, J, n) transposes and (S, 1, n) responses.  Both
    # design layouts are kept because BLAS rounds them differently.
    X = np.stack([s.design for s in samples])
    Xt = np.ascontiguousarray(X.swapaxes(-1, -2))
    Y = np.stack([s.responses for s in samples])[:, None, :]
    if (Y.max(axis=-1) == Y.min(axis=-1)).any():
        raise NumericalError("responses have no spread (max == min)")
    with np.errstate(over="ignore", invalid="ignore"):
        floors = 1e-10 * np.var(Y[:, 0], axis=-1)
    if not np.isfinite(floors).all():
        raise NumericalError("the variance of the responses overflows; rescale them")
    shared, J = len(samples) == 1, X.shape[-1]
    lanes = _lane_count(G, J, n, not shared)
    roots, m = np.sqrt(shadows), len(shadows)
    source = iter(members)
    # A run's key is (m + 1) * member index + rank, so a run carrying q
    # shadows stands for keys key..key+q.  By key: outcomes, the
    # log-likelihood trace of each run in a lane, and the entry of each
    # waiting fork.
    outcomes, logs, forks = {}, {}, {}
    # Lane state: rows 0..a-1 of `size` allocated at the first refill, one per
    # run in logs: key, slot (its sample), it (iterations), q (shadows carried:
    # ranks 1..q), ll, root (sqrt c), floor, w/b/v, p (posteriors) and, with
    # several samples, `own`: the lane's design, transpose and responses.
    # Buffer xz holds the product of _solve_betas, its head sq the squares.
    a = size = taken = 0        # taken: members taken from the source

    def leave(i, outcome):
        k = int(key[i])
        trace = logs.pop(k)
        if isinstance(outcome, str):        # copies: the row will be reused
            outcome = _Run(w[i].copy(), b[i].copy(), v[i].copy(), float(ll[i]), trace, outcome,
                           int(it[i]))
        outcomes.update(dict.fromkeys(range(k, k + int(q[i]) + 1), outcome))

    def compact(gone, *arrays):     # lanes flagged gone leave; tail lanes take their rows
        nonlocal a
        kept = a - int(gone.sum())
        holes = np.flatnonzero(gone[:kept])
        if holes.size:          # else every leaver is in the tail
            movers = kept + np.flatnonzero(~gone[kept:])
            for arr in (*state, *arrays):
                arr[holes] = arr[movers]
        a = kept
        return [arr[:kept] for arr in arrays]

    def data(lo, hi):       # design, transpose and responses of lanes lo..hi-1
        return (X, Xt, Y) if shared else [rows[lo:hi] for rows in own]

    def squares(lo, hi, coefficients):      # of lanes lo..hi-1, into sq
        x, _, y = data(lo, hi)
        resid = _residual_rows(y, x, coefficients, out=sq[lo:hi])
        return np.multiply(resid, resid, out=resid)

    while True:
        # refill: waiting forks first, in key order, then new members.  Both
        # enter the tail as (key, slot, iterations, q, c, trace, parameters)
        # through the first E-step, which gives a fork back bit for bit the
        # posteriors and log-likelihood it left with.
        entering = []
        while len(entering) < lanes - a:
            if forks:
                entering.append(forks.pop(min(forks)))
                continue
            item = next(source, None)
            if item is None:
                break
            (sample, init, c), k = item, (m + 1) * taken
            taken += 1
            if isinstance(init, Exception):
                outcomes.update(dict.fromkeys(range(k, k + m + 1), init))
                continue
            entering.append((k, sample, 0, m, c, [], (init.weights, init.coefficients,
                                                      init.variances)))
        if not size:        # sized to what the call can hold: at most all its runs
            size = min(lanes, (m + 1) * taken)
            ints, reals = np.empty((size, 4), np.intp), np.empty((size, 3))
            wv, b, p = np.empty((size, 2, G)), np.empty((size, G, J)), np.empty((size, G, n))
            (key, slot, it, q), (ll, root, floor), (w, v) = ints.T, reals.T, wv.swapaxes(0, 1)
            own = [] if shared else [np.empty((size, *d.shape[1:])) for d in (X, Xt, Y)]
            xz = np.empty((size, G, J, n))
            sq = xz.reshape(-1)[:size * G * n].reshape(size, G, n)
            state = [ints, reals, wv, b, p, *own]
        if entering:
            lo, a = a, a + len(entering)
            ks, slots, _, _, cs, traces, params = zip(*entering)
            ints[lo:a] = [entry[:4] for entry in entering]
            root[lo:a], floor[lo:a] = np.sqrt(cs), config.variance_floor or floors[list(slots)]
            w[lo:a], b[lo:a], v[lo:a] = zip(*params)
            for rows, stack in zip(own, (X, Xt, Y)):
                rows[lo:a] = stack[slot[lo:a]]
            with np.errstate(**_E_STEP_ERRORS):
                ll[lo:a] = _e_step_arrays(squares(lo, a, b[lo:a]), w[lo:a], v[lo:a],
                                          out=p[lo:a])[0]
            for k, trace, value in zip(ks, traces, ll[lo:a].tolist()):
                trace.append(value)
                logs[k] = trace
        if not a:
            return [outcomes[(m + 1) * i + r] for r in range(m + 1) for i in range(taken)]

        # M-step; a member with a singular component leaves
        totals = p[:a].sum(axis=-1)
        weights = totals / n
        _, xt, y = data(0, a)
        betas, failures = _solve_betas(xt, y, p[:a], totals, out=xz[:a])
        if failures:
            for i, exc in failures:
                leave(i, exc)
            gone = np.isin(np.arange(a), [i for i, _ in failures])
            totals, weights, betas = compact(gone, totals, weights, betas)
        ss = _weighted_ss(p[:a], squares(0, a, betas))
        live = m and q[:a].any()
        variances, binds = _update_variances(ss, totals, n, root[:a], roots if live else None)
        if live:
            # binding shadows fork, to re-run this M-step from the state the
            # leader started this iteration with
            binds &= np.arange(m) < q[:a, None]
            for i in np.flatnonzero(binds.any(axis=1)):
                k, first = int(key[i]), int(binds[i].argmax())
                params = w[i].copy(), b[i].copy(), v[i].copy()      # the row will be reused
                for r in range(first + 1, int(q[i]) + 1):
                    forks[k + r] = (k + r, int(slot[i]), int(it[i]), 0, shadows[r - 1],
                                    logs[k][:-1], params)
                q[i] = first
        # a member with a variance below its sample's floor leaves degenerate
        degenerate = variances.min(axis=-1) < floor[:a]
        if degenerate.any():
            variances = np.where(degenerate[:, None], np.maximum(variances, _TINY), variances)

        # invariant check; a member that fails it leaves before its E-step
        faults = _check_params(weights, betas, variances)
        if (faults >= 0).any():
            for i in np.flatnonzero(faults >= 0):
                leave(i, NumericalError(_PARAM_FAULTS[faults[i]]))
            weights, betas, variances, degenerate, _ = compact(
                faults >= 0, weights, betas, variances, degenerate, sq)
        it[:a] += 1

        # E-step, then each ending run's stop: the first of STOP_REASONS that
        # holds.  A lower objective ends the run before the step (module
        # docstring).  One error state covers both: the E-step's, and -inf
        # minus -inf in the tolerance test.
        with np.errstate(invalid="ignore", **_E_STEP_ERRORS):
            new, _, _ = _e_step_arrays(sq[:a], weights, variances, out=p[:a])
            met = np.isfinite(new) & (abs(new - ll[:a]) <= config.tolerance * (1.0 + abs(new)))
        dropped, over = new < ll[:a], it[:a] >= config.max_iterations
        ended = degenerate | dropped | met | over
        stopping = ended.any()          # on most iterations no run stops
        if stopping:
            stop = np.array([degenerate, dropped, met, over]).argmax(axis=0)
            rejected = stop == STOP_REASONS.index("rejected_step")
            exact = met & (q[:a] == 0) & ((root[:a] == 0) | (root[:a] == 1))
            for i in np.flatnonzero(rejected):
                leave(i, "tolerance" if exact[i] else "rejected_step")
        w[:a], b[:a], v[:a], ll[:a] = weights, betas, variances, new
        for k, value in zip(key[:a].tolist(), new.tolist()):
            if k in logs:         # a rejected run has left
                logs[k].append(value)
        if stopping:
            for i in np.flatnonzero(ended & ~rejected):
                leave(i, STOP_REASONS[stop[i]])
            compact(ended)


def _raise_fatal(outcomes) -> None:
    """Raise the first of the kernel's outcomes that is fatal (module docstring), if any."""
    for res in outcomes:
        if isinstance(res, NumericalError) and not isinstance(res, SingularComponentError):
            raise res


def run_em(
    data: Dataset,
    G: int,
    spec: ConstraintSpec,
    config: EmConfig,
    init: ModelParams,
) -> FitResult:
    """Iterate E and M steps from ``init`` until one of ``STOP_REASONS`` holds.

    The fit's ``stop_reason`` names it; the module docstring says when each holds.
    """
    def member():   # checked as the kernel takes it, after its checks of G and the data
        if init.n_components != G:
            raise ValueError("init has wrong number of components")
        if init.n_features != data.n_features:     # log_likelihood's message
            raise ValueError("parameter and design dimensions disagree")
        if spec.variant is Variant.CONC and not _feasible(init, spec.c):
            raise ValueError("constrained run requires a feasible initial guess "
                             f"(variance ratio {min_variance_ratio(init):.3g} < c = {spec.c:g})")
        yield 0, init, _clamp_c(spec)

    (outcome,) = _em_lanes([data], G, config, member())
    if isinstance(outcome, Exception):
        raise outcome
    return _fit_results(data, G, [outcome])[0]


def _starts(data: Dataset, G: int, spec: ConstraintSpec, children):
    # Initialised a lane batch at a time, when the kernel takes the batch's first start.
    step = _lane_count(G, data.n_features, data.n, False)
    for lo in range(0, len(children), step):
        for init in _init_starts(data, G, spec, children[lo:lo + step]):
            yield 0, init, _clamp_c(spec)


def _pool_outcomes(data: Dataset, G: int, config: EmConfig, pools) -> list:
    """Run multi-start pools on ``data`` as one kernel batch.

    ``pools`` holds ``(spec, n_starts, seed)`` triples; each pool's starts
    own streams spawned from its seed, as in ``multi_start_fit``.  Returns
    each pool's kernel outcomes, in start order.
    """
    starts = []
    for spec, n_starts, seed in pools:
        if n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        starts.append(_starts(data, G, spec, _seed_sequence(seed).spawn(n_starts)))
    outcomes = iter(_em_lanes([data], G, config, itertools.chain(*starts)))
    return [list(itertools.islice(outcomes, n_starts)) for _, n_starts, _ in pools]


def _pool_winner(outcomes) -> int:
    """Index of a pool's winning start (rule: ``multi_start_fit``); raises if it has none."""
    _raise_fatal(outcomes)
    runs = [i for i, res in enumerate(outcomes) if isinstance(res, _Run)]
    if not runs:
        reasons = [str(e) for e in outcomes]    # each once, in order of first failure
        raise SingularComponentError(None, f"all {len(outcomes)} starts failed: " + "; ".join(
            f"{r} ({reasons.count(r)} start{'s' * (reasons.count(r) > 1)})"
            for r in dict.fromkeys(reasons)))
    return min(runs, key=lambda i: (outcomes[i].stop_reason == "degenerate",
                                    -outcomes[i].loglik, i))


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
    (FitResult or exception) are returned alongside the winner.  A fatal
    outcome (module docstring) is raised; if every start fails, a
    SingularComponentError lists each reason once with its count.
    """
    (outcomes,) = _pool_outcomes(data, G, config, [(spec, n_starts, seed)])
    winner = _pool_winner(outcomes)
    if not return_all:
        return _fit_results(data, G, [outcomes[winner]])[0]
    return _fit_results(data, G, outcomes)[winner], outcomes
