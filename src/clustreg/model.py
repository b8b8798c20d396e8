"""Probabilistic core: mixture density, log-likelihood, posteriors, classification.

All density work happens in log space; posterior membership probabilities are
computed with a max-shifted log-sum-exp so that component variances near a
constraint floor do not underflow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "ModelParams",
    "Responsibilities",
    "InvalidParameterError",
    "log_likelihood",
    "posterior_probs",
    "classify",
    "min_variance_ratio",
]

_WEIGHT_SUM_TOL = 1e-12
_ROW_SUM_TOL = 1e-10


class InvalidParameterError(ValueError):
    """Raised when model parameters violate their invariants."""


_PARAM_FAULTS = (
    "non-finite parameter values",
    "weights must be a simplex vector",
    "variances must be strictly positive",
)


def _check_params(weights, coefficients, variances) -> np.ndarray:
    """Index into _PARAM_FAULTS of the first invariant each parameter set breaks, -1 if none.

    Arrays may carry leading member axes; the result has their shape.  One
    pass clears the usual all-valid case; faults are classified only if it fails.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        off = abs(weights.sum(axis=-1) - 1.0)
        # a finite sum has finite terms; w >= 0 and the sum test reject NaN and inf weights
        if (np.isfinite(coefficients.sum() + variances.sum()) and (variances > 0).all()
                and (weights >= 0).all() and (off <= _WEIGHT_SUM_TOL).all()):
            return np.full(off.shape, -1)
        finite = (np.isfinite(weights).all(axis=-1) & np.isfinite(variances).all(axis=-1)
                  & np.isfinite(coefficients).all(axis=(-2, -1)))
        simplex = ~(weights < 0).any(axis=-1) & ~(off > _WEIGHT_SUM_TOL)
    positive = ~(variances <= 0).any(axis=-1)
    return np.where(~finite, 0, np.where(~simplex, 1, np.where(~positive, 2, -1)))


_PROB_FAULTS = ("probabilities outside [0, 1]", "responsibility rows must sum to 1")


def _check_probs(probs) -> np.ndarray:
    """Index into _PROB_FAULTS of the first check each (..., n, G) posterior matrix fails, or -1."""
    outside = ((probs < 0) | (probs > 1)).any(axis=(-2, -1))
    unsummed = (np.abs(probs.sum(axis=-1) - 1.0) > _ROW_SUM_TOL).any(axis=-1)
    return np.where(outside, 0, np.where(unsummed, 1, -1))


def _raise_first(faults, messages, error=InvalidParameterError) -> None:
    """Raise ``error`` with the message of the first fault in ``faults`` (-1: none), if any."""
    for fault in faults[faults >= 0][:1]:
        raise error(messages[fault])


def _unchecked(cls, *arrays):
    """``cls(*arrays)`` without its __post_init__, for checked arrays, made read-only here."""
    obj = object.__new__(cls)
    for arr in arrays:
        arr.flags.writeable = False
    obj.__dict__.update(zip(cls.__dataclass_fields__, arrays))
    return obj


def _require_int(name: str, value, low: int = 1) -> None:
    """Reject anything but an integer (a NumPy one too) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """A regression sample: responses and an n x J design matrix.

    The first design column is all ones when an intercept is modeled.
    """

    responses: np.ndarray
    design: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        y = _as_readonly(self.responses)
        X = _as_readonly(self.design)
        if y.ndim != 1 or X.ndim != 2:
            raise ValueError("responses must be 1-d and design 2-d")
        if y.shape[0] < 1:
            raise ValueError("need at least one observation")
        if X.shape[1] < 1:
            raise ValueError("design has no columns: an intercept or a regressor is needed")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"design has {X.shape[0]} rows but there are {y.shape[0]} responses"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("non-finite entries in data")
        names = tuple(self.feature_names)
        if not names:
            names = tuple(f"x{j}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise ValueError("feature_names length must match design columns")
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def n_features(self) -> int:
        return self.design.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row-subset view (copy) of the dataset."""
        idx = np.asarray(idx)
        return Dataset(self.responses[idx], self.design[idx], self.feature_names)


@dataclass(frozen=True)
class ModelParams:
    """Mixture parameters: mixing weights, per-component coefficients, variances."""

    weights: np.ndarray         # (G,)
    coefficients: np.ndarray    # (G, J)
    variances: np.ndarray       # (G,)

    def __post_init__(self):
        w = _as_readonly(self.weights)
        B = _as_readonly(self.coefficients)
        v = _as_readonly(self.variances)
        if w.ndim != 1 or v.ndim != 1 or B.ndim != 2:
            raise InvalidParameterError("bad parameter shapes")
        G = w.shape[0]
        if G < 1 or B.shape[0] != G or v.shape[0] != G:
            raise InvalidParameterError("weights, coefficients, variances must share G >= 1")
        _raise_first(_check_params(w, B, v), _PARAM_FAULTS)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "coefficients", B)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[1]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior membership probabilities, one row per observation."""

    probs: np.ndarray                        # (n, G)
    underflow: np.ndarray = field(default=None)  # (n,) bool, rows that fell back to uniform

    def __post_init__(self):
        P = _as_readonly(self.probs)
        if P.ndim != 2:
            raise ValueError("probs must be a matrix")
        _raise_first(_check_probs(P), _PROB_FAULTS, ValueError)
        under = self.underflow
        if under is None:
            under = np.zeros(P.shape[0], dtype=bool)
        under = _as_readonly(under, dtype=bool)
        object.__setattr__(self, "probs", P)
        object.__setattr__(self, "underflow", under)


def _residual_rows(responses, design, coefficients, out=None):
    """y_i - x_i' beta_g, one row per component: (..., G, n) from (..., G, J) coefficients.

    ``responses`` is (..., n) or (..., 1, n) and ``design`` (..., n, J); their
    leading axes broadcast against the coefficients' member axes.  ``out``,
    if given, receives the result.
    """
    if coefficients.shape[-1] != design.shape[-1]:
        raise ValueError("parameter and design dimensions disagree")
    fitted = np.matmul(coefficients, design.swapaxes(-1, -2), out=out)
    return np.subtract(responses, fitted, out=fitted)


# The E-step's error state: a zero weight or an overflowing residual square is
# a -inf density, i.e. underflow.  _e_step and log_density_matrix enter it; the
# EM kernel's per-iteration E-step, which has its squares from the M-step,
# shares it with its stop test.
_E_STEP_ERRORS = dict(divide="ignore", over="ignore")


def _log_density(sq, weights, variances, out=None):
    # from squared residuals, under _E_STEP_ERRORS; ``out`` may be ``sq`` itself
    const = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances)
    L = np.divide(sq, (2.0 * variances)[..., None], out=out)
    return np.subtract(const[..., None], L, out=L)


def log_density_matrix(data: Dataset, params: ModelParams) -> np.ndarray:
    """Matrix of log(p_g) + log f_g(y_i | x_i), shape (n, G)."""
    resid = _residual_rows(data.responses, data.design, params.coefficients)
    with np.errstate(**_E_STEP_ERRORS):
        return _log_density(resid * resid, params.weights, params.variances).T


def _e_step_arrays(sq, weights, variances, out=None):
    """Max-shifted log-sum-exp pass: (loglik, (..., G, n) posteriors, (..., n) underflow mask).

    From the squared residuals ``sq``, under ``_E_STEP_ERRORS``.  Leading
    member axes are kept; loglik has their shape.  Observations whose mixture
    density underflows to zero for every component get a uniform 1/G
    posterior and make their member's log-likelihood -inf.  ``out``, if
    given, receives the posteriors.
    """
    L = _log_density(sq, weights, variances, out)
    shift = L.max(axis=-2)
    bad = shift == -np.inf
    underflow = bad.any(axis=-1)
    if underflow.any():
        L[np.broadcast_to(bad[..., None, :], L.shape)] = 0.0
        shift[bad] = 0.0
    L -= shift[..., None, :]        # in place: shifted densities, then posteriors
    np.exp(L, out=L)
    total = L.sum(axis=-2)
    loglik = np.where(underflow, -np.inf, np.log(total).sum(axis=-1) + shift.sum(axis=-1))
    L /= total[..., None, :]
    return loglik, L, bad


_UNDERFLOW_WARNING = (
    "mixture density underflowed to zero for some observations; log-likelihood is -inf"
)


def _e_step(responses, design, weights, coefficients, variances, warn=False):
    """The E-step from parameters: ``_e_step_arrays`` on the squared ``_residual_rows``.
    With ``warn``, an underflow warns, attributed to the caller of this one's caller."""
    sq = _residual_rows(responses, design, coefficients)
    with np.errstate(**_E_STEP_ERRORS):
        sq *= sq
        loglik, P, bad = _e_step_arrays(sq, weights, variances, out=sq)
    if warn and bad.any():
        warnings.warn(_UNDERFLOW_WARNING, RuntimeWarning, stacklevel=3)
    return loglik, P, bad


def log_likelihood(data: Dataset, params: ModelParams) -> float:
    """Sample log-likelihood, stabilized per observation by max subtraction."""
    return float(_e_step(data.responses, data.design, params.weights, params.coefficients,
                         params.variances, warn=True)[0])


def posterior_probs(data: Dataset, params: ModelParams) -> Responsibilities:
    """Posterior membership probabilities via log-sum-exp normalization.

    Observations whose mixture density underflows to zero for every component
    get a uniform 1/G row and are flagged in ``underflow``.
    """
    _, P, bad = _e_step(data.responses, data.design, params.weights, params.coefficients,
                        params.variances)
    return Responsibilities(P.T, underflow=bad)


def classify(resp: Responsibilities) -> np.ndarray:
    """Crisp labels: per-row argmax, ties broken toward the smallest index."""
    return np.argmax(resp.probs, axis=1)


def min_variance_ratio(params: ModelParams) -> float:
    """Scale balance: (min variance) / (max variance); 1.0 for G = 1."""
    v = params.variances
    return float(v.min() / v.max())
