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
    "component_density",
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

    Arrays may carry leading member axes; the result has their shape.
    """
    with np.errstate(invalid="ignore"):
        finite = (np.isfinite(weights).all(axis=-1) & np.isfinite(variances).all(axis=-1)
                  & np.isfinite(coefficients).all(axis=(-2, -1)))
        simplex = ~(weights < 0).any(axis=-1) & ~(abs(weights.sum(axis=-1) - 1.0) > _WEIGHT_SUM_TOL)
    positive = ~(variances <= 0).any(axis=-1)
    return np.where(~finite, 0, np.where(~simplex, 1, np.where(~positive, 2, -1)))


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
        fault = _check_params(w, B, v)
        if fault >= 0:
            raise InvalidParameterError(_PARAM_FAULTS[fault])
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
        if np.any(P < 0) or np.any(P > 1):
            raise ValueError("probabilities outside [0, 1]")
        if np.any(np.abs(P.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("responsibility rows must sum to 1")
        under = self.underflow
        if under is None:
            under = np.zeros(P.shape[0], dtype=bool)
        under = _as_readonly(under, dtype=bool)
        object.__setattr__(self, "probs", P)
        object.__setattr__(self, "underflow", under)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def n_components(self) -> int:
        return self.probs.shape[1]


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


def _residual_rows(responses, design, coefficients):
    """y_i - x_i' beta_g, one row per component: (..., G, n) from (..., G, J) coefficients.

    ``responses`` is (..., n) or (..., 1, n) and ``design`` (..., n, J); their
    leading axes broadcast against the coefficients' member axes.
    """
    return responses - coefficients @ design.swapaxes(-1, -2)


def _residuals(data: Dataset, coefficients: np.ndarray) -> np.ndarray:
    if coefficients.shape[-1] != data.n_features:
        raise ValueError("parameter and design dimensions disagree")
    return _residual_rows(data.responses, data.design, coefficients)


def _log_density(resid, weights, variances):
    # a zero weight or an overflowing residual square is a -inf density: underflow
    with np.errstate(divide="ignore", over="ignore"):
        const = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances)
        return const[..., None] - resid * resid / (2.0 * variances)[..., None]


def log_density_matrix(data: Dataset, params: ModelParams) -> np.ndarray:
    """Matrix of log(p_g) + log f_g(y_i | x_i), shape (n, G)."""
    return _log_density(_residuals(data, params.coefficients), params.weights, params.variances).T


def _e_step_arrays(resid, weights, variances):
    """Max-shifted log-sum-exp pass: (loglik, (..., G, n) posteriors, (..., n) underflow mask).

    Leading member axes are kept; loglik has their shape.  Observations whose
    mixture density underflows to zero for every component get a uniform 1/G
    posterior and make their member's log-likelihood -inf.
    """
    L = _log_density(resid, weights, variances)
    shift = L.max(axis=-2)
    bad = np.isneginf(shift)
    underflow = bad.any(axis=-1)
    if underflow.any():
        L[np.broadcast_to(bad[..., None, :], L.shape)] = 0.0
        shift[bad] = 0.0
    E = np.exp(L - shift[..., None, :])
    total = E.sum(axis=-2)
    loglik = np.where(underflow, -np.inf, np.log(total).sum(axis=-1) + shift.sum(axis=-1))
    return loglik, E / total[..., None, :], bad


_UNDERFLOW_WARNING = (
    "mixture density underflowed to zero for some observations; log-likelihood is -inf"
)


def log_likelihood(data: Dataset, params: ModelParams) -> float:
    """Sample log-likelihood, stabilized per observation by max subtraction."""
    resid = _residuals(data, params.coefficients)
    loglik, _, bad = _e_step_arrays(resid, params.weights, params.variances)
    if bad.any():
        warnings.warn(_UNDERFLOW_WARNING, RuntimeWarning, stacklevel=2)
    return float(loglik)


def posterior_probs(data: Dataset, params: ModelParams) -> Responsibilities:
    """Posterior membership probabilities via log-sum-exp normalization.

    Observations whose mixture density underflows to zero for every component
    get a uniform 1/G row and are flagged in ``underflow``.
    """
    resid = _residuals(data, params.coefficients)
    _, P, bad = _e_step_arrays(resid, params.weights, params.variances)
    return Responsibilities(P.T, underflow=bad)


def classify(resp: Responsibilities) -> np.ndarray:
    """Crisp labels: per-row argmax, ties broken toward the smallest index."""
    return np.argmax(resp.probs, axis=1)


def min_variance_ratio(params: ModelParams) -> float:
    """Scale balance: (min variance) / (max variance); 1.0 for G = 1."""
    v = params.variances
    return float(v.min() / v.max())
