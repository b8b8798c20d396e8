"""Evaluation metrics: adjusted Rand index, permutation-matched parameter MSE, BIC."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .model import ModelParams
from .em import FitResult, Variant

__all__ = ["MseReport", "adjusted_rand", "param_mse", "bic"]


@dataclass(frozen=True)
class MseReport:
    avg_mse_beta: float
    avg_mse_sigma: float
    matching_permutation: tuple[int, ...]


def _pairs(k: int) -> int:
    return (k * (k - 1)) // 2


def adjusted_rand(labels_a, labels_b) -> float:
    """Hubert-Arabie adjusted Rand index between two partitions.

    Computed from the contingency table in exact rational arithmetic; two
    all-in-one-cluster partitions score 1.0 by convention.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and of equal length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    index = sum(_pairs(int(x)) for x in table.ravel())
    sum_a = sum(_pairs(int(x)) for x in table.sum(axis=1))
    sum_b = sum(_pairs(int(x)) for x in table.sum(axis=0))
    total = _pairs(n)
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float((Fraction(index) - expected) / (max_index - expected))


def param_mse(truth: ModelParams, estimate: ModelParams) -> MseReport:
    """Average squared parameter errors after matching components.

    The matching permutation minimizes total squared coefficient error; the
    variance MSE is reported under that same permutation.
    """
    if truth.n_components != estimate.n_components:
        raise ValueError("component counts differ")
    if truth.n_features != estimate.n_features:
        raise ValueError("coefficient dimensions differ")
    G, J = truth.n_components, truth.n_features
    sse = {
        perm: float(np.sum((truth.coefficients - estimate.coefficients[list(perm)]) ** 2))
        for perm in permutations(range(G))
    }
    perm = min(sse, key=sse.get)
    mse_sigma = float(np.mean((truth.variances - estimate.variances[list(perm)]) ** 2))
    return MseReport(sse[perm] / (G * J), mse_sigma, perm)


def bic(fit: FitResult, n: int, variant, G: int, J: int) -> float:
    """Bayesian Information Criterion, -2*loglik + q*log(n); lower is better.

    Free-parameter counts: q = (G-1) + G*J + G for the heteroscedastic model
    and q = (G-1) + G*J + 1 for the homoscedastic one.  The constrained
    variant has no agreed effective parameter count and is rejected.
    """
    variant = Variant(variant)
    if variant is Variant.CONC:
        raise ValueError("BIC is not defined for the constrained variant")
    if variant is Variant.HETN:
        q = (G - 1) + G * J + G
    else:
        q = (G - 1) + G * J + 1
    if fit.degenerate:
        warnings.warn(
            "BIC computed from a degenerate fit is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return -2.0 * fit.loglik + q * math.log(n)
