"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines for passing criteria too).  The stochastic criteria use fixed
seeds and are deterministic in practice.
"""

import math
import os
from itertools import combinations

import mpmath
import numpy as np
import pytest

from clustreg import (
    ConstraintSpec,
    CvConfig,
    Dataset,
    EmConfig,
    ModelParams,
    NumericalError,
    Responsibilities,
    ScenarioSpec,
    StudyConfig,
    Variant,
    adjusted_rand,
    bic,
    classify,
    fit_conc,
    initialize,
    m_step_betas,
    min_variance_ratio,
    multi_start_fit,
    run_em,
    run_study,
)
from clustreg.cli import load_presets
from clustreg.io import load_benchmark
from reference import em_history


# one line per criterion, echoed into the pytest terminal summary by the
# pytest_terminal_summary hook in conftest.py
CRITERION_LINES = []


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {criterion}] {name}: {status}{suffix}"
    print(line, flush=True)
    CRITERION_LINES.append(line)
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


def _random_lines_dataset(seed, n=100, G=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, n)
    X = np.column_stack([np.ones(n), x])
    B = np.column_stack([np.linspace(0, 8 * (G - 1), G), rng.uniform(-2, 2, G)])
    labels = rng.integers(0, G, n)
    s = rng.uniform(0.2, 0.7, G)
    y = np.einsum("nj,nj->n", X, B[labels]) + rng.standard_normal(n) * s[labels]
    return Dataset(y, X)


def test_criterion_1_limit_equivalences():
    config = EmConfig(tolerance=1e-12)
    worst_hom = worst_het = 0.0
    het_checked = 0
    for seed in range(20):
        data = _random_lines_dataset(100 + seed)
        hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), config, 10, seed=seed)
        target = float(hom.params.variances[0])
        c1 = multi_start_fit(
            data, 2, ConstraintSpec.constrained(1.0, target), config, 10, seed=seed
        )
        worst_hom = max(worst_hom, abs(c1.loglik - hom.loglik))

        het = multi_start_fit(data, 2, ConstraintSpec.heteroscedastic(), config, 10, seed=seed)
        if not het.degenerate:
            c0 = multi_start_fit(
                data, 2, ConstraintSpec.constrained(1e-12, target), config, 10, seed=seed
            )
            worst_het = max(worst_het, abs(c0.loglik - het.loglik))
            het_checked += 1
    ok = worst_hom < 1e-6 and worst_het < 1e-6 and het_checked >= 15
    _report(
        1, "limit equivalences",
        ok,
        f"max |conc(1)-homn|={worst_hom:.2e}, max |conc(1e-12)-hetn|={worst_het:.2e}, "
        f"hetn non-degenerate on {het_checked}/20",
    )


def test_criterion_2_monotonicity_and_constraints():
    rng = np.random.default_rng(2024)
    n_fits = 0
    worst_step = np.inf
    worst_ratio_slack = np.inf
    for trial in range(90):
        G = int(rng.integers(1, 4))
        n = int(rng.integers(50, 120))
        x = rng.uniform(-3, 3, n)
        X = np.column_stack([np.ones(n), x])
        labels = rng.integers(0, G, n)
        B = rng.normal(0, 3, size=(G, 2))
        s = rng.uniform(0.2, 1.5, G)
        y = np.einsum("nj,nj->n", X, B[labels]) + rng.standard_normal(n) * s[labels]
        data = Dataset(y, X)
        c = float(rng.uniform(0.05, 1.0))
        target = float(np.var(y)) / 2
        for spec in (
            ConstraintSpec.heteroscedastic(),
            ConstraintSpec.homoscedastic(),
            ConstraintSpec.constrained(c, target),
        ):
            try:
                init = initialize(data, G, spec, seed=trial)
                fit, history = em_history(data, G, spec, EmConfig(), init)
            except NumericalError:
                continue
            n_fits += 1
            if not fit.degenerate and len(fit.loglik_trace) > 1:
                worst_step = min(worst_step, float(np.min(np.diff(fit.loglik_trace))))
            if spec.variant is Variant.CONC and G > 1:
                for params in history:
                    worst_ratio_slack = min(
                        worst_ratio_slack, min_variance_ratio(params) - c
                    )
    ok = n_fits >= 200 and worst_step >= -1e-8 and worst_ratio_slack >= -1e-12
    _report(
        2, "monotonicity and constraint feasibility",
        ok,
        f"{n_fits} fits, min loglik step {worst_step:.2e}, "
        f"min ratio slack {worst_ratio_slack:.2e}",
    )


def test_criterion_3_equivariance():
    a = 10.0
    data = _random_lines_dataset(300, n=120)
    scaled = Dataset(a * data.responses, data.design)
    config = EmConfig(max_iterations=25, tolerance=1e-300)
    c, target = 0.3, 1.0
    worst = {"resp": 0.0, "beta": 0.0, "var": 0.0}
    labels_ok = True
    for make in (
        lambda t: ConstraintSpec.heteroscedastic(),
        lambda t: ConstraintSpec.homoscedastic(),
        lambda t: ConstraintSpec.constrained(c, t),
    ):
        fit = run_em(data, 2, make(target), config, initialize(data, 2, make(target), seed=4))
        fit_s = run_em(
            scaled, 2, make(target * a * a), config,
            initialize(scaled, 2, make(target * a * a), seed=4),
        )
        assert fit.iterations == fit_s.iterations
        worst["resp"] = max(
            worst["resp"],
            float(np.max(np.abs(fit.responsibilities.probs - fit_s.responsibilities.probs))),
        )
        labels_ok = labels_ok and bool(np.array_equal(fit.labels, fit_s.labels))
        worst["beta"] = max(
            worst["beta"],
            float(np.max(
                np.abs(fit_s.params.coefficients - a * fit.params.coefficients)
                / (np.abs(a * fit.params.coefficients) + 1e-300)
            )),
        )
        worst["var"] = max(
            worst["var"],
            float(np.max(
                np.abs(fit_s.params.variances - a * a * fit.params.variances)
                / (a * a * fit.params.variances)
            )),
        )
    ok = (
        worst["resp"] < 1e-8 and labels_ok
        and worst["beta"] < 1e-8 and worst["var"] < 1e-8
    )
    _report(
        3, "scale equivariance",
        ok,
        f"max resp diff {worst['resp']:.2e}, max beta rel {worst['beta']:.2e}, "
        f"max var rel {worst['var']:.2e}, labels equal: {labels_ok}",
    )


def _mp_wls(X, y, z):
    with mpmath.workdps(60):
        J = X.shape[1]
        A = mpmath.zeros(J, J)
        b = mpmath.zeros(J, 1)
        for i in range(X.shape[0]):
            zi = mpmath.mpf(float(z[i]))
            for p in range(J):
                b[p] += zi * mpmath.mpf(float(X[i, p])) * mpmath.mpf(float(y[i]))
                for q in range(J):
                    A[p, q] += zi * mpmath.mpf(float(X[i, p])) * mpmath.mpf(float(X[i, q]))
        sol = mpmath.lu_solve(A, b)
        return np.array([float(sol[j]) for j in range(J)])


def _pair_counting_ari(u, v):
    a11 = a10 = a01 = a00 = 0
    for i, j in combinations(range(len(u)), 2):
        su, sv = u[i] == u[j], v[i] == v[j]
        if su and sv:
            a11 += 1
        elif su:
            a10 += 1
        elif sv:
            a01 += 1
        else:
            a00 += 1
    num = 2 * (a11 * a00 - a10 * a01)
    den = (a11 + a10) * (a10 + a00) + (a11 + a01) * (a01 + a00)
    return 1.0 if den == 0 else num / den


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(44)
    worst_wls = 0.0
    for _ in range(100):
        n = int(rng.integers(15, 30))
        J = int(rng.integers(1, 4))
        G = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, J - 1))]) if J > 1 \
            else np.ones((n, 1))
        y = rng.normal(0, 2, n)
        Z = rng.dirichlet(np.full(G, 5.0), size=n)
        betas = m_step_betas(Dataset(y, X), Responsibilities(Z))
        for g in range(G):
            oracle = _mp_wls(X, y, Z[:, g])
            rel = np.max(np.abs(betas[g] - oracle) / (np.abs(oracle) + 1e-300))
            worst_wls = max(worst_wls, float(rel))

    worst_ari = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        u = rng.integers(0, int(rng.integers(1, 5)) + 1, n)
        v = rng.integers(0, int(rng.integers(1, 5)) + 1, n)
        diff = abs(adjusted_rand(u, v) - _pair_counting_ari(u.tolist(), v.tolist()))
        worst_ari = max(worst_ari, diff)

    ok = worst_wls < 1e-10 and worst_ari < 1e-12
    _report(
        4, "oracle equivalence",
        ok,
        f"max WLS rel err {worst_wls:.2e} (100 fixtures), "
        f"max ARI err {worst_ari:.2e} (500 partitions)",
    )


def test_criterion_5_mse_ordering_study():
    scenario = ScenarioSpec(
        n=200, G=3, mixing=(0.2, 0.3, 0.5), intercepts=(4.0, 9.0, 16.0)
    )
    config = StudyConfig(
        scenarios=(scenario,), replications=50, n_starts=10, seed=2025,
    )
    rows = {r["estimator"]: r for r in run_study(config)}
    conc, het, hom = rows["conc"], rows["hetn"], rows["homn"]
    ok = (
        conc["mse_beta"] <= 0.05
        and conc["mse_beta"] < het["mse_beta"]
        and conc["mse_beta"] < hom["mse_beta"]
        and conc["adj_rand"] > het["adj_rand"]
        and conc["adj_rand"] > hom["adj_rand"]
    )
    _report(
        5, "MSE ordering study (n=200, G=3, p=(0.2,0.3,0.5), 50 reps)",
        ok,
        "mse_beta conc/hetn/homn = "
        f"{conc['mse_beta']:.4f}/{het['mse_beta']:.4f}/{hom['mse_beta']:.4f}, "
        "adj_rand = "
        f"{conc['adj_rand']:.4f}/{het['adj_rand']:.4f}/{hom['adj_rand']:.4f}",
    )


def test_criterion_6_mean_selected_c():
    scenario = ScenarioSpec(
        n=100, G=2, mixing=(0.5, 0.5), intercepts=(4.0, 9.0)
    )
    config = StudyConfig(
        scenarios=(scenario,), replications=50, n_starts=10,
        estimators=(Variant.CONC,), seed=2026,
    )
    row = run_study(config)[0]
    ok = abs(row["mean_c"] - 0.48) <= 0.12
    _report(
        6, "mean selected c (n=100, G=2, p=(0.5,0.5), 50 reps)",
        ok, f"mean c = {row['mean_c']:.4f}, window 0.48 +/- 0.12",
    )


def test_criterion_7_iris_benchmark():
    bench = load_benchmark("iris")
    data, truth = bench.data, bench.true_labels
    em = EmConfig()
    seed = 77
    starts = int(load_presets()["iris.starts"])
    hom = multi_start_fit(data, 3, ConstraintSpec.homoscedastic(), em, starts, seed=seed)
    het = multi_start_fit(data, 3, ConstraintSpec.heteroscedastic(), em, starts, seed=seed)
    conc, _ = fit_conc(data, 3, CvConfig(seed=seed), em, starts)
    ari = {
        "conc": adjusted_rand(truth, classify(conc.responsibilities)),
        "hetn": adjusted_rand(truth, classify(het.responsibilities)),
        "homn": adjusted_rand(truth, classify(hom.responsibilities)),
    }
    ok = ari["conc"] >= 0.75 and ari["conc"] > ari["hetn"] and ari["conc"] > ari["homn"]
    _report(
        7, f"iris benchmark (G=3, {starts} starts)",
        ok,
        f"adj_rand conc/hetn/homn = {ari['conc']:.4f}/{ari['hetn']:.4f}/{ari['homn']:.4f}",
    )


def _load_temperature():
    path = os.environ.get("CLUSTREG_TEMPERATURE_DATA")
    return load_benchmark("temperature", path).data


def _entry_close(got, want, abs_tol=0.05, rel_tol=0.02):
    return abs(got - want) <= abs_tol or abs(got - want) <= rel_tol * abs(want)


def test_criterion_8_temperature_parameters():
    data = _load_temperature()
    em = EmConfig(tolerance=1e-10)
    seed = 88
    hom = multi_start_fit(data, 2, ConstraintSpec.homoscedastic(), em, 100, seed=seed)
    target = float(hom.params.variances[0])
    spec = ConstraintSpec.constrained(0.1527, target)
    conc = multi_start_fit(data, 2, spec, em, 100, seed=seed)

    published = {
        "weights": np.array([0.2647, 0.7353]),
        "coefficients": np.array(
            [[74.8657, -1.9945, 0.3460], [150.5268, -2.5791, -0.2939]]
        ),
        "variances": np.array([5.6950, 2.7568]),
    }
    # align components by weight order
    order = np.argsort(conc.params.weights)
    got_w = conc.params.weights[order]
    got_b = conc.params.coefficients[order]
    got_v = conc.params.variances[order]
    mismatches = []
    for name, got, want in (
        ("p", got_w, published["weights"]),
        ("beta", got_b.ravel(), published["coefficients"].ravel()),
        ("sigma2", got_v, published["variances"]),
    ):
        for k, (g, w) in enumerate(zip(got, want)):
            if not _entry_close(float(g), float(w)):
                mismatches.append(f"{name}[{k}]: got {g:.4f}, want {w:.4f}")

    hom_bic = bic(hom, data.n, "homn", G=2, J=3)
    bic_ok = abs(hom_bic - 257.98) <= 0.5
    ok = not mismatches and bic_ok
    _report(
        8, "temperature parameter reproduction (G=2, c=0.1527, 100 starts)",
        ok,
        f"homn bic={hom_bic:.2f} (want 257.98 +/- 0.5); "
        + ("all entries match" if not mismatches else "; ".join(mismatches)),
    )


def test_criterion_9_spurious_solution_exhibition():
    data = _load_temperature()
    floor = 1e-6 * float(np.var(data.responses))
    em = EmConfig(tolerance=1e-10, variance_floor=floor)
    best, outcomes = multi_start_fit(
        data, 5, ConstraintSpec.heteroscedastic(), em, 100, seed=99, return_all=True
    )
    spurious = [
        r for r in outcomes
        if not isinstance(r, Exception)
        and r.degenerate
        and float(r.params.variances.min()) < floor
    ]

    conc, report = fit_conc(data, 5, CvConfig(seed=99), em, 100)
    v = conc.params.variances
    ratio = float(v.min() / v.max())
    conc_ok = not conc.degenerate and ratio >= report.selected_c * (1.0 - 1e-9)
    ok = len(spurious) > 0 and conc_ok
    _report(
        9, "spurious-solution exhibition (temperature, G=5)",
        ok,
        f"{len(spurious)}/100 hetn starts collapsed below {floor:.2e}; "
        f"conc ratio {ratio:.4f} >= selected c {report.selected_c:.4f}: {conc_ok}",
    )
