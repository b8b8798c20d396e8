"""Command-line front end: fit, tune, simulate, and evaluate workflows.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 the best fit is
degenerate.  Diagnostics go to stderr one record per line, prefixed
``error:`` or ``warn:``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .model import Dataset, classify
from .em import (
    ConstraintSpec,
    EmConfig,
    EmptyComponentError,
    MultiStartError,
    SingularComponentError,
    Variant,
    multi_start_fit,
)
from .tuning import CvConfig, _estimate_target, fit_conc
from .metrics import adjusted_rand, bic, param_mse
from .model import ModelParams
from .simulate import ScenarioSpec, StudyConfig, run_study
from . import io

__all__ = ["main", "build_parser", "load_presets"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _warn(msg):
    print(f"warn: {msg}", file=sys.stderr)


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def load_presets() -> dict:
    """Benchmark protocol constants from the bundled key-value presets file."""
    presets = {}
    text = io.bundled_path("presets.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        presets[key.strip()] = value.strip()
    return presets


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file with the data")
    src.add_argument(
        "--benchmark", choices=("ceo", "temperature", "iris"),
        help="use a benchmark dataset (bundled copy unless --input-path is given)",
    )
    p.add_argument("--input-path", help="local file for --benchmark")
    p.add_argument("--response", help="response column name or index")
    p.add_argument("--regressors", help="comma-separated regressor columns")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--no-intercept", action="store_true")


def _add_em_args(p):
    p.add_argument("--components", type=int, required=True, metavar="G")
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clustreg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="multi-start EM fit of one estimator")
    _add_input_args(p_fit)
    _add_em_args(p_fit)
    p_fit.add_argument("--variant", choices=("hetn", "homn", "conc"), required=True)
    p_fit.add_argument("--c", type=float, help="constraint constant (conc only)")
    p_fit.add_argument(
        "--target", type=float,
        help="target variance for conc; defaults to a preliminary homoscedastic fit",
    )
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--emit", choices=("json", "plot-data"), default="json")

    p_tune = sub.add_parser("tune", help="select c by cross-validated log-likelihood, then fit")
    _add_input_args(p_tune)
    _add_em_args(p_tune)
    p_tune.add_argument("--cv-repeats", type=int, help="default: ceil(n/5)")
    p_tune.add_argument("--test-fraction", type=float, default=0.1)
    p_tune.add_argument("--c-grid", help="comma-separated candidate c values")
    p_tune.add_argument("--output", required=True)
    p_tune.add_argument("--emit", choices=("json", "plot-data"), default="json")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a scenario file")
    p_sim.add_argument("--scenario-file", required=True)
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--emit", choices=("csv", "json"), default="csv")

    p_eval = sub.add_parser("evaluate", help="score a stored fit against labels or truth")
    p_eval.add_argument("--fit", required=True, help="fit JSON from fit/tune")
    p_eval.add_argument("--labels", help="CSV with a label column: path[:column]")
    p_eval.add_argument(
        "--benchmark", choices=("iris",),
        help="score against a benchmark's true labels",
    )
    p_eval.add_argument("--truth", help="JSON file with true weights/coefficients/variances")
    p_eval.add_argument("--output", help="write the metric JSON here instead of stdout")
    return parser


def _load_data(args) -> Dataset:
    if args.benchmark:
        labeled = io.load_benchmark(args.benchmark, args.input_path)
        return labeled.data
    if args.response is None:
        raise UsageError("--response is required with --input")
    regressors = []
    if args.regressors:
        regressors = [c.strip() for c in args.regressors.split(",") if c.strip()]

    def conv(c):
        return int(c) if args.no_header else c

    schema = io.CsvSchema(
        response_column=conv(args.response),
        regressor_columns=tuple(conv(c) for c in regressors),
        add_intercept=not args.no_intercept,
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )
    return io.load_csv(args.input, schema)


def _em_config(args) -> EmConfig:
    return EmConfig(max_iterations=args.max_iter, tolerance=args.tol)


def _emit_fit(args, data, fit, spec, cv_report=None):
    if args.emit == "plot-data":
        io.write_plot_data(data, fit, args.output)
    else:
        io.write_fit(fit, spec, args.output, cv=cv_report)


def _cmd_fit(args) -> int:
    if args.variant != "conc" and args.c is not None:
        raise UsageError("--c is only valid with --variant conc")
    if args.variant != "conc" and args.target is not None:
        raise UsageError("--target is only valid with --variant conc")
    data = _load_data(args)
    em = _em_config(args)
    if args.variant == "conc":
        if args.c is None:
            raise UsageError("--variant conc requires --c (or use the tune subcommand)")
        target = args.target
        if target is None:
            target = _estimate_target(data, args.components, args.seed, em, args.starts)
        spec = ConstraintSpec.constrained(args.c, target)
    elif args.variant == "hetn":
        spec = ConstraintSpec.heteroscedastic()
    else:
        spec = ConstraintSpec.homoscedastic()
    fit = multi_start_fit(
        data, args.components, spec, em, args.starts,
        seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(2,)),
    )
    _emit_fit(args, data, fit, spec)
    if fit.degenerate:
        _warn("best fit is degenerate (a component variance collapsed)")
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_tune(args) -> int:
    data = _load_data(args)
    em = _em_config(args)
    grid_kwargs = {}
    if args.c_grid:
        grid = tuple(float(c) for c in args.c_grid.split(","))
        grid_kwargs["c_grid"] = grid
    cv = CvConfig(
        n_repeats=args.cv_repeats,
        test_fraction=args.test_fraction,
        seed=args.seed,
        **grid_kwargs,
    )
    fit, report = fit_conc(data, args.components, cv, em, args.starts)
    spec = ConstraintSpec.constrained(report.selected_c, report.target_variance)
    _emit_fit(args, data, fit, spec, cv_report=report)
    if fit.degenerate:
        _warn("best fit is degenerate (a component variance collapsed)")
        return EXIT_DEGENERATE
    return EXIT_OK


def _scenario_from_dict(d: dict) -> ScenarioSpec:
    return ScenarioSpec(
        n=d["n"],
        G=d["G"],
        mixing=tuple(d["mixing"]),
        intercepts=tuple(d["intercepts"]),
        n_regressors=d.get("n_regressors", 3),
        coef_low=d.get("coef_low", -1.5),
        coef_high=d.get("coef_high", 1.5),
        variance_shape=d.get("variance_shape", 3.0),
        variance_scale=d.get("variance_scale", 1.0),
        name=d.get("name", ""),
    )


def _cmd_simulate(args) -> int:
    with open(args.scenario_file) as fh:
        doc = json.load(fh)
    cv_doc = doc.get("cv", {})
    cv_kwargs = {
        "n_repeats": cv_doc.get("n_repeats"),
        "test_fraction": cv_doc.get("test_fraction", 0.1),
        "seed": cv_doc.get("seed", doc.get("seed", 0)),
    }
    if "c_grid" in cv_doc:
        cv_kwargs["c_grid"] = tuple(cv_doc["c_grid"])
    config = StudyConfig(
        scenarios=tuple(_scenario_from_dict(d) for d in doc["scenarios"]),
        replications=doc.get("replications", 250),
        n_starts=doc.get("n_starts", 10),
        estimators=tuple(doc.get("estimators", ["homn", "hetn", "conc"])),
        cv=CvConfig(**cv_kwargs),
        em=EmConfig(
            max_iterations=doc.get("max_iterations", 500),
            tolerance=doc.get("tolerance", 1e-8),
        ),
        seed=doc.get("seed", 0),
    )
    rows = run_study(config)
    if args.emit == "json":
        io._atomic_write_text(args.output, json.dumps(rows, indent=2) + "\n")
    else:
        io.write_study_csv(rows, args.output)
    return EXIT_OK


def _read_labels(spec: str) -> np.ndarray:
    path, _, column = spec.partition(":")
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh) if r and any(c.strip() for c in r)]
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    col = header.index(column) if column else 0
    raw = [r[col].strip() for r in body]
    names = tuple(dict.fromkeys(raw))
    return np.array([names.index(v) for v in raw])


def _cmd_evaluate(args) -> int:
    doc = io.read_fit(args.fit)
    fit = io.fit_from_document(doc)
    out = {}
    if args.benchmark:
        labeled = io.load_benchmark(args.benchmark)
        truth_labels = labeled.true_labels
        out["adj_rand"] = adjusted_rand(truth_labels, fit.labels)
    elif args.labels:
        out["adj_rand"] = adjusted_rand(_read_labels(args.labels), fit.labels)
    if args.truth:
        with open(args.truth) as fh:
            tdoc = json.load(fh)
        truth = ModelParams(
            np.array(tdoc["weights"]),
            np.array(tdoc["coefficients"]),
            np.array(tdoc["variances"]),
        )
        mse = param_mse(truth, fit.params)
        out["mse_beta"] = mse.avg_mse_beta
        out["mse_sigma"] = mse.avg_mse_sigma
    if not out:
        raise UsageError("evaluate needs --labels, --benchmark, or --truth")
    variant = doc.get("variant")
    if variant in ("hetn", "homn"):
        out["bic"] = bic(fit, len(doc["labels"]), variant, doc["G"],
                         len(doc["coefficients"][0]))
    text = json.dumps(out, indent=2) + "\n"
    if args.output:
        io._atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _err(f"usage: {exc}")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        _err(f"usage: {exc}")
        return EXIT_USAGE
    except (io.CsvFormatError, FileNotFoundError, ValueError, KeyError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except (SingularComponentError, EmptyComponentError, MultiStartError) as exc:
        _err(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
