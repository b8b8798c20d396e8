"""Command-line front end: fit, tune, simulate, and evaluate workflows.

Exit codes: 0 success, 1 bad input (a ValueError or OSError), 2 a failed fit
(a NumericalError), 3 the best fit is degenerate.  Diagnostics go to stderr
one record per line, prefixed ``error:`` or ``warn:``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .model import Dataset
from .em import ConstraintSpec, EmConfig, NumericalError, _seed_sequence, multi_start_fit
from .tuning import CvConfig, _estimate_target, fit_conc
from .metrics import adjusted_rand, bic, param_mse
from .simulate import StudyConfig, run_study
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


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


_PROTOCOL_STARTS = {"ceo": 50, "temperature": 100, "iris": 500}  # published pool sizes


def load_presets() -> dict:
    """Benchmark protocol constants, as strings: pool size per dataset and CV test fraction."""
    presets = {f"{name}.starts": str(n) for name, n in _PROTOCOL_STARTS.items()}
    return {**presets, "cv.test_fraction": str(CvConfig.test_fraction)}


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file with the data")
    src.add_argument("--benchmark", choices=tuple(io.BENCHMARK_SIZES),
                     help="use a benchmark dataset (bundled copy unless --input-path is given)")
    p.add_argument("--input-path", help="local file for --benchmark")
    p.add_argument("--response", help="response column name or index")
    p.add_argument("--regressors", help="comma-separated regressor columns")
    p.add_argument("--delimiter", help="default: ,")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--no-intercept", action="store_true")


def _add_em_args(p):
    p.add_argument("--components", type=int, required=True, metavar="G")
    p.add_argument("--starts", type=int, default=StudyConfig.n_starts)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=EmConfig.max_iterations)
    p.add_argument("--tol", type=float, default=EmConfig.tolerance)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clustreg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="multi-start EM fit of one estimator")
    _add_input_args(p_fit)
    _add_em_args(p_fit)
    p_fit.add_argument("--variant", choices=("hetn", "homn", "conc"), required=True)
    p_fit.add_argument("--c", type=float, help="constraint constant (conc only)")
    p_fit.add_argument("--target", type=float, help=(
        "target variance for conc; defaults to a preliminary homoscedastic fit"))
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--emit", choices=("json", "plot-data"), default="json")

    p_tune = sub.add_parser("tune", help="select c by cross-validated log-likelihood, then fit")
    _add_input_args(p_tune)
    _add_em_args(p_tune)
    p_tune.add_argument("--cv-repeats", type=int, help="default: ceil(n/5)")
    p_tune.add_argument("--test-fraction", type=float, default=CvConfig.test_fraction)
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
    p_eval.add_argument("--benchmark", choices=("iris",),
                        help="score against a benchmark's true labels")
    p_eval.add_argument("--truth", help="JSON file with true weights/coefficients/variances")
    p_eval.add_argument("--output", help="write the metric JSON here instead of stdout")
    return parser


_CSV_FLAGS = ("response", "regressors", "delimiter", "no_header", "no_intercept")


def _load_data(args) -> Dataset:
    if args.benchmark:
        for flag in _CSV_FLAGS:
            if getattr(args, flag) not in (None, False):
                raise UsageError(f"--{flag.replace('_', '-')} is only valid with --input")
        return io.load_benchmark(args.benchmark, args.input_path).data
    if args.input_path is not None:
        raise UsageError("--input-path is only valid with --benchmark")
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
        delimiter="," if args.delimiter is None else args.delimiter,
        has_header=not args.no_header,
    )
    return io.load_csv(args.input, schema)


def _em_config(args) -> EmConfig:
    return EmConfig(max_iterations=args.max_iter, tolerance=args.tol)


def _emit_fit(args, data, fit, spec, cv_report=None) -> int:
    if args.emit == "plot-data":
        io.write_plot_data(data, fit, args.output)
    else:
        io.write_fit(fit, spec, args.output, cv=cv_report)
    if fit.degenerate:
        print("warn: best fit is degenerate (a component variance collapsed)", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_fit(args) -> int:
    if args.variant != "conc" and args.c is not None:
        raise UsageError("--c is only valid with --variant conc")
    if args.variant != "conc" and args.target is not None:
        raise UsageError("--target is only valid with --variant conc")
    data = _load_data(args)
    em = _em_config(args)
    target = args.target
    if args.variant == "conc":
        if args.c is None:
            raise UsageError("--variant conc requires --c (or use the tune subcommand)")
        if target is None:
            target = _estimate_target(data, args.components, args.seed, em, args.starts)
    spec = ConstraintSpec(args.variant, args.c, target)
    fit = multi_start_fit(
        data, args.components, spec, em, args.starts,
        seed=_seed_sequence(args.seed, 2),
    )
    return _emit_fit(args, data, fit, spec)


def _cmd_tune(args) -> int:
    data = _load_data(args)
    em = _em_config(args)
    cv = CvConfig(n_repeats=args.cv_repeats, test_fraction=args.test_fraction, seed=args.seed)
    if args.c_grid:
        cv = dataclasses.replace(cv, c_grid=tuple(float(c) for c in args.c_grid.split(",")))
    fit, report = fit_conc(data, args.components, cv, em, args.starts)
    spec = ConstraintSpec.constrained(report.selected_c, report.target_variance)
    return _emit_fit(args, data, fit, spec, cv_report=report)


def _cmd_simulate(args) -> int:
    rows = run_study(io.read_json(args.scenario_file, io.study_from_document))
    if args.emit == "json":
        io.write_json(rows, args.output)
    else:
        io.write_study_csv(rows, args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    variant, fit = io.read_json(args.fit, lambda d: (d.get("variant"), io.fit_from_document(d)))
    out = {}
    if args.benchmark:
        out["adj_rand"] = adjusted_rand(io.load_benchmark(args.benchmark).true_labels, fit.labels)
    elif args.labels:
        path, _, column = args.labels.partition(":")
        out["adj_rand"] = adjusted_rand(io.read_labels(path, column or 0), fit.labels)
    if args.truth:
        mse = param_mse(io.read_json(args.truth, io.params_from_document), fit.params)
        out["mse_beta"] = mse.avg_mse_beta
        out["mse_sigma"] = mse.avg_mse_sigma
    if not out:
        raise UsageError("evaluate needs --labels, --benchmark, or --truth")
    if variant in ("hetn", "homn"):
        out["bic"] = bic(fit, fit.labels.size, variant, fit.params.n_components,
                         fit.params.n_features)
    io.write_json(out, args.output)
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
    except NumericalError as exc:
        _err(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
