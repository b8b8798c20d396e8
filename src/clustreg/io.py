"""Dataset ingestion, benchmark loaders, and result serialization.

Benchmark files are never fetched over the network: the Iris and Temperature
copies bundled under ``clustreg/data`` are used unless the caller supplies a
path.  Source URLs are documented in the README.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import Dataset, ModelParams, Responsibilities
from .em import ConstraintSpec, FitResult, Variant
from .tuning import CvReport
from .simulate import STUDY_COLUMNS

__all__ = [
    "CsvSchema",
    "LabeledDataset",
    "CsvFormatError",
    "load_csv",
    "load_benchmark",
    "write_csv",
    "write_fit",
    "read_fit",
    "fit_from_document",
    "write_study_csv",
    "write_plot_data",
    "bundled_path",
]

BENCHMARK_SIZES = {"ceo": 59, "temperature": 56, "iris": 150}


class CsvFormatError(ValueError):
    """CSV contents violate the declared schema."""


@dataclass(frozen=True)
class CsvSchema:
    """How to read a regression dataset from a delimited text file."""

    response_column: str | int
    regressor_columns: tuple = ()
    add_intercept: bool = True
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        cols = tuple(self.regressor_columns)
        if self.response_column in cols:
            raise ValueError("response column cannot also be a regressor")
        object.__setattr__(self, "regressor_columns", cols)


@dataclass(frozen=True)
class LabeledDataset:
    data: Dataset
    true_labels: np.ndarray = None
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.true_labels is not None:
            labels = np.asarray(self.true_labels, dtype=int)
            if labels.shape[0] != self.data.n:
                raise ValueError("labels length must match the sample size")
            labels.setflags(write=False)
            object.__setattr__(self, "true_labels", labels)


def _resolve_column(spec, header, n_cols, what):
    if isinstance(spec, int):
        if not (0 <= spec < n_cols):
            raise CsvFormatError(f"{what} index {spec} out of range (file has {n_cols} columns)")
        return spec
    if header is None:
        raise CsvFormatError(f"{what} given by name {spec!r} but the file has no header")
    try:
        return header.index(spec)
    except ValueError:
        raise CsvFormatError(f"{what} {spec!r} not found in header {header}") from None


def _parse_cell(cell, line_no, col_name):
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: cannot parse {cell!r} in column {col_name!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"line {line_no}: non-finite value in column {col_name!r}")
    return value


def _read_rows(path, delimiter: str = ",") -> list:
    """(line number, fields) of every non-blank row; CsvFormatError if there is none."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [(i + 1, row) for i, row in enumerate(reader) if row and any(c.strip() for c in row)]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    return rows


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a delimited file into a Dataset per the schema."""
    rows = _read_rows(path, schema.delimiter)
    header = None
    if schema.has_header:
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: header but no data rows")
    n_cols = len(header) if header is not None else len(rows[0][1])
    y_col = _resolve_column(schema.response_column, header, n_cols, "response column")
    x_cols = [
        _resolve_column(c, header, n_cols, "regressor column") for c in schema.regressor_columns
    ]
    names = []
    if schema.add_intercept:
        names.append("intercept")
    for c in schema.regressor_columns:
        names.append(c if isinstance(c, str) else (header[c] if header else f"x{c}"))
    y = np.empty(len(rows))
    X = np.empty((len(rows), len(x_cols)))
    for r, (line_no, row) in enumerate(rows):
        if len(row) != n_cols:
            raise CsvFormatError(
                f"line {line_no}: expected {n_cols} fields, found {len(row)}"
            )
        y[r] = _parse_cell(row[y_col].strip(), line_no, str(schema.response_column))
        for j, c in enumerate(x_cols):
            X[r, j] = _parse_cell(row[c].strip(), line_no, names[j + schema.add_intercept])
    if schema.add_intercept:
        X = np.column_stack([np.ones(len(rows)), X])
    return Dataset(y, X, tuple(names))


def write_csv(data: Dataset, path, delimiter: str = ",") -> None:
    """Write a Dataset (response first, then non-intercept regressors)."""
    has_intercept = bool(np.all(data.design[:, 0] == 1.0))
    start = 1 if has_intercept else 0
    header = ["y"] + list(data.feature_names[start:])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for i in range(data.n):
            writer.writerow(
                [repr(float(data.responses[i]))]
                + [repr(float(v)) for v in data.design[i, start:]]
            )


def bundled_path(filename: str):
    """Path of a data file shipped with the package."""
    return resources.files("clustreg.data").joinpath(filename)


def _find_column(header, candidates, what):
    lowered = [h.strip().lower().replace(" ", "_").replace(".", "_") for h in header]
    for cand in candidates:
        if cand in lowered:
            return lowered.index(cand)
    raise CsvFormatError(f"could not locate a {what} column among {header}")


def load_benchmark(name: str, path=None) -> LabeledDataset:
    """Load one of the benchmark datasets: ``ceo``, ``temperature``, or ``iris``.

    ``path`` defaults to the bundled copy (ceo has none and requires a file).
    A row count differing from the documented size triggers a warning only.
    """
    name = name.lower()
    if name not in BENCHMARK_SIZES:
        raise ValueError(f"unknown benchmark {name!r}")
    if path is None:
        if name == "ceo":
            raise ValueError(
                "no bundled copy of the CEO data (source link unstable); pass a local path"
            )
        path = bundled_path(f"{name}.csv")
    rows = _read_rows(path)
    header = [c.strip() for c in rows[0][1]]
    body = rows[1:]
    labels = None
    label_names = ()
    if name == "ceo":
        y_col = _find_column(header, ("salary", "sal", "ceo_salary", "y"), "salary")
        x_col = _find_column(header, ("age", "ceo_age", "x"), "age")
        y_name, x_names = "salary", ["age"]
        x_cols = [x_col]
    elif name == "temperature":
        y_col = _find_column(
            header, ("temperature", "jan_temp", "jantemp", "temp", "y"), "temperature"
        )
        lat = _find_column(header, ("latitude", "lat"), "latitude")
        lon = _find_column(header, ("longitude", "long", "lon"), "longitude")
        y_name, x_names = "temperature", ["latitude", "longitude"]
        x_cols = [lat, lon]
    else:
        y_col = _find_column(header, ("petal_width", "petalwidth"), "petal width")
        x_col = _find_column(header, ("sepal_width", "sepalwidth"), "sepal width")
        species_col = _find_column(header, ("species", "class"), "species")
        y_name, x_names = "petal_width", ["sepal_width"]
        x_cols = [x_col]
        raw = [row[species_col].strip() for _, row in body]
        label_names = tuple(dict.fromkeys(raw))
        labels = np.array([label_names.index(s) for s in raw])
    n = len(body)
    expected = BENCHMARK_SIZES[name]
    if n != expected:
        warnings.warn(
            f"{name} file has {n} rows, documented size is {expected}",
            UserWarning,
            stacklevel=2,
        )
    y = np.empty(n)
    X = np.empty((n, len(x_cols)))
    for r, (line_no, row) in enumerate(body):
        y[r] = _parse_cell(row[y_col].strip(), line_no, y_name)
        for j, c in enumerate(x_cols):
            X[r, j] = _parse_cell(row[c].strip(), line_no, x_names[j])
    design = np.column_stack([np.ones(n), X])
    data = Dataset(y, design, ("intercept", *x_names))
    return LabeledDataset(data, true_labels=labels, label_names=label_names)


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fit_document(fit: FitResult, spec: ConstraintSpec, cv: CvReport = None) -> dict:
    """JSON-ready dict for a fit; floats keep full (repr) precision via json."""
    doc = {
        "variant": spec.variant.value,
        "G": fit.params.n_components,
        "c": spec.c,
        "target_variance": spec.target_variance,
        "weights": fit.params.weights.tolist(),
        "coefficients": fit.params.coefficients.tolist(),
        "variances": fit.params.variances.tolist(),
        "loglik": fit.loglik,
        "labels": fit.labels.tolist(),
        "trace": fit.loglik_trace.tolist(),
        "responsibilities": fit.responsibilities.probs.tolist(),
        "converged": fit.converged,
        "degenerate": fit.degenerate,
        "iterations": fit.iterations,
    }
    if cv is not None:
        doc["cv_table"] = [
            {
                # candidates with no defined training fit carry -inf; JSON
                # has no representation for it, so they serialize as null
                "c": row.c,
                "cv_loglik": row.cv_loglik if math.isfinite(row.cv_loglik) else None,
                "n_fallback": row.n_fallback,
            }
            for row in cv.rows
        ]
        doc["selected_c"] = cv.selected_c
    return doc


def write_fit(fit: FitResult, spec: ConstraintSpec, path, cv: CvReport = None) -> None:
    """Persist a fit (and optional CV report) as JSON, atomically."""
    try:
        _atomic_write_text(path, json.dumps(fit_document(fit, spec, cv), indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write fit to {path}: {exc}") from exc


def read_fit(path) -> dict:
    """Read back a fit document written by write_fit."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read fit from {path}: {exc}") from exc


def fit_from_document(doc: dict) -> FitResult:
    """Rebuild a FitResult from a fit document."""
    params = ModelParams(
        np.array(doc["weights"]),
        np.array(doc["coefficients"]),
        np.array(doc["variances"]),
    )
    resp = Responsibilities(np.array(doc["responsibilities"]))
    return FitResult(
        params=params,
        loglik=doc["loglik"],
        loglik_trace=np.array(doc["trace"]),
        responsibilities=resp,
        labels=np.array(doc["labels"]),
        converged=doc["converged"],
        degenerate=doc["degenerate"],
        iterations=doc["iterations"],
    )


def write_study_csv(rows, path) -> None:
    """Aggregate study report, one row per (scenario, estimator) cell."""
    lines = [",".join(STUDY_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                str(row[col]) if col in ("scenario", "estimator") else repr(float(row[col]))
                for col in STUDY_COLUMNS
            )
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_plot_data(data: Dataset, fit: FitResult, path) -> None:
    """Per-observation scatter data plus the assigned component's line parameters."""
    has_intercept = bool(np.all(data.design[:, 0] == 1.0))
    start = 1 if has_intercept else 0
    x_names = list(data.feature_names[start:])
    header = (
        x_names
        + ["y", "label"]
        + ["line_intercept" if has_intercept else "line_coef0"]
        + [f"line_coef_{name}" for name in x_names]
    )
    lines = [",".join(header)]
    B = fit.params.coefficients
    for i in range(data.n):
        g = int(fit.labels[i])
        fields = [repr(float(v)) for v in data.design[i, start:]]
        fields += [repr(float(data.responses[i])), str(g)]
        fields += [repr(float(b)) for b in B[g]]
        lines.append(",".join(fields))
    _atomic_write_text(path, "\n".join(lines) + "\n")
