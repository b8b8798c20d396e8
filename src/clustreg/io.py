"""Dataset ingestion, benchmark loaders, and result serialization.

Benchmark files are never fetched over the network: the Iris and Temperature
copies bundled under ``clustreg/data`` are used unless the caller supplies a
path.  Source URLs are documented in the README.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass
from importlib import resources
from io import StringIO

import numpy as np

from .model import Dataset, ModelParams, Responsibilities
from .em import STOP_REASONS, ConstraintSpec, EmConfig, FitResult
from .tuning import CvConfig, CvReport
from .simulate import STUDY_COLUMNS, ScenarioSpec, StudyConfig

__all__ = [
    "CsvSchema",
    "LabeledDataset",
    "CsvFormatError",
    "load_csv",
    "load_benchmark",
    "read_labels",
    "write_csv",
    "read_json",
    "write_json",
    "write_fit",
    "params_from_document",
    "fit_from_document",
    "study_from_document",
    "write_study_csv",
    "write_plot_data",
    "bundled_path",
]

# name: (documented size, response aliases, regressor aliases, label aliases);
# the first alias of each column is its name in the loaded Dataset
_BENCHMARKS = {
    "ceo": (59, ("salary", "sal", "ceo_salary", "y"), (("age", "ceo_age", "x"),), None),
    "temperature": (56, ("temperature", "jan_temp", "jantemp", "temp", "y"),
                    (("latitude", "lat"), ("longitude", "long", "lon")), None),
    "iris": (150, ("petal_width", "petalwidth"), (("sepal_width", "sepalwidth"),),
             ("species", "class")),
}
BENCHMARK_SIZES = {name: spec[0] for name, spec in _BENCHMARKS.items()}


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
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
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


def _column(spec, header, n_cols, what) -> int:
    """Index of a column given by index, by header name, or by a tuple of aliases.

    Aliases match header names case-insensitively, with spaces and dots read
    as underscores.
    """
    if isinstance(spec, int):
        if not (0 <= spec < n_cols):
            raise CsvFormatError(f"{what} index {spec} out of range (file has {n_cols} columns)")
        return spec
    if header is None:
        raise CsvFormatError(f"{what} given by name {spec!r} but the file has no header")
    if isinstance(spec, tuple):
        lowered = [h.lower().replace(" ", "_").replace(".", "_") for h in header]
        for alias in spec:
            if alias in lowered:
                return lowered.index(alias)
        raise CsvFormatError(f"could not locate a {what} column among {header}")
    if spec not in header:
        raise CsvFormatError(f"{what} {spec!r} not found in header {header}")
    return header.index(spec)


def _read_table(path, delimiter: str = ",", has_header: bool = True):
    """(header or None, [(line number, fields)]) of every non-blank row.

    Raises CsvFormatError for non-UTF-8 text, an empty file, a header with no
    rows, or a row whose field count differs from the header's (or first row's).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh, delimiter=delimiter))
                    if row and any(c.strip() for c in row)]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not valid UTF-8: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header = None
    if has_header:
        header = [c.strip() for c in rows.pop(0)[1]]
        if not rows:
            raise CsvFormatError(f"{path}: header but no data rows")
    n_cols = len(header) if header is not None else len(rows[0][1])
    for line_no, row in rows:
        if len(row) != n_cols:
            raise CsvFormatError(
                f"{path}: line {line_no}: expected {n_cols} fields, found {len(row)}"
            )
    return header, rows


def _to_dataset(rows, cols, names, add_intercept: bool) -> Dataset:
    """Response from column ``cols[0]``, regressors from the rest, named by ``names``."""
    values = np.empty((len(rows), len(cols)))
    for r, (line_no, row) in enumerate(rows):
        for j, c in enumerate(cols):
            cell = row[c].strip()
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: cannot parse {cell!r} in column {names[j]!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(f"line {line_no}: non-finite value in column {names[j]!r}")
            values[r, j] = value
    X, x_names = values[:, 1:], tuple(names[1:])
    if add_intercept:
        X, x_names = np.column_stack([np.ones(len(rows)), X]), ("intercept", *x_names)
    return Dataset(values[:, 0], X, x_names)


def _codes(raw) -> tuple:
    """(distinct values in order of first appearance, integer code of each value)."""
    names = tuple(dict.fromkeys(raw))
    return names, np.array([names.index(v) for v in raw])


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a delimited file into a Dataset per the schema."""
    header, rows = _read_table(path, schema.delimiter, schema.has_header)
    n_cols = len(rows[0][1])
    specs = (schema.response_column, *schema.regressor_columns)
    cols = [_column(specs[0], header, n_cols, "response column")]
    cols += [_column(c, header, n_cols, "regressor column") for c in specs[1:]]
    names = [c if isinstance(c, str) else (header[c] if header else f"x{c}") for c in specs]
    return _to_dataset(rows, cols, names, schema.add_intercept)


def read_labels(path, column=0) -> np.ndarray:
    """Integer codes, in order of first appearance, of a label column given by index or name."""
    header, rows = _read_table(path)
    col = _column(column, header, len(header), "label column")
    return _codes([row[col].strip() for _, row in rows])[1]


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset (response first, then non-intercept regressors)."""
    _, X, names = _non_intercept(data)
    _write_rows(path, [["y", *names]] + [
        [repr(y), *map(repr, x)] for y, x in zip(data.responses.tolist(), X.tolist())
    ])


def bundled_path(filename: str):
    """Path of a data file shipped with the package."""
    return resources.files("clustreg.data").joinpath(filename)


def load_benchmark(name: str, path=None) -> LabeledDataset:
    """Load one of the benchmark datasets: ``ceo``, ``temperature``, or ``iris``.

    ``path`` defaults to the bundled copy (ceo has none and requires a file).
    A row count differing from the documented size triggers a warning only.
    """
    name = name.lower()
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}")
    if path is None:
        if name == "ceo":
            raise ValueError(
                "no bundled copy of the CEO data (source link unstable); pass a local path"
            )
        path = bundled_path(f"{name}.csv")
    expected, y_aliases, x_aliases, label_aliases = _BENCHMARKS[name]
    header, rows = _read_table(path)
    specs = (y_aliases, *x_aliases)
    cols = [_column(a, header, len(header), a[0]) for a in specs]
    if label_aliases is not None:
        label_col = _column(label_aliases, header, len(header), label_aliases[0])
    if len(rows) != expected:
        warnings.warn(f"{name} file has {len(rows)} rows, documented size is {expected}",
                      UserWarning, stacklevel=2)
    data = _to_dataset(rows, cols, [a[0] for a in specs], add_intercept=True)
    if label_aliases is None:
        return LabeledDataset(data)
    label_names, labels = _codes([row[label_col].strip() for _, row in rows])
    return LabeledDataset(data, true_labels=labels, label_names=label_names)


def _atomic_write_text(path, text: str) -> None:
    """Write ``path`` via a temporary file beside it; a failure is an OSError naming ``path``."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_rows(path, rows) -> None:
    """Write rows of fields as CSV lines that end in a bare newline, atomically."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def _non_intercept(data: Dataset):
    """(whether design column 0 is an all-ones intercept, the other columns, their names)."""
    has_intercept = bool(np.all(data.design[:, 0] == 1.0))
    start = int(has_intercept)
    return has_intercept, data.design[:, start:], list(data.feature_names[start:])


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
        "stop_reason": fit.stop_reason,
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


def write_json(doc, path=None) -> None:
    """``doc`` as indented JSON, written atomically to ``path`` (to stdout if None)."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write_text(path, text)


def write_fit(fit: FitResult, spec: ConstraintSpec, path, cv: CvReport = None) -> None:
    """Persist a fit (and optional CV report) as JSON, atomically."""
    write_json(fit_document(fit, spec, cv), path)


def _typed(value, kind, what: str):
    """``value``, which a JSON document holds at ``what``, checked to be a ``kind``."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise TypeError(f"{what} must be {name}, found {type(value).__name__}")
    return value


def read_json(path, build=dict):
    """``build(doc)`` for the JSON object in file ``path`` (the object itself by default).

    An unreadable file is an OSError naming it.  Text that is not JSON, or a
    document ``build`` rejects, is a ValueError naming the file and the field.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        return build(_typed(doc, dict, "the top level"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _array(doc: dict, key: str) -> np.ndarray:
    """Field ``key`` of ``doc`` as an array; a value that is not one is a ValueError naming it."""
    try:
        return np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def params_from_document(doc: dict) -> ModelParams:
    """The ModelParams held by a fit or truth document."""
    return ModelParams(*(_array(doc, key) for key in ("weights", "coefficients", "variances")))


def fit_from_document(doc: dict) -> FitResult:
    """Rebuild a FitResult from a fit document (labels and flags derive from it)."""
    fit = FitResult(
        params=params_from_document(doc),
        loglik=doc["loglik"],
        loglik_trace=_array(doc, "trace"),
        responsibilities=Responsibilities(_array(doc, "responsibilities")),
        stop_reason=doc["stop_reason"],
        iterations=doc["iterations"],
    )
    if fit.stop_reason not in STOP_REASONS:
        raise ValueError(f"field 'stop_reason': {fit.stop_reason!r} is not in {STOP_REASONS}")
    return fit


def _from_dict(cls, d, what: str, fields=None, skip=(), **values):
    """``cls`` from the keys of ``d``, the object at ``what``, naming its fields (or ``fields``).

    ``d`` may also hold the keys in ``skip``, read elsewhere or ignored; any
    other key, or a value ``cls`` rejects, is a ValueError naming ``what``.
    Absent keys take the dataclass defaults, and ``values`` override both.
    """
    names = fields or {f.name for f in dataclasses.fields(cls)}
    unknown = [k for k in _typed(d, dict, what) if k not in names and k not in skip]
    if unknown:
        raise ValueError(f"{what}: unknown field {unknown[0]!r}")
    kwargs = {k: v for k, v in d.items() if k in names}
    try:
        return cls(**{**kwargs, **values})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def study_from_document(doc: dict) -> StudyConfig:
    """The StudyConfig a scenario document describes."""
    # replication seeds, the CV splits' included, derive from the study seed: a
    # scenario's or cv's own seed is ignored.  The outer call checks the top level.
    scenarios = _typed(doc["scenarios"], list, "field 'scenarios'")
    return _from_dict(
        StudyConfig, doc, "the top level", ("replications", "n_starts", "estimators", "seed"),
        ("scenarios", "cv", "max_iterations", "tolerance"),
        scenarios=tuple(_from_dict(ScenarioSpec, d, f"scenarios[{i}]", skip=("seed",))
                        for i, d in enumerate(scenarios)),
        cv=_from_dict(CvConfig, doc.get("cv", {}), "field 'cv'",
                      ("n_repeats", "test_fraction", "c_grid"), ("seed",)),
        em=_from_dict(EmConfig, doc, "the top level", ("max_iterations", "tolerance"), doc),
    )


def write_study_csv(rows, path) -> None:
    """Aggregate study report, one row per (scenario, estimator) cell."""
    _write_rows(path, [STUDY_COLUMNS] + [
        [str(row[col]) if col in ("scenario", "estimator", "n_failed") else repr(float(row[col]))
         for col in STUDY_COLUMNS]
        for row in rows
    ])


def write_plot_data(data: Dataset, fit: FitResult, path) -> None:
    """Per-observation scatter data plus the assigned component's line parameters."""
    has_intercept, X, x_names = _non_intercept(data)
    header = (
        x_names
        + ["y", "label"]
        + ["line_intercept" if has_intercept else "line_coef0"]
        + [f"line_coef_{name}" for name in x_names]
    )
    B = fit.params.coefficients.tolist()
    _write_rows(path, [header] + [
        [*map(repr, x), repr(y), str(g), *map(repr, B[g])]
        for x, y, g in zip(X.tolist(), data.responses.tolist(), fit.labels.tolist())
    ])
