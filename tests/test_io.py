import json
import os
import re

import numpy as np
import pytest

from clustreg import ConstraintSpec, Dataset, EmConfig, multi_start_fit
from clustreg.io import (
    BENCHMARK_SIZES,
    CsvFormatError,
    _read_table,
    CsvSchema,
    LabeledDataset,
    bundled_path,
    fit_from_document,
    load_benchmark,
    load_csv,
    read_json,
    write_csv,
    write_fit,
    write_plot_data,
    write_study_csv,
)
from conftest import make_two_line_data


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_named_columns(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        data = load_csv(p, CsvSchema(response_column="y", regressor_columns=("a", "b")))
        assert data.responses.tolist() == [3.0, 6.0]
        assert data.design.tolist() == [[1.0, 1.0, 2.0], [1.0, 4.0, 5.0]]
        assert data.feature_names == ("intercept", "a", "b")

    def test_positional_columns_no_header(self, tmp_path):
        p = self._write(tmp_path, "1,2\n3,4\n")
        data = load_csv(
            p, CsvSchema(response_column=0, regressor_columns=(1,), has_header=False)
        )
        assert data.responses.tolist() == [1.0, 3.0]
        assert data.design[:, 1].tolist() == [2.0, 4.0]

    def test_no_intercept(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1,2\n")
        data = load_csv(
            p,
            CsvSchema(response_column="y", regressor_columns=("x",), add_intercept=False),
        )
        assert data.design.tolist() == [[1.0]]
        assert data.feature_names == ("x",)

    def test_unparseable_cell_reports_line(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1,2\nbad,3\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))

    def test_nan_rejected_with_line(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1,2\n2,nan\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(CsvFormatError, match="not found"):
            load_csv(p, CsvSchema(response_column="z", regressor_columns=("x",)))

    def test_ragged_row(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(p, CsvSchema(response_column=0, has_header=False))

    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "utf16.csv"
        p.write_bytes(b"\xff\xfex,y\n1,2\n")
        with pytest.raises(CsvFormatError, match=f"^{re.escape(str(p))}: not valid UTF-8"):
            load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))

    def test_response_as_regressor_rejected(self):
        with pytest.raises(ValueError, match="^response column cannot also be a regressor$"):
            CsvSchema(response_column="y", regressor_columns=("x", "y"))

    @pytest.mark.parametrize("delimiter", [";;", "", None])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ValueError, match="^delimiter must be one character, got "):
            CsvSchema(response_column="y", delimiter=delimiter)

    @pytest.mark.parametrize("text, schema, message", [
        ("1,2\n3,4\n", CsvSchema(0, (5,), has_header=False),
         "regressor column index 5 out of range (file has 2 columns)"),
        ("1,2\n3,4\n", CsvSchema("y", has_header=False),
         "response column given by name 'y' but the file has no header"),
        ("x,y\n", CsvSchema("y", ("x",)), "header but no data rows"),
    ], ids=["index-out-of-range", "name-without-header", "header-only"])
    def test_schema_faults_named(self, tmp_path, text, schema, message):
        p = self._write(tmp_path, text)
        with pytest.raises(CsvFormatError, match=f"{re.escape(message)}$"):
            load_csv(p, schema)

    def test_blank_lines_skipped(self, tmp_path):
        p = self._write(tmp_path, "x,y\n\n1,2\n\n")
        data = load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))
        assert data.n == 1


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        data, _, _ = make_two_line_data(seed=70, n=25)
        data = Dataset(data.responses, data.design, ("intercept", "x"))
        p = tmp_path / "round.csv"
        write_csv(data, p)
        back = load_csv(p, CsvSchema(response_column="y", regressor_columns=("x",)))
        assert np.array_equal(back.responses, data.responses)
        assert np.array_equal(back.design, data.design)


    def test_write_csv_is_atomic_with_newline_line_ends(self, tmp_path):
        data = Dataset(np.array([1.5, -2.25]), np.column_stack([np.ones(2), [0.1, 1 / 3]]),
                       ("intercept", "x"))
        p = tmp_path / "data.csv"
        write_csv(data, p)
        assert p.read_bytes() == b"y,x\n1.5,0.1\n-2.25,0.3333333333333333\n"
        header, rows = _read_table(p)
        assert header == ["y", "x"]
        assert [float(f) for _, fields in rows for f in fields] == [1.5, 0.1, -2.25, 1 / 3]
        assert os.listdir(tmp_path) == ["data.csv"]


class TestBenchmarks:
    def test_bundled_files_exist(self):
        for name in ("iris", "temperature"):
            assert bundled_path(f"{name}.csv").is_file()

    def test_iris_shape_and_labels(self):
        bench = load_benchmark("iris")
        assert bench.data.n == BENCHMARK_SIZES["iris"] == 150
        assert bench.data.feature_names == ("intercept", "sepal_width")
        assert bench.true_labels is not None
        assert np.bincount(bench.true_labels).tolist() == [50, 50, 50]
        assert len(bench.label_names) == 3

    def test_iris_known_first_row(self):
        # canonical first record: sepal 5.1/3.5, petal 1.4/0.2
        bench = load_benchmark("iris")
        assert bench.data.responses[0] == 0.2
        assert bench.data.design[0].tolist() == [1.0, 3.5]

    def test_temperature_shape(self):
        bench = load_benchmark("temperature")
        assert bench.data.n == BENCHMARK_SIZES["temperature"] == 56
        assert bench.data.feature_names == ("intercept", "latitude", "longitude")
        assert bench.true_labels is None

    def test_temperature_plausible_ranges(self):
        bench = load_benchmark("temperature")
        lat = bench.data.design[:, 1]
        lon = bench.data.design[:, 2]
        assert lat.min() > 24 and lat.max() < 50
        assert lon.min() > 65 and lon.max() < 125
        assert bench.data.responses.min() > -10
        assert bench.data.responses.max() < 70

    def test_ceo_requires_path(self):
        with pytest.raises(ValueError, match="CEO"):
            load_benchmark("ceo")

    def test_ceo_from_local_file(self, tmp_path):
        p = tmp_path / "ceo.csv"
        rows = ["salary,age"] + [f"{100 + i},{40 + i % 20}" for i in range(59)]
        p.write_text("\n".join(rows) + "\n")
        bench = load_benchmark("ceo", path=p)
        assert bench.data.n == 59
        assert bench.data.feature_names == ("intercept", "age")

    def test_row_count_mismatch_warns(self, tmp_path):
        p = tmp_path / "ceo.csv"
        p.write_text("salary,age\n100,45\n200,55\n")
        with pytest.warns(UserWarning, match="documented size"):
            load_benchmark("ceo", path=p)

    def test_labels_length_must_match(self):
        data = Dataset(np.ones(2), np.ones((2, 1)))
        with pytest.raises(ValueError, match="^labels length must match the sample size$"):
            LabeledDataset(data, true_labels=[0, 1, 2])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            load_benchmark("wine")

    def test_empty_local_file(self, tmp_path):
        p = tmp_path / "iris.csv"
        p.write_text("\n \n")
        with pytest.raises(CsvFormatError, match="empty"):
            load_benchmark("iris", path=p)

    def test_short_row_reports_line(self, tmp_path):
        p = tmp_path / "temperature.csv"
        p.write_text("temperature,latitude,longitude\n30,40,80\n31,41\n")
        with pytest.raises(CsvFormatError, match="line 3: expected 3 fields, found 2"):
            load_benchmark("temperature", path=p)

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "temperature.csv"
        p.write_text("temperature,latitude\n30,40\n")
        with pytest.raises(CsvFormatError, match="longitude"):
            load_benchmark("temperature", path=p)


@pytest.fixture(scope="module")
def small_fit():
    data, _, _ = make_two_line_data(seed=71, n=40)
    data = Dataset(data.responses, data.design, ("intercept", "x"))
    spec = ConstraintSpec.heteroscedastic()
    fit = multi_start_fit(data, 2, spec, EmConfig(), 3, seed=0)
    return data, spec, fit


class TestFitSerialization:
    def test_round_trip_exact(self, small_fit, tmp_path):
        data, spec, fit = small_fit
        p = tmp_path / "fit.json"
        write_fit(fit, spec, p)
        doc = read_json(p)
        back = fit_from_document(doc)
        assert back.loglik == fit.loglik
        assert np.array_equal(back.params.coefficients, fit.params.coefficients)
        assert np.array_equal(back.params.variances, fit.params.variances)
        assert np.array_equal(back.labels, fit.labels)
        assert np.array_equal(back.loglik_trace, fit.loglik_trace)
        assert back.stop_reason == fit.stop_reason
        assert back.converged == fit.converged
        assert back.iterations == fit.iterations

    def test_document_fields(self, small_fit, tmp_path):
        data, spec, fit = small_fit
        p = tmp_path / "fit.json"
        write_fit(fit, spec, p)
        doc = json.loads(p.read_text())
        assert doc["variant"] == "hetn"
        assert doc["G"] == 2
        assert doc["c"] is None
        assert doc["stop_reason"] == "tolerance"
        assert (doc["converged"], doc["degenerate"]) == (True, False)
        assert len(doc["weights"]) == 2
        assert len(doc["responsibilities"]) == data.n

    def test_cv_table_minus_inf_serializes_as_null(self, small_fit, tmp_path):
        from clustreg import CvReport, CvRow

        data, spec, fit = small_fit
        report = CvReport(
            rows=(CvRow(0.1, -12.5, 0), CvRow(1.0, float("-inf"), 0)),
            selected_c=0.1,
            warm_start=None,
            target_variance=1.0,
        )
        p = tmp_path / "fit.json"
        write_fit(fit, spec, p, cv=report)
        doc = json.loads(p.read_text())  # strict JSON must parse
        assert doc["cv_table"][0]["cv_loglik"] == -12.5
        assert doc["cv_table"][1]["cv_loglik"] is None
        assert doc["selected_c"] == 0.1

    def test_write_is_atomic_no_temp_left(self, small_fit, tmp_path):
        data, spec, fit = small_fit
        write_fit(fit, spec, tmp_path / "fit.json")
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []

    def test_write_to_bad_directory_raises(self, small_fit, tmp_path):
        data, spec, fit = small_fit
        with pytest.raises(OSError, match="cannot write"):
            write_fit(fit, spec, tmp_path / "missing" / "fit.json")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="cannot read"):
            read_json(tmp_path / "nope.json")


class TestStudyCsv:
    def test_layout(self, tmp_path):
        rows = [
            {
                "scenario": "s1", "estimator": "hetn", "mse_beta": 0.1,
                "mse_sigma": 0.2, "adj_rand": 0.9, "time_s": 0.5,
                "mean_c": float("nan"), "n_failed": 0,
            }
        ]
        p = tmp_path / "study.csv"
        write_study_csv(rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "scenario,estimator,mse_beta,mse_sigma,adj_rand,time_s,mean_c,n_failed"
        fields = lines[1].split(",")
        assert fields[0] == "s1"
        assert float(fields[2]) == 0.1
        assert fields[6] == "nan"
        assert fields[7] == "0"

    def test_all_failed_cell_says_why_it_is_nan(self, tmp_path):
        rows = [{"scenario": "flat", "estimator": "conc", "mse_beta": float("nan"),
                 "mse_sigma": float("nan"), "adj_rand": float("nan"),
                 "time_s": float("nan"), "mean_c": float("nan"), "n_failed": 2}]
        p = tmp_path / "study.csv"
        write_study_csv(rows, p)
        assert p.read_text().splitlines()[1] == "flat,conc,nan,nan,nan,nan,nan,2"


class TestPlotData:
    def test_rows_carry_assigned_line(self, small_fit, tmp_path):
        data, spec, fit = small_fit
        p = tmp_path / "plot.csv"
        write_plot_data(data, fit, p)
        lines = p.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["x", "y", "label", "line_intercept", "line_coef_x"]
        assert len(lines) == data.n + 1
        first = lines[1].split(",")
        g = int(first[2])
        assert float(first[3]) == fit.params.coefficients[g, 0]
        assert float(first[4]) == fit.params.coefficients[g, 1]
        assert float(first[0]) == data.design[0, 1]
        assert float(first[1]) == data.responses[0]
