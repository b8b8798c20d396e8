import json
import os

import numpy as np
import pytest

from clustreg import Dataset, EmConfig
from clustreg.cli import (
    EXIT_DEGENERATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    load_presets,
    main,
)
from clustreg.io import CsvFormatError, CsvSchema, read_labels, write_csv
from clustreg.tuning import _estimate_target
from conftest import make_two_line_data


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lines.csv"
    data, _, _ = make_two_line_data(seed=80, n=60)
    write_csv(Dataset(data.responses, data.design, ("intercept", "x")), path)
    return path


def run(argv):
    return main(argv)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_flag(self, data_csv, capsys):
        code = run(["fit", "--input", str(data_csv), "--response", "y",
                    "--regressors", "x", "--variant", "hetn",
                    "--output", "out.json"])  # no --components
        assert code == EXIT_USAGE

    def test_c_with_non_conc_variant(self, data_csv, tmp_path, capsys):
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "hetn",
            "--c", "0.5", "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("args, message", [
        (["fit", "--variant", "hetn", "--components", "0"], "G must be >= 1"),
        (["tune", "--components", "0"], "G must be >= 1"),
        (["fit", "--variant", "hetn", "--components", "2", "--tol", "nan"],
         "tolerance must be positive"),
    ], ids=["fit-G0", "tune-G0", "tol-nan"])
    def test_bad_em_arguments(self, data_csv, tmp_path, capsys, args, message):
        out = tmp_path / "o.json"
        code = run([*args, "--input", str(data_csv), "--response", "y", "--regressors", "x",
                    "--starts", "3", "--output", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_conc_without_c(self, data_csv, tmp_path):
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "conc",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE

    def test_missing_input_file(self, tmp_path, capsys):
        code = run([
            "fit", "--input", str(tmp_path / "absent.csv"), "--response", "y",
            "--components", "2", "--variant", "hetn",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE

    def test_bad_cell_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\noops,4\n")
        code = run([
            "fit", "--input", str(p), "--response", "y", "--regressors", "x",
            "--components", "1", "--variant", "hetn",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    def test_not_utf8_input_named(self, tmp_path, capsys):
        p = tmp_path / "utf16.csv"
        p.write_bytes(b"\xff\xfex,y\n1,2\n")
        code = run([
            "fit", "--input", str(p), "--response", "y", "--regressors", "x",
            "--components", "1", "--variant", "hetn",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {p}: not valid UTF-8")

    def test_short_benchmark_row_reports_line(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("temperature,latitude,longitude\n30,40,80\n31,41\n")
        code = run([
            "fit", "--benchmark", "temperature", "--input-path", str(p),
            "--components", "1", "--variant", "hetn",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert "line 3" in err


class TestFit:
    def test_hetn_fit_writes_json(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "hetn",
            "--starts", "3", "--output", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["variant"] == "hetn"
        assert doc["G"] == 2
        assert doc["converged"]
        est = sorted(round(c[0]) for c in doc["coefficients"])
        assert est == [-1, 2]

    def test_repeat_run_byte_identical(self, data_csv, tmp_path):
        args = [
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "homn",
            "--starts", "3", "--seed", "7",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", str(a)]) == EXIT_OK
        assert run(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_conc_with_explicit_c_and_target(self, data_csv, tmp_path):
        out = tmp_path / "conc.json"
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "conc",
            "--c", "0.5", "--target", "0.2", "--starts", "3",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["c"] == 0.5
        assert doc["target_variance"] == 0.2
        v = doc["variances"]
        assert min(v) / max(v) >= 0.5 - 1e-12

    def test_conc_default_target_from_homn(self, data_csv, tmp_path):
        out = tmp_path / "conc2.json"
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "conc",
            "--c", "0.5", "--starts", "3", "--output", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["target_variance"] > 0

    def test_conc_default_target_is_tune_estimate(self, data_csv, tmp_path):
        # fit and tune derive the clamp target from the same seeded pool
        out = tmp_path / "conc3.json"
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "conc",
            "--c", "0.5", "--starts", "3", "--seed", "6", "--output", str(out),
        ])
        assert code == EXIT_OK
        data, _, _ = make_two_line_data(seed=80, n=60)
        want = _estimate_target(data, 2, 6, EmConfig(), 3)
        assert json.loads(out.read_text())["target_variance"] == want

    def test_plot_data_emit(self, data_csv, tmp_path):
        out = tmp_path / "plot.csv"
        code = run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "hetn",
            "--starts", "3", "--emit", "plot-data", "--output", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label,line_intercept,line_coef_x"
        assert len(lines) == 61

    def test_degenerate_exit_code(self, tmp_path, capsys):
        # exact duplicate points on a line plus scatter invite collapse with
        # many heteroscedastic starts and components
        rng = np.random.default_rng(81)
        x = np.concatenate([[0.0, 1.0], rng.uniform(-3, 3, 28)])
        y = np.concatenate([[0.0, 1.0], rng.normal(0, 3, 28)])
        p = tmp_path / "collapse.csv"
        p.write_text(
            "x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
        )
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--input", str(p), "--response", "y", "--regressors", "x",
            "--components", "5", "--variant", "hetn", "--starts", "8",
            "--output", str(out),
        ])
        if code == EXIT_DEGENERATE:
            assert capsys.readouterr().err.startswith("warn:")
            assert json.loads(out.read_text())["degenerate"]
        else:
            assert code == EXIT_OK  # collapse is likely but not guaranteed


class TestNumericalFailure:
    """Fits that break down numerically exit 2 and write nothing."""

    @staticmethod
    def csv(tmp_path, responses):
        data, _, _ = make_two_line_data(seed=26, n=40)
        path = tmp_path / "data.csv"
        write_csv(Dataset(responses(data), data.design, ("intercept", "x")), path)
        return path

    @pytest.mark.parametrize("variant", [
        ["fit", "--variant", "hetn"],
        ["fit", "--variant", "homn"],
        ["fit", "--variant", "conc", "--c", "0.5"],
        ["tune"],
    ], ids=["hetn", "homn", "conc", "tune"])
    def test_flat_response(self, tmp_path, capsys, variant):
        # a constant 0.1 leaves rounding residuals: without the check, tune
        # reported a converged fit with variances ~1e-33
        path = self.csv(tmp_path, lambda d: np.full(d.n, 0.1))
        out = tmp_path / "fit.json"
        code = run([*variant, "--input", str(path), "--response", "y", "--regressors", "x",
                    "--components", "2", "--starts", "3", "--output", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: numerical failure: responses have no spread (max == min)\n"
        assert not out.exists()

    def test_invariant_failure_inside_em(self, tmp_path, capsys):
        path = self.csv(tmp_path, lambda d: d.responses * 1e-200)
        code = run(["fit", "--variant", "hetn", "--input", str(path), "--response", "y",
                    "--regressors", "x", "--components", "2", "--starts", "3",
                    "--output", str(tmp_path / "fit.json")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: numerical failure: variances must be strictly positive\n"


class TestDegenerate:
    @pytest.mark.parametrize("variant", [
        ["fit", "--variant", "hetn"],
        ["fit", "--variant", "homn"],
        ["fit", "--variant", "conc", "--c", "0.5"],
        ["tune"],
    ], ids=["hetn", "homn", "conc", "tune"])
    def test_exact_linear_response(self, tmp_path, capsys, variant):
        # a noise-free line: every variant's variances collapse to ~1e-34
        path = TestNumericalFailure.csv(tmp_path, lambda d: 0.1 + 0.3 * d.design[:, 1])
        out = tmp_path / "fit.json"
        code = run([*variant, "--input", str(path), "--response", "y", "--regressors", "x",
                    "--components", "2", "--starts", "3", "--output", str(out)])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err == "warn: best fit is degenerate (a component variance collapsed)\n"
        assert json.loads(out.read_text())["converged"] is False


class TestTune:
    def test_tune_writes_cv_table(self, data_csv, tmp_path):
        out = tmp_path / "tuned.json"
        code = run([
            "tune", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--starts", "3",
            "--cv-repeats", "3", "--c-grid", "0.01,0.1,1.0",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["variant"] == "conc"
        assert [row["c"] for row in doc["cv_table"]] == [0.01, 0.1, 1.0]
        assert doc["selected_c"] in (0.01, 0.1, 1.0)
        assert doc["c"] == doc["selected_c"]

    def test_tune_deterministic(self, data_csv, tmp_path):
        args = [
            "tune", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--starts", "2",
            "--cv-repeats", "2", "--c-grid", "0.1,1.0", "--seed", "3",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", str(a)]) == EXIT_OK
        assert run(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_study_csv(self, tmp_path):
        scenario_file = tmp_path / "study.json"
        scenario_file.write_text(json.dumps({
            "scenarios": [
                {"n": 60, "G": 2, "mixing": [0.5, 0.5],
                 "intercepts": [0.0, 10.0], "n_regressors": 1},
            ],
            "replications": 2,
            "n_starts": 2,
            "estimators": ["hetn", "homn"],
            "cv": {"n_repeats": 2, "c_grid": [0.1, 1.0]},
            "seed": 5,
        }))
        out = tmp_path / "study.csv"
        code = run(["simulate", "--scenario-file", str(scenario_file),
                    "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario,estimator,")
        assert len(lines) == 3

    def test_bad_scenario_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"scenarios": [{"n": 60}]}))
        code = run(["simulate", "--scenario-file", str(p),
                    "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    SCENARIO = {"n": 60, "G": 2, "mixing": [0.5, 0.5], "intercepts": [0, 5]}

    @pytest.mark.parametrize("doc, field", [
        ({"scenarios": 5}, "field 'scenarios'"),
        ({"scenarios": [5]}, "scenarios[0]"),
        ({"scenarios": [SCENARIO], "cv": 3}, "field 'cv'"),
        ([1, 2], "top level"),
        ({}, "field 'scenarios'"),
        ({"scenarios": [{"n": 60}]}, "scenarios[0]"),
        ({"scenarios": [SCENARIO], "cv": {"c_grid": 5}}, "field 'cv'"),
        ({"scenarios": [SCENARIO], "replications": 0}, "the top level"),
    ], ids=["scenarios-int", "scenario-int", "cv-int", "top-level-list", "empty",
            "scenario-missing-fields", "c-grid-int", "zero-replications"])
    def test_malformed_scenario_file_named(self, tmp_path, capsys, doc, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code = run(["simulate", "--scenario-file", str(p),
                    "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert str(p) in err and field in err

    def test_invalid_json_names_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"scenarios": [')
        code = run(["simulate", "--scenario-file", str(p),
                    "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not valid JSON:") and "\n" not in err.strip()


class TestEvaluate:
    @pytest.fixture()
    def stored_fit(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert run([
            "fit", "--input", str(data_csv), "--response", "y",
            "--regressors", "x", "--components", "2", "--variant", "hetn",
            "--starts", "3", "--output", str(out),
        ]) == EXIT_OK
        return out

    def test_truth_metrics_and_bic(self, stored_fit, tmp_path, capsys):
        truth_file = tmp_path / "truth.json"
        truth_file.write_text(json.dumps({
            "weights": [0.5, 0.5],
            "coefficients": [[2.0, 3.0], [-1.0, -2.0]],
            "variances": [0.09, 0.25],
        }))
        code = run(["evaluate", "--fit", str(stored_fit), "--truth", str(truth_file)])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["mse_beta"] < 0.05
        assert "bic" in out

    def test_labels_from_csv(self, stored_fit, tmp_path, capsys):
        doc = json.loads(stored_fit.read_text())
        labels_file = tmp_path / "labels.csv"
        labels_file.write_text("cluster\n" + "\n".join(str(v) for v in doc["labels"]) + "\n")
        code = run(["evaluate", "--fit", str(stored_fit),
                    "--labels", f"{labels_file}:cluster"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["adj_rand"] == 1.0

    def test_short_labels_row_reports_line(self, stored_fit, tmp_path, capsys):
        labels_file = tmp_path / "labels.csv"
        labels_file.write_text("cluster,weight\n0,1\n1\n")
        code = run(["evaluate", "--fit", str(stored_fit),
                    "--labels", f"{labels_file}:cluster"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert "line 3" in err

    def test_unknown_label_column_named(self, stored_fit, tmp_path, capsys):
        labels_file = tmp_path / "labels.csv"
        labels_file.write_text("cluster\n0\n1\n")
        code = run(["evaluate", "--fit", str(stored_fit),
                    "--labels", f"{labels_file}:zz"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert "label column 'zz' not found" in err
        with pytest.raises(CsvFormatError, match="'zz'"):
            read_labels(labels_file, "zz")

    @pytest.mark.parametrize("doc, field", [
        ([], "top level"),
        ({}, "field 'weights'"),
        ({"weights": "abc", "coefficients": [[0.0, 1.0]], "variances": [1.0]}, "field 'weights'"),
    ], ids=["top-level-list", "empty", "weights-string"])
    def test_malformed_fit_file_named(self, tmp_path, capsys, doc, field):
        p = tmp_path / "fit.json"
        p.write_text(json.dumps(doc))
        assert run(["evaluate", "--fit", str(p), "--benchmark", "iris"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert str(p) in err and field in err

    def test_truth_without_coefficients_named(self, stored_fit, tmp_path, capsys):
        truth_file = tmp_path / "truth.json"
        truth_file.write_text(json.dumps({"weights": [0.5, 0.5], "variances": [0.09, 0.25]}))
        code = run(["evaluate", "--fit", str(stored_fit), "--truth", str(truth_file)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert str(truth_file) in err and "field 'coefficients'" in err

    def test_no_metric_requested(self, stored_fit, capsys):
        assert run(["evaluate", "--fit", str(stored_fit)]) == EXIT_USAGE

    def test_output_file(self, stored_fit, tmp_path):
        labels_file = tmp_path / "labels.csv"
        doc = json.loads(stored_fit.read_text())
        labels_file.write_text("cluster\n" + "\n".join(str(v) for v in doc["labels"]) + "\n")
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--fit", str(stored_fit),
                    "--labels", f"{labels_file}:cluster", "--output", str(out)])
        assert code == EXIT_OK
        assert "adj_rand" in json.loads(out.read_text())


class TestUnwritableOutput:
    """An output that cannot be written is one error line naming it, exit 1, no temp file."""

    @pytest.fixture(params=["missing-directory", "is-a-directory"])
    def output(self, request, tmp_path):
        if request.param == "is-a-directory":
            (tmp_path / "out").mkdir()
            return tmp_path / "out"
        return tmp_path / "missing" / "out"

    def check(self, argv, output, capsys):
        assert run(argv + ["--output", str(output)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {output}:") and "\n" not in err.strip()
        assert ".tmp-" not in err
        if output.parent.exists():  # where a temporary file would be made
            assert [f for f in os.listdir(output.parent) if f.startswith(".tmp-")] == []

    @pytest.mark.parametrize("emit", ["json", "plot-data"])
    def test_fit(self, data_csv, output, capsys, emit):
        self.check(["fit", "--input", str(data_csv), "--response", "y", "--regressors", "x",
                    "--components", "2", "--variant", "hetn", "--starts", "2",
                    "--emit", emit], output, capsys)

    def test_tune(self, data_csv, output, capsys):
        self.check(["tune", "--input", str(data_csv), "--response", "y", "--regressors", "x",
                    "--components", "2", "--starts", "2", "--cv-repeats", "2",
                    "--c-grid", "0.1,1.0"], output, capsys)

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_simulate(self, tmp_path, output, capsys, emit):
        scenario_file = tmp_path / "study.json"
        scenario_file.write_text(json.dumps({
            "scenarios": [{"n": 40, "G": 2, "mixing": [0.5, 0.5], "intercepts": [0.0, 10.0]}],
            "replications": 1, "n_starts": 2, "estimators": ["homn"],
        }))
        self.check(["simulate", "--scenario-file", str(scenario_file), "--emit", emit],
                   output, capsys)

    def test_evaluate(self, data_csv, tmp_path, output, capsys):
        fit_file = tmp_path / "fit.json"
        assert run(["fit", "--input", str(data_csv), "--response", "y", "--regressors", "x",
                    "--components", "2", "--variant", "hetn", "--starts", "2",
                    "--output", str(fit_file)]) == EXIT_OK
        truth_file = tmp_path / "truth.json"
        truth_file.write_text(json.dumps({
            "weights": [0.5, 0.5], "coefficients": [[2.0, 3.0], [-1.0, -2.0]],
            "variances": [0.09, 0.25],
        }))
        self.check(["evaluate", "--fit", str(fit_file), "--truth", str(truth_file)],
                   output, capsys)


class TestPresets:
    def test_benchmark_protocol_constants(self):
        presets = load_presets()
        assert presets["ceo.starts"] == "50"
        assert presets["temperature.starts"] == "100"
        assert presets["iris.starts"] == "500"
        assert float(presets["cv.test_fraction"]) == 0.1
        assert presets == {"ceo.starts": "50", "temperature.starts": "100",
                           "iris.starts": "500", "cv.test_fraction": "0.1"}
