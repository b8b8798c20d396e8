import json

import numpy as np
import pytest

from clustreg import Dataset, EmConfig
from clustreg.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    load_presets,
    main,
)
from clustreg.io import CsvSchema, write_csv
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


class TestPresets:
    def test_benchmark_protocol_constants(self):
        presets = load_presets()
        assert presets["ceo.starts"] == "50"
        assert presets["temperature.starts"] == "100"
        assert presets["iris.starts"] == "500"
        assert float(presets["cv.test_fraction"]) == 0.1
