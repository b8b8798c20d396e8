"""The benchmark's workloads.

Each workload turns the benchmark seed into a stream of inputs: operation k
runs on input seed ``seed + STRIDE * k``, so operation 0 uses the seed itself
(the protocol input for the default seeds).  An operation goes through the
public API or the CLI, and its result is reduced to a behaviour fingerprint:
a flat dict compared against stored references with the tolerances below.
Program functions are looked up on their module at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from spans import count_at_best

# Relative tolerance per fingerprint field suffix: |a - b| <= tol * (1 + |b|).
# Log-likelihoods may move in their last digits when the EM arithmetic is
# reordered; parameter errors move more, because the stopping iteration can
# shift.  Counts, exit codes and the CV row pattern must match exactly.
TOLERANCES = {"loglik": 1e-6, "mse_beta": 1e-4, "adj_rand": 1e-9, "selected_c": 1e-9, "mean_c": 1e-9}


STRIDE = 1_000_003


def input_seed(seed: int, k: int) -> int:
    return seed + STRIDE * k


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def compare(fp: dict, ref: dict) -> list[str]:
    """Fields of ``fp`` that disagree with ``ref``; an empty list means a match."""
    problems = []
    for key in sorted(set(fp) | set(ref)):
        if key not in fp or key not in ref:
            problems.append(f"{key}: missing on one side")
            continue
        got, want = fp[key], ref[key]
        tol = TOLERANCES.get(key.rsplit(".", 1)[-1])
        if tol is not None and isinstance(got, float) and isinstance(want, float):
            ok = abs(got - want) <= tol * (1.0 + abs(want))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, want {want!r}")
    return problems


class IrisPool:
    """HetN multi-start pool on iris (G=3), pool size from the bundled presets."""

    name = "iris-pool"
    default_seed = 77
    held_out_seed = 4242

    def __init__(self, seed: int, smoke: bool, workdir: str):
        from clustreg import cli, io

        self.seed = seed
        self.bench = io.load_benchmark("iris")
        self.starts = 5 if smoke else int(cli.load_presets()["iris.starts"])

    def run(self, k: int):
        from clustreg import em

        return em.multi_start_fit(
            self.bench.data, 3, em.ConstraintSpec.heteroscedastic(), em.EmConfig(),
            self.starts, seed=input_seed(self.seed, k), return_all=True,
        )

    def fingerprint(self, raw) -> dict:
        from clustreg import metrics

        winner, outcomes = raw
        fits = [o for o in outcomes if not isinstance(o, Exception)]
        return {
            "loglik": float(winner.loglik),
            "adj_rand": float(metrics.adjusted_rand(self.bench.true_labels, winner.labels)),
            "starts_failed": len(outcomes) - len(fits),
            "starts_degenerate": sum(1 for f in fits if f.degenerate),
            "starts_at_best": count_at_best(
                (winner.loglik, winner.degenerate), [(f.loglik, f.degenerate) for f in fits]),
        }

    def sanity(self, fp: dict) -> list[str]:
        problems = []
        if not math.isfinite(fp["loglik"]):
            problems.append("best log-likelihood is not finite")
        if fp["starts_at_best"] < 1:
            problems.append("no start reached the returned optimum")
        return problems

    @staticmethod
    def setup_script(seed: int) -> str:
        return "import clustreg\nclustreg.io.load_benchmark('iris')\n"


class TemperatureTune:
    """The whole ``clustreg tune`` command on temperature (G=5), in-process."""

    name = "temperature-tune"
    default_seed = 99
    held_out_seed = 4242

    def __init__(self, seed: int, smoke: bool, workdir: str):
        from clustreg import cli

        self.seed = seed
        self.output = os.path.join(workdir, f"temperature-tune-{seed}.json")
        starts = "3" if smoke else cli.load_presets()["temperature.starts"]
        self.args = ["--starts", starts] + (["--cv-repeats", "2"] if smoke else [])

    def run(self, k: int):
        from clustreg import cli

        if os.path.exists(self.output):
            os.remove(self.output)
        return cli.main([
            "tune", "--benchmark", "temperature", "--components", "5", *self.args,
            "--seed", str(input_seed(self.seed, k)), "--output", self.output,
        ])

    def fingerprint(self, raw) -> dict:
        fp = {"exit_code": int(raw)}
        if raw == 0:
            with open(self.output) as fh:
                doc = json.load(fh)
            rows = doc["cv_table"]
            fp.update(
                selected_c=float(doc["selected_c"]),
                loglik=float(doc["loglik"]),
                cv_rows_finite="".join("0" if r["cv_loglik"] is None else "1" for r in rows),
                cv_fallbacks=sum(r["n_fallback"] for r in rows),
            )
        return fp

    def sanity(self, fp: dict) -> list[str]:
        if fp["exit_code"] != 0:
            return [f"clustreg tune exited with {fp['exit_code']}"]
        problems = []
        if "1" not in fp["cv_rows_finite"]:
            problems.append("no finite cross-validation row")
        if not math.isfinite(fp["loglik"]):
            problems.append("final log-likelihood is not finite")
        return problems

    @staticmethod
    def setup_script(seed: int) -> str:
        return "import clustreg.cli\nclustreg.io.load_benchmark('temperature')\n"


# The criterion-6 cell: n=100, G=2, equal mixing, intercepts 4 and 9.
STUDY_CELL = dict(n=100, G=2, mixing=(0.5, 0.5), intercepts=(4.0, 9.0))


class StudyCell:
    """``run_study`` of one replication of a factorial cell, all three estimators."""

    name = "study-cell"
    default_seed = 2026
    held_out_seed = 4242

    def __init__(self, seed: int, smoke: bool, workdir: str):
        from clustreg import simulate, tuning

        self.seed = seed
        self.config = simulate.StudyConfig(
            scenarios=(simulate.ScenarioSpec(**STUDY_CELL),), replications=1, n_starts=10)
        if smoke:
            self.config = dataclasses.replace(
                self.config, n_starts=2, cv=tuning.CvConfig(n_repeats=2, c_grid=(0.01, 0.1, 1.0)))

    def run(self, k: int):
        from clustreg import simulate

        return simulate.run_study(dataclasses.replace(self.config, seed=input_seed(self.seed, k)))

    def fingerprint(self, raw) -> dict:
        fp = {}
        for row in raw:
            est = row["estimator"]
            fp[f"{est}.adj_rand"] = _finite_or_none(row["adj_rand"])
            fp[f"{est}.mean_c"] = _finite_or_none(row["mean_c"])
            fp[f"{est}.mse_beta"] = _finite_or_none(row["mse_beta"])
            fp[f"{est}.n_failed"] = int(row["n_failed"])
        return fp

    def sanity(self, fp: dict) -> list[str]:
        # a replication an estimator fails on is counted by run_study, not an error
        return [
            f"{est}: no ARI although the replication did not fail"
            for est in ("homn", "hetn", "conc")
            if fp[f"{est}.adj_rand"] is None and fp[f"{est}.n_failed"] == 0
        ]

    @staticmethod
    def setup_script(seed: int) -> str:
        # operation 0's replication data, drawn exactly as run_study draws it
        return (
            "import numpy as np\n"
            "import clustreg\n"
            "from clustreg.simulate import ScenarioSpec, draw_scenario\n"
            f"spec = ScenarioSpec(**{STUDY_CELL!r})\n"
            f"ss = np.random.SeedSequence(entropy={seed}, spawn_key=(0, 0))\n"
            "draw_scenario(spec, np.random.default_rng(ss.spawn(1)[0]))\n"
        )


WORKLOADS = {w.name: w for w in (IrisPool, TemperatureTune, StudyCell)}
