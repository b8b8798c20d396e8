"""clustreg benchmark: three fixed workloads, end-to-end timings checked
against behaviour fingerprints, and a traced per-layer breakdown.

Run from the repository root (the one holding ``src/clustreg``):

    python3 perfbench/run.py --workload iris-pool --seed 77 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each run is closed-loop, single-process and single-threaded: operations run
back to back while the next one is expected to end within ``--seconds``
(at least one runs).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  The last line of standard
output is one JSON object; the full record, including the machine, the host
speed probe and every sample, goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Runs in a fresh interpreter: argv[1] is the source directory, the workload's
# set-up follows, and "ready" marks the moment its inputs exist.
SETUP_HEADER = "import sys\nsys.path.insert(0, sys.argv[1])\n"
SETUP_FOOTER = "print('ready', flush=True)\n"


def host_probe_ms() -> float:
    """Fixed pure-NumPy loop that does not touch clustreg; reports host speed."""
    import numpy as np

    a = np.arange(256.0)
    t0 = time.perf_counter()
    for _ in range(1000):
        np.sqrt(a * a + 1.0).sum()
    return (time.perf_counter() - t0) * 1e3


def machine_record(inherited_threads) -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "CLUSTREG_THREADS": inherited_threads,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(workload, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until the workload's inputs are ready."""
    script = SETUP_HEADER + workload.setup_script(seed) + SETUP_FOOTER
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", script, str(SRC)], stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload.name} failed (exit {proc.returncode})")
    return elapsed


def summary(values, center=statistics.median) -> dict:
    """``value`` is the reported figure; quartiles and count describe the samples."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return {"value": center(values), "median": med, "q1": q1, "q3": q3, "n": len(values)}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed: int, seconds: float, trace: bool, smoke: bool,
                 references: dict, units: dict, setup_reps: int = SETUP_REPS):
        self.cls = workload_cls
        self.units = units
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.setup_reps = setup_reps
        ref_set = references.get("smoke" if smoke else "full", {})
        self.references = ref_set.get(workload_cls.name, {}).get(str(seed), [])
        self.ops = []          # one dict per operation
        self.probe = []

    def check(self, wl, k: int, fp) -> list[str]:
        from workloads import compare

        problems = wl.sanity(fp)
        if k < len(self.references):
            problems += [f"reference: {p}" for p in compare(fp, self.references[k])]
        for op in self.ops:
            if op["input"] == k and op["fingerprint"] is not None:
                problems += [f"repeat: {p}" for p in compare(fp, op["fingerprint"])]
                break
        return problems

    def one_op(self, wl, k: int, tracer=None):
        self.probe.append(host_probe_ms())
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = tracer.traced(lambda: wl.run(k)) if tracer is not None else wl.run(k)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        fp, problems = None, []
        if error is None:
            fp = wl.fingerprint(raw)
            problems = self.check(wl, k, fp)
        else:
            problems = [error]
        self.ops.append({"input": k, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
                         "fingerprint": fp, "problems": problems})

    def execute(self, workdir: str) -> dict:
        import spans

        setup = [time_setup(self.cls, self.seed) for _ in range(self.setup_reps)]
        # warm-up at smoke size on the protocol seed (which is known to fit),
        # so lazy imports and first-call costs are paid before timing
        self.cls(self.cls.default_seed, True, workdir).run(0)
        wl = self.cls(self.seed, self.smoke, workdir)
        tracer = spans.Tracer() if self.trace else None
        # Untraced runs walk the input stream; traced runs alternate untraced
        # and traced operations on input 0, so counts must repeat exactly.
        # Another round only if it is expected to end within the budget, so a
        # run lasts at most --seconds (or one round, if that is longer).
        t_start = time.perf_counter()
        for k in itertools.count():
            t_round = time.perf_counter()
            if tracer is None:
                self.one_op(wl, k)
            else:
                self.one_op(wl, 0)
                self.one_op(wl, 0, tracer)
            now = time.perf_counter()
            if (now - t_start) + (now - t_round) > self.seconds:
                break
        self.probe.append(host_probe_ms())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        untraced = [op for op in self.ops if not op["traced"]]
        traced = [op for op in self.ops if op["traced"]]
        layers = [tracer.layer_metrics(i) for i in range(len(traced))] if tracer else []
        # every traced operation is identical, so its counts must repeat exactly
        counts = {k: v for k, v in layers[0].items() if isinstance(v, int)} if layers else {}
        for op, other in zip(traced[1:], layers[1:]):
            drift = [k for k in counts if other[k] != counts[k]]
            if drift:
                op["problems"].append(f"trace counts differ: {drift}")
        failed = sum(1 for op in self.ops if op["problems"])
        # Operation times are averaged over the run, not their median taken:
        # host speed phases last longer than one operation, and the mean
        # weighs the whole measured window.
        stats = {
            "wall_s": summary((op["wall_s"] for op in untraced), statistics.fmean),
            "cpu_s": summary((op["cpu_s"] for op in untraced), statistics.fmean),
            "setup_s": summary(setup),
            "peak_rss_mb": summary([peak_rss_mb]),
            "failed_frac": summary([failed / len(self.ops)]),
        }
        if tracer is not None:
            for key in layers[0]:
                stats[key] = summary([counts[key]] if key in counts else [m[key] for m in layers])
            overhead = (statistics.median(op["wall_s"] for op in traced)
                        / statistics.median(op["wall_s"] for op in untraced) - 1.0)
            stats["trace.overhead_frac"] = summary([overhead])
            tracer.write(OUT_DIR / f"spans-{self.cls.name}-s{self.seed}.npz")
        return {
            "workload": self.cls.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "smoke": self.smoke,
            "references_checked": sum(1 for op in self.ops if op["input"] < len(self.references)),
            "attempted": len(self.ops),
            "failed": failed,
            "stats": stats,
            "units": {key: self.units[key] for key in stats},
            "probe_ms": summary(self.probe),
            "probe_samples_ms": self.probe,
            "setup_samples_s": setup,
            "ops": self.ops,
            "missing_trace_targets": tracer.missing if tracer is not None else [],
        }


def result_line(record: dict, spec: dict) -> dict:
    """The final JSON line: the metrics BENCHMARK.json declares, each with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": record["stats"][m["name"]]["value"], "unit": m["unit"]}
               for m in spec[kind]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_report(record: dict, machine: dict) -> None:
    m = machine
    print(f"clustreg benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}"
          f"{' smoke' if record['smoke'] else ''}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"CLUSTREG_THREADS={m['CLUSTREG_THREADS'] or 'unset'}")
    p = record["probe_ms"]
    print(f"host probe (not a gated metric): median {p['median']:.3f} ms, "
          f"q1 {p['q1']:.3f}, q3 {p['q3']:.3f}, n={p['n']}")
    print(f"operations checked against a stored reference: {record['references_checked']} "
          f"of {record['attempted']} (all get sanity checks)")
    print(f"{'metric':40s} {'value':>14s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit")
    for key, s in record["stats"].items():
        print(f"{key:40s} {s['value']:14.6g} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:4d}  "
              f"{record['units'][key]}")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            print(f"op {i}: {problem}")


def setup_environment():
    """Single-threaded BLAS, no clustreg thread pool, package from ./src."""
    inherited = os.environ.pop("CLUSTREG_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return inherited


def metric_units(spec: dict) -> dict:
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    units["failed_frac"] = "ratio"
    return units


def smoke(machine, spec) -> int:
    """Every workload at a tiny size: every metric produced, wrong references caught."""
    import workloads

    references = load_references()
    failures = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for cls in workloads.WORKLOADS.values():
            seed = cls.default_seed
            for trace in (False, True):
                run = Run(cls, seed, 0, trace, True, references, metric_units(spec), setup_reps=1)
                record = run.execute(workdir)
                print_report(record, machine)
                kind = "per_layer" if trace else "end_to_end"
                missing = [m["name"] for m in spec[kind] if m["name"] not in record["stats"]]
                if missing:
                    failures.append(f"{cls.name}: metrics not produced: {missing}")
                    continue
                line = result_line(record, spec)
                print(json.dumps(line))
                bad = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
                if bad:
                    failures.append(f"{cls.name}: non-finite metrics {bad}")
                if not record["references_checked"]:
                    failures.append(f"{cls.name}: no smoke reference for seed {seed}")
                if record["failed"]:
                    failures.append(f"{cls.name} (trace={int(trace)}): {record['failed']} failed operations")
                if record["missing_trace_targets"]:
                    failures.append(f"{cls.name}: trace targets missing {record['missing_trace_targets']}")
            # a deliberately wrong reference must be caught, field by field
            fp = record["ops"][0]["fingerprint"]
            for key, value in fp.items():
                wrong = dict(fp)
                wrong[key] = _perturb(value)
                if not workloads.compare(fp, wrong):
                    failures.append(f"{cls.name}: wrong reference for {key} not caught")
    for f in failures:
        print(f"SMOKE FAIL: {f}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def _perturb(value):
    if value is None:
        return 1.0
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1e-3 * (1.0 + abs(value))
    return value + "x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="iris-pool, temperature-tune or study-cell")
    parser.add_argument("--seed", type=int, help="default: the workload's protocol seed")
    parser.add_argument("--seconds", type=float,
                        help="measuring budget; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the harness itself")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "clustreg" / "__init__.py").is_file():
        print(f"error: no clustreg package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    inherited = setup_environment()
    import workloads

    machine = machine_record(inherited)
    OUT_DIR.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(machine, spec)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        run = Run(cls, seed, seconds, bool(args.trace), False, load_references(), metric_units(spec))
        record = run.execute(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine
    out_path = OUT_DIR / f"{cls.name}-s{seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, machine)
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
