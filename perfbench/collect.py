"""Aggregate benchmark run records into one baseline file.

    python3 perfbench/collect.py perfbench/out/*-t0.json perfbench/out/*-t1.json \
        --output perfbench/baseline.json

For every workload and every metric, the record holds the median and the
quartiles over runs (one value per run, as the run reported it), the run
count, and the spread (q3 - q1) / median.  Untraced runs give the end-to-end
metrics, traced runs the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def across_runs(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / med if med else None,
    }


def collect(paths) -> dict:
    records = [json.loads(Path(p).read_text()) for p in paths]
    out = {"machine": records[0]["machine"] if records else None,
           "untraced": {}, "traced": {}}
    groups: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["seed"])
        metrics = {}
        for key, unit in recs[0]["units"].items():
            metrics[key] = {"unit": unit,
                            **across_runs([r["stats"][key]["value"] for r in recs])}
        metrics["host_probe_ms"] = {"unit": "ms",
                                    **across_runs([r["probe_ms"]["median"] for r in recs])}
        out["traced" if trace else "untraced"][workload] = {
            "seconds": recs[0]["seconds"],
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="run records written to perfbench/out/")
    parser.add_argument("--output", help="write here instead of standard output")
    args = parser.parse_args(argv)
    text = json.dumps(collect(args.records), indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
