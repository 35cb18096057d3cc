"""Measure the baseline recorded in perfbench/baseline.json.

    python3 perfbench/baseline.py --sets A,B --seeds 0-9

Run from the root of a flowlab checkout. For each set, in order, and each
workload in BENCHMARK.json, it runs `perfbench/run.py --trace 0` once per
seed, one run at a time; then one `--trace 1` run per workload on the first
seed. Each metric's per-run values are summarised as median, quartiles and
spread ((q3 - q1) / median), the statistic the benchmark's bounds are
judged by. Takes about (sets x seeds + 1) x workloads x run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def run(workload, seed, seconds, trace):
    """One benchmark run in its own process; returns its full record."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{child.stderr}")
    result = json.loads(child.stdout.splitlines()[-1])
    record = json.loads(
        (WORK / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", default="A,B")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    sets = args.sets.split(",")

    workloads = {name: {"passes_per_run": {}, "checks_failed": 0,
                        "checks_attempted": 0, "end_to_end": {}}
                 for name in names}
    environment = None
    for label in sets:
        for name in names:
            out = workloads[name]
            values = {}
            out["passes_per_run"][label] = []
            for seed in args.seeds:
                result, record = run(name, seed, seconds, 0)
                print(f"set {label} {name} seed {seed}: "
                      + json.dumps(result["metrics"]), flush=True)
                environment = record["environment"]
                out["passes_per_run"][label].append(record["passes"])
                out["checks_failed"] += result["failed"]
                out["checks_attempted"] += result["attempted"]
                for key, metric in record["metrics"].items():
                    values.setdefault(key, []).append(metric["median"])
                    out["end_to_end"].setdefault(key, {"unit": metric["unit"]})
                if seed == args.seeds[0]:
                    out["seed0_digest"] = record["digest"]
                    out["seed0_artifacts"] = record["artifacts"]
            for key, runs in values.items():
                out["end_to_end"][key][f"set_{label}"] = summary(runs)
    for name in names:
        _, record = run(name, args.seeds[0], seconds, 1)
        workloads[name]["traced_seed0"] = {
            "passes": record["passes"],
            "traced_passes": record["traced_passes"],
            "digest_equals_untraced":
                record["digest"] == workloads[name]["seed0_digest"],
            "per_layer": {k: {"median": m["median"], "unit": m["unit"]}
                          for k, m in record["metrics"].items()},
        }

    baseline = {
        "about": (
            f"Baseline of perfbench: sets {', '.join(sets)} of "
            f"{len(args.seeds)} --trace 0 runs per workload (seeds "
            f"{args.seeds[0]}-{args.seeds[-1]}, run_seconds {seconds}, "
            "the sets one after the other, each set running the workloads "
            "in turn), each metric's median over timed passes per run, then "
            "the median, quartiles and spread ((q3 - q1) / median) over the "
            "runs of a set; and one --trace 1 run per workload on the first "
            "seed. Digests are for the first seed; they depend on the "
            "machine's BLAS. Written by perfbench/baseline.py."),
        "environment": environment,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
