"""A/B runs of the benchmark: alternating pairs of a base revision and this
checkout's working tree.

    python3 tools/ab_bench.py --base HEAD --pairs 10 --out BENCH_8.json

Run from the root of a flowlab checkout. The base revision is exported with
`git archive`, and the working tree (tracked and untracked files that git
does not ignore) is copied, into two sibling directories of equal path
length under .bench_build/, so both sides run from fresh, equally long
paths. Each pair runs `perfbench/run.py --workload W --seed 0 --seconds T
--trace 0`, for every workload W of BENCHMARK.json and its run_seconds T,
once on each side, the side that runs first alternating from pair to pair.
The output file holds every run's end-to-end metrics, check counts,
artifact digest and environment (as perfbench records them), and per
workload and metric each side's median and quartiles, the change's wins,
losses and ties over the pairs, and a verdict by the rules below. It is
rewritten after every run.

Verdicts, per workload and metric, with the bound from BENCHMARK.json:
- gain: the change wins at least 9/10 of the pairs and the medians differ
  by more than the base runs' quartile spread;
- regression: the change's median is worse than the base's by more than
  the bound (relative to the base median);
- unresolved: neither, and either side's quartile spread exceeds the bound
  (relative to its median), unless every change run is better than every
  base run;
- within bound: otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SEED = 0


def export_base(rev, dest):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # not a tracked file deleted from the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout, workload, seconds):
    """One perfbench run: its result line plus the record's digest."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((Path(checkout) / ".perfbench_work"
                         / f"{workload}-seed{SEED}-trace0.json").read_text())
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": record["digest"],
            "passes": record["passes"], "wall_s": wall,
            "environment": record["environment"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(runs, metric):
    """Per-side statistics, pair wins and the verdict for one metric."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
    stats = {side: quartiles(values[side]) for side in SIDES}
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(c, b) for b, c in zip(values["base"], values["change"]))
    losses = sum(better(b, c) for b, c in zip(values["base"], values["change"]))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = stats["base"], stats["change"]
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)
    every_run_better = all(better(c, b) for c in values["change"]
                           for b in values["base"])
    if wins >= 0.9 * len(runs) and abs(cmed - bmed) > bq3 - bq1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": bound,
            **{side: {"values": values[side], "q1": stats[side][0],
                      "median": stats[side][1], "q3": stats[side][2]}
               for side in SIDES},
            "median_change": (cmed - bmed) / bmed,
            "wins": wins, "losses": losses,
            "ties": len(runs) - wins - losses, "verdict": verdict}


def summarize(args, bench, runs):
    workloads = {}
    for workload, pairs in runs.items():
        done = [p for p in pairs if all(side in p for side in SIDES)]
        if not done:
            continue
        digests = {side: sorted({p[side]["digest"] for p in done})
                   for side in SIDES}
        workloads[workload] = {
            "pairs": len(done),
            "digests": digests,
            "digests_equal": digests["base"] == digests["change"],
            "failed_checks": {side: sum(p[side]["failed"] for p in done)
                              for side in SIDES},
            "metrics": {m["name"]: compare(done, m)
                        for m in bench["end_to_end"]},
        }
    return {"command": "python3 tools/ab_bench.py " + " ".join(args.argv),
            "base": args.base_commit, "change": "working tree of "
            + args.head_commit, "seed": SEED, "seconds": bench["run_seconds"],
            "workloads": workloads, "runs": runs}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    rev = lambda r: subprocess.run(["git", "rev-parse", r], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    args.base_commit, args.head_commit = rev(args.base), rev("HEAD")
    workloads = [w["name"] for w in bench["workloads"]]

    scratch = ROOT / ".bench_build"
    dirs = {"base": scratch / "base", "change": scratch / "head"}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    export_base(args.base_commit, dirs["base"])
    copy_working_tree(dirs["change"])

    runs = {w: [] for w in workloads}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"pair": i, "order": list(order)}
            runs[workload].append(pair)
            for side in order:
                pair[side] = run_once(dirs[side], workload,
                                      bench["run_seconds"])
                print(f"pair {i} {workload} {side}: " + json.dumps(
                    pair[side]["metrics"]), file=sys.stderr, flush=True)
                Path(args.out).write_text(json.dumps(
                    summarize(args, bench, runs), indent=1) + "\n")
    for workload, report in summarize(args, bench, runs)["workloads"].items():
        for name, m in report["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} "
                  f"({m['median_change']:+.1%}, wins {m['wins']}/"
                  f"{report['pairs']}) {m['verdict']}")
        print(f"{workload} digests equal: {report['digests_equal']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
