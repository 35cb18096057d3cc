"""Byte-compare every CLI output and both perfbench digests between a base
revision and this checkout's working tree.

    python3 tools/digests.py --base HEAD~1 [--declared infer-8192.txt ...]

Run from the root of a flowlab checkout. The base revision is exported and
the working tree copied as `tools/ab_bench.py` does it, into two sibling
directories of equal path length under .bench_build/. On each side, under
OPENBLAS_NUM_THREADS=1 and with the same relative output paths, it runs

- `train --method M --iters 200 --seed 0,1` for M in perflow, ota, ota+adv;
- `diagnose --checkpoint` on the ota seed-0 checkpoint;
- `compare-schedulers` and `reproduce-tables`;
- `infer --n 8192` on that checkpoint;
- `perfbench/run.py --seconds 0 --trace 0` for every workload;

and keeps each command's stdout, every file it wrote and each perfbench
artifact digest. The two sides run at once. It prints one line per output,
`equal` or `DIFFERENT`; for a JSON output it names the fields that moved.
It exits 1 when an output not named by --declared differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_bench import ROOT, copy_working_tree, export_base  # noqa: E402

SIDES = {"base": "digests-base", "change": "digests-head"}
OUT = Path("digests-out")  # relative to each side's checkout
CHECKPOINT = str(OUT / "train-ota" / "checkpoint_seed0.json")
CLI = [sys.executable, "-m", "flowlab.cli"]
BENCH = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0",
         "--trace", "0", "--workload"]


def commands(workloads):
    """(name of the kept stdout or None, argv) in run order."""
    for method in ("perflow", "ota", "ota+adv"):
        yield f"train-{method}.stdout", CLI + [
            "train", "--method", method, "--iters", "200", "--seed", "0,1",
            "--out", str(OUT / f"train-{method}")]
    yield "diagnose.stdout", CLI + ["diagnose", "--checkpoint", CHECKPOINT]
    yield "compare-schedulers.stdout", CLI + ["compare-schedulers"]
    yield "reproduce-tables.stdout", CLI + ["reproduce-tables"]
    yield None, CLI + ["infer", "--n", "8192", "--checkpoint", CHECKPOINT,
                       "--out", str(OUT / "infer-8192.txt")]
    for workload in workloads:
        yield None, BENCH + [workload]


def run_side(checkout, workloads):
    """Run every command in checkout; {output name: bytes}."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    (checkout / OUT).mkdir()
    for kept, argv in commands(workloads):
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                              timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed in {checkout}:\n"
                               + proc.stderr.decode())
        if kept:
            (checkout / OUT / kept).write_bytes(proc.stdout)
    outputs = {path.relative_to(checkout / OUT).as_posix(): path.read_bytes()
               for path in sorted((checkout / OUT).rglob("*"))
               if path.is_file()}
    for workload in workloads:
        record = checkout / ".perfbench_work" / f"{workload}-seed0-trace0.json"
        outputs[f"perfbench {workload} digest"] = json.loads(
            record.read_text())["digest"].encode()
    return outputs


def flatten(value, prefix=""):
    """{dotted path: leaf} of a parsed JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def moved_fields(a: bytes, b: bytes):
    """Dotted paths of the fields that differ, or None unless both parse
    as JSON."""
    try:
        fa, fb = flatten(json.loads(a)), flatten(json.loads(b))
    except ValueError:
        return None
    return sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare")
    parser.add_argument("--declared", nargs="*", default=[],
                        help="outputs allowed to differ")
    args = parser.parse_args(argv)
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    workloads = [w["name"] for w in bench["workloads"]]

    dirs = {side: ROOT / ".bench_build" / name for side, name in SIDES.items()}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    export_base(base, dirs["base"])
    copy_working_tree(dirs["change"])
    with ThreadPoolExecutor(len(dirs)) as pool:
        futures = {side: pool.submit(run_side, d, workloads)
                   for side, d in dirs.items()}
        outputs = {side: f.result() for side, f in futures.items()}

    undeclared = 0
    for name in sorted(outputs["base"].keys() | outputs["change"].keys()):
        a, b = outputs["base"].get(name), outputs["change"].get(name)
        if a == b:
            print(f"equal      {name}")
            continue
        if a is None or b is None:
            detail = f" (only in {'change' if a is None else 'base'})"
        else:
            fields = moved_fields(a, b)
            detail = f" (fields: {', '.join(fields)})" if fields else ""
        declared = name in args.declared
        undeclared += not declared
        print(f"DIFFERENT  {name}{detail}"
              + (" [declared]" if declared else ""))
    print(f"{undeclared} undeclared difference(s) against {base[:12]}")
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
