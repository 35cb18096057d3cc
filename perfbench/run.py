"""flowlab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload adv-analytic --seed 0 --seconds 60 --trace 0

Run from the root of a flowlab checkout; flowlab is imported from its `src/`.
The run times flowlab's import in a few fresh interpreters, makes one
warm-up pass (set-up, then the workload's round of cli calls), then repeats
timed passes until `--seconds` have elapsed, and reports medians over the
timed passes. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates traced and untraced passes and reports the
per-layer metrics of the traced ones. Human-readable lines come first; the
last line of stdout is the JSON result. A full record (environment, every
pass, quartiles, artifact digests) and the spans of the last traced pass are
written under `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters that time flowlab's import; setup_s takes their median,
# because one import per run was the noisiest part of set-up
IMPORT_REPEATS = 5
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit, in the JSON result). Metrics left out of the result can be 0
# on some workload, which the result format does not allow; they are still
# printed and recorded.
END_TO_END = (
    ("setup_s", "s", True),
    ("run_s", "s", True),
    ("ota_ms_per_iter", "ms", True),
    ("peak_rss_mb", "MB", True),
    ("w2", "data-units", True),
    ("perflow_ms_per_iter", "ms", False),
    ("ota_adv_ms_per_iter", "ms", False),
    ("fail_ratio", "ratio", False),
)

_CALLS_AND_SELF = (
    "netcore.forward", "netcore.backward", "netcore.adam_step",
    "flow.learned_field", "flow.solve_on_grid",
    "distill.sample_training_batch", "distill.distill_grads",
    "distill.infer_few_step", "distill.train_student",
    "diag.energy_permutation_test", "diag.w2_exact_small",
)
# spans that do not run on every workload: their call counts go in the
# result, their self times only in the printed lines and the record
_CALLS_ONLY = (
    "netcore.forward_with_hidden", "flow.analytic_velocity",
    "flow.train_flow_matching", "adv.train_adversarial",
    "adv.trajectory_states", "diag.teacher_trajectory_divergence",
    "diag.expected_velocity_residual", "cli.diagnose",
)
_SELF_ONLY = ("netcore.save_params", "diag.interstage_distance",
              "cli.run_experiment")

PER_LAYER = (
    tuple((f"{s}.calls", "count", True) for s in _CALLS_AND_SELF + _CALLS_ONLY)
    + tuple((f"{s}.self_s", "s", True) for s in _CALLS_AND_SELF + _SELF_ONLY)
    + tuple((f"{s}.self_s", "s", False) for s in _CALLS_ONLY)
    + (
        ("flow.analytic_velocity.rows", "count", True),
        ("distill.teacher_nfe_per_iter", "nfe/iter", True),
        ("adv.teacher_nfe_per_iter", "nfe/iter", True),
        ("adv.disc_passes_per_iter", "passes/iter", True),
        ("netcore.checkpoint_bytes", "bytes", True),
        ("diag.energy_matrix_bytes", "bytes-computed", True),
        ("cli.artifact_bytes", "bytes", True),
        ("sched.calls", "count", True),
        ("sched.self_s", "s", True),
        ("trace.overhead_s", "s", True),
    ))

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass
class Pass:
    traced: bool
    setup_s: float
    run_s: float
    calls: list
    checks: list                   # (label, ok)
    digest: str
    files: dict                    # relative path -> sha256
    artifact_bytes: int
    layers: dict = field(default_factory=dict)


def import_seconds(repeats):
    """Seconds to import flowlab in each of `repeats` fresh interpreters,
    timed inside the child, one child at a time."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import flowlab; "
            "print(repr(time.perf_counter() - start))")
    times = []
    for _ in range(repeats):
        child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(child.stdout.split()[-1]))
    return times


def import_flowlab():
    """Import flowlab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flowlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flowlab sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("flowlab")
    if Path(package.__file__).resolve().parent != (src / "flowlab").resolve():
        raise SystemExit(f"perfbench: imported flowlab from {package.__file__}")
    return package


# --- output checks


def _numbers(obj, key=None):
    """(key, number) pairs under obj, skipping the embedded config text."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k != "config":
                yield from _numbers(v, k)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v, key)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, obj


def _without_config(obj):
    if isinstance(obj, dict):
        return {k: _without_config(v) for k, v in obj.items() if k != "config"}
    if isinstance(obj, list):
        return [_without_config(v) for v in obj]
    return obj


def check_calls(setup, calls):
    checks = [("reproduce_tables", setup.tables_ok)]
    for call in calls:
        if call.entry == "run_experiment":
            config = setup.configs[call.method]
            for seed in config.seeds:
                row = call.output["seeds"].get(str(seed), {})
                checks.append((f"{call.method}/seed{seed}/status",
                               row.get("status") == "ok"))
        values = list(_numbers(call.output))
        checks.append((f"{call.entry}/{call.method}/finite",
                       all(math.isfinite(v) for _, v in values)))
        checks.append((f"{call.entry}/{call.method}/p_values",
                       all(0.0 < v <= 1.0 for k, v in values
                           if k in ("p_value", "energy_p_value"))))
        if call.entry == "diagnose" and setup.configs["ota"].teacher == "analytic":
            # the exact field satisfies E[v] = -mu_data at every sigma
            checks.append(("diagnose/first_moment", all(
                r["residual"] <= 5.0 * r["se"]
                for r in call.output["velocity_residuals"].values())))
    return checks


def w2_values(calls):
    """Every W2 the workload's outputs report."""
    values = []
    for call in calls:
        if call.entry == "compare_schedulers":
            values += [v for _, v in _numbers(call.output["steps"])]
        else:
            values += [v for k, v in _numbers(call.output) if k == "w2"]
    return values


def digest_artifacts(work, calls):
    """sha256 of every checkpoint, loss CSV and sample set (summary.json
    embeds absolute paths and is left out) and of the reports' numbers."""
    files = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "summary.json":
            files[str(path.relative_to(work))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    reports = json.dumps([_without_config(c.output) for c in calls],
                         sort_keys=True)
    combined = hashlib.sha256(
        (json.dumps(files, sort_keys=True) + reports).encode()).hexdigest()
    return combined, files


# --- passes


def run_pass(package, fl, workload, work, tracer=None):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    before = tracing.bindings(package)
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        with span("bench.setup"):
            setup = workload.setup(fl, work)
        mid = time.perf_counter()
        with span("bench.round"):
            calls = workload.round(fl, work, setup)
        end = time.perf_counter()
    checks = check_calls(setup, calls)
    if tracer is not None:
        after = tracing.bindings(package)
        checks.append(("trace/wrappers_restored", after.keys() == before.keys()
                       and all(after[k] is v for k, v in before.items())))
    digest, files = digest_artifacts(work, calls)
    checkpoints = {Path(p).resolve() for p in setup.checkpoints}
    artifact_bytes = sum(p.stat().st_size for p in work.rglob("*")
                         if p.is_file() and p.resolve() not in checkpoints)
    result = Pass(tracer is not None, mid - start, end - mid, calls, checks,
                  digest, files, artifact_bytes)
    if tracer is not None:
        result.layers = layer_metrics(tracer, result)
    return result


def layer_metrics(tracer, p):
    summary = tracer.summary()
    counters = tracer.counters
    out = {}
    for name in _CALLS_AND_SELF + _CALLS_ONLY + _SELF_ONLY:
        calls, _, own = summary.get(name, (0, 0.0, 0.0))
        if name not in _SELF_ONLY:
            out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    out["flow.analytic_velocity.rows"] = counters["flow.analytic_velocity.rows"]
    out["distill.teacher_nfe_per_iter"] = _ratio(counters["distill.teacher_nfe"],
                                                 counters["distill.iters"])
    out["adv.teacher_nfe_per_iter"] = _ratio(counters["adv.teacher_nfe"],
                                             counters["adv.iters"])
    out["adv.disc_passes_per_iter"] = _ratio(counters["adv.disc_passes"],
                                             counters["adv.iters"])
    out["netcore.checkpoint_bytes"] = counters["netcore.checkpoint_bytes"]
    out["diag.energy_matrix_bytes"] = counters["diag.energy_matrix_bytes"]
    out["cli.artifact_bytes"] = p.artifact_bytes
    sched = [v for k, v in summary.items() if k.startswith("sched.")]
    out["sched.calls"] = sum(v[0] for v in sched)
    out["sched.self_s"] = sum(v[2] for v in sched)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def method_ms_per_iter(p, method):
    calls = [c for c in p.calls if c.entry == "run_experiment"
             and c.method == method]
    if not calls:
        return None
    return 1e3 * sum(c.wall_s for c in calls) / sum(c.units for c in calls)


# --- statistics and environment


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


# --- the run


def run_benchmark(name, seed, seconds, trace, work, tiny=False):
    """Run one workload; return (result line dict, full record dict, the
    last traced pass's tracer or None)."""
    start = time.perf_counter()
    package = import_flowlab()
    import_runs = import_seconds(IMPORT_REPEATS)
    fl = workloads.flowlab_namespace(package)
    workload = workloads.WORKLOADS[name](seed, tiny)

    # pass 0 warms up (lazy imports, first touch of the large evaluation
    # buffers) and is not timed; then passes until the next one would end
    # past `seconds`. A traced run needs a traced and an untraced timed pass.
    passes, last_tracer, longest = [], None, 0.0
    while True:
        tracer = tracing.Tracer(package) if trace and len(passes) % 2 else None
        begun = time.perf_counter()
        passes.append(run_pass(package, fl, workload, work, tracer))
        now = time.perf_counter()
        longest = max(longest, now - begun)
        last_tracer = tracer or last_tracer
        if (len(passes) >= 2 + trace
                and now - start + longest > seconds):
            break

    checks = [c for p in passes for c in p.checks]
    checks += [(f"pass{i}/digest_equal", p.digest == passes[0].digest)
               for i, p in enumerate(passes[1:], 1)]
    failed = sum(not ok for _, ok in checks)

    timed = passes[1:]
    plain = [p for p in timed if not p.traced]
    import_s = statistics.median(import_runs)
    metrics = {"setup_s": [import_s + p.setup_s for p in plain],
               "run_s": [p.run_s for p in plain]}
    for key, method in (("ota_ms_per_iter", "ota"),
                        ("perflow_ms_per_iter", "perflow"),
                        ("ota_adv_ms_per_iter", "ota+adv")):
        values = [method_ms_per_iter(p, method) for p in plain]
        if values[0] is not None:
            metrics[key] = values
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["peak_rss_mb"] = [usage / 1024.0]
    w2 = w2_values(passes[0].calls)
    metrics["w2"] = [statistics.fmean(w2)]
    metrics["fail_ratio"] = [failed / len(checks)]
    if trace:
        traced = [p for p in timed if p.traced]
        for key in traced[0].layers:
            metrics[key] = [p.layers[key] for p in traced]
        metrics["trace.overhead_s"] = [
            statistics.median(p.run_s for p in traced)
            - statistics.median(p.run_s for p in plain)]

    stats = {k: quartiles(v) for k, v in metrics.items()}
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": stats[k][1], "unit": u}
                    for k, u, in_result in wanted if in_result},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "passes": len(passes), "warmup_passes": 1,
        "traced_passes": sum(p.traced for p in passes),
        "environment": environment(),
        "import_s": import_runs,
        "metrics": {k: {"median": s[1], "q1": s[0], "q3": s[2],
                        "n": len(metrics[k]), "unit": UNITS[k]}
                    for k, s in stats.items()},
        "w2_values": len(w2),
        "digest": passes[0].digest,
        "artifacts": passes[0].files,
        "checks": {"attempted": len(checks), "failed": failed,
                   "failures": [label for label, ok in checks if not ok]},
        "passes_detail": [
            {"traced": p.traced, "setup_s": p.setup_s, "run_s": p.run_s,
             "calls": [{"entry": c.entry, "method": c.method,
                        "wall_s": c.wall_s, "units": c.units,
                        "error": c.error} for c in p.calls]}
            for p in passes],
    }
    return result, record, last_tracer


def print_report(record):
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} "
          f"(warm-up {record['warmup_passes']}) "
          f"traced={record['traced_passes']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name} = {m['median']!r} {m['unit']} "
              f"(median of {m['n']}, q1 {m['q1']!r}, q3 {m['q3']!r})")
    c = record["checks"]
    print(f"checks: {c['attempted'] - c['failed']}/{c['attempted']} passed"
          + (f"; failed: {', '.join(c['failures'])}" if c["failed"] else ""))
    print(f"artifact digest sha256:{record['digest']} "
          f"({len(record['artifacts'])} files)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread unless the caller says otherwise: load comes from this
    # one process, and on a small shared machine a second BLAS thread mostly
    # adds run-to-run noise. Must be set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    out_dir = ROOT / ".perfbench_work"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record, tracer = run_benchmark(
        args.workload, args.seed, args.seconds, args.trace, out_dir / stem)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}.spans.csv",
                           origin=tracer.spans[0][1])
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
