"""Experiment harness and command-line interface.

Subcommands: schedule, reproduce-tables, train, infer, diagnose,
compare-schedulers, compare-methods. Exit codes: 0 success, 1 config
error, 2 training failure. Every usage error (a bad or missing flag, a
bad value, an unusable path) is a config error: one `config error:` line
on stderr. Every report embeds the resolved config and seed so it can be
regenerated bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adv import AdvConfig, train_adversarial
from .diag import (W2_MAX_POINTS, check_bounded, energy_permutation_test,
                   expected_velocity_residual, interstage_distance,
                   teacher_trajectory_divergence, w2_exact_small)
from .distill import StageGrid, default_grid, infer_few_step, train_student
from .flow import (SIGMA_FLOOR, AnalyticField, LearnedField, MixtureSpec,
                   TrainConfig, default_benchmark, sample_mixture,
                   solve_on_grid)
from . import netcore
from .netcore import TrainingError, load_params, save_params
from .sched import SAMPLERS, format_sigmas

COMPARE_STEPS, COMPARE_POINTS = (4, 10, 32), 256  # compare_schedulers defaults
DIAGNOSE_POINTS = 1024  # samples per divergence and inter-stage probe
EVAL_PERMUTATIONS = 200  # permutations per energy test of a report


class ConfigError(ValueError):
    pass


@contextmanager
def _config_errors(prefix=""):
    """Re-raise a library ValueError from the block as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "ota"                  # perflow | ota | ota+adv
    teacher: str = "analytic"            # analytic | learned:PATH
    mixture_weights: tuple = tuple(default_benchmark().weights.tolist())
    mixture_means: tuple = tuple(map(tuple, default_benchmark().means.tolist()))
    mixture_stds: tuple = tuple(default_benchmark().stds.tolist())
    stages: int = 4
    shift: float = 1.0
    substeps: int = StageGrid.teacher_substeps_per_stage
    scheduler: str = "improved"          # original | improved
    iterations: int = TrainConfig.iterations
    batch: int = TrainConfig.batch_size
    lr: float = TrainConfig.learning_rate
    lambda_adv: float = AdvConfig.lambda_adv
    lambda_fm: float = AdvConfig.lambda_fm
    gan: str = AdvConfig.gan_kind
    t_probs: tuple = AdvConfig.timestep_probs
    seeds: tuple = (0,)
    eval_samples: int = 4096
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.method not in ("perflow", "ota", "ota+adv"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.scheduler not in SAMPLERS:
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be nonempty and >= 0")
        if self.iterations < 0:
            raise ConfigError("train.iterations must be >= 0")
        if self.batch < 1:
            raise ConfigError("train.batch must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ConfigError("train.lr must be positive and finite")
        if self.eval_samples < 1:
            raise ConfigError("eval.samples must be >= 1")
        for key, (name, _, parse, _) in CONFIG_TABLE.items():
            text = getattr(self, name)
            if parse is str and (text != text.strip() or len(text.splitlines()) > 1):
                raise ConfigError(f"{key} must be one line with no outer blanks")
        # the library's own validators, run before any output is written
        with _config_errors():
            self.mixture()
            self.teacher_field()  # reads a learned teacher's checkpoint
            self.grid()
            adv = self.adv_config()  # checks adv.gan for every method
            if self.method == "ota+adv":
                adv.check_stages(self.stages)

    def mixture(self) -> MixtureSpec:
        return MixtureSpec(np.array(self.mixture_weights),
                           np.array(self.mixture_means),
                           np.array(self.mixture_stds))

    def teacher_field(self):
        if self.teacher == "analytic":
            return AnalyticField(self.mixture())
        if not self.teacher.startswith("learned:"):
            raise ConfigError(f"unknown teacher {self.teacher!r}")
        return _learned_field(self.teacher.split(":", 1)[1])

    def adv_config(self) -> AdvConfig:
        return AdvConfig(self.lambda_adv, self.lambda_fm, self.gan, self.t_probs)

    def grid(self) -> StageGrid:
        return default_grid(self.stages, self.shift, self.substeps, self.scheduler)

    def to_text(self) -> str:
        return "".join(f"{key} = {fmt(getattr(self, name))}\n"
                       for key, (name, _, _, fmt) in CONFIG_TABLE.items())


def _learned_field(path) -> LearnedField:
    """A checkpoint's field; ConfigError if it is unreadable or malformed."""
    try:
        return LearnedField(load_params(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None


def _split(parse, sep=","):
    return lambda text: tuple(parse(x) for x in text.split(sep))


def _join(fmt=str, sep=","):
    return lambda values: sep.join(fmt(v) for v in values)


_floats, _ints = _split(float), _split(int)

# The config schema, declared once. The text of a value, from a config file
# or a flag, goes through the parser; to_text writes it with the formatter.
CONFIG_TABLE = {
    # config-file key: (ExperimentConfig field, CLI flag, parser, formatter)
    "method": ("method", "--method", str, str),
    "teacher": ("teacher", "--teacher", str, str),
    "mixture.weights": ("mixture_weights", None, _floats, _join()),
    "mixture.means": ("mixture_means", None, _split(_floats, ";"),
                      _join(_join(), ";")),
    "mixture.stds": ("mixture_stds", None, _floats, _join()),
    "grid.stages": ("stages", "--stages", int, str),
    "grid.shift": ("shift", "--shift", float, str),
    "grid.substeps": ("substeps", None, int, str),
    "scheduler": ("scheduler", "--scheduler", str, str),
    "train.iterations": ("iterations", "--iters", int, str),
    "train.batch": ("batch", "--batch", int, str),
    "train.lr": ("lr", "--lr", float, str),
    "adv.lambda_adv": ("lambda_adv", "--lambda-adv", float, str),
    "adv.lambda_fm": ("lambda_fm", "--lambda-fm", float, str),
    "adv.gan": ("gan", "--gan", str, str),
    "adv.t_probs": ("t_probs", "--t-probs", _floats, _join()),
    "seeds": ("seeds", "--seed", _ints, _join()),
    "eval.samples": ("eval_samples", None, int, str),
    "output_dir": ("output_dir", "--out", str, str),
}


def _parse(key, text, where):
    """One config key's value from its text; ConfigError if it is bad."""
    with _config_errors(f"{where}bad value for {key}: "):
        return CONFIG_TABLE[key][2](text.strip())


def _read_config(path) -> dict:
    """Fields of a flat key = value config with dotted section names."""
    fields = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        fields[CONFIG_TABLE[key][0]] = _parse(key, value, f"{path}:{lineno}: ")
    return fields


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig(**_read_config(path))


def _write_points(f, points):
    points = np.asarray(points, dtype=np.float64)
    for i in range(0, len(points), 4096):
        f.write("".join(f"{x!r} {y!r}\n" for x, y in
                        points[i:i + 4096].tolist()))


def _train_one(config: ExperimentConfig, seed: int, history: list):
    teacher = config.teacher_field()
    grid = config.grid()
    cfg = TrainConfig(config.iterations, config.batch, config.lr, seed)
    if config.method == "ota+adv":
        student = train_adversarial(teacher, config.mixture(), grid,
                                    adv_cfg=config.adv_config(), cfg=cfg,
                                    history=history)
    else:
        losses = []
        student = train_student(teacher, config.mixture(), config.method,
                                grid, cfg=cfg, history=losses)
        history.extend((l, 0.0, 0.0, 0.0) for l in losses)
    return grid, student


def _evaluate(config: ExperimentConfig, seed: int, grid, student):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    eps = rng.standard_normal((config.eval_samples, 2))
    samples = infer_few_step(student, grid, eps)
    spec = config.mixture()
    check_bounded(samples, spec, "samples")
    data = sample_mixture(spec, config.eval_samples, rng)
    stat, p = energy_permutation_test(
        data, samples, n_permutations=EVAL_PERMUTATIONS, seed=seed)
    metrics = {
        "w2": w2_exact_small(data[:W2_MAX_POINTS], samples[:W2_MAX_POINTS]),
        "energy_distance": stat,
        "energy_p_value": p,
        "interstage": interstage_distance(
            student, grid, n=DIAGNOSE_POINTS, seed=seed, data=spec,
            n_permutations=EVAL_PERMUTATIONS),
    }
    return samples, metrics


# the function a map_seeds worker applies; set only in forked workers
_worker_fn = None


def _init_worker(fn):
    global _worker_fn
    _worker_fn = fn
    netcore._in_seed_worker = True


def _call_worker(item):
    return _worker_fn(item)


def _traced() -> bool:
    """Whether an in-process tracer watches this process: a profile or
    trace hook, or wrappers over this module's functions (functools.wraps
    marks them with __wrapped__). It records only calls made in this
    process, so it would miss every call made in a worker."""
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or hasattr(map_seeds, "__wrapped__"))


def map_seeds(fn, items) -> list:
    """[fn(x) for x in items], in input order, over the CPUs this process
    may use: in-process for one item, one worker or a traced process, else
    in forked workers.

    fn reaches the workers through fork, not pickle, so a closure works;
    only items and results cross the pipe. Workers inherit the parent's
    BLAS thread count, so each result is bit-identical to the serial one.
    Each worker's BLAS threads count against the usable CPUs, so there are
    at most netcore._cpu_share() workers: on 2 CPUs, two workers of two
    OpenBLAS threads each trained each seed about 3x slower than one
    process did. A BLAS whose thread count cannot be asked counts one
    thread per CPU, so the run stays serial. A worker's own share is 1.
    Every worker is joined before this returns.
    """
    items = list(items)
    workers = 1 if _traced() else min(len(items), netcore._cpu_share())
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(fn,)) as pool:
        return list(pool.map(_call_worker, items))


def _non_finite(metrics: dict):
    """Name of the first non-finite metric (an interstage entry as
    interstage[i].key), or None."""
    named = [(k, v) for k, v in metrics.items() if k != "interstage"]
    named += [(f"interstage[{i}].{k}", v)
              for i, row in enumerate(metrics["interstage"])
              for k, v in row.items()]
    return next((k for k, v in named if not math.isfinite(v)), None)


def run_experiment(config: ExperimentConfig) -> dict:
    """Train per config for every seed, evaluate, persist reports.

    Seeds run in parallel through map_seeds. Writes summary.json, per-seed
    loss CSVs, checkpoints, and sample sets into the output directory;
    reruns with the same config and seeds are bit-identical. A seed whose
    training or samples diverge or whose metrics are non-finite is `failed`.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run_seed(seed):
        history = []
        try:
            grid, student = _train_one(config, seed, history)
            with open(out / f"losses_seed{seed}.csv", "w") as f:
                f.write("iter,l_dist,l_adv,l_fm,d_loss\n")
                for it, row in enumerate(history):
                    f.write(f"{it},{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}\n")
            save_params(student.params, out / f"checkpoint_seed{seed}.json")
            samples, metrics = _evaluate(config, seed, grid, student)
        except TrainingError as exc:
            return {"status": "failed", "error": str(exc)}
        with open(out / f"samples_seed{seed}.txt", "w") as f:
            _write_points(f, samples)
        bad = _non_finite(metrics)
        if bad is not None:
            return {"status": "failed", "error": f"non-finite metric {bad}"}
        metrics["status"] = "ok"
        return metrics

    # a repeated seed runs once: two workers must not write one file
    seeds = list(dict.fromkeys(config.seeds))
    rows = map_seeds(run_seed, seeds)
    summary = {"config": config.to_text(),
               "seeds": {str(seed): row for seed, row in zip(seeds, rows)}}
    ok = all(row["status"] == "ok" for row in rows)
    summary["status"] = "ok" if ok else "training_failed"
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, allow_nan=False)
    if not ok:
        raise TrainingError("one or more seeds failed; partial report written")
    return summary


# golden sigma rows for N=4 inference steps
_GOLDEN_ROWS = [
    ("original", 1.0, [1.000, 0.667, 0.334, 0.001, 0.000]),
    ("original", 3.0, [1.000, 0.858, 0.602, 0.009, 0.000]),
    ("improved", 1.0, [1.000, 0.750, 0.500, 0.250, 0.000]),
    ("improved", 3.0, [1.000, 0.900, 0.751, 0.502, 0.000]),
]
PREZERO_SIGMA_SHIFT3 = 0.0089


def reproduce_tables(printer=print) -> dict:
    """Recompute the golden scheduler rows and report per-entry verdicts."""
    report = {"rows": [], "all_pass": True}
    for method, shift, expected in _GOLDEN_ROWS:
        got = default_grid(4, shift, sampler=method).boundaries
        # 1e-9 slack: the improved shift=3 row sits exactly on the 2e-3
        # boundary and float representation noise must not flip the verdict
        ok = bool(np.all(np.abs(got - np.array(expected)) <= 2e-3 + 1e-9))
        report["rows"].append({"method": method, "shift": shift,
                               "computed": got.tolist(), "expected": expected,
                               "pass": ok})
        report["all_pass"] &= ok
        printer(f"{method:>8} shift={shift:g}: "
                + "[" + ", ".join(f"{s:.3f}" for s in got) + "] "
                + ("PASS" if ok else "FAIL"))
    prezero = float(default_grid(4, 3.0, sampler="original").boundaries[-2])
    ok = abs(prezero - PREZERO_SIGMA_SHIFT3) <= 2e-4
    report["prezero_sigma"] = {"computed": prezero,
                               "expected": PREZERO_SIGMA_SHIFT3, "pass": ok}
    report["all_pass"] &= ok
    printer(f"pre-zero sigma (original, shift=3, N=4): {prezero:.4f} "
            + ("PASS" if ok else "FAIL"))
    return report


def compare_schedulers(config: ExperimentConfig, steps=COMPARE_STEPS,
                       n_points: int = COMPARE_POINTS) -> dict:
    """W2-to-data for N-step inference under every sigma sampler, from
    identical noise per seed; the seeds run through map_seeds."""
    if not 1 <= n_points <= W2_MAX_POINTS:
        raise ConfigError(f"n_points must be in [1, {W2_MAX_POINTS}], got {n_points}")
    # a step count that fails at shift 1 is the steps' fault; any other
    # failure is the shift's, which one sampler may take and another not
    with _config_errors("steps: "):
        for n in steps:
            default_grid(n)
    with _config_errors("--shift: "):
        grids = {n: {name: default_grid(n, config.shift, sampler=name).boundaries
                     for name in SAMPLERS} for n in steps}
    field_ = config.teacher_field()
    data_spec = config.mixture()

    def seed_row(seed):
        # every step count and sampler starts from this seed's one draw
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
        eps = rng.standard_normal((n_points, 2))
        data = sample_mixture(data_spec, n_points, rng)
        return {n: {name: w2_exact_small(data, solve_on_grid(field_, eps, sig))
                    for name, sig in sigmas.items()}
                for n, sigmas in grids.items()}

    per_seed = map_seeds(seed_row, config.seeds)
    return {"shift": config.shift, "steps": {
        str(n): {name: [row[n][name] for row in per_seed] for name in sigmas}
        for n, sigmas in grids.items()}}


def compare_methods(config: ExperimentConfig) -> dict:
    """Matched-budget perflow vs ota runs over the config's seeds."""
    report = {"config": config.to_text(), "methods": {}}
    for method in ("perflow", "ota"):
        cfg_m = replace(config, method=method,
                        output_dir=str(Path(config.output_dir) / method))
        summary = run_experiment(cfg_m)
        report["methods"][method] = {
            seed: {"w2": m["w2"], "energy_distance": m["energy_distance"]}
            for seed, m in summary["seeds"].items()}
    return report


def diagnose(config: ExperimentConfig, checkpoint: str = None) -> dict:
    """Teacher mismatch diagnostics, and inter-stage gaps if a student
    checkpoint is given."""
    student = None if checkpoint is None else _learned_field(checkpoint)
    teacher = config.teacher_field()
    grid = config.grid()
    seed = config.seeds[0]
    boundaries, means, ses = teacher_trajectory_divergence(
        teacher, grid, DIAGNOSE_POINTS, seed)
    residuals = {}
    for sigma in (0.25, 0.5, 0.75):
        res, se = expected_velocity_residual(teacher, config.mixture(), sigma,
                                             n=100_000, seed=seed)
        residuals[str(sigma)] = {"residual": res, "se": se}
    report = {
        "config": config.to_text(),
        "trajectory_divergence": [
            {"boundary": float(b), "divergence_mean": float(m),
             "divergence_se": float(s)}
            for b, m, s in zip(boundaries, means, ses)],
        "velocity_residuals": residuals,
    }
    if student is not None:
        report["interstage"] = interstage_distance(
            student, grid, n=DIAGNOSE_POINTS, seed=seed,
            data=config.mixture(), n_permutations=EVAL_PERMUTATIONS)
    return report


def _config_from_args(args) -> ExperimentConfig:
    """The config file's values, overridden by the flags given."""
    fields = _read_config(args.config) if args.config else {}
    for key, (name, flag, _, _) in CONFIG_TABLE.items():
        if flag and getattr(args, name) is not None:
            fields[name] = _parse(key, getattr(args, name), f"{flag}: ")
    return ExperimentConfig(**fields)


def _add_config_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    for key, (name, flag, _, _) in CONFIG_TABLE.items():
        if flag:
            p.add_argument(flag, dest=name, help=f"sets {key}")


class _Parser(argparse.ArgumentParser):
    """Exits 1 with one `config error:` line on a usage error, instead of
    argparse's usage block and exit 2 (the training-failure code)."""

    def error(self, message):
        self.exit(1, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print sampler output")
    p.add_argument("action", choices=["print"])
    p.add_argument("--shift", type=float, default=ExperimentConfig.shift)
    p.add_argument("--steps", type=int, default=ExperimentConfig.stages)
    p.add_argument("--sampler", choices=SAMPLERS,
                   default=ExperimentConfig.scheduler)

    sub.add_parser("reproduce-tables", help="golden scheduler rows")

    for name in ("train", "compare-methods", "diagnose"):
        p = sub.add_parser(name)
        _add_config_flags(p)
        if name == "diagnose":
            p.add_argument("--checkpoint", help="student checkpoint to probe")

    p = sub.add_parser("infer")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stages", type=int, default=ExperimentConfig.stages)
    p.add_argument("--shift", type=float, default=ExperimentConfig.shift)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare-schedulers")
    _add_config_flags(p)
    p.add_argument("--steps", default=_join()(COMPARE_STEPS))
    p.add_argument("--n", type=int, default=COMPARE_POINTS)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    try:
        config = _config_from_args(args) if "config" in args else None
        if args.command in ("train", "diagnose", "compare-methods"):
            low = int(np.sum(config.grid().boundaries[1:-1] <= SIGMA_FLOOR))
            if low > 1:  # the teacher is frozen below SIGMA_FLOOR
                raise ConfigError(f"grid has {low} interior boundaries at or below "
                                  f"SIGMA_FLOOR = {SIGMA_FLOOR}; at most 1 may be")
        if args.command == "schedule":
            with _config_errors():
                grid = default_grid(args.steps, args.shift, sampler=args.sampler)
            print(format_sigmas(grid.boundaries))
        elif args.command == "reproduce-tables":
            report = reproduce_tables()
            return 0 if report["all_pass"] else 1
        elif args.command == "train":
            summary = run_experiment(config)
            print(json.dumps({s: {k: v for k, v in m.items() if k != "interstage"}
                              for s, m in summary["seeds"].items()}, indent=2,
                             allow_nan=False))
        elif args.command == "infer":
            student = _learned_field(args.checkpoint)
            if args.n < 1:
                raise ConfigError(f"--n must be >= 1, got {args.n}")
            with _config_errors():
                grid = default_grid(args.stages, args.shift)
                eps = np.random.default_rng(args.seed).standard_normal((args.n, 2))
            with open(args.out, "w") as f:  # an unusable --out fails first
                _write_points(f, infer_few_step(student, grid, eps))
        elif args.command == "diagnose":
            report = diagnose(config, checkpoint=args.checkpoint)
            print(json.dumps(report, indent=2))
        elif args.command == "compare-schedulers":
            with _config_errors("--steps: "):
                steps = _ints(args.steps)
            print(json.dumps(compare_schedulers(config, steps, args.n), indent=2))
        elif args.command == "compare-methods":
            print(json.dumps(compare_methods(config), indent=2))
    except (ConfigError, OSError) as exc:  # OSError: an unusable path
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
