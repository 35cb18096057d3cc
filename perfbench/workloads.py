"""The benchmark's two workloads, built from a workload seed.

Each workload has a set-up (configs, the `reproduce_tables()` check, and any
teacher or student checkpoint it starts from) and a round (its calls into
flowlab's `cli` entry points). Both only touch flowlab through module
attributes (`fl.cli.run_experiment`, ...), so a Tracer's wrappers see them.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import importlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace


@dataclass
class Call:
    """One call into a cli entry point and what it returned."""

    entry: str            # run_experiment | diagnose | compare_schedulers
    method: str           # training method, "" for evaluation entries
    wall_s: float
    units: int            # iterations x seeds; 0 for evaluation entries
    output: dict
    error: str = ""


@dataclass
class Setup:
    configs: dict
    tables_ok: bool
    checkpoints: list = field(default_factory=list)


def _seeds(name, seed, count):
    """Training seeds for a workload, generated from the workload seed."""
    rng = random.Random(f"{name}/{seed}")
    return tuple(rng.randrange(2 ** 31) for _ in range(count))


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, fl, work) -> Setup:
        raise NotImplementedError

    def round(self, fl, work, setup: Setup) -> list:
        raise NotImplementedError

    @staticmethod
    def _tables_ok(fl) -> bool:
        return bool(fl.cli.reproduce_tables(printer=lambda *_: None)["all_pass"])

    @staticmethod
    def _train(fl, config) -> Call:
        """Time one run_experiment call; a TrainingError is reported through
        the partial summary.json the call leaves behind."""
        start = time.perf_counter()
        error = ""
        try:
            summary = fl.cli.run_experiment(config)
        except fl.netcore.TrainingError as exc:
            error = str(exc)
            summary = _read_summary(config.output_dir)
        wall = time.perf_counter() - start
        return Call("run_experiment", config.method, wall,
                    config.iterations * len(config.seeds), summary, error)


def _read_summary(out_dir):
    path = Path(out_dir) / "summary.json"
    return json.loads(path.read_text()) if path.exists() else {"seeds": {}}


class AdvAnalytic(Workload):
    """Criterion-9 shape with fewer seeds: ota and ota+adv with the analytic
    teacher."""

    name = "adv-analytic"

    def setup(self, fl, work):
        tables_ok = self._tables_ok(fl)
        # three seeds: the mean W2 over two moved by 10% between seeds
        seeds = _seeds(self.name, self.seed, 3)
        configs = {
            method: fl.cli.ExperimentConfig(
                method=method, iterations=5 if self.tiny else 70, seeds=seeds,
                eval_samples=256 if self.tiny else 512,
                output_dir=str(work / method.replace("+", "_")))
            for method in ("ota", "ota+adv")}
        return Setup(configs, tables_ok)

    def round(self, fl, work, setup):
        return [self._train(fl, setup.configs[m]) for m in ("ota", "ota+adv")]


class EvalDiagnose(Workload):
    """The evaluation path at the default eval.samples: a short training run,
    then diagnose on a student checkpoint trained in set-up, then
    compare_schedulers. One seed."""

    name = "eval-diagnose"

    def setup(self, fl, work):
        tables_ok = self._tables_ok(fl)
        (seed,) = _seeds(self.name, self.seed, 1)
        config = fl.cli.ExperimentConfig(
            method="ota", iterations=5 if self.tiny else 50, seeds=(seed,),
            eval_samples=256 if self.tiny else
            fl.cli.ExperimentConfig.eval_samples,
            output_dir=str(work / "ota"))
        student = fl.distill.train_student(
            config.teacher_field(), config.mixture(), "ota", config.grid(),
            cfg=fl.flow.TrainConfig(5 if self.tiny else 150, config.batch,
                                    config.lr, seed + 1))
        path = work / "student.json"
        fl.netcore.save_params(student.params, path)
        # compare_schedulers' W2 on 256 points moves a lot with its noise
        # draw; 16 seeds keep the workload's mean W2 steadier across seeds
        compare = replace(config, seeds=_seeds(self.name + "/compare",
                                               self.seed, 4 if self.tiny else 16))
        return Setup({"ota": config, "compare": compare}, tables_ok, [path])

    def round(self, fl, work, setup):
        config = setup.configs["ota"]
        calls = [self._train(fl, config)]
        start = time.perf_counter()
        report = fl.cli.diagnose(config, checkpoint=str(setup.checkpoints[0]))
        calls.append(Call("diagnose", "", time.perf_counter() - start, 0, report))
        start = time.perf_counter()
        report = fl.cli.compare_schedulers(setup.configs["compare"])
        calls.append(Call("compare_schedulers", "", time.perf_counter() - start,
                          0, report))
        return calls


WORKLOADS = {w.name: w for w in (AdvAnalytic, EvalDiagnose)}


def flowlab_namespace(package):
    """The flowlab modules the workloads call through."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package.__name__}.{name}")
        for name in ("cli", "flow", "netcore", "distill")})
