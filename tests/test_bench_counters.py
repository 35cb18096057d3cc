"""The benchmark's counters stay live.

perfbench/tracing.py's hooks count field calls, iterations and
discriminator passes only inside named spans (`adv.train_adversarial`,
`distill.train_student`, `adv.trajectory_states`, ...), and a span that
stops enclosing the work reads 0 instead of failing. These tiny traced
trainings check exact counts, so moving a loop body out of its span fails
here. The tracer is loaded from its file, read-only.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import flowlab
import flowlab.cli
from flowlab import adv, distill
from flowlab.adv import AdvConfig
from flowlab.cli import ExperimentConfig
from flowlab.distill import default_grid
from flowlab.flow import AnalyticField, TrainConfig, default_benchmark

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SUBSTEPS = 8


@pytest.mark.parametrize("stage", [1, 3])
def test_adversarial_counters(stage):
    probs = tuple(float(s == stage) for s in range(1, 5))
    with tracing.Tracer(flowlab) as tracer:
        adv.train_adversarial(AnalyticField(default_benchmark()),
                              default_benchmark(), default_grid(4, 1.0, SUBSTEPS),
                              adv_cfg=AdvConfig(timestep_probs=probs),
                              cfg=TrainConfig(iterations=2, batch_size=8))
    counters = tracer.counters
    assert counters["distill.iters"] == 2
    assert counters["adv.iters"] == 2
    # the teacher is solved down to the sampled boundary only
    assert counters["adv.teacher_nfe"] == 2 * SUBSTEPS * stage
    # two discriminator passes and two pullbacks for its step, two passes
    # and one pullback for the student's
    assert counters["adv.disc_passes"] == 2 * 7


def test_student_counters():
    with tracing.Tracer(flowlab) as tracer:
        distill.train_student(AnalyticField(default_benchmark()),
                              default_benchmark(), "perflow",
                              default_grid(4, 1.0, SUBSTEPS),
                              cfg=TrainConfig(iterations=3, batch_size=8))
    counters = tracer.counters
    assert counters["distill.iters"] == 3
    # a perflow pair solves the teacher over its one stage
    assert counters["distill.teacher_nfe"] == 3 * SUBSTEPS
    assert counters["adv.iters"] == counters["adv.disc_passes"] == 0


def test_run_experiment_counts_every_seed(tmp_path, monkeypatch):
    # where the seeds would go to forked workers, a traced run stays in the
    # tracer's process, so every seed's training is counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(flowlab.cli, "_blas_threads", lambda: 1)
    config = ExperimentConfig(method="perflow", iterations=3, batch=8,
                              eval_samples=64, seeds=(0, 1, 2),
                              output_dir=str(tmp_path))
    with tracing.Tracer(flowlab) as tracer:
        flowlab.cli.run_experiment(config)
    assert tracer.counters["distill.iters"] == 3 * 3
    assert tracer.summary()["distill.train_student"][0] == 3
