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

import numpy as np
import pytest

import flowlab
import flowlab.cli
from flowlab import adv, distill
from flowlab.adv import AdvConfig
from flowlab.cli import ExperimentConfig
from flowlab.distill import default_grid
from flowlab.flow import (AnalyticField, TrainConfig, default_benchmark,
                          sample_mixture)

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SUBSTEPS = 8
STAGES = 4


def pair_stages(method, iterations, batch, seed=0):
    """Each iteration's stage k, replayed from the pair stream's draws: k,
    the noise (after the data, for perflow), then the interior times."""
    rng = np.random.default_rng(seed)
    ks = []
    for _ in range(iterations):
        ks.append(int(rng.integers(1, STAGES + 1)))
        if method == "perflow":
            sample_mixture(default_benchmark(), batch, rng)
        rng.standard_normal((batch, 2))
        rng.uniform(size=batch)
    return ks


@pytest.mark.parametrize("stage", [1, 3])
def test_adversarial_counters(stage):
    probs = tuple(float(s == stage) for s in range(1, STAGES + 1))
    with tracing.Tracer(flowlab) as tracer:
        adv.train_adversarial(AnalyticField(default_benchmark()),
                              default_benchmark(),
                              default_grid(STAGES, 1.0, SUBSTEPS),
                              adv_cfg=AdvConfig(timestep_probs=probs),
                              cfg=TrainConfig(iterations=2, batch_size=8))
    counters = tracer.counters
    ks = pair_stages("ota", 2, 8)
    # both iterations' pairs come from one stacked solve, which evaluates
    # the teacher once per sub-step of every stage down to the lowest k
    assert counters["distill.iters"] == 1
    assert counters["distill.teacher_nfe"] == SUBSTEPS * (STAGES + 1 - min(ks))
    assert counters["adv.iters"] == 2
    # the real states of both iterations: one stacked solve down to the
    # sampled boundary only
    assert counters["adv.teacher_nfe"] == SUBSTEPS * stage
    # stacking moves no work: each row still takes its own stages' steps
    assert counters["flow.analytic_velocity.rows"] == 8 * SUBSTEPS * (
        sum(STAGES + 1 - k for k in ks) + 2 * stage)
    # two discriminator passes and two pullbacks for its step, two passes
    # and one pullback for the student's
    assert counters["adv.disc_passes"] == 2 * 7


def test_student_counters():
    with tracing.Tracer(flowlab) as tracer:
        distill.train_student(AnalyticField(default_benchmark()),
                              default_benchmark(), "perflow",
                              default_grid(STAGES, 1.0, SUBSTEPS),
                              cfg=TrainConfig(iterations=3, batch_size=8))
    counters = tracer.counters
    assert counters["distill.iters"] == 1
    # a perflow pair solves the teacher over its one stage; the block
    # evaluates each stage some iteration drew once per sub-step
    ks = pair_stages("perflow", 3, 8)
    assert counters["distill.teacher_nfe"] == SUBSTEPS * len(set(ks))
    assert counters["flow.analytic_velocity.rows"] == 3 * 8 * SUBSTEPS
    assert counters["adv.iters"] == counters["adv.disc_passes"] == 0


def test_run_experiment_counts_every_seed(tmp_path, monkeypatch):
    # where the seeds would go to forked workers, a traced run stays in the
    # tracer's process, so every seed's training is counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(flowlab.netcore, "_blas_threads", lambda: 1)
    config = ExperimentConfig(method="perflow", iterations=3, batch=8,
                              eval_samples=64, seeds=(0, 1, 2),
                              output_dir=str(tmp_path))
    with tracing.Tracer(flowlab) as tracer:
        flowlab.cli.run_experiment(config)
    # one pair block per seed
    assert tracer.counters["distill.iters"] == 3
    assert tracer.counters["distill.teacher_nfe"] == sum(
        SUBSTEPS * len(set(pair_stages("perflow", 3, 8, seed)))
        for seed in range(3))
    assert tracer.summary()["distill.train_student"][0] == 3
