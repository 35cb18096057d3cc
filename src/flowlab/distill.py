"""Stage grids, the stage rollout, training pairs, student training, inference.

`default_grid` builds every sigma grid in the package as a `StageGrid`.
`rollout` solves a field stage by stage between two boundaries of a grid;
OTA starts, the adversarial trajectories, few-step inference and the
diagnostics all use it. `sample_training_batch` is the one pair builder.
It makes the start state z_{t_k} of a stage in one of two ways:
  * perflow: linear interpolation of data and noise (off-trajectory);
  * ota: solve the teacher's ODE from noise down to t_k (on-trajectory).
Both then evolve the teacher over the stage and regress the student onto
the stage's constant velocity. `train_student` is one `distill_grads` step
on such a batch, run by `flow.fit`, the package's one training loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import (LearnedField, MixtureSpec, TrainConfig, field_features,
                   fit, interpolate, ode_solve, sample_mixture)
from .netcore import TrainingError, backward, forward
from .sched import SAMPLERS


@dataclass(frozen=True)
class StageGrid:
    """The one grid type: boundaries t_K = 1 > ... > t_0 = 0, descending."""

    boundaries: np.ndarray
    teacher_substeps_per_stage: int = 8

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2 or b[0] != 1.0 or b[-1] != 0.0:
            raise ValueError("boundaries must run from exactly 1.0 to exactly 0.0")
        if np.any(np.diff(b) >= 0):
            raise ValueError("boundaries must be strictly decreasing")
        if self.teacher_substeps_per_stage < 1:
            raise ValueError("teacher_substeps_per_stage must be >= 1")

    @property
    def n_stages(self) -> int:
        return len(self.boundaries) - 1

    def t(self, k: int) -> float:
        """Boundary value t_k, k = 0 (data end) .. K (noise end)."""
        if not 0 <= k <= self.n_stages:
            raise ValueError(f"boundary index {k} out of range")
        return float(self.boundaries[self.n_stages - k])


def default_grid(n_stages: int, shift: float = 1.0,
                 teacher_substeps_per_stage=StageGrid.teacher_substeps_per_stage,
                 sampler: str = "improved") -> StageGrid:
    """Boundaries from a named sigma sampler (`sched.SAMPLERS`); the one grid
    builder, so every caller shares the same fixed schedule."""
    return StageGrid(SAMPLERS[sampler](n_stages, shift),
                     teacher_substeps_per_stage)


def rollout(field, grid: StageGrid, z, from_k: int, to_k: int,
            substeps: int) -> list:
    """Solve from boundary t_{from_k} down to t_{to_k}, one `substeps`-step
    ode_solve per stage; returns the states at t_{from_k}, ..., t_{to_k},
    the start included. Solving stage by stage on each stage's own sub-grid
    keeps every partial rollout a bitwise prefix of the full one."""
    if not 0 <= to_k <= from_k <= grid.n_stages:
        raise ValueError(f"need 0 <= to_k <= from_k <= {grid.n_stages}, "
                         f"got {from_k} -> {to_k}")
    states = [np.asarray(z, dtype=np.float64)]
    for k in range(from_k, to_k, -1):
        states.append(ode_solve(field, states[-1], grid.t(k), grid.t(k - 1),
                                substeps))
    return states


def sample_training_batch(teacher, data: MixtureSpec, method: str,
                          grid: StageGrid, batch: int,
                          rng: np.random.Generator):
    """Fresh online batch for one iteration: one stage draw, per-sample
    interior times. Returns (z_t, t, v_target)."""
    k = int(rng.integers(1, grid.n_stages + 1))
    if method == "perflow":
        z0 = sample_mixture(data, batch, rng)
        eps = rng.standard_normal((batch, 2))
        start = interpolate(z0, eps, grid.t(k))
    elif method == "ota":
        eps = rng.standard_normal((batch, 2))
        start = rollout(teacher, grid, eps, grid.n_stages, k,
                        grid.teacher_substeps_per_stage)[-1]
    else:
        raise ValueError(f"unknown method {method!r}")
    t_hi, t_lo = grid.t(k), grid.t(k - 1)
    end = ode_solve(teacher, start, t_hi, t_lo, grid.teacher_substeps_per_stage)
    v_target = (end - start) / (t_lo - t_hi)
    t = rng.uniform(t_lo, t_hi, batch)
    z_t = start + ((t - t_hi) / (t_lo - t_hi))[:, None] * (end - start)
    return z_t, t, v_target


def distill_grads(params, z_t, t, v_target):
    """Loss and parameter gradients of the mean squared velocity error."""
    tapes = []
    resid = forward(params, field_features(z_t, t), tapes) - v_target
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grads, _ = backward(params, tapes[0], 2.0 * resid / len(resid))
    return loss, grads


def train_student(teacher, data: MixtureSpec, method: str, grid: StageGrid,
                  cfg: TrainConfig = TrainConfig(),
                  history: list = None) -> LearnedField:
    """Gradient descent on the piecewise loss with fresh pairs per iteration,
    run by `flow.fit`; history, if given, collects one loss per iteration."""
    if method not in ("perflow", "ota"):
        raise ValueError(f"unknown method {method!r}")

    def step(params, rng):
        return distill_grads(params, *sample_training_batch(
            teacher, data, method, grid, cfg.batch_size, rng))

    return fit(step, cfg, history)


def infer_few_step(student, grid: StageGrid, eps) -> np.ndarray:
    """K Euler steps, one per stage, evaluated at stage-boundary sigmas."""
    z = rollout(student, grid, eps, grid.n_stages, 0, 1)[-1]
    if not np.all(np.isfinite(z)):
        raise TrainingError("non-finite state during inference")
    return z
