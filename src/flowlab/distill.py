"""Stage grids, the stage rollout, training pairs, student training, inference.

`default_grid` builds every sigma grid in the package as a `StageGrid`.
`rollout_rows` solves a field stage by stage between two boundaries of a
grid, one pair of boundaries per row; `rollout` is its view for one pair.
OTA starts, the adversarial trajectories, few-step inference and the
diagnostics all use them. `sample_training_batch` is the one pair builder.
It makes the start state z_{t_k} of a stage in one of two ways:
  * perflow: linear interpolation of data and noise (off-trajectory);
  * ota: solve the teacher's ODE from noise down to t_k (on-trajectory).
Both then evolve the teacher over the stage and regress the student onto
the stage's constant velocity. `train_student` is one `distill_grads` step
on such a batch, run by `flow.fit`, the package's one training loop.

The teacher's work never depends on the student, so the pairs of a block
of iterations are built at once: each iteration draws its values in its
own order, then one `rollout_rows` solves the teacher for all the block's
rows, stage by stage, each row through only the stages it needs, and
`training_batches` hands the block out one iteration at a time through
`in_blocks`, the block loop `adv` shares. Only an `AnalyticField` is
stacked. Its rows are independent and an Euler step is elementwise, so
every row gets the bits it gets when its iteration is solved alone; a
GEMM's bits can change with the row count, so a learned or wrapped
teacher is solved one iteration at a time. A block holds at most
`BLOCK_ROWS` rows (or one iteration), whose states take a few hundred KB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import (AnalyticField, LearnedField, MixtureSpec, TrainConfig,
                   field_features, fit, interpolate, ode_solve, sample_mixture)
from .netcore import TrainingError, backward, forward
from .sched import SAMPLERS

# rows of teacher work one stacked solve may take; a block is
# max(1, BLOCK_ROWS // batch) iterations
BLOCK_ROWS = 4096


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
    the start included (views of `rollout_rows`' table). Solving stage by
    stage on each stage's own sub-grid keeps every partial rollout a bitwise
    prefix of the full one."""
    states = rollout_rows(field, grid, z, from_k, to_k, substeps)
    return list(states[to_k:from_k + 1][::-1])


def rollout_rows(field, grid: StageGrid, z, from_k, to_k,
                 substeps: int) -> np.ndarray:
    """The stage rollout with boundaries per row: row i is solved from
    t_{from_k[i]} down to t_{to_k[i]} (an int applies to every row). Each
    stage is one `substeps`-step ode_solve over just the rows that cross it
    (a view when every row does), so under a row-independent field every
    row gets the bits of a rollout of its own. Returns states (K + 1, n,
    2): states[j, i] is row i at t_j for to_k[i] <= j <= from_k[i], NaN
    elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    from_k, to_k = np.broadcast_arrays(from_k, to_k)
    bad = (to_k < 0) | (to_k > from_k) | (from_k > grid.n_stages)
    if np.any(bad):
        i = np.argmax(bad)
        raise ValueError(f"need 0 <= to_k <= from_k <= {grid.n_stages}, "
                         f"got {from_k.flat[i]} -> {to_k.flat[i]}")
    n = len(z)
    from_k, to_k = np.broadcast_to(from_k, n), np.broadcast_to(to_k, n)
    states = np.full((grid.n_stages + 1,) + z.shape, np.nan)
    states[from_k, np.arange(n)] = z
    for j in range(from_k.max(initial=0), to_k.min(initial=0), -1):
        rows = np.flatnonzero((to_k < j) & (j <= from_k))
        if len(rows):
            rows = slice(None) if len(rows) == n else rows
            states[j - 1, rows] = ode_solve(field, states[j, rows], grid.t(j),
                                            grid.t(j - 1), substeps)
    return states


def in_blocks(teacher, batch: int, iterations: int, solve_block):
    """Generator of one item per iteration for `iterations` iterations, from
    blocks: solve_block(n) draws the next n iterations in order, solves the
    teacher for all of them at once and returns their n items. A block is
    up to BLOCK_ROWS rows for an AnalyticField, else one iteration (see the
    module docstring); it is solved when its first iteration asks, so
    nothing is drawn past the last iteration."""
    rows = BLOCK_ROWS if type(teacher) is AnalyticField else 0
    size = max(1, rows // max(batch, 1))
    while iterations > 0:
        n = min(iterations, size)
        yield from solve_block(n)
        iterations -= n


def sample_training_batch(teacher, data: MixtureSpec, method: str,
                          grid: StageGrid, batch: int,
                          rng: np.random.Generator, iterations: int):
    """Fresh online batches for a block of `iterations` iterations. Each
    iteration draws its stage k, its noise (after its data, for perflow)
    and its per-sample interior times, in that order; then one rollout_rows
    solves the teacher for the whole block. Returns (z_t, t, v_target), the
    block's batches stacked in iteration order, `batch` rows each."""
    if method not in ("perflow", "ota"):
        raise ValueError(f"unknown method {method!r}")
    K = grid.n_stages
    ks, starts, ts = [], [], []
    for _ in range(iterations):
        k = int(rng.integers(1, K + 1))
        if method == "perflow":
            z0 = sample_mixture(data, batch, rng)
            starts.append(interpolate(z0, rng.standard_normal((batch, 2)),
                                      grid.t(k)))
        else:
            starts.append(rng.standard_normal((batch, 2)))
        ks.append(k)
        ts.append(rng.uniform(grid.t(k - 1), grid.t(k), batch))
    k = np.repeat(ks, batch)
    states = rollout_rows(teacher, grid, np.concatenate(starts),
                          k if method == "perflow" else K, k - 1,
                          grid.teacher_substeps_per_stage)
    rows = np.arange(len(k))
    start, end = states[k, rows], states[k - 1, rows]
    t_hi, t_lo = grid.boundaries[K - k], grid.boundaries[K - k + 1]
    t = np.concatenate(ts)
    v_target = (end - start) / (t_lo - t_hi)[:, None]
    z_t = start + ((t - t_hi) / (t_lo - t_hi))[:, None] * (end - start)
    return z_t, t, v_target


def training_batches(teacher, data: MixtureSpec, method: str,
                     grid: StageGrid, batch: int, rng: np.random.Generator,
                     iterations: int):
    """Generator of the (z_t, t, v_target) of each of `iterations`
    iterations in turn, one sample_training_batch call per block."""
    def solve_block(n):
        block = sample_training_batch(teacher, data, method, grid, batch, rng,
                                      n)
        return zip(*(np.split(a, n) for a in block))

    return in_blocks(teacher, batch, iterations, solve_block)


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

    def make_step(rng):
        batches = training_batches(teacher, data, method, grid,
                                   cfg.batch_size, rng, cfg.iterations)
        return lambda params: distill_grads(params, *next(batches))

    return fit(make_step, cfg, history)


def infer_few_step(student, grid: StageGrid, eps) -> np.ndarray:
    """K Euler steps, one per stage, evaluated at stage-boundary sigmas."""
    z = rollout(student, grid, eps, grid.n_stages, 0, 1)[-1]
    if not np.all(np.isfinite(z)):
        raise TrainingError("non-finite state during inference")
    return z
