"""Trajectory-level adversarial distillation.

A discriminator over (state, noise level) separates teacher-trajectory
states from student-trajectory states at a sampled stage boundary. The
student is trained on the combined objective
    L = L_dist + lambda_adv * L_adv + lambda_fm * L_FM,
where L_adv pushes discriminator scores up on student states and L_FM
matches the discriminator's intermediate features between the two
trajectories. Generator gradients are backpropagated through the
student's own few-step rollout. `train_adversarial` is one step function,
discriminator step then student gradients, for `flow.fit`.

The real states come from the teacher alone, so they are solved in the
blocks `distill` builds its pairs in, for the same reasons and with the
same bits: each iteration draws its noise, then its stage, and one
`trajectory_states` call solves the block's rows, each row down to its own
sampled boundary only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import (StageGrid, distill_grads, in_blocks, rollout,
                      rollout_rows, training_batches)
from .flow import (LearnedField, MixtureSpec, TrainConfig, DEFAULT_WIDTHS,
                   field_features, fit)
from .netcore import (MlpParams, MlpSpec, adam_step, backward, forward,
                      forward_with_hidden, init_adam, init_params)


# per kind: (real scores r, fake scores f) -> (loss, dloss/dr, dloss/df)
GAN_LOSSES = {
    "hinge": lambda r, f: (
        np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f)),
        -(r < 1.0).astype(np.float64) / r.size,
        (f > -1.0).astype(np.float64) / f.size),
    "lsgan": lambda r, f: (np.mean((r - 1.0) ** 2) + np.mean(f ** 2),
                           2.0 * (r - 1.0) / r.size, 2.0 * f / f.size),
    "wgan": lambda r, f: (np.mean(f) - np.mean(r),
                          np.full_like(r, -1.0 / r.size),
                          np.full_like(f, 1.0 / f.size)),
}


@dataclass(frozen=True)
class AdvConfig:
    lambda_adv: float = 0.1
    lambda_fm: float = 1.0
    gan_kind: str = "hinge"  # a GAN_LOSSES key
    timestep_probs: tuple = (0.4, 0.2, 0.2, 0.2)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.timestep_probs)
        object.__setattr__(self, "timestep_probs", probs)
        if not (0 <= self.lambda_adv < np.inf and 0 <= self.lambda_fm < np.inf):
            raise ValueError("loss weights must be finite and >= 0")
        if self.gan_kind not in GAN_LOSSES:
            raise ValueError(f"unknown gan_kind {self.gan_kind!r}")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("timestep_probs must be non-negative and sum to 1")

    def check_stages(self, n_stages: int):
        """One timestep probability per stage of the grid."""
        if len(self.timestep_probs) != n_stages:
            raise ValueError("timestep_probs length must equal the stage count")


DISC_WIDTHS = DEFAULT_WIDTHS[:-1] + (1,)  # the student's, with a scalar head


def init_discriminator(seed: int) -> MlpParams:
    """MLP whose hidden activations are the per-layer features and whose
    final affine layer is the scalar score head. Conditioned on the noise
    level via the same time features as the velocity fields."""
    return init_params(MlpSpec(DISC_WIDTHS, seed))


def trajectory_states(field, grid: StageGrid, eps, substeps_per_stage: int,
                      to_k=0) -> np.ndarray:
    """Solve from eps down to boundary t_{to_k}; the states at every stage
    boundary t_{K-1} .. t_{min to_k} below the noise end, (K - min to_k, n,
    2). to_k is one boundary or one per row; a row is solved down to its
    own boundary only (distill.rollout_rows) and reads NaN below it. The
    adversarial objective's real states are the teacher's, solved with many
    sub-steps."""
    to_k = np.broadcast_to(to_k, len(eps))
    states = rollout_rows(field, grid, eps, grid.n_stages, to_k,
                          substeps_per_stage)
    return states[to_k.min():grid.n_stages][::-1]


def disc_loss(real_scores, fake_scores, kind: str):
    """(loss, dloss/dreal, dloss/dfake) of a GAN_LOSSES kind."""
    r = np.asarray(real_scores, dtype=np.float64)
    f = np.asarray(fake_scores, dtype=np.float64)
    if r.size == 0 or f.size == 0:
        raise ValueError("need nonempty score batches")
    if kind not in GAN_LOSSES:
        raise ValueError(f"unknown gan_kind {kind!r}")
    loss, gr, gf = GAN_LOSSES[kind](r, f)
    return float(loss), gr, gf


def fm_loss(teacher_features, student_features):
    """(sum over layers of the batch-mean L2 feature distance, each layer's
    (student - teacher, row norms))."""
    if len(teacher_features) != len(student_features):
        raise ValueError("feature layer counts differ")
    total, diffs = 0.0, []
    for ft, fs in zip(teacher_features, student_features):
        ft = np.asarray(ft, dtype=np.float64)
        fs = np.asarray(fs, dtype=np.float64)
        if ft.shape != fs.shape:
            raise ValueError("feature shapes differ")
        d = fs - ft
        norms = np.linalg.norm(d, axis=-1)
        total += float(np.mean(norms))
        diffs.append((d, norms))
    return total, diffs


def sample_timestep(cfg: AdvConfig, rng: np.random.Generator) -> int:
    """Categorical stage draw; index 1 is the highest-noise stage."""
    return int(rng.choice(len(cfg.timestep_probs), p=cfg.timestep_probs)) + 1


def _real_batches(teacher, grid: StageGrid, adv_cfg: AdvConfig, batch: int,
                  rng: np.random.Generator, iterations: int):
    """Generator of each of `iterations` adversarial iterations' (noise,
    sampled boundary to_k, teacher states at t_{to_k}) in turn, one
    trajectory_states call per block (distill.in_blocks)."""
    K = grid.n_stages

    def solve_block(n):
        eps, to_k = [], []
        for _ in range(n):
            eps.append(rng.standard_normal((batch, 2)))
            to_k.append(K - sample_timestep(adv_cfg, rng))
        rows = np.repeat(to_k, batch)
        states = trajectory_states(teacher, grid, np.concatenate(eps),
                                   grid.teacher_substeps_per_stage, rows)
        real = states[K - 1 - rows, np.arange(len(rows))]
        return zip(eps, to_k, np.split(real, n))

    return in_blocks(teacher, batch, iterations, solve_block)


def _generator_grads(params, grid, tapes, disc, xr, xf, adv_cfg: AdvConfig):
    """(l_adv, l_fm, student gradients of lambda_adv * l_adv + lambda_fm *
    l_fm) with disc and the real features xr fixed: the discriminator's score
    and feature cotangents at the fake features xf, chained back through the
    student's one-step-per-stage rollout (one tape per stage, from t_K)."""
    sf, tape_f = forward_with_hidden(disc, xf)
    _, tape_r = forward_with_hidden(disc, xr)
    l_adv = float(-sf.mean())  # generator loss: minus the mean fake score
    l_fm, diffs = fm_loss(tape_r.hidden, tape_f.hidden)

    n = len(xf)
    score_grad = np.full((n, 1), -adv_cfg.lambda_adv / n)
    hidden_grads = [
        adv_cfg.lambda_fm * d / (n * np.maximum(norms, 1e-12)[:, None])
        for d, norms in diffs]
    _, x_grad = backward(disc, tape_f, score_grad, hidden_grads)
    acc = MlpParams(params.spec)
    g = x_grad[:, :2]  # time features carry no state dependence
    for i in reversed(range(len(tapes))):
        k = grid.n_stages - i
        grads, x_grad = backward(params, tapes[i],
                                 (grid.t(k - 1) - grid.t(k)) * g)
        acc.flat += grads.flat
        g = g + x_grad[:, :2]
    return l_adv, l_fm, acc


def train_adversarial(teacher, data: MixtureSpec, grid: StageGrid,
                      adv_cfg: AdvConfig = AdvConfig(),
                      cfg: TrainConfig = TrainConfig(),
                      history: list = None) -> LearnedField:
    """Alternating discriminator/student updates (1:1), run by `flow.fit`.

    Distillation pairs are always OTA-style and drawn from fit's rng, so
    with both lambdas at zero the student's parameter trajectory is
    bit-identical to train_student(..., method="ota", ...) under the same
    seed. All adversarial draws come from an independent stream. history
    rows are (l_dist, l_adv, l_fm, d_loss).
    """
    adv_cfg.check_stages(grid.n_stages)
    rng_adv = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xADD]))
    adversarial = adv_cfg.lambda_adv > 0 or adv_cfg.lambda_fm > 0
    disc = init_discriminator(seed=cfg.seed + 1)
    disc_state = init_adam(disc, lr=cfg.learning_rate)

    def step(params, pairs, reals):
        nonlocal disc, disc_state
        l_dist, grads = distill_grads(params, *next(pairs))
        if not adversarial:
            return (l_dist, 0.0, 0.0, 0.0), grads

        eps, to_k, real = next(reals)
        sigma = grid.t(to_k)
        # the student as LearnedField evaluates it, one tape per stage for
        # the generator's pullback
        tapes = []
        fake = rollout(
            lambda z, s: forward(params, field_features(z, s), tapes),
            grid, eps, grid.n_stages, to_k, 1)[-1]

        # discriminator step: student states detached
        xr, xf = field_features(real, sigma), field_features(fake, sigma)
        sr, tape_r = forward_with_hidden(disc, xr)
        sf, tape_f = forward_with_hidden(disc, xf)
        d_loss, grad_r, grad_f = disc_loss(sr, sf, adv_cfg.gan_kind)
        dgrads, _ = backward(disc, tape_r, grad_r)
        dgrads_f, _ = backward(disc, tape_f, grad_f)
        dgrads.flat += dgrads_f.flat
        disc, disc_state = adam_step(disc, dgrads, disc_state)

        # student step: adversarial + feature-matching grads through the
        # updated discriminator and the student's own rollout
        l_adv, l_fm, gen_grads = _generator_grads(params, grid, tapes, disc,
                                                  xr, xf, adv_cfg)
        grads.flat += gen_grads.flat
        return (l_dist, l_adv, l_fm, d_loss), grads

    def make_step(rng_pairs):
        # generators: a block is drawn when its first iteration asks, so
        # with both lambdas at zero rng_adv is never drawn
        pairs = training_batches(teacher, data, "ota", grid, cfg.batch_size,
                                 rng_pairs, cfg.iterations)
        reals = _real_batches(teacher, grid, adv_cfg, cfg.batch_size, rng_adv,
                              cfg.iterations)
        return lambda params: step(params, pairs, reals)

    return fit(make_step, cfg, history)
