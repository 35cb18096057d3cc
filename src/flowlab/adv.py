"""Trajectory-level adversarial distillation.

A discriminator over (state, noise level) separates teacher-trajectory
states from student-trajectory states at a sampled stage boundary. The
student is trained on the combined objective
    L = L_dist + lambda_adv * L_adv + lambda_fm * L_FM,
where L_adv pushes discriminator scores up on student states and L_FM
matches the discriminator's intermediate features between the two
trajectories. Generator gradients are backpropagated through the
student's own few-step rollout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import StageGrid, distill_grads, rollout, sample_training_batch
from .flow import (LearnedField, MixtureSpec, TrainConfig, DEFAULT_WIDTHS,
                   field_features)
from .netcore import (MlpParams, MlpSpec, TrainingError, adam_step, add_grads,
                      backward, forward, forward_with_hidden, init_adam,
                      init_params, zero_grads)


@dataclass(frozen=True)
class AdvConfig:
    lambda_adv: float = 0.1
    lambda_fm: float = 1.0
    gan_kind: str = "hinge"  # "hinge" | "lsgan" | "wgan"
    timestep_probs: tuple = (0.4, 0.2, 0.2, 0.2)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.timestep_probs)
        object.__setattr__(self, "timestep_probs", probs)
        if self.lambda_adv < 0 or self.lambda_fm < 0:
            raise ValueError("loss weights must be >= 0")
        if self.gan_kind not in ("hinge", "lsgan", "wgan"):
            raise ValueError(f"unknown gan_kind {self.gan_kind!r}")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("timestep_probs must be non-negative and sum to 1")

    def check_stages(self, n_stages: int):
        """One timestep probability per stage of the grid."""
        if len(self.timestep_probs) != n_stages:
            raise ValueError("timestep_probs length must equal the stage count")


@dataclass
class Discriminator:
    """MLP backbone whose hidden activations are the per-layer features;
    the final affine layer is the score head. Conditioned on the noise
    level via the same time features as the velocity fields."""

    params: MlpParams

    @property
    def n_feature_layers(self) -> int:
        return len(self.params.weights) - 1


def init_discriminator(widths: tuple = None, activation: str = "silu",
                       seed: int = 0) -> Discriminator:
    if widths is None:
        widths = DEFAULT_WIDTHS[:-1] + (1,)
    if widths[-1] != 1:
        raise ValueError("discriminator head must be scalar")
    return Discriminator(init_params(MlpSpec(widths, activation, seed)))


@dataclass(frozen=True)
class TrajectoryStates:
    """States recorded at the stage-boundary sigmas t_{K-1} .. t_{to_k}."""

    sigmas: np.ndarray   # (K - to_k,)
    states: np.ndarray   # (K - to_k,) + state shape
    source: str          # "teacher" | "student"


def trajectory_states(field, grid: StageGrid, eps, substeps_per_stage: int,
                      source: str, to_k: int = 0) -> TrajectoryStates:
    """Solve from shared eps down to boundary t_{to_k}, recording the state
    at every stage boundary below the noise end.

    Students use substeps_per_stage = 1 (their own few-step rollout);
    teachers use many sub-steps.
    """
    states = rollout(field, grid, eps, grid.n_stages, to_k, substeps_per_stage)
    return TrajectoryStates(grid.boundaries[1:len(states)].copy(),
                            np.stack(states[1:]), source)


def adv_loss_student(scores) -> float:
    """Generator loss: negative mean discriminator score on student states."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need a nonempty score batch")
    return float(-scores.mean())


def disc_loss(real_scores, fake_scores, kind: str) -> float:
    r = np.asarray(real_scores, dtype=np.float64)
    f = np.asarray(fake_scores, dtype=np.float64)
    if r.size == 0 or f.size == 0:
        raise ValueError("need nonempty score batches")
    if kind == "hinge":
        return float(np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f)))
    if kind == "lsgan":
        return float(np.mean((r - 1.0) ** 2) + np.mean(f ** 2))
    if kind == "wgan":
        return float(np.mean(f) - np.mean(r))
    raise ValueError(f"unknown gan_kind {kind!r}")


def _disc_loss_score_grads(r, f, kind):
    if kind == "hinge":
        return (-(r < 1.0).astype(np.float64) / r.size,
                (f > -1.0).astype(np.float64) / f.size)
    if kind == "lsgan":
        return 2.0 * (r - 1.0) / r.size, 2.0 * f / f.size
    if kind == "wgan":
        return np.full_like(r, -1.0 / r.size), np.full_like(f, 1.0 / f.size)
    raise ValueError(f"unknown gan_kind {kind!r}")


def fm_loss(teacher_features, student_features) -> float:
    """Sum over layers of the batch-mean L2 feature distance."""
    if len(teacher_features) != len(student_features):
        raise ValueError("feature layer counts differ")
    total = 0.0
    for ft, fs in zip(teacher_features, student_features):
        ft = np.atleast_2d(np.asarray(ft, dtype=np.float64))
        fs = np.atleast_2d(np.asarray(fs, dtype=np.float64))
        if ft.shape != fs.shape:
            raise ValueError("feature shapes differ")
        total += float(np.mean(np.linalg.norm(ft - fs, axis=-1)))
    return total


def sample_timestep(cfg: AdvConfig, rng: np.random.Generator) -> int:
    """Categorical stage draw; index 1 is the highest-noise stage."""
    return int(rng.choice(len(cfg.timestep_probs), p=cfg.timestep_probs)) + 1


def _backprop_rollout(params, grid, states, g_state):
    """Chain dL/dz back through the student's one-step-per-stage rollout
    (states at t_K, t_{K-1}, ...) into parameter gradients."""
    acc = zero_grads(params)
    g = g_state
    for i in reversed(range(len(states) - 1)):
        k = grid.n_stages - i
        x = field_features(states[i], grid.t(k))
        grads, x_grad = backward(params, x, (grid.t(k - 1) - grid.t(k)) * g)
        add_grads(acc, grads)
        g = g + x_grad[:, :2]  # time features carry no state dependence
    return acc


def train_adversarial(teacher, data: MixtureSpec, grid: StageGrid,
                      net: MlpSpec = None, adv_cfg: AdvConfig = AdvConfig(),
                      cfg: TrainConfig = TrainConfig(),
                      disc_seed: int = None, history: list = None) -> LearnedField:
    """Alternating discriminator/student updates (1:1).

    Distillation pairs are always OTA-style and drawn from an RNG stream
    seeded exactly like the plain trainer's, so with both lambdas at zero
    the student's parameter trajectory is bit-identical to
    train_student(..., method="ota", ...) under the same seed. All
    adversarial draws come from an independent stream.

    history, if given, collects (iteration, l_dist, l_adv, l_fm, d_loss)
    rows.
    """
    if net is None:
        net = MlpSpec(DEFAULT_WIDTHS, "silu", cfg.seed)
    adv_cfg.check_stages(grid.n_stages)
    params = init_params(net)
    state = init_adam(params, lr=cfg.learning_rate)
    rng_pairs = np.random.default_rng(cfg.seed)
    rng_adv = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xADD]))
    adversarial = adv_cfg.lambda_adv > 0 or adv_cfg.lambda_fm > 0

    if disc_seed is None:
        disc_seed = cfg.seed + 1
    disc = init_discriminator(seed=disc_seed)
    disc_state = init_adam(disc.params, lr=cfg.learning_rate)

    for it in range(cfg.iterations):
        z_t, t, v_t = sample_training_batch(teacher, data, "ota", grid,
                                            cfg.batch_size, rng_pairs)
        l_dist, grads = distill_grads(params, z_t, t, v_t)
        l_adv = l_fm = d_loss = 0.0

        if adversarial:
            eps = rng_adv.standard_normal((cfg.batch_size, 2))
            stage = sample_timestep(adv_cfg, rng_adv)
            to_k = grid.n_stages - stage
            sigma = grid.t(to_k)
            real = trajectory_states(teacher, grid, eps,
                                     grid.teacher_substeps_per_stage,
                                     "teacher", to_k).states[-1]
            # the student unclipped, as distill_grads trains it
            fake_states = rollout(
                lambda z, s: forward(params, field_features(z, s)),
                grid, eps, grid.n_stages, to_k, 1)
            fake = fake_states[-1]

            # discriminator step: student states detached
            xr = field_features(real, sigma)
            xf = field_features(fake, sigma)
            sr = forward(disc.params, xr)[:, 0]
            sf = forward(disc.params, xf)[:, 0]
            d_loss = disc_loss(sr, sf, adv_cfg.gan_kind)
            gr, gf = _disc_loss_score_grads(sr, sf, adv_cfg.gan_kind)
            dgrads, _ = backward(disc.params, xr, gr[:, None])
            dgrads_f, _ = backward(disc.params, xf, gf[:, None])
            add_grads(dgrads, dgrads_f)
            disc.params, disc_state = adam_step(disc.params, dgrads, disc_state)

            # student step: adversarial + feature-matching grads through the
            # updated discriminator and the student's own rollout
            sf2, feat_f = forward_with_hidden(disc.params, xf)
            _, feat_r = forward_with_hidden(disc.params, xr)
            l_adv = adv_loss_student(sf2[:, 0])
            l_fm = fm_loss(feat_r, feat_f)

            n = cfg.batch_size
            score_grad = np.full((n, 1), -adv_cfg.lambda_adv / n)
            hidden_grads = []
            for fr, ff in zip(feat_r, feat_f):
                diff = ff - fr
                norms = np.maximum(np.linalg.norm(diff, axis=-1, keepdims=True), 1e-12)
                hidden_grads.append(adv_cfg.lambda_fm * diff / (n * norms))
            _, x_grad = backward(disc.params, xf, score_grad, hidden_grads)
            add_grads(grads, _backprop_rollout(params, grid, fake_states,
                                               x_grad[:, :2]))

        if not np.isfinite(l_dist + l_adv + l_fm + d_loss):
            raise TrainingError("adversarial training diverged")
        if history is not None:
            history.append((it, l_dist, l_adv, l_fm, d_loss))
        params, state = adam_step(params, grads, state)
    return LearnedField(params)
