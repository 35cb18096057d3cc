"""2D data distributions, the analytic mixture teacher, and the ODE solver.

The teacher velocity field is the exact marginal field for the linear
interpolation path z_sigma = (1-sigma) z0 + sigma eps over an isotropic
Gaussian mixture: v(z, sigma) = (z - E[x | z_sigma = z]) / sigma, with the
posterior mean computed in closed form per component. Time convention is
sigma(t) = t on [0, 1]. `solve_on_grid` is the package's one Euler loop;
`ode_solve` is its equal-step wrapper, and the stage-level rollout in
`distill` is built on it. `fit` is the package's one training loop; every
trainer turns fit's rng into a step function that it runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .netcore import (MlpParams, MlpSpec, TrainingError, forward, init_adam,
                      init_params, adam_step)

# v has a 1/sigma singularity at 0; AnalyticField freezes below this level
SIGMA_FLOOR = 1e-3

# the student net's widths and the discriminator backbone
DEFAULT_WIDTHS = (5, 64, 64, 64, 2)

# rows per pass of a LearnedField and an AnalyticField: each temporary of a
# pass (the MLP's 64-wide tape, the analytic field's columns) is <= 128 KiB
FIELD_ROWS, ANALYTIC_ROWS = 256, 16384


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture in 2D."""

    weights: np.ndarray
    means: np.ndarray  # (K, 2)
    stds: np.ndarray   # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64).reshape(-1, 2)
        s = np.asarray(self.stds, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "stds", s)
        if len(w) != len(m) or len(w) != len(s):
            raise ValueError("weights, means, stds must have equal length")
        if np.any(w <= 0) or not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if not (np.all(s >= 0) and np.all(np.isfinite(s)) and np.all(np.isfinite(m))):
            raise ValueError("means and stds must be finite, stds non-negative")

    @property
    def mean(self) -> np.ndarray:
        """Mean of the data distribution."""
        return self.weights @ self.means


def default_benchmark() -> MixtureSpec:
    """Two equal components at (+-2, 0), std 0.3: curved but fully analytic."""
    return MixtureSpec(np.array([0.5, 0.5]),
                       np.array([[-2.0, 0.0], [2.0, 0.0]]),
                       np.array([0.3, 0.3]))


def sample_mixture(spec: MixtureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the mixture, deterministic given the rng state."""
    comp = rng.choice(len(spec.weights), size=n, p=spec.weights)
    return spec.means[comp] + spec.stds[comp, None] * rng.standard_normal((n, 2))


def interpolate(z0, eps, sigma):
    """Noising path (1 - sigma) z0 + sigma eps."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0) or np.any(sigma > 1):
        raise ValueError("sigma must lie in [0, 1]")
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    s = sigma[..., None] if sigma.ndim == z0.ndim - 1 else sigma
    return (1.0 - s) * z0 + s * eps


def analytic_velocity(spec: MixtureSpec, z, sigma) -> np.ndarray:
    """Exact marginal velocity (z - E[x|z]) / sigma for the mixture teacher.

    The posterior over components uses log-sum-exp; per component,
    z_sigma | x ~ N((1-sigma) x, sigma^2 I) composed with x ~ N(mu_k, s_k^2 I)
    gives marginal variance (1-sigma)^2 s_k^2 + sigma^2 and posterior mean
    mu_k + (1-sigma) s_k^2 / var_k * (z - (1-sigma) mu_k).

    z is one point (2,) or a batch (B, 2); sigma is a scalar or (B,).
    The field is computed one component at a time on (B,) columns; the
    constants of each component (var_k, log var_k, the gain) are computed
    once per call, for all rows at a scalar sigma. The two sums over
    components keep the order of numpy's reductions over a (B, K) array,
    so every bit is that of the broadcast form: the normaliser sum_k r_k
    is a left fold for K < 8 and numpy's `sum(axis=1)` of the C-contiguous
    (B, K) array for K >= 8 (its 8-way pairwise sum), and the posterior
    mean is a left fold. Both orders are per row, so a row's velocity does
    not depend on the batch it is evaluated in.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.ndim != 2 or zb.shape[1] != 2:
        raise ValueError(f"points must have shape (2,) or (B, 2), got {z.shape}")
    sig = np.asarray(sigma, dtype=np.float64)
    if np.any(sig < SIGMA_FLOOR) or np.any(sig > 1.0):
        raise ValueError(f"sigma must lie in [{SIGMA_FLOOR}, 1]")
    if sig.ndim:
        sig = np.broadcast_to(sig, zb.shape[:1])  # (B,)

    # per component (axis 0): (K, 1) at a scalar sigma, (K, B) per row
    a = 1.0 - sig
    s2 = (spec.stds * spec.stds)[:, None]
    var = a * a * s2 + sig * sig
    two_var, log_var = 2.0 * var, np.log(var)
    gain = a * s2 / var
    a_mu = a * spec.means[:, :, None]                # (K, 2, 1 or B)
    log_w = np.log(spec.weights)
    zx, zy = zb.T.copy()

    diffs = [(zx - a_mu[k, 0], zy - a_mu[k, 1]) for k in range(len(log_w))]
    # 2D => -d/2 log var = -log var
    log_rs = [log_w[k] - (dx * dx + dy * dy) / two_var[k] - log_var[k]
              for k, (dx, dy) in enumerate(diffs)]
    top = functools.reduce(np.maximum, log_rs)
    rs = [np.exp(log_r - top) for log_r in log_rs]
    if len(rs) < 8:
        total = sum(rs, 0.0)  # left to right from 0.0, as numpy below 8
    else:
        total = np.stack(rs, axis=1).sum(axis=1)

    mx = my = 0.0
    for k, (r, (dx, dy)) in enumerate(zip(rs, diffs)):
        r = r / total
        mx = mx + r * (spec.means[k, 0] + gain[k] * dx)
        my = my + r * (spec.means[k, 1] + gain[k] * dy)
    v = (zb - np.stack([mx, my], axis=1)) / (sig[:, None] if sig.ndim else sig)
    return v[0] if single else v


def field_features(z, sigma):
    """Network input: z plus (sigma, sin 2*pi*sigma, cos 2*pi*sigma)."""
    z = np.asarray(z, dtype=np.float64)
    s = np.broadcast_to(np.asarray(sigma, dtype=np.float64), z.shape[:-1])
    t = np.stack([s, np.sin(2.0 * np.pi * s), np.cos(2.0 * np.pi * s)], axis=-1)
    return np.concatenate([z, t], axis=-1)


def _in_passes(f, z, sigma, rows):
    """f(z, sigma) over a (B, 2) batch in passes of `rows` rows, the last
    taking the rest too (rows to 2 rows - 1), written into one (B, 2)
    output; sigma is a scalar or per row. Any other batch is one f call."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or len(z) < 2 * rows:
        return f(z, sigma)
    sig = np.asarray(sigma, dtype=np.float64)
    sig = np.broadcast_to(sig, z.shape[:1]) if sig.ndim else sig
    out, starts = np.empty((len(z), 2)), range(0, len(z) - rows + 1, rows)
    for start, end in zip(starts, [*starts[1:], len(z)]):
        out[start:end] = f(z[start:end], sig[start:end] if sig.ndim else sig)
    return out


class AnalyticField:
    """Closed-form teacher; frozen below SIGMA_FLOOR."""

    def __init__(self, spec: MixtureSpec):
        self.spec = spec

    def __call__(self, z, sigma):
        sig = np.clip(np.asarray(sigma, dtype=np.float64), SIGMA_FLOOR, 1.0)
        return _in_passes(lambda zp, sp: analytic_velocity(self.spec, zp, sp),
                          z, sig, ANALYTIC_ROWS)


class LearnedField:
    """MLP-backed velocity field of field_features, evaluated at the sigma
    it is given, as training evaluates the student. A large batch runs in
    FIELD_ROWS-row passes; below about 8,000 rows a pass gives its rows
    the bits one whole-batch pass gives them, and from there on OpenBLAS
    takes another GEMM path, which the passes never reach."""

    def __init__(self, params: MlpParams):
        widths = params.spec.widths
        if (widths[0], widths[-1]) != (DEFAULT_WIDTHS[0], DEFAULT_WIDTHS[-1]):
            raise ValueError(f"need widths ({DEFAULT_WIDTHS[0]}, ..., "
                             f"{DEFAULT_WIDTHS[-1]}), got {widths}")
        self.params = params

    def __call__(self, z, sigma):
        return _in_passes(
            lambda zp, sp: forward(self.params, field_features(zp, sp)),
            z, sigma, FIELD_ROWS)


def solve_on_grid(field, z, sigmas):
    """Euler steps over an explicit descending sigma grid; the final state."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if np.any(np.diff(sigmas) >= 0):
        raise ValueError("sigma grid must be strictly decreasing")
    z = np.asarray(z, dtype=np.float64)
    for s_from, s_to in zip(sigmas[:-1], sigmas[1:]):
        v = field(z, s_from)
        z = z + (s_to - s_from) * v
    return z


def ode_solve(field, z, sigma_from: float, sigma_to: float, n_substeps: int):
    """n_substeps equal-width Euler steps from sigma_from down to sigma_to;
    the final state."""
    if sigma_to >= sigma_from:
        raise ValueError("need sigma_to < sigma_from")
    if sigma_to < 0:
        raise ValueError("sigma_to must be >= 0")
    if n_substeps < 1:
        raise ValueError("n_substeps must be >= 1")
    grid = np.linspace(sigma_from, sigma_to, n_substeps + 1)
    return solve_on_grid(field, z, grid)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0


def fit(make_step, cfg: TrainConfig, history: list = None) -> LearnedField:
    """The one training loop: Adam on the one student net (DEFAULT_WIDTHS,
    silu, seeded with cfg.seed), one rng seeded with cfg.seed that
    make_step(rng) turns into the trainer's step, and per iteration
    step(params) -> (loss row, grads). A non-finite row raises
    TrainingError("loss diverged at iteration {it}"); else history gets it.
    A TrainingError from step or Adam is re-raised with " at iteration {it}"
    appended."""
    params = init_params(MlpSpec(DEFAULT_WIDTHS, cfg.seed))
    state = init_adam(params, lr=cfg.learning_rate)
    step = make_step(np.random.default_rng(cfg.seed))
    for it in range(cfg.iterations):
        try:
            row, grads = step(params)
            if not np.all(np.isfinite(row)):
                raise TrainingError("loss diverged")
            if history is not None:
                history.append(row)
            params, state = adam_step(params, grads, state)
        except TrainingError as exc:
            raise TrainingError(f"{exc} at iteration {it}") from None
    return LearnedField(params)


def train_flow_matching(spec: MixtureSpec, cfg: TrainConfig = TrainConfig(),
                        history: list = None) -> LearnedField:
    """Conditional flow-matching regression onto eps - z0.

    Minimizes E || v(z_sigma, sigma) - (eps - z0) ||^2 with
    sigma ~ U[SIGMA_FLOOR, 1]; the optional learned teacher.
    """
    from .distill import distill_grads  # distill imports this module

    def step(params, rng):
        z0 = sample_mixture(spec, cfg.batch_size, rng)
        eps = rng.standard_normal((cfg.batch_size, 2))
        sig = rng.uniform(SIGMA_FLOOR, 1.0, cfg.batch_size)
        return distill_grads(params, interpolate(z0, eps, sig), sig, eps - z0)

    return fit(lambda rng: lambda params: step(params, rng), cfg, history)
