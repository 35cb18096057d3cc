"""Noise schedules and few-step sigma sampling.

Two samplers draw N+1 inference sigmas, as an array, from the full
training schedule `build_base_schedule` of NUM_TRAIN_TIMESTEPS = 1000
sigmas, as in `FlowMatchEulerDiscreteScheduler`: the original one (samples N
sigmas, then appends 0, producing a disproportionately small final step)
and the improved one (appends 0 to the schedule first, then samples N+1
points evenly so every step interval stays proportional); `SAMPLERS` maps
each name to its sampler. `distill.default_grid` is the one grid builder.
Stepping along these sigmas is `flow.solve_on_grid`'s job.
"""

from __future__ import annotations

import numpy as np


def shift_sigma(sigma, shift: float):
    """Apply the time-shift map s*sigma / (s*sigma + (1 - sigma)).

    Monotone increasing in sigma, fixes 0 and 1 exactly, and is the identity
    at s = 1. Accepts scalars or arrays.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 0 < shift < np.inf:
        raise ValueError(f"shift must be positive and finite, got {shift}")
    if np.any(sigma < 0) or np.any(sigma > 1):
        raise ValueError("sigma must lie in [0, 1]")
    num = shift * sigma
    out = num / (num + (1.0 - sigma))
    return float(out) if out.ndim == 0 else out


NUM_TRAIN_TIMESTEPS = 1000  # T, the length of the training schedule


def build_base_schedule(shift: float) -> np.ndarray:
    """T evenly spaced sigmas from 1 down to 1/T, with the shift map applied."""
    T = NUM_TRAIN_TIMESTEPS
    raw = np.linspace(1.0, 1.0 / T, T)
    sig = shift_sigma(raw, shift)
    if sig[0] != 1.0:
        raise ValueError("schedule must start at sigma = 1.0 exactly")
    if np.any(np.diff(sig) >= 0):
        raise ValueError("base sigmas must be strictly decreasing")
    if sig[-1] <= 0.0:
        raise ValueError("base sigmas must stay in (0, 1]")
    return sig


def sample_original(n_steps: int, shift: float) -> np.ndarray:
    """N+1 sigmas by the original (flawed) method.

    Evenly spaces N points in the t-domain t(sigma) = sigma * T over the
    shifted base schedule, maps back to sigmas, re-applies the shift
    (the double shift is deliberate: it reproduces the behavior under
    test, e.g. a pre-zero sigma of ~0.0089 at shift=3, N=4), and finally
    appends sigma = 0.
    """
    T = NUM_TRAIN_TIMESTEPS
    t = build_base_schedule(shift) * T
    if not 1 <= n_steps <= T:
        raise ValueError(f"n_steps must be in [1, {T}], got {n_steps}")
    t_grid = np.linspace(t[0], t[-1], n_steps)
    return np.append(shift_sigma(t_grid / T, shift), 0.0)


def sample_improved(n_steps: int, shift: float) -> np.ndarray:
    """N+1 sigmas by the improved method.

    Appends sigma = 0 to the shifted base schedule first, then gathers N+1
    evenly spaced (nearest-integer) indices over the augmented range, so
    all step intervals in the unshifted t-domain are proportionally equal.
    """
    T = NUM_TRAIN_TIMESTEPS
    full = np.append(build_base_schedule(shift), 0.0)
    if not 1 <= n_steps <= T:
        raise ValueError(f"n_steps must be in [1, {T}], got {n_steps}")
    # ties away from zero; indices are non-negative so floor(x + 0.5) does it
    idx = np.floor(np.linspace(0.0, T, n_steps + 1) + 0.5).astype(int)
    return full[idx]


SAMPLERS = {"original": sample_original, "improved": sample_improved}


def format_sigmas(sigmas) -> str:
    """One sigma per line at 9 significant digits (golden-file format)."""
    return "\n".join(f"{s:.9g}" for s in np.asarray(sigmas, dtype=np.float64))
