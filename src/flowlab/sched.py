"""Noise schedules and few-step sigma sampling.

Two samplers are provided for drawing N inference sigmas from a full
training schedule: the original one (samples N sigmas, then appends 0,
producing a disproportionately small final step) and the improved one
(appends 0 to the schedule first, then samples N+1 points evenly so every
step interval stays proportional); `SAMPLERS` maps each name to its
sampler. Stepping along these sigmas is `flow.solve_on_grid`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def shift_sigma(sigma, shift: float):
    """Apply the time-shift map s*sigma / (s*sigma + (1 - sigma)).

    Monotone increasing in sigma, fixes 0 and 1 exactly, and is the identity
    at s = 1. Accepts scalars or arrays.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if shift <= 0:
        raise ValueError(f"shift must be positive, got {shift}")
    if np.any(sigma < 0) or np.any(sigma > 1):
        raise ValueError("sigma must lie in [0, 1]")
    num = shift * sigma
    out = num / (num + (1.0 - sigma))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SigmaSchedule:
    """Full training-time schedule of noise levels, descending from 1.0."""

    train_sigmas: np.ndarray
    shift: float
    num_train_timesteps: int = 1000

    def __post_init__(self):
        sig = np.asarray(self.train_sigmas, dtype=np.float64)
        object.__setattr__(self, "train_sigmas", sig)
        if self.num_train_timesteps < 2:
            raise ValueError("num_train_timesteps must be >= 2")
        if sig.ndim != 1 or len(sig) != self.num_train_timesteps:
            raise ValueError("train_sigmas length must equal num_train_timesteps")
        if sig[0] != 1.0:
            raise ValueError("schedule must start at sigma = 1.0 exactly")
        if np.any(np.diff(sig) >= 0):
            raise ValueError("train_sigmas must be strictly decreasing")
        if sig[-1] <= 0.0:
            raise ValueError("train_sigmas must stay in (0, 1]")


@dataclass(frozen=True)
class InferenceSigmas:
    """N+1 sigmas for an N-step inference run, ending at exactly 0."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigmas, dtype=np.float64)
        object.__setattr__(self, "sigmas", sig)
        if sig[0] != 1.0 or sig[-1] != 0.0:
            raise ValueError("inference sigmas must run from 1.0 to exactly 0.0")
        if np.any(np.diff(sig) >= 0):
            raise ValueError("inference sigmas must be strictly decreasing")


def build_base_schedule(num_train_timesteps: int = 1000, shift: float = 1.0) -> SigmaSchedule:
    """Evenly spaced sigmas from 1.0 down to 1/T, with the shift map applied."""
    if num_train_timesteps < 2:
        raise ValueError("num_train_timesteps must be >= 2")
    raw = np.linspace(1.0, 1.0 / num_train_timesteps, num_train_timesteps)
    return SigmaSchedule(shift_sigma(raw, shift), shift, num_train_timesteps)


def sample_original(schedule: SigmaSchedule, n_steps: int) -> InferenceSigmas:
    """N-step sigmas by the original (flawed) method.

    Evenly spaces N points in the t-domain t(sigma) = sigma * T over the
    already-shifted schedule, maps back to sigmas, re-applies the shift
    (the double shift is deliberate: it reproduces the behavior under
    test, e.g. a pre-zero sigma of ~0.0089 at shift=3, N=4), and finally
    appends sigma = 0.
    """
    T = schedule.num_train_timesteps
    if not 1 <= n_steps <= T:
        raise ValueError(f"n_steps must be in [1, {T}], got {n_steps}")
    t = schedule.train_sigmas * T
    t_grid = np.linspace(t[0], t[-1], n_steps)
    sig = shift_sigma(t_grid / T, schedule.shift)
    return InferenceSigmas(np.append(sig, 0.0))


def sample_improved(schedule: SigmaSchedule, n_steps: int) -> InferenceSigmas:
    """N-step sigmas by the improved method.

    Appends sigma = 0 to the schedule first, then gathers N+1 evenly
    spaced (nearest-integer) indices over the augmented range, so all
    step intervals in the unshifted t-domain are proportionally equal.
    """
    T = schedule.num_train_timesteps
    if not 1 <= n_steps <= T:
        raise ValueError(f"n_steps must be in [1, {T}], got {n_steps}")
    full = np.append(schedule.train_sigmas, 0.0)
    # ties away from zero; indices are non-negative so floor(x + 0.5) does it
    idx = np.floor(np.linspace(0.0, T, n_steps + 1) + 0.5).astype(int)
    return InferenceSigmas(full[idx])


SAMPLERS = {"original": sample_original, "improved": sample_improved}


def format_sigmas(sigmas) -> str:
    """One sigma per line at 9 significant digits (golden-file format)."""
    return "\n".join(f"{s:.9g}" for s in np.asarray(sigmas, dtype=np.float64))
