"""Minimal dense-network engine: forward, reverse-mode gradients, Adam.

Everything is float64 and purely functional; fixed seeds give bit-identical
training trajectories on one machine. Every net is a silu MLP, and its
inputs are (B, d) batches; parameter gradients are summed over the batch.
Parameters, gradients and Adam moments are flat vectors of one layout;
`backward` pulls back a forward pass's tape, so each pass traces once.
`_cpu_share` is the one rule for how many BLAS calls a process may run at
once: the seed pool and the energy test both size their work by it.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from dataclasses import dataclass, replace

import numpy as np


class TrainingError(RuntimeError):
    """Raised when a training signal (loss or gradient) goes non-finite."""


# exp(-x) overflows to inf for x below about -709, and silu and its
# derivative are still right there (s = 0); a diverged net's passes
# overflow and make NaNs, which adam_step, fit and infer_few_step turn into
# one TrainingError, so numpy's warnings are off in both passes
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class MlpSpec:
    widths: tuple
    seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ValueError("need at least 2 positive layer widths")


class MlpParams:
    """One flat float64 vector holding, layer by layer, the weight
    (fan_in, fan_out) and the bias (fan_out,); `weights[i]`, `biases[i]` are
    C-contiguous views into it. Gradients share the layout (add with +=)."""

    def __init__(self, spec: MlpSpec, flat=None):
        layers = list(zip(spec.widths[:-1], spec.widths[1:]))
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in layers)
        if flat is None:
            flat = np.zeros(size)
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError(f"need a float64 vector of {size} parameters")
        self.spec, self.flat = spec, flat
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in layers:
            end = offset + fan_in * fan_out
            self.weights.append(flat[offset:end].reshape(fan_in, fan_out))
            self.biases.append(flat[end:end + fan_out])
            offset = end + fan_out

    def __reduce__(self):
        # rebuild from the flat vector, so a copy's views share its memory
        return MlpParams, (self.spec, self.flat)

    @classmethod
    def from_layers(cls, spec: MlpSpec, weights, biases) -> MlpParams:
        """Copy per-layer arrays in; ValueError unless their count and
        shapes are those of spec.widths and every entry is finite."""
        params = cls(spec)
        n_layers = len(params.weights)
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(f"layer count does not match widths {spec.widths}")
        for dst, src in zip(params.weights + params.biases,
                            list(weights) + list(biases)):
            src = np.asarray(src, dtype=np.float64)
            if src.shape != dst.shape:
                raise ValueError(f"layer shape {src.shape} != {dst.shape}")
            if not np.all(np.isfinite(src)):
                raise ValueError("non-finite layer entries")
            dst[...] = src
        return params


def init_params(spec: MlpSpec) -> MlpParams:
    """Fan-in-scaled zero-mean normal weights, zero biases; seed-deterministic."""
    rng = np.random.default_rng(spec.seed)
    params = MlpParams(spec)
    for w in params.weights:
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), w.shape)
    return params


@dataclass(frozen=True)
class Tape:
    """What one traced pass keeps for `backward`."""

    params: MlpParams
    x: np.ndarray     # the (B, d) input
    pre: list         # pre-activations x of the hidden layers
    sigmoid: list     # their sigmoids s; silu is x * s, silu' s (1 + x (1 - s))
    hidden: list      # post-activation hiddens (the feature layers)


@_quiet
def _trace(params: MlpParams, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.widths[0]:
        raise ValueError(f"need a (B, {params.spec.widths[0]}) input batch")
    pre, sigmoid, hidden, h = [], [], [], x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre.append(h @ w + b)
        sigmoid.append(1.0 / (1.0 + np.exp(-pre[-1])))
        h = pre[-1] * sigmoid[-1]
        hidden.append(h)
    y = h @ params.weights[-1] + params.biases[-1]  # last layer affine
    return y, Tape(params, x, pre, sigmoid, hidden)


def forward(params: MlpParams, x, tapes: list = None):
    """Silu MLP on a (B, d) batch; last layer affine. A training pass passes
    a list as `tapes`, and the pass's tape is appended to it for `backward`."""
    y, tape = _trace(params, x)
    if tapes is not None:
        tapes.append(tape)
    return y


def forward_with_hidden(params: MlpParams, x):
    """Like forward, but returns (y, tape); tape.hidden are the features."""
    return _trace(params, x)


@_quiet
def backward(params: MlpParams, tape: Tape, out_grad, hidden_grads=None):
    """Reverse-mode gradients under the given output cotangent, pulled back
    through a tape that a forward pass recorded under these params.

    hidden_grads, if given, is a list of extra cotangents injected at each
    post-activation hidden layer (same order as tape.hidden). Returns
    (grads, input_grad); grads is an MlpParams of parameter gradients
    summed over the batch.
    """
    if tape.params is not params:
        raise ValueError("tape was recorded under other parameters")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != (tape.x.shape[0], params.spec.widths[-1]):
        raise ValueError("out_grad shape does not match network output")

    grads = MlpParams(params.spec)
    inputs = [tape.x] + tape.hidden  # input to layer i is inputs[i]
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(inputs[i].T, g, out=grads.weights[i])
        np.sum(g, axis=0, out=grads.biases[i])
        gh = g @ params.weights[i].T
        if i > 0:
            if hidden_grads is not None and hidden_grads[i - 1] is not None:
                gh = gh + np.asarray(hidden_grads[i - 1], dtype=np.float64)
            s, x = tape.sigmoid[i - 1], tape.pre[i - 1]
            g = gh * (s * (1.0 + x * (1.0 - s)))
        else:
            g = gh
    return grads, g


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Learning rate, step count and the flat moment vectors m, v."""

    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam(params: MlpParams, lr: float = 1e-3) -> AdamState:
    return AdamState(lr, 0, np.zeros_like(params.flat),
                     np.zeros_like(params.flat))


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState):
    """One bias-corrected adaptive-moment update; returns new params and state."""
    g = grads.flat
    if not np.all(np.isfinite(g)):
        raise TrainingError("non-finite gradient entries")
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    flat = params.flat - state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return MlpParams(params.spec, flat), replace(state, step=t, m=m, v=v)


def save_params(params: MlpParams, path):
    """Self-describing JSON checkpoint (exact float64 round trip)."""
    payload = {
        "widths": list(params.spec.widths),
        "activation": "silu",
        "seed": params.spec.seed,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    text = json.dumps(payload)  # one write; json.dump makes many small ones
    with open(path, "w") as f:
        f.write(text)


def load_params(path) -> MlpParams:
    """Read a save_params checkpoint; ValueError if it is malformed (a
    non-finite entry included) or names an activation other than silu."""
    with open(path) as f:
        payload = json.load(f)
    try:
        if payload["activation"] != "silu":
            raise ValueError(f"unknown activation {payload['activation']!r}")
        spec = MlpSpec(tuple(payload["widths"]), payload["seed"])
        return MlpParams.from_layers(spec, payload["weights"], payload["biases"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc!r}") from None


# set in map_seeds' forked workers, which already fill the usable CPUs
_in_seed_worker = False


@functools.cache
def _blas_getters():
    """The thread-count getters of every OpenBLAS loaded in this process,
    located once: `import flowlab` loads both numpy's and scipy's copy."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return ()
    getters = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_int
                getters.append(get)
                break
    return tuple(getters)


def _blas_threads():
    """Threads the OpenBLAS loaded in this process runs, asked of the
    library itself on each call (the most over several copies), or None
    when no OpenBLAS is loaded or it cannot be asked (another BLAS, no
    /proc)."""
    return max((get() for get in _blas_getters()), default=None)


def _cpu_share() -> int:
    """BLAS calls this process may run at once: its usable CPUs divided by
    the BLAS threads each call runs, at least 1, and 1 in a seed worker.
    A BLAS whose thread count cannot be asked counts one thread per CPU, so
    an unpinned process gets 1."""
    if _in_seed_worker:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    return max(1, cpus // (_blas_threads() or cpus))
