import copy
import json
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowlab.netcore import (ACTIVATIONS, MlpParams, MlpSpec,
                             TrainingError, adam_step, backward, forward,
                             forward_with_hidden, init_adam, init_params,
                             load_params, save_params)

DATA = Path(__file__).resolve().parent / "data"


def reference_forward(params, x):
    """Straight-line re-evaluation of the same arithmetic (oracle)."""
    act, _ = ACTIVATIONS[params.spec.activation]
    h = np.asarray(x, dtype=np.float64)
    n = len(params.weights)
    for i in range(n):
        h = h @ params.weights[i] + params.biases[i]
        if i < n - 1:
            h = act(h)
    return h


def numeric_param_grads(params, x, out_grad, h=1e-5):
    """Central finite differences of sum(forward * out_grad)."""

    def objective():
        return float(np.sum(forward(params, x) * out_grad))

    w_grads, b_grads = [], []
    for arr_list, grads in ((params.weights, w_grads), (params.biases, b_grads)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                arr[idx] += h
                up = objective()
                arr[idx] -= 2 * h
                down = objective()
                arr[idx] += h
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return w_grads, b_grads


def param_grads(params, x, out_grad, hidden_grads=None):
    """One traced pass and its pullback."""
    _, tape = forward_with_hidden(params, x)
    return backward(params, tape, out_grad, hidden_grads)


class TestInit:
    def test_same_seed_identical(self):
        spec = MlpSpec((2, 8, 2), "tanh", 7)
        a, b = init_params(spec), init_params(spec)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = init_params(MlpSpec((2, 8, 2), "tanh", 0))
        b = init_params(MlpSpec((2, 8, 2), "tanh", 1))
        assert any(not np.array_equal(wa, wb)
                   for wa, wb in zip(a.weights, b.weights))

    def test_biases_zero(self):
        p = init_params(MlpSpec((2, 8, 2), "tanh", 0))
        assert all(np.all(b == 0) for b in p.biases)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MlpSpec((2,), "tanh", 0)
        with pytest.raises(ValueError):
            MlpSpec((2, 0, 2), "tanh", 0)
        with pytest.raises(ValueError):
            MlpSpec((2, 4, 2), "gelu", 0)


class TestFlatParams:
    def test_layers_are_contiguous_views_of_one_vector(self):
        p = init_params(MlpSpec((3, 5, 4, 2), "silu", 0))
        assert p.flat.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
        assert [w.shape for w in p.weights] == [(3, 5), (5, 4), (4, 2)]
        assert [b.shape for b in p.biases] == [(5,), (4,), (2,)]
        for a in p.weights + p.biases:
            assert a.flags.c_contiguous and np.shares_memory(a, p.flat)
        # layer by layer, weight before bias
        order = [a for pair in zip(p.weights, p.biases) for a in pair]
        assert np.array_equal(np.concatenate([a.ravel() for a in order]),
                              p.flat)

    @pytest.mark.parametrize("copy_", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_copy_keeps_layer_views(self, copy_):
        # results that come back from a worker process are unpickled
        p = init_params(MlpSpec((5, 8, 2)))
        q = copy_(p)
        assert q.spec == p.spec and np.array_equal(q.flat, p.flat)
        assert not np.shares_memory(q.flat, p.flat)
        for a in q.weights + q.biases:
            assert np.shares_memory(a, q.flat)
        q.weights[0][0, 0] += 1.0
        assert q.flat[0] == p.flat[0] + 1.0

    def test_from_layers_copies_in(self):
        spec = MlpSpec((2, 3), "tanh", 0)
        w, b = np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0, 8.0])
        p = MlpParams.from_layers(spec, [w], [b])
        w[0, 0] = -1.0
        assert np.array_equal(p.flat, np.arange(9.0))

    @pytest.mark.parametrize("weights, biases", [
        ([np.zeros((2, 4))], [np.zeros(4)]),
        ([np.zeros((2, 4)), np.zeros((4, 3)), np.zeros((3, 3))],
         [np.zeros(4), np.zeros(3), np.zeros(3)]),
        ([np.zeros((2, 4)), np.zeros((3, 3))], [np.zeros(4), np.zeros(3)]),
        ([np.zeros((2, 4)), np.zeros((4, 3))], [np.zeros(4), np.zeros(4)]),
        ([np.zeros((2, 4)), np.zeros((4, 3))], [np.zeros(4)]),
    ], ids=["too-few-layers", "too-many-layers", "weight-shape",
            "bias-shape", "missing-bias"])
    def test_from_layers_rejects_mismatch(self, weights, biases):
        with pytest.raises(ValueError):
            MlpParams.from_layers(MlpSpec((2, 4, 3), "tanh", 0), weights,
                                  biases)

    def test_rejects_wrong_vector_size(self):
        with pytest.raises(ValueError):
            MlpParams(MlpSpec((2, 4, 3), "tanh", 0), np.zeros(30))


class TestForward:
    def test_zero_params_zero_output(self):
        p = init_params(MlpSpec((3, 5, 2), "relu", 0))
        for w in p.weights:
            w[:] = 0.0
        assert np.all(forward(p, np.ones(3)) == 0.0)

    def test_identity_affine_layer(self):
        p = MlpParams.from_layers(MlpSpec((2, 2), "tanh", 0), [np.eye(2)],
                                  [np.zeros(2)])
        x = np.array([0.3, -1.7])
        assert np.array_equal(forward(p, x), x)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "silu"])
    def test_matches_reference(self, activation):
        rng = np.random.default_rng(5)
        p = init_params(MlpSpec((3, 7, 4, 2), activation, 11))
        x = rng.standard_normal((6, 3))
        assert np.max(np.abs(forward(p, x) - reference_forward(p, x))) < 1e-12

    def test_shape_mismatch(self):
        p = init_params(MlpSpec((3, 4, 2), "tanh", 0))
        with pytest.raises(ValueError):
            forward(p, np.ones(4))

    def test_hidden_layer_count(self):
        p = init_params(MlpSpec((2, 8, 8, 8, 1), "silu", 0))
        _, tape = forward_with_hidden(p, np.ones(2))
        assert len(tape.hidden) == 3
        assert all(h.shape == (1, 8) for h in tape.hidden)


class TestBackward:
    def test_zero_cotangent(self):
        p = init_params(MlpSpec((2, 6, 2), "silu", 0))
        grads, xg = param_grads(p, np.ones(2), np.zeros(2))
        assert not np.any(grads.flat)
        assert np.all(xg == 0)

    def test_linear_input_gradient(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 2))
        p = MlpParams.from_layers(MlpSpec((3, 2), "tanh", 0), [w],
                                  [np.zeros(2)])
        g = rng.standard_normal(2)
        _, xg = param_grads(p, rng.standard_normal(3), g)
        assert np.allclose(xg, w @ g, atol=1e-14)

    def test_finite_difference_check(self):
        # acceptance-grade check on one net; the full 10-net sweep lives in
        # the acceptance suite
        rng = np.random.default_rng(3)
        p = init_params(MlpSpec((2, 16, 16, 2), "silu", 3))
        x = rng.standard_normal((4, 2))
        g = rng.standard_normal((4, 2))
        grads, _ = param_grads(p, x, g)
        nw, nb = numeric_param_grads(p, x, g)
        for exact, numeric in zip(grads.weights + grads.biases, nw + nb):
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert np.max(np.abs(exact - numeric) / denom) <= 1e-5

    def test_hidden_cotangent_injection(self):
        # extra cotangent on a hidden layer equals finite differences of
        # sum(hidden * cot)
        rng = np.random.default_rng(4)
        p = init_params(MlpSpec((2, 8, 8, 2), "tanh", 9))
        x = rng.standard_normal((3, 2))
        hg = [rng.standard_normal(8), None]

        def objective():
            _, tape = forward_with_hidden(p, x)
            return float(np.sum(tape.hidden[0] * hg[0]))

        grads, _ = param_grads(p, x, np.zeros((3, 2)), hidden_grads=hg)
        h = 1e-5
        w0 = p.weights[0]
        for idx in [(0, 0), (1, 4)]:
            w0[idx] += h
            up = objective()
            w0[idx] -= 2 * h
            down = objective()
            w0[idx] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - grads.weights[0][idx]) <= 1e-6 * max(1.0, abs(fd))

    def test_deterministic(self):
        p = init_params(MlpSpec((2, 8, 2), "silu", 1))
        x = np.ones((2, 2))
        g = np.ones((2, 2))
        a, _ = param_grads(p, x, g)
        b, _ = param_grads(p, x, g)
        assert np.array_equal(a.flat, b.flat)

    def test_stale_tape_rejected(self):
        # a tape recorded before an Adam step must not be pulled back under
        # the updated parameters
        p = init_params(MlpSpec((2, 8, 2), "silu", 1))
        x, g = np.ones((3, 2)), np.ones((3, 2))
        _, tape = forward_with_hidden(p, x)
        grads, _ = backward(p, tape, g)
        p2, _ = adam_step(p, grads, init_adam(p))
        with pytest.raises(ValueError, match="other parameters"):
            backward(p2, tape, g)

    def test_out_grad_shape_checked(self):
        p = init_params(MlpSpec((2, 8, 2), "silu", 1))
        _, tape = forward_with_hidden(p, np.ones((3, 2)))
        with pytest.raises(ValueError):
            backward(p, tape, np.ones((3, 1)))


# --- a verbatim copy of the per-layer backward that re-traced the net and
# of the per-tensor Adam update, kept as the bit-identity reference for the
# tape pullback and the whole-vector update


@dataclass
class RefParams:
    spec: MlpSpec
    weights: list
    biases: list


def _ref_as_batch(params, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.spec.widths[0]:
        raise ValueError(f"input width {x.shape[-1]} != {params.spec.widths[0]}")
    return x, single


def _ref_trace(params, x):
    act, _ = ACTIVATIONS[params.spec.activation]
    n_layers = len(params.weights)
    pre, hidden = [], []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = h @ w + b
        pre.append(a)
        if i < n_layers - 1:
            h = act(a)
            hidden.append(h)
        else:
            h = a  # last layer affine
    return h, pre, hidden


def ref_forward(params, x):
    x2d, single = _ref_as_batch(params, x)
    y, _, _ = _ref_trace(params, x2d)
    return y[0] if single else y


def ref_backward(params, x, out_grad, hidden_grads=None):
    x2d, single = _ref_as_batch(params, x)
    g = np.asarray(out_grad, dtype=np.float64)
    if single:
        g = g[None, :]
    if g.shape != (x2d.shape[0], params.spec.widths[-1]):
        raise ValueError("out_grad shape does not match network output")
    _, dact = ACTIVATIONS[params.spec.activation]
    _, pre, hidden = _ref_trace(params, x2d)

    n_layers = len(params.weights)
    w_grads = [None] * n_layers
    b_grads = [None] * n_layers
    inputs = [x2d] + hidden  # input to layer i is inputs[i]
    for i in range(n_layers - 1, -1, -1):
        w_grads[i] = inputs[i].T @ g
        b_grads[i] = g.sum(axis=0)
        gh = g @ params.weights[i].T
        if i > 0:
            if hidden_grads is not None and hidden_grads[i - 1] is not None:
                hg = np.asarray(hidden_grads[i - 1], dtype=np.float64)
                gh = gh + (hg[None, :] if single else hg)
            g = gh * dact(pre[i - 1])
        else:
            g = gh
    return (w_grads, b_grads), (g[0] if single else g)


@dataclass
class RefAdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w: list = field(default_factory=list)
    v_w: list = field(default_factory=list)
    m_b: list = field(default_factory=list)
    v_b: list = field(default_factory=list)


def ref_init_adam(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    return RefAdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m_w=[np.zeros_like(w) for w in params.weights],
        v_w=[np.zeros_like(w) for w in params.weights],
        m_b=[np.zeros_like(b) for b in params.biases],
        v_b=[np.zeros_like(b) for b in params.biases],
    )


def ref_adam_step(params, grads, state):
    w_grads, b_grads = grads
    for g in list(w_grads) + list(b_grads):
        if not np.all(np.isfinite(g)):
            raise TrainingError("non-finite gradient entries")
    t = state.step + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t

    def upd(p, g, m, v):
        m_new = state.beta1 * m + (1.0 - state.beta1) * g
        v_new = state.beta2 * v + (1.0 - state.beta2) * g * g
        p_new = p - state.lr * (m_new / c1) / (np.sqrt(v_new / c2) + state.eps)
        return p_new, m_new, v_new

    new_w, new_b = [], []
    new_state = RefAdamState(state.lr, state.beta1, state.beta2, state.eps, t,
                             [], [], [], [])
    for p, g, m, v in zip(params.weights, w_grads, state.m_w, state.v_w):
        p2, m2, v2 = upd(p, g, m, v)
        new_w.append(p2)
        new_state.m_w.append(m2)
        new_state.v_w.append(v2)
    for p, g, m, v in zip(params.biases, b_grads, state.m_b, state.v_b):
        p2, m2, v2 = upd(p, g, m, v)
        new_b.append(p2)
        new_state.m_b.append(m2)
        new_state.v_b.append(v2)
    return RefParams(params.spec, new_w, new_b), new_state


def _flatten(weights, biases):
    """Per-layer arrays in MlpParams' flat layout."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases)
                           for a in pair])


class TestBitIdentityWithRetracingReference:
    @pytest.mark.parametrize("inject", [False, True],
                             ids=["output-only", "hidden-grads"])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "silu"])
    def test_thirty_steps_equal(self, activation, inject):
        rng = np.random.default_rng([7, len(activation), inject])
        depth = int(rng.integers(1, 4))
        widths = (int(rng.integers(2, 6)),
                  *(int(rng.integers(4, 65)) for _ in range(depth)),
                  int(rng.integers(1, 4)))
        spec = MlpSpec(widths, activation, int(rng.integers(1000)))
        params = init_params(spec)
        ref = RefParams(spec, [w.copy() for w in params.weights],
                        [b.copy() for b in params.biases])
        state = init_adam(params, lr=1e-2)
        ref_state = ref_init_adam(ref, lr=1e-2)
        for step in range(30):
            # every fifth step feeds a single vector, the others a batch
            shape = ((widths[0],) if step % 5 == 0
                     else (int(rng.integers(1, 160)), widths[0]))
            x = rng.standard_normal(shape)
            target = rng.standard_normal(shape[:-1] + (widths[-1],))
            y, tape = forward_with_hidden(params, x)
            y_ref = ref_forward(ref, x)
            assert np.array_equal(y, y_ref)
            hidden_grads = None
            if inject:
                hidden_grads = [rng.standard_normal(shape[:-1] + (w,))
                                for w in widths[1:-1]]
                hidden_grads[0] = None if step % 3 == 0 else hidden_grads[0]
            grads, xg = backward(params, tape, y - target, hidden_grads)
            ref_grads, xg_ref = ref_backward(ref, x, y_ref - target,
                                             hidden_grads)
            assert np.array_equal(xg, xg_ref)
            assert np.array_equal(grads.flat, _flatten(*ref_grads))
            params, state = adam_step(params, grads, state)
            ref, ref_state = ref_adam_step(ref, ref_grads, ref_state)
            assert np.array_equal(params.flat, _flatten(ref.weights, ref.biases))
            assert np.array_equal(state.m, _flatten(ref_state.m_w, ref_state.m_b))
            assert np.array_equal(state.v, _flatten(ref_state.v_w, ref_state.v_b))
            assert state.step == ref_state.step == step + 1


def scalar_params(w0: float) -> MlpParams:
    return MlpParams(MlpSpec((1, 1), "tanh", 0), np.array([w0, 0.0]))


def scalar_grads(gw: float) -> MlpParams:
    """Gradient d/dw for the one-weight net; the bias gradient is 0."""
    return MlpParams(MlpSpec((1, 1), "tanh", 0), np.array([gw, 0.0]))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = init_params(MlpSpec((2, 4, 2), "silu", 0))
        state = init_adam(p)
        p2, state2 = adam_step(p, MlpParams(p.spec), state)
        assert state2.step == 1
        for a, b in zip(p.weights, p2.weights):
            assert np.array_equal(a, b)

    def test_descent_direction_on_quadratic(self):
        p = scalar_params(1.0)
        state = init_adam(p, lr=0.1)
        p2, _ = adam_step(p, scalar_grads(2.0 * 1.0), state)  # d/dw w^2 at w=1
        assert p2.weights[0][0, 0] < 1.0

    def test_converges_on_shifted_quadratic(self):
        # 500 steps on f(w) = (w - 3)^2 from w = 0
        p = scalar_params(0.0)
        state = init_adam(p, lr=0.05)
        for _ in range(500):
            w = p.weights[0][0, 0]
            p, state = adam_step(p, scalar_grads(2.0 * (w - 3.0)), state)
        assert abs(p.weights[0][0, 0] - 3.0) < 1e-2

    def test_nonfinite_gradient_raises(self):
        p = scalar_params(0.0)
        state = init_adam(p)
        with pytest.raises(TrainingError):
            adam_step(p, scalar_grads(np.nan), state)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = init_params(MlpSpec((2, 8, 3), "silu", 13))
        path = tmp_path / "ckpt.json"
        save_params(p, path)
        q = load_params(path)
        assert q.spec == p.spec
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           activation=st.sampled_from(sorted(ACTIVATIONS)),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_roundtrip_property(self, widths, activation, seed, data):
        p = init_params(MlpSpec(tuple(widths), activation, seed))
        p.flat[:] = data.draw(arrays(np.float64, p.flat.shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_params(p, first)
            q = load_params(first)
            save_params(q, second)
            assert q.spec == p.spec
            assert np.array_equal(q.flat, p.flat)
            assert first.read_bytes() == second.read_bytes()

    def test_earlier_checkpoint_resaves_identically(self, tmp_path):
        # written by the per-layer-list implementation that predates the
        # flat parameter vector; the format did not change
        original = DATA / "checkpoint_v0.json"
        p = load_params(original)
        payload = json.loads(original.read_text())
        assert np.array_equal(p.flat, _flatten(
            [np.array(w) for w in payload["weights"]],
            [np.array(b) for b in payload["biases"]]))
        save_params(p, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == original.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(weights=d["weights"][:1], biases=d["biases"][:1]),
        lambda d: d["biases"][1].append(0.0),
        lambda d: d["weights"][0].pop(),
        lambda d: d.pop("activation"),
        lambda d: d.update(widths=7),
        lambda d: d["weights"][0][0].append(1.0),
    ], ids=["too-few-layers", "bias-size", "weight-rows", "missing-key",
            "widths-not-a-list", "ragged-weight"])
    def test_malformed_rejected(self, tmp_path, edit):
        payload = json.loads((DATA / "checkpoint_v0.json").read_text())
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_params(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text((DATA / "checkpoint_v0.json").read_text()[:-20])
        with pytest.raises(ValueError):
            load_params(path)
