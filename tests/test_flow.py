import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.distill import StageGrid, rollout
from flowlab.flow import (AnalyticField, MixtureSpec,
                          SIGMA_FLOOR, TrainConfig, analytic_velocity,
                          default_benchmark, interpolate, ode_solve,
                          sample_mixture, train_flow_matching)
from flowlab.netcore import MlpSpec


def mc_posterior_velocity(spec, z, sigma, n=10 ** 6, seed=0):
    """Self-normalized importance-sampling oracle for E[(z - x)/sigma | z].

    Draws x from the mixture, weights by the noising likelihood
    N(z; (1-sigma) x, sigma^2 I). Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    x = sample_mixture(spec, n, rng)
    logw = -np.sum((z - (1.0 - sigma) * x) ** 2, axis=1) / (2.0 * sigma ** 2)
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    g = (z - x) / sigma
    est = w @ g
    se = np.sqrt(np.sum(w[:, None] ** 2 * (g - est) ** 2, axis=0))
    return est, se


def broadcast_velocity(spec, z, sigma):
    """The field in its (B, K, 2) broadcast form, as `analytic_velocity`
    computed it before it went one component at a time; the bit oracle."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    sig = np.asarray(sigma, dtype=np.float64)
    sig = np.broadcast_to(sig, zb.shape[:-1])[..., None]  # (B, 1)

    a = 1.0 - sig                                   # (B, 1)
    var = a ** 2 * spec.stds[None, :] ** 2 + sig ** 2   # (B, K)
    diff = zb[:, None, :] - a[:, None, :] * spec.means[None, :, :]  # (B, K, 2)
    log_r = (np.log(spec.weights)[None, :]
             - np.sum(diff ** 2, axis=-1) / (2.0 * var)
             - np.log(var))                          # (B, K)
    log_r -= log_r.max(axis=1, keepdims=True)
    r = np.exp(log_r)
    r /= r.sum(axis=1, keepdims=True)

    gain = a * spec.stds[None, :] ** 2 / var         # (B, K)
    m = spec.means[None, :, :] + gain[..., None] * diff  # (B, K, 2)
    post_mean = np.sum(r[..., None] * m, axis=1)     # (B, 2)
    v = (zb - post_mean) / sig
    return v[0] if single else v


def random_mixture(k, rng, point_masses=False):
    """k components with spread-out weights, means and stds; with
    point_masses, about half of the stds are 0."""
    w = rng.uniform(0.05, 1.0, k)
    stds = rng.uniform(0.0, 2.0, k)
    if point_masses:
        stds[rng.random(k) < 0.5] = 0.0
    return MixtureSpec(w / w.sum(), rng.normal(0.0, 3.0, (k, 2)), stds)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureSpec(np.array([0.5, 0.4]), np.zeros((2, 2)), np.ones(2))

    @pytest.mark.parametrize("weights, means, stds", [
        ([np.nan, 0.5], np.zeros((2, 2)), np.ones(2)),
        ([0.5, 0.5], [[np.nan, 0.0], [1.0, 0.0]], np.ones(2)),
        ([0.5, 0.5], [[np.inf, 0.0], [1.0, 0.0]], np.ones(2)),
        ([0.5, 0.5], np.zeros((2, 2)), [np.nan, 1.0]),
        ([0.5, 0.5], np.zeros((2, 2)), [np.inf, 1.0]),
    ], ids=["nan-weight", "nan-mean", "inf-mean", "nan-std", "inf-std"])
    def test_non_finite_rejected(self, weights, means, stds):
        with pytest.raises(ValueError):
            MixtureSpec(np.array(weights), np.array(means), np.array(stds))

    def test_mean(self):
        spec = default_benchmark()
        assert np.allclose(spec.mean, [0.0, 0.0])


class TestSampleData:
    def test_point_mass(self):
        pts = sample_mixture(MixtureSpec([1.0], [1.5, -2.0], [0.0]), 100,
                             np.random.default_rng(0))
        assert np.all(pts == [1.5, -2.0])

    def test_single_gaussian_clt(self):
        spec = MixtureSpec(np.array([1.0]), np.array([[1.0, -1.0]]),
                           np.array([0.7]))
        n = 10 ** 5
        pts = sample_mixture(spec, n, np.random.default_rng(1))
        bound = 4.0 * 0.7 / np.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0) - [1.0, -1.0]) < bound)

    def test_benchmark_mixture_clt(self):
        n = 10 ** 5
        pts = sample_mixture(default_benchmark(), n, np.random.default_rng(2))
        # per-coordinate std of the mixture is bounded by sqrt(4 + 0.09)
        bound = 4.0 * np.sqrt(4.09) / np.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) < bound)

    def test_determinism(self):
        a = sample_mixture(default_benchmark(), 64, np.random.default_rng(9))
        b = sample_mixture(default_benchmark(), 64, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestInterpolate:
    def test_endpoints(self):
        z0 = np.array([2.0, 0.0])
        eps = np.array([0.0, 2.0])
        assert np.array_equal(interpolate(z0, eps, 0.0), z0)
        assert np.array_equal(interpolate(z0, eps, 1.0), eps)

    def test_arithmetic(self):
        out = interpolate(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.25)
        assert np.allclose(out, [1.5, 0.5])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros(2), np.zeros(2), 1.1)


class TestAnalyticVelocity:
    def test_point_mass_straight_field(self):
        spec = MixtureSpec([1.0], [1.0, 0.0], [0.0])
        v = analytic_velocity(spec, np.array([0.5, 0.0]), 0.5)
        assert np.allclose(v, [-1.0, 0.0])

    def test_point_mass_zero_at_mean(self):
        spec = MixtureSpec([1.0], [0.7, -0.3], [0.0])
        for sigma in (0.1, 0.5, 1.0):
            # at z = (1-sigma) mu + sigma * 0 ... the field vanishes at the
            # noised mean; at z = mu itself it is (mu - mu)/sigma = 0 only
            # when sigma = 1 scaling is accounted; check the defining form
            v = analytic_velocity(spec, np.array([0.7, -0.3]) * (1 - sigma)
                                  + 0.0, sigma)
            assert np.allclose(v, -np.array([0.7, -0.3]), atol=1e-12)

    def test_point_mass_at_mu_any_sigma(self):
        spec = MixtureSpec([1.0], [1.0, 0.0], [0.0])
        # v = (z - mu)/sigma, so at z = mu the field is zero
        for sigma in (0.2, 0.5, 0.9):
            v = analytic_velocity(spec, np.array([1.0, 0.0]), sigma)
            assert np.allclose(v, [0.0, 0.0])

    def test_matches_monte_carlo_oracle(self):
        spec = default_benchmark()
        z = np.array([0.0, 1.0])
        sigma = 0.5
        v = analytic_velocity(spec, z, sigma)
        est, se = mc_posterior_velocity(spec, z, sigma, seed=1)
        assert np.all(np.abs(v - est) <= 3.0 * np.maximum(se, 1e-12))

    def test_sigma_floor(self):
        with pytest.raises(ValueError):
            analytic_velocity(default_benchmark(), np.zeros(2), 1e-4)

    def test_no_nan_under_fuzzing(self):
        spec = default_benchmark()
        rng = np.random.default_rng(6)
        z = rng.uniform(-10, 10, (500, 2))
        sig = rng.uniform(SIGMA_FLOOR, 1.0, 500)
        v = analytic_velocity(spec, z, sig)
        assert np.all(np.isfinite(v))

    def test_continuity_in_z_and_sigma(self):
        spec = default_benchmark()
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.uniform(-5, 5, 2)
            sig = rng.uniform(2 * SIGMA_FLOOR, 0.99)
            v = analytic_velocity(spec, z, sig)
            v_dz = analytic_velocity(spec, z + 1e-7, sig)
            v_ds = analytic_velocity(spec, z, sig + 1e-9)
            assert np.linalg.norm(v_dz - v) < 1e-3
            assert np.linalg.norm(v_ds - v) < 1e-3

    @pytest.mark.parametrize("shape", [(5, 1), (1,), (5, 3), (3,), (2, 5, 2)])
    def test_points_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="shape"):
            analytic_velocity(default_benchmark(), np.zeros(shape), 0.5)


class TestComponentMajorBits:
    """`analytic_velocity` against the broadcast form, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 12), batch=st.sampled_from([1, 2, 7, 300, 4096]),
           sigma=st.sampled_from(["floor", "one", "scalar", "rows",
                                  "rows-at-ends"]),
           point_masses=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_broadcast_form(self, k, batch, sigma, point_masses, seed):
        rng = np.random.default_rng(seed)
        spec = random_mixture(k, rng, point_masses)
        z = rng.normal(0.0, 4.0, (batch, 2))
        sig = {"floor": SIGMA_FLOOR, "one": 1.0,
               "scalar": rng.uniform(SIGMA_FLOOR, 1.0),
               "rows": rng.uniform(SIGMA_FLOOR, 1.0, batch),
               "rows-at-ends": rng.choice([SIGMA_FLOOR, 1.0], batch)}[sigma]
        assert_same_bits(analytic_velocity(spec, z, sig),
                         broadcast_velocity(spec, z, sig))
        s0 = sig[0] if np.ndim(sig) else sig
        assert_same_bits(analytic_velocity(spec, z[0], s0),
                         broadcast_velocity(spec, z[0], s0))

    def test_thirty_three_components(self):
        rng = np.random.default_rng(33)
        spec = random_mixture(33, rng, point_masses=True)
        z = rng.normal(0.0, 4.0, (500, 2))
        for sig in (SIGMA_FLOOR, 0.4, 1.0, rng.uniform(SIGMA_FLOOR, 1.0, 500)):
            assert_same_bits(analytic_velocity(spec, z, sig),
                             broadcast_velocity(spec, z, sig))

    @pytest.mark.parametrize("k", [8, 9, 16, 33])
    def test_row_does_not_depend_on_its_batch(self, k):
        # at 8 or more components the normaliser is a pairwise sum; summed
        # over axis 0 of a (K, B) array it would be one only at B = 1
        rng = np.random.default_rng(k)
        spec = random_mixture(k, rng)
        z = rng.normal(0.0, 4.0, (64, 2))
        for sig in (0.3, rng.uniform(SIGMA_FLOOR, 1.0, 64)):
            v = analytic_velocity(spec, z, sig)
            for i in range(64):
                s_i = sig[i] if np.ndim(sig) else sig
                assert_same_bits(analytic_velocity(spec, z[i:i + 1], s_i),
                                 v[i:i + 1])
                assert_same_bits(analytic_velocity(spec, z[i], s_i), v[i])


class TestOdeSolve:
    def test_point_mass_exact_any_substeps(self):
        mu = np.array([1.0, -0.5])
        field = AnalyticField(MixtureSpec([1.0], mu, [0.0]))
        eps = np.array([0.3, 0.8])
        for n in (1, 7, 64):
            end = ode_solve(field, eps, 1.0, 0.0, n)
            assert np.allclose(end, mu, atol=1e-12)

    def test_single_substep_is_one_euler_step(self):
        field = AnalyticField(default_benchmark())
        z = np.array([0.5, 0.5])
        end = ode_solve(field, z, 1.0, 0.9, 1)
        expected = z + (0.9 - 1.0) * field(z, 1.0)
        assert np.array_equal(end, expected)

    def test_self_convergence_first_order(self):
        # Richardson-style: quadrupling the substeps should cut the error
        # by roughly 4x (first-order method), measured against an
        # 8192-substep reference
        field = AnalyticField(default_benchmark())
        rng = np.random.default_rng(3)
        eps = rng.standard_normal((64, 2))
        ref = ode_solve(field, eps, 1.0, 0.0, 8192)
        e64 = ode_solve(field, eps, 1.0, 0.0, 64)
        e256 = ode_solve(field, eps, 1.0, 0.0, 256)
        err64 = np.mean(np.linalg.norm(e64 - ref, axis=1))
        err256 = np.mean(np.linalg.norm(e256 - ref, axis=1))
        ratio = err64 / err256
        assert 3.0 <= ratio <= 5.5

    def test_trajectory_recording(self):
        # rollout records one state per boundary from t_{from_k} down to
        # t_{to_k}, the start included
        field = AnalyticField(default_benchmark())
        grid = StageGrid(np.array([1.0, 0.75, 0.5, 0.25, 0.0]))
        z = np.array([0.1, 0.2])
        states = rollout(field, grid, z, 4, 2, 5)
        assert len(states) == 3
        assert np.array_equal(states[0], z)
        assert np.array_equal(states[1], ode_solve(field, z, 1.0, 0.75, 5))
        assert np.array_equal(states[2],
                              ode_solve(field, states[1], 0.75, 0.5, 5))

    def test_invalid_range(self):
        field = AnalyticField(default_benchmark())
        with pytest.raises(ValueError):
            ode_solve(field, np.zeros(2), 0.5, 0.9, 4)
        with pytest.raises(ValueError):
            ode_solve(field, np.zeros(2), 0.5, -0.1, 4)


class TestMarginalPreservation:
    def test_pushforward_matches_interpolation_marginal(self):
        # fine-solved pushforward to sigma = 0.5 vs direct interpolation
        # samples; the permutation test must not reject. Small-n version;
        # the full-size run is in the acceptance suite.
        from flowlab.diag import energy_permutation_test
        spec = default_benchmark()
        field = AnalyticField(spec)
        rng = np.random.default_rng(4)
        n = 1024
        eps = rng.standard_normal((n, 2))
        pushed = ode_solve(field, eps, 1.0, 0.5, 256)
        z0 = sample_mixture(spec, n, rng)
        eps2 = rng.standard_normal((n, 2))
        direct = interpolate(z0, eps2, 0.5)
        _, p = energy_permutation_test(pushed, direct, 500, seed=0)
        assert p >= 0.01


class TestTrainFlowMatching:
    def test_zero_iterations_returns_init(self):
        spec = default_benchmark()
        cfg = TrainConfig(iterations=0, seed=5)
        field = train_flow_matching(spec, cfg=cfg)
        from flowlab.netcore import init_params
        fresh = init_params(MlpSpec((5, 64, 64, 64, 2), 5))
        for a, b in zip(field.params.weights, fresh.weights):
            assert np.array_equal(a, b)

    def test_point_mass_recovers_straight_field(self):
        mu = np.array([1.0, -0.5])
        spec = MixtureSpec([1.0], mu, [0.0])
        cfg = TrainConfig(iterations=1500, batch_size=128, seed=0)
        field = train_flow_matching(spec, cfg=cfg)
        rng = np.random.default_rng(1)
        eps = rng.standard_normal((256, 2))
        sig = rng.uniform(SIGMA_FLOOR, 1.0, 256)
        z = interpolate(np.broadcast_to(mu, (256, 2)), eps, sig)
        exact = analytic_velocity(spec, z, sig)
        err = np.mean(np.sum((field(z, sig) - exact) ** 2, axis=1))
        # exact target has mean square E||eps - mu||^2 = 3.25; require the
        # learned field to capture all but a few percent of it
        assert err <= 0.1

    def test_beats_zero_field_on_mixture(self):
        spec = default_benchmark()
        cfg = TrainConfig(iterations=800, batch_size=128, seed=2)
        field = train_flow_matching(spec, cfg=cfg)
        rng = np.random.default_rng(3)
        n = 2048
        z0 = sample_mixture(spec, n, rng)
        eps = rng.standard_normal((n, 2))
        sig = rng.uniform(SIGMA_FLOOR, 1.0, n)
        z = interpolate(z0, eps, sig)
        target = eps - z0
        loss = np.mean(np.sum((field(z, sig) - target) ** 2, axis=1))
        zero_loss = np.mean(np.sum(target ** 2, axis=1))
        assert loss < zero_loss

    def test_deterministic(self):
        spec = default_benchmark()
        cfg = TrainConfig(iterations=20, batch_size=32, seed=7)
        a = train_flow_matching(spec, cfg=cfg)
        b = train_flow_matching(spec, cfg=cfg)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)


class TestFirstMomentLaw:
    def test_mean_velocity_is_minus_data_mean(self):
        # E[v(z_sigma, sigma)] = -mu_data on interpolation marginals
        spec = MixtureSpec(np.array([0.5, 0.5]),
                           np.array([[-1.0, 1.0], [3.0, 0.0]]),
                           np.array([0.3, 0.3]))
        field = AnalyticField(spec)
        rng = np.random.default_rng(11)
        n = 50_000
        for sigma in (0.25, 0.5, 0.75):
            z0 = sample_mixture(spec, n, rng)
            eps = rng.standard_normal((n, 2))
            z = interpolate(z0, eps, sigma)
            v = field(z, sigma)
            se = np.sqrt(v.var(axis=0, ddof=1) / n)
            assert np.all(np.abs(v.mean(axis=0) + spec.mean) <= 3.0 * se + 1e-9)
