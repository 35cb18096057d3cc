import numpy as np
import pytest

from flowlab.adv import train_adversarial
from flowlab.distill import (StageGrid, default_grid, distill_grads,
                             infer_few_step, rollout, sample_training_batch,
                             train_student)
from flowlab.flow import (SIGMA_FLOOR, AnalyticField, LearnedField,
                          TrainConfig, default_benchmark, field_features,
                          interpolate, ode_solve, point_mass, sample_mixture,
                          train_flow_matching)
from flowlab.netcore import MlpSpec, TrainingError, forward, init_params


class TestStageGrid:
    def test_boundary_indexing(self):
        grid = StageGrid(np.array([1.0, 0.75, 0.5, 0.25, 0.0]))
        assert grid.n_stages == 4
        assert grid.t(0) == 0.0
        assert grid.t(4) == 1.0
        assert grid.t(2) == 0.5

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            StageGrid(np.array([0.9, 0.5, 0.0]))
        with pytest.raises(ValueError):
            StageGrid(np.array([1.0, 0.5, 0.1]))

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            StageGrid(np.array([1.0, 0.5, 0.5, 0.0]))

    def test_index_out_of_range(self):
        grid = default_grid(4)
        with pytest.raises(ValueError):
            grid.t(5)

    def test_default_grid_shift1_even(self):
        grid = default_grid(4)
        assert np.all(np.abs(grid.boundaries
                             - [1.0, 0.75, 0.5, 0.25, 0.0]) <= 2e-3)

    def test_default_grid_matches_improved_sampler(self):
        from flowlab.sched import sample_improved, sample_original
        sig = sample_improved(4, 3.0)
        grid = default_grid(4, shift=3.0)
        assert np.array_equal(grid.boundaries, sig)
        sig = sample_original(4, 3.0)
        grid = default_grid(4, shift=3.0, sampler="original")
        assert np.array_equal(grid.boundaries, sig)


def replay_batch(method, seed, grid, batch=8):
    """One sample_training_batch draw, plus its stage index and the stage
    endpoints rebuilt independently from the same rng stream through
    interpolate (perflow starts) and rollout (ota starts, stage ends)."""
    teacher, spec = AnalyticField(default_benchmark()), default_benchmark()
    z_t, t, v = sample_training_batch(teacher, spec, method, grid, batch,
                                      np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, grid.n_stages + 1))
    substeps = grid.teacher_substeps_per_stage
    if method == "perflow":
        z0 = sample_mixture(spec, batch, rng)
        start = interpolate(z0, rng.standard_normal((batch, 2)), grid.t(k))
    else:
        start = rollout(teacher, grid, rng.standard_normal((batch, 2)),
                        grid.n_stages, k, substeps)[-1]
    end = rollout(teacher, grid, start, k, k - 1, substeps)[-1]
    return k, start, end, z_t, t, v


class TestPairInvariants:
    """Both constructions must satisfy the defining identities exactly."""

    def _check(self, method, seeds):
        grid = default_grid(4)
        stages = set()
        for seed in seeds:
            k, start, end, z_t, t, v = replay_batch(method, seed, grid)
            stages.add(k)
            t_hi, t_lo = grid.t(k), grid.t(k - 1)
            assert np.all((t_lo <= t) & (t <= t_hi))
            # constant-velocity identity: v* = (end - start) / (t_lo - t_hi)
            assert np.max(np.abs((end - start) / (t_lo - t_hi) - v)) <= 1e-12
            # interior state lies on the chord
            lam = ((t - t_hi) / (t_lo - t_hi))[:, None]
            chord = start + lam * (end - start)
            assert np.max(np.abs(chord - z_t)) <= 1e-12
        assert stages == {1, 2, 3, 4}

    def test_perflow_pairs(self):
        self._check("perflow", range(12))

    def test_ota_pairs(self):
        self._check("ota", range(12))

    def test_perflow_start_is_interpolation(self):
        # the batch's chord, extended back to t_k, starts at interpolate(...)
        grid = default_grid(4)
        k, start, _, z_t, t, v = replay_batch("perflow", 2, grid)
        recovered = z_t - (t - grid.t(k))[:, None] * v
        assert np.max(np.abs(recovered - start)) <= 1e-12

    def test_stage_out_of_range(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        for from_k, to_k in ((5, 4), (4, -1), (2, 3)):
            with pytest.raises(ValueError):
                rollout(teacher, grid, np.zeros((2, 2)), from_k, to_k, 8)


class TestOtaConcatenation:
    def test_stagewise_equals_continuous_bitwise(self):
        # per-stage solves on aligned sub-grids must concatenate to the
        # single continuous solve with no floating point drift at all
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4, teacher_substeps_per_stage=8)
        rng = np.random.default_rng(4)
        eps = rng.standard_normal((32, 2))
        for k in range(0, 4):
            stagewise = rollout(teacher, grid, eps, 4, k, 8)
            sub = grid.boundaries[: 4 - k + 1]
            z = eps
            assert np.array_equal(stagewise[0], z)
            for j in range(len(sub) - 1):
                z = ode_solve(teacher, z, sub[j], sub[j + 1], 8)
                assert np.array_equal(stagewise[j + 1], z)
            assert len(stagewise) == len(sub)

    def test_ota_start_at_noise_end_is_identity(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        eps = np.random.default_rng(5).standard_normal((8, 2))
        out = rollout(teacher, grid, eps, 4, 4, 8)
        assert len(out) == 1 and np.array_equal(out[0], eps)


class TestPointMassEquivalence:
    def test_perflow_equals_ota_on_straight_field(self):
        # a point mass gives exactly straight teacher trajectories, so the
        # off-trajectory and on-trajectory constructions coincide
        mu = np.array([1.0, -0.5])
        teacher = AnalyticField(point_mass(mu))
        grid = default_grid(4)
        eps = np.random.default_rng(6).standard_normal((16, 2))
        z0 = np.broadcast_to(mu, (16, 2))
        for k in range(1, 5):
            pa = interpolate(z0, eps, grid.t(k))
            pb = rollout(teacher, grid, eps, 4, k, 8)[-1]
            assert np.max(np.abs(pa - pb)) <= 1e-9
            ends = [rollout(teacher, grid, s, k, k - 1, 8)[-1] for s in (pa, pb)]
            va, vb = ((e - s) / (grid.t(k - 1) - grid.t(k))
                      for e, s in zip(ends, (pa, pb)))
            assert np.max(np.abs(va - vb)) <= 1e-9

    def test_mixture_constructions_differ(self):
        # with a curved field the two stage starts genuinely disagree below
        # the noise end
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        rng = np.random.default_rng(8)
        z0 = sample_mixture(default_benchmark(), 64, rng)
        eps = rng.standard_normal((64, 2))
        pa = interpolate(z0, eps, grid.t(2))
        pb = rollout(teacher, grid, eps, 4, 2, 8)[-1]
        gap = np.mean(np.linalg.norm(pa - pb, axis=1))
        assert gap > 1e-2


class TestDistillLoss:
    """The loss distill_grads returns: mean || v_S(z_t, t) - v* ||^2."""

    def test_zero_for_perfect_student(self):
        params = init_params(MlpSpec((5, 8, 2), 0))
        rng = np.random.default_rng(11)
        z_t, t = rng.standard_normal((4, 2)), rng.uniform(0.1, 0.9, 4)
        v = forward(params, field_features(z_t, t))
        loss, grads = distill_grads(params, z_t, t, v)
        assert loss == 0.0
        assert not np.any(grads.flat)

    def test_known_arithmetic(self):
        # all-zero weights: the output is the last bias for every input
        params = init_params(MlpSpec((5, 8, 2), 0))
        params.flat[:] = 0.0
        params.biases[-1][:] = (3.0, 4.0)
        loss, _ = distill_grads(params, np.zeros((2, 2)), np.full(2, 0.25),
                                np.zeros((2, 2)))
        assert loss == 25.0

    def test_empty_batch(self):
        # an empty batch has no mean loss; the one training loop stops
        # before the first step and records no row, for either trainer
        cfg = TrainConfig(iterations=3, batch_size=0)
        for train in (
                lambda hist: train_student(
                    AnalyticField(default_benchmark()), default_benchmark(),
                    "ota", default_grid(4), cfg=cfg, history=hist),
                lambda hist: train_flow_matching(default_benchmark(), cfg=cfg,
                                                 history=hist)):
            hist = []
            with pytest.warns(RuntimeWarning), pytest.raises(
                    TrainingError, match="^loss diverged at iteration 0$"):
                train(hist)
            assert hist == []

    @pytest.mark.parametrize("method", ["ota", "ota+adv"])
    def test_teacher_turning_nan(self, method):
        # the iteration whose teacher calls first return NaN fails, and
        # history keeps exactly the rows before it
        hist = []
        teacher = NanAfter(80, hist)
        cfg = TrainConfig(iterations=50, batch_size=8)
        with pytest.raises(TrainingError) as failure:
            if method == "ota":
                train_student(teacher, default_benchmark(), "ota",
                              default_grid(4), cfg=cfg, history=hist)
            else:
                train_adversarial(teacher, default_benchmark(),
                                  default_grid(4), cfg=cfg, history=hist)
        assert 0 < teacher.rows == len(hist) < cfg.iterations
        assert np.all(np.isfinite(hist))
        # ota+adv stops earlier in that iteration, at the discriminator's
        # Adam step; fit names the iteration either way
        cause = ("loss diverged" if method == "ota"
                 else "non-finite gradient entries")
        assert str(failure.value) == f"{cause} at iteration {len(hist)}"


class NanAfter:
    """The analytic teacher for `calls` evaluations, NaN after them; `rows`
    is len(history) at the first NaN evaluation."""

    def __init__(self, calls, history):
        self.field = AnalyticField(default_benchmark())
        self.calls, self.history, self.rows = calls, history, None

    def __call__(self, z, sigma):
        v = self.field(z, sigma)
        self.calls -= 1
        if self.calls >= 0:
            return v
        if self.rows is None:
            self.rows = len(self.history)
        return np.full_like(v, np.nan)


class TestSampleTrainingBatch:
    def test_shapes_and_velocity_identity(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        rng = np.random.default_rng(9)
        z_t, t, v = sample_training_batch(teacher, default_benchmark(),
                                          "perflow", grid, 32, rng)
        assert z_t.shape == (32, 2) and t.shape == (32,) and v.shape == (32, 2)
        assert np.all(np.isfinite(z_t)) and np.all(np.isfinite(v))

    def test_unknown_method(self):
        teacher = AnalyticField(default_benchmark())
        with pytest.raises(ValueError):
            sample_training_batch(teacher, default_benchmark(), "reflow",
                                  default_grid(4), 8,
                                  np.random.default_rng(0))


class TestDistillGrads:
    def test_gradient_matches_finite_differences(self):
        params = init_params(MlpSpec((5, 8, 2), 0))
        rng = np.random.default_rng(10)
        z_t = rng.standard_normal((4, 2))
        t = rng.uniform(0.1, 0.9, 4)
        v = rng.standard_normal((4, 2))
        _, grads = distill_grads(params, z_t, t, v)
        h = 1e-6
        w = params.weights[0]
        for idx in [(0, 0), (2, 5)]:
            w[idx] += h
            up, _ = distill_grads(params, z_t, t, v)
            w[idx] -= 2 * h
            down, _ = distill_grads(params, z_t, t, v)
            w[idx] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - grads.weights[0][idx]) <= 1e-6 * max(1.0, abs(fd))


class TestTrainStudent:
    def test_deterministic(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(2)
        cfg = TrainConfig(iterations=25, batch_size=16, seed=3)
        a = train_student(teacher, default_benchmark(), "perflow", grid,
                          cfg=cfg)
        b = train_student(teacher, default_benchmark(), "perflow", grid,
                          cfg=cfg)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)

    def test_loss_decreases(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(2)
        hist = []
        cfg = TrainConfig(iterations=400, batch_size=64, seed=0)
        train_student(teacher, default_benchmark(), "perflow", grid,
                      cfg=cfg, history=hist)
        assert np.mean(hist[-50:]) < np.mean(hist[:50])

    def test_point_mass_student_recovers_target(self):
        # straight trajectories: a trained 2-stage student should map noise
        # very close to the point mass in 2 Euler steps
        mu = np.array([1.0, -0.5])
        teacher = AnalyticField(point_mass(mu))
        grid = default_grid(2)
        cfg = TrainConfig(iterations=1200, batch_size=128, seed=1)
        student = train_student(teacher, point_mass(mu), "perflow", grid,
                                cfg=cfg)
        eps = np.random.default_rng(2).standard_normal((128, 2))
        out = infer_few_step(student, grid, eps)
        assert np.mean(np.linalg.norm(out - mu, axis=1)) < 0.15

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            train_student(AnalyticField(default_benchmark()),
                          default_benchmark(), "reflow", default_grid(2))


class TestInferFewStep:
    def test_single_stage_is_one_step(self):
        grid = StageGrid(np.array([1.0, 0.0]))

        def student(z, sigma):
            return np.broadcast_to([1.0, 0.0], np.atleast_2d(z).shape)

        eps = np.array([[0.5, 0.5]])
        out = infer_few_step(student, grid, eps)
        assert np.allclose(out, [[-0.5, 0.5]])

    def test_teacher_as_student_matches_coarse_solve(self):
        # feeding the analytic field through the stepper must reproduce a
        # 1-substep-per-stage teacher solve on the same grid
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        eps = np.random.default_rng(3).standard_normal((16, 2))
        out = infer_few_step(teacher, grid, eps)
        z = eps
        for j in range(4):
            z = ode_solve(teacher, z, grid.boundaries[j],
                          grid.boundaries[j + 1], 1)
        assert np.array_equal(out, z)

    def test_student_sampled_as_trained(self):
        # the last stage starts below SIGMA_FLOOR; inference must evaluate
        # the student there as distill_grads and the adversarial rollout do
        grid = default_grid(4, 0.5, sampler="original")
        assert grid.t(1) < SIGMA_FLOOR
        params = init_params(MlpSpec((5, 16, 16, 2), 0))
        eps = np.random.default_rng(4).standard_normal((32, 2))
        trained = rollout(lambda z, s: forward(params, field_features(z, s)),
                          grid, eps, 4, 0, 1)[-1]
        assert np.array_equal(infer_few_step(LearnedField(params), grid, eps),
                              trained)
