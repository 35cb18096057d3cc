import numpy as np
import pytest

import flowlab.distill
from flowlab.adv import (GAN_LOSSES, AdvConfig, _generator_grads, disc_loss,
                         fm_loss, init_discriminator, sample_timestep,
                         train_adversarial, trajectory_states)
from flowlab.distill import (default_grid, rollout, sample_training_batch,
                             train_student)
from flowlab.flow import (DEFAULT_WIDTHS, AnalyticField, TrainConfig,
                          default_benchmark, field_features, ode_solve)
from flowlab.netcore import (MlpParams, MlpSpec, forward, forward_with_hidden,
                             init_params)


class TestAdvConfig:
    def test_defaults_valid(self):
        cfg = AdvConfig()
        assert cfg.gan_kind == "hinge"
        assert abs(sum(cfg.timestep_probs) - 1.0) < 1e-12

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            AdvConfig(lambda_adv=-0.1)

    @pytest.mark.parametrize("weights", [
        dict(lambda_adv=float("nan")), dict(lambda_fm=float("nan")),
        dict(lambda_adv=float("inf")), dict(lambda_fm=float("inf"))])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            AdvConfig(**weights)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            AdvConfig(timestep_probs=(0.5, 0.6))
        with pytest.raises(ValueError):
            AdvConfig(timestep_probs=(1.2, -0.2))

    def test_rejects_unknown_gan(self):
        with pytest.raises(ValueError):
            AdvConfig(gan_kind="nsgan")


class TestLossArithmetic:
    """Hand-computed values for every loss form."""

    def test_adv_loss(self):
        # the generator's adversarial loss is minus the mean fake score; a
        # hidden-free discriminator scoring the first coordinate has no
        # feature-matching term
        disc = MlpParams.from_layers(MlpSpec((5, 1)), [np.eye(5, 1)], [[0.0]])
        xf = field_features(np.array([[1.0, 0.0], [3.0, 0.0]]), 0.5)
        params = init_params(MlpSpec((5, 2)))
        l_adv, l_fm, _ = _generator_grads(params, default_grid(4), [], disc,
                                          xf, xf, AdvConfig())
        assert (l_adv, l_fm) == (-2.0, 0.0)

    def test_hinge(self):
        # real: max(0, 1-2)=0, max(0, 1-0.5)=0.5 -> mean 0.25
        # fake: max(0, 1+(-3))=0, max(0, 1+0.5)=1.5 -> mean 0.75
        assert disc_loss([2.0, 0.5], [-3.0, 0.5], "hinge")[0] == 1.0

    def test_hinge_perfect_separation(self):
        assert disc_loss([5.0, 2.0], [-5.0, -2.0], "hinge")[0] == 0.0

    def test_lsgan(self):
        # real: (2-1)^2=1, (0-1)^2=1 -> mean 1; fake: 4, 0 -> mean 2
        assert disc_loss([2.0, 0.0], [-2.0, 0.0], "lsgan")[0] == 3.0

    def test_wgan(self):
        assert disc_loss([3.0, 1.0], [0.5, 1.5], "wgan")[0] == -1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            disc_loss([1.0], [0.0], "vanilla")

    @pytest.mark.parametrize("kind", sorted(GAN_LOSSES))
    def test_score_grads_match_finite_differences(self, kind):
        # scores on both sides of the hinge kinks (r = 1, f = -1), some
        # close to one but none within the step of it
        r = np.array([[-0.7], [0.4], [0.95], [1.05], [1.8], [2.5]])
        f = np.array([[-2.2], [-1.3], [-1.05], [-0.95], [0.3], [1.1]])
        _, *score_grads = disc_loss(r, f, kind)
        h = 1e-6
        for scores, grad in zip((r, f), score_grads):
            assert grad.shape == scores.shape
            for i in range(len(scores)):
                scores[i] += h
                up = disc_loss(r, f, kind)[0]
                scores[i] -= 2 * h
                down = disc_loss(r, f, kind)[0]
                scores[i] += h
                assert abs((up - down) / (2 * h) - grad[i, 0]) <= 1e-8

    def test_fm_loss(self):
        ft = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 3.0]])]
        fs = [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[4.0, 0.0]])]
        # layer 1: norms (1, 0) -> mean 0.5; layer 2: norm 5 -> 5
        assert fm_loss(ft, fs)[0] == 5.5

    def test_fm_loss_identical_features(self):
        f = [np.ones((3, 4)), np.zeros((3, 8))]
        assert fm_loss(f, [a.copy() for a in f])[0] == 0.0

    def test_fm_loss_collects_gradient_terms(self):
        ft = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 3.0]])]
        fs = [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[4.0, 0.0]])]
        loss, diffs = fm_loss(ft, fs)
        assert loss == 5.5
        assert len(diffs) == 2
        for (d, norms), t, s in zip(diffs, ft, fs):
            np.testing.assert_array_equal(d, s - t)
            np.testing.assert_array_equal(norms, np.linalg.norm(t - s, axis=-1))

    def test_fm_loss_shape_mismatch(self):
        with pytest.raises(ValueError):
            fm_loss([np.ones((2, 3))], [np.ones((2, 4))])


class TestSampleTimestep:
    def test_degenerate_distribution(self):
        cfg = AdvConfig(timestep_probs=(0.0, 0.0, 1.0, 0.0))
        rng = np.random.default_rng(0)
        assert all(sample_timestep(cfg, rng) == 3 for _ in range(20))

    def test_frequencies_match_probs(self):
        cfg = AdvConfig(timestep_probs=(0.4, 0.2, 0.2, 0.2))
        rng = np.random.default_rng(1)
        n = 20000
        draws = np.array([sample_timestep(cfg, rng) for _ in range(n)])
        assert set(draws) == {1, 2, 3, 4}
        for stage, p in zip((1, 2, 3, 4), cfg.timestep_probs):
            freq = np.mean(draws == stage)
            se = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se


class TestDiscriminator:
    def test_feature_layer_count(self):
        d = init_discriminator(0)
        _, tape = forward_with_hidden(d, field_features(np.zeros((1, 2)), 0.5))
        assert len(tape.hidden) == 3

    def test_scalar_head_enforced(self):
        # the student's widths with a scalar score head, whatever the seed
        for seed in (0, 1):
            spec = init_discriminator(seed).spec
            assert spec == MlpSpec(DEFAULT_WIDTHS[:-1] + (1,), seed)

    def test_forward_shapes(self):
        d = init_params(MlpSpec((5, 16, 8, 1)))
        z = np.random.default_rng(2).standard_normal((6, 2))
        score, tape = forward_with_hidden(d, field_features(z, 0.5))
        assert score.shape == (6, 1)
        assert [f.shape for f in tape.hidden] == [(6, 16), (6, 8)]


def per_stage_reference(teacher, grid, eps, substeps):
    """States at t_{K-1} .. t_0 from one ode_solve per stage."""
    states, z = [], eps
    for j in range(grid.n_stages):
        z = ode_solve(teacher, z, grid.boundaries[j], grid.boundaries[j + 1],
                      substeps)
        states.append(z)
    return states


class TestTrajectoryStates:
    def test_records_every_boundary(self):
        # one call serves rows bound for every boundary t_0 .. t_{K-1}, each
        # row its own state there
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        eps = np.random.default_rng(3).standard_normal((8, 2))
        to_k = np.array([3, 0, 2, 1, 0, 3, 1, 2])
        states = trajectory_states(teacher, grid, eps, to_k)
        assert states.shape == (8, 2)
        reference = per_stage_reference(teacher, grid, eps, 8)
        for i, k in enumerate(to_k):
            assert np.array_equal(states[i], reference[3 - k][i])

    def test_consistent_with_direct_solve(self):
        # solving each row only down to its own boundary, with the grid's
        # teacher sub-steps, gives the bits of the full per-stage solve
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4, 3.0, teacher_substeps_per_stage=3)
        rng = np.random.default_rng(4)
        eps = rng.standard_normal((16, 2))
        reference = per_stage_reference(teacher, grid, eps, 3)
        for to_k in [rng.integers(0, 4, 16) for _ in range(4)] + [2]:
            states = trajectory_states(teacher, grid, eps, to_k)
            for i, k in enumerate(np.broadcast_to(to_k, 16)):
                assert np.array_equal(states[i], reference[3 - k][i])


class TestGeneratorGrads:
    """The student gradient of lambda_adv * L_adv + lambda_fm * L_FM through
    the discriminator's score and hidden cotangents and the student's own
    rollout, against central differences; discriminator and real states
    fixed."""

    @pytest.mark.parametrize("lambda_adv, lambda_fm",
                             [(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)])
    def test_matches_finite_differences(self, lambda_adv, lambda_fm):
        adv_cfg = AdvConfig(lambda_adv=lambda_adv, lambda_fm=lambda_fm)
        grid = default_grid(4)
        params = init_params(MlpSpec((5, 8, 2), 0))
        disc = init_params(MlpSpec((5, 8, 6, 1), 1))
        rng = np.random.default_rng(12)
        eps = rng.standard_normal((6, 2))
        to_k = 1
        sigma = grid.t(to_k)
        xr = field_features(rng.standard_normal((6, 2)), sigma)

        def student_states(tapes=None):
            field = lambda z, s: forward(params, field_features(z, s), tapes)
            return field_features(rollout(field, grid, eps, 4, to_k, 1)[-1],
                                  sigma)

        def objective():
            sf, tape_f = forward_with_hidden(disc, student_states())
            _, tape_r = forward_with_hidden(disc, xr)
            return (lambda_adv * float(-sf.mean())
                    + lambda_fm * fm_loss(tape_r.hidden, tape_f.hidden)[0])

        tapes = []
        xf = student_states(tapes)
        assert len(tapes) == 3
        l_adv, l_fm, grads = _generator_grads(params, grid, tapes, disc, xr,
                                              xf, adv_cfg)
        assert objective() == lambda_adv * l_adv + lambda_fm * l_fm
        # gradients here are 5e-4 .. 6e-2; central differences agree to 2e-10
        h = 1e-6
        for name, layer, idx in [("weights", 0, (0, 0)), ("weights", 0, (2, 5)),
                                 ("weights", 0, (4, 7)), ("weights", 1, (3, 1)),
                                 ("biases", 0, 6), ("biases", 1, 0)]:
            entry = getattr(params, name)[layer]
            entry[idx] += h
            up = objective()
            entry[idx] -= 2 * h
            down = objective()
            entry[idx] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - getattr(grads, name)[layer][idx]) <= 1e-6 * abs(fd) + 1e-9


class CountingField:
    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, z, sigma):
        self.calls += 1
        return self.field(z, sigma)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_teacher_solved_only_down_to_sampled_boundary(stage, monkeypatch):
    # outside the pair builder, one adversarial iteration evaluates the
    # teacher substeps x stage times: down to the sampled boundary, no further
    teacher = CountingField(AnalyticField(default_benchmark()))
    in_pairs = []

    def counted_batch(*args, **kwargs):
        before = teacher.calls
        out = sample_training_batch(*args, **kwargs)
        in_pairs.append(teacher.calls - before)
        return out

    # the pairs reach train_adversarial through distill.training_batches
    monkeypatch.setattr(flowlab.distill, "sample_training_batch", counted_batch)
    grid = default_grid(4, teacher_substeps_per_stage=8)
    probs = tuple(float(s == stage) for s in range(1, 5))
    train_adversarial(teacher, default_benchmark(), grid,
                      adv_cfg=AdvConfig(timestep_probs=probs),
                      cfg=TrainConfig(iterations=1, batch_size=8))
    assert len(in_pairs) == 1
    assert teacher.calls - in_pairs[0] == 8 * stage


class TestBitIdentityContract:
    def test_zero_lambdas_match_plain_trainer(self):
        # with both adversarial weights at zero the trained parameters must
        # be bit-identical to the plain on-trajectory trainer
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        cfg = TrainConfig(iterations=40, batch_size=16, seed=5)
        adv_cfg = AdvConfig(lambda_adv=0.0, lambda_fm=0.0)
        a = train_adversarial(teacher, default_benchmark(), grid,
                              adv_cfg=adv_cfg, cfg=cfg)
        b = train_student(teacher, default_benchmark(), "ota", grid, cfg=cfg)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.params.biases, b.params.biases):
            assert np.array_equal(ba, bb)

    def test_nonzero_lambda_changes_parameters(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        cfg = TrainConfig(iterations=15, batch_size=16, seed=5)
        a = train_adversarial(teacher, default_benchmark(), grid,
                              adv_cfg=AdvConfig(lambda_adv=0.1, lambda_fm=1.0),
                              cfg=cfg)
        b = train_student(teacher, default_benchmark(), "ota", grid, cfg=cfg)
        assert any(not np.array_equal(wa, wb)
                   for wa, wb in zip(a.params.weights, b.params.weights))


class TestTrainAdversarial:
    def test_history_rows_and_finite_losses(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        hist = []
        train_adversarial(teacher, default_benchmark(), grid,
                          cfg=TrainConfig(iterations=30, batch_size=16, seed=0),
                          history=hist)
        assert len(hist) == 30
        for l_dist, l_adv, l_fm, d_loss in hist:
            assert np.isfinite([l_dist, l_adv, l_fm, d_loss]).all()
            assert d_loss >= 0.0  # hinge loss is non-negative

    def test_deterministic(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        cfg = TrainConfig(iterations=20, batch_size=16, seed=9)
        a = train_adversarial(teacher, default_benchmark(), grid, cfg=cfg)
        b = train_adversarial(teacher, default_benchmark(), grid, cfg=cfg)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)

    def test_probs_length_must_match_stages(self):
        teacher = AnalyticField(default_benchmark())
        with pytest.raises(ValueError):
            train_adversarial(teacher, default_benchmark(), default_grid(2),
                              cfg=TrainConfig(iterations=1))

    def test_pair_stream_isolated_from_adversarial_draws(self):
        # the distillation pair stream must be unaffected by adversarial
        # work: swapping gan kinds cannot change the pairs, so short runs
        # with lambda_adv tiny stay close to the plain trainer
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        cfg = TrainConfig(iterations=10, batch_size=16, seed=2)
        hist_a, hist_b = [], []
        train_adversarial(teacher, default_benchmark(), grid,
                          adv_cfg=AdvConfig(gan_kind="hinge"),
                          cfg=cfg, history=hist_a)
        train_adversarial(teacher, default_benchmark(), grid,
                          adv_cfg=AdvConfig(gan_kind="lsgan"),
                          cfg=cfg, history=hist_b)
        # first-iteration distillation loss depends only on the pair stream
        assert hist_a[0][0] == hist_b[0][0]
