import numpy as np
import pytest

from flowlab.flow import solve_on_grid
from flowlab.sched import (InferenceSigmas, SigmaSchedule, build_base_schedule,
                           format_sigmas, sample_improved, sample_original,
                           shift_sigma)


class TestShiftSigma:
    def test_identity_at_shift_one(self):
        assert shift_sigma(0.5, 1.0) == 0.5

    def test_golden_value_shift_three(self):
        assert abs(shift_sigma(0.75, 3.0) - 0.900) < 1e-12

    def test_fixed_points(self):
        assert shift_sigma(1.0, 3.0) == 1.0
        assert shift_sigma(0.0, 3.0) == 0.0

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = float(rng.uniform(0.05, 10.0))
            sig = np.sort(rng.uniform(0.0, 1.0, 20))
            out = shift_sigma(sig, s)
            assert np.all(np.diff(out) >= 0)
            strict = np.diff(sig) > 0
            assert np.all(np.diff(out)[strict] > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shift_sigma(1.5, 1.0)
        with pytest.raises(ValueError):
            shift_sigma(-0.1, 1.0)
        with pytest.raises(ValueError):
            shift_sigma(0.5, 0.0)


class TestBuildBaseSchedule:
    def test_last_element_unshifted(self):
        sched = build_base_schedule(1000, 1.0)
        assert abs(sched.train_sigmas[-1] - 0.001) < 1e-12

    def test_interior_element(self):
        sched = build_base_schedule(1000, 1.0)
        assert abs(sched.train_sigmas[333] - 0.667) < 1e-12

    def test_two_point_linspace(self):
        sched = build_base_schedule(2, 1.0)
        assert np.allclose(sched.train_sigmas, [1.0, 0.5])

    def test_invariants(self):
        for shift in (0.5, 1.0, 3.0):
            sched = build_base_schedule(1000, shift)
            assert sched.train_sigmas[0] == 1.0
            assert np.all(np.diff(sched.train_sigmas) < 0)
            assert sched.train_sigmas[-1] > 0

    def test_too_few_timesteps(self):
        with pytest.raises(ValueError):
            build_base_schedule(1, 1.0)


# golden rows for N=4; tiny slack because improved shift=3 sits exactly on
# the 2e-3 tolerance boundary
TOL = 2e-3 + 1e-9


class TestSampleOriginal:
    def test_shift1_n4(self):
        sig = sample_original(build_base_schedule(1000, 1.0), 4).sigmas
        assert np.all(np.abs(sig - [1.000, 0.667, 0.334, 0.001, 0.000]) <= TOL)

    def test_shift3_n4(self):
        sig = sample_original(build_base_schedule(1000, 3.0), 4).sigmas
        assert np.all(np.abs(sig - [1.000, 0.858, 0.602, 0.009, 0.000]) <= TOL)

    def test_prezero_sigma_shift3(self):
        sig = sample_original(build_base_schedule(1000, 3.0), 4).sigmas
        assert abs(sig[-2] - 0.0089) <= 2e-4

    def test_full_grid_degenerate(self):
        sig = sample_original(build_base_schedule(1000, 1.0), 1000).sigmas
        assert len(sig) == 1001
        assert abs(sig[-2] - 0.001) < 1e-9

    def test_range_error(self):
        sched = build_base_schedule(1000, 1.0)
        with pytest.raises(ValueError):
            sample_original(sched, 0)
        with pytest.raises(ValueError):
            sample_original(sched, 1001)


class TestSampleImproved:
    def test_shift1_n4(self):
        sig = sample_improved(build_base_schedule(1000, 1.0), 4).sigmas
        assert np.all(np.abs(sig - [1.000, 0.750, 0.500, 0.250, 0.000]) <= TOL)

    def test_shift3_n4(self):
        sig = sample_improved(build_base_schedule(1000, 3.0), 4).sigmas
        assert np.all(np.abs(sig - [1.000, 0.900, 0.751, 0.502, 0.000]) <= TOL)

    def test_n2_midpoint(self):
        sig = sample_improved(build_base_schedule(1000, 1.0), 2).sigmas
        assert np.all(np.abs(sig - [1.000, 0.500, 0.000]) <= TOL)

    def test_full_augmented_grid(self):
        sched = build_base_schedule(1000, 2.0)
        sig = sample_improved(sched, 1000).sigmas
        assert np.array_equal(sig, np.append(sched.train_sigmas, 0.0))


class TestSamplerProperties:
    @pytest.mark.parametrize("shift", [0.5, 1.0, 3.0, 6.0])
    @pytest.mark.parametrize("n", [1, 2, 4, 10, 32, 250])
    def test_decreasing_ending_at_zero(self, shift, n):
        sched = build_base_schedule(1000, shift)
        for sampler in (sample_original, sample_improved):
            sig = sampler(sched, n).sigmas
            assert len(sig) == n + 1
            assert sig[0] == 1.0 and sig[-1] == 0.0
            assert np.all(np.diff(sig) < 0)

    def test_improved_proportional_steps_shift1(self):
        sig = sample_improved(build_base_schedule(1000, 1.0), 4).sigmas
        diffs = np.diff(sig)
        assert np.ptp(diffs) <= 2e-3

    def test_original_disproportional_last_step(self):
        sig = sample_original(build_base_schedule(1000, 1.0), 4).sigmas
        first_interval = sig[0] - sig[1]
        last_interval = sig[-2] - sig[-1]
        assert last_interval < first_interval / 100

    def test_n1_both_reduce_to_single_step(self):
        sched = build_base_schedule(1000, 3.0)
        assert np.array_equal(sample_original(sched, 1).sigmas, [1.0, 0.0])
        assert np.array_equal(sample_improved(sched, 1).sigmas, [1.0, 0.0])


class TestStepEuler:
    """One Euler step is solve_on_grid on a two-point sigma grid."""

    @staticmethod
    def step(z, v, sigma_from, sigma_to):
        return solve_on_grid(lambda z_, s: v, z, [sigma_from, sigma_to])

    def test_arithmetic(self):
        out = self.step(np.zeros(2), np.ones(2), 1.0, 0.5)
        assert np.allclose(out, [-0.5, -0.5])

    def test_zero_velocity(self):
        z = np.array([1.3, -2.1])
        assert np.array_equal(self.step(z, np.zeros(2), 0.9, 0.2), z)

    def test_straight_path_identity(self):
        # full step 1 -> 0 with v = eps - x starting at eps lands at x
        x = np.array([2.0, -1.0])
        eps = np.array([0.5, 0.3])
        assert np.allclose(self.step(eps, eps - x, 1.0, 0.0), x, atol=1e-15)

    def test_non_decreasing_pair_rejected(self):
        with pytest.raises(ValueError):
            self.step(np.zeros(2), np.ones(2), 0.5, 0.5)


class TestSerialization:
    def test_format_nine_significant_digits(self):
        text = format_sigmas([1.0, 0.123456789123, 0.0])
        lines = text.splitlines()
        assert lines[0] == "1"
        assert lines[1] == "0.123456789"
        assert lines[2] == "0"


class TestTypeInvariants:
    def test_schedule_rejects_bad_first_element(self):
        with pytest.raises(ValueError):
            SigmaSchedule(np.linspace(0.9, 0.1, 10), 1.0, 10)

    def test_inference_rejects_nonzero_tail(self):
        with pytest.raises(ValueError):
            InferenceSigmas(np.array([1.0, 0.5, 0.1]), "improved")

    def test_inference_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            InferenceSigmas(np.array([1.0, 0.5, 0.0]), "other")
