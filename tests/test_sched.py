from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowlab import sched
from flowlab.distill import StageGrid, default_grid
from flowlab.flow import solve_on_grid
from flowlab.sched import (SAMPLERS, build_base_schedule, format_sigmas,
                           sample_improved, sample_original, shift_sigma)

SHIFTS = st.floats(0.0, 10.0, exclude_min=True)
T = 1000


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

    @given(shift=SHIFTS)
    def test_fixed_points_property(self, shift):
        assert shift_sigma(0.0, shift) == 0.0
        assert shift_sigma(1.0, shift) == 1.0

    @given(shift=SHIFTS, a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_monotone_property(self, shift, a, b):
        # the rounded map is monotone down to its rounding error, a few
        # ulps of sigma; closer pairs can swap by an ulp
        a, b = sorted((a, b))
        assume(b - a > 1e-12)
        assert shift_sigma(a, shift) <= shift_sigma(b, shift)

    @given(sigma=st.floats(0.0, 1.0))
    def test_identity_at_shift_one_property(self, sigma):
        assert shift_sigma(sigma, 1.0) == sigma

    def test_no_cancellation_near_one_at_small_shift(self):
        # the denominator s*sigma + (1 - sigma) does not cancel for small s
        # near sigma = 1, where 1 + (s - 1)*sigma loses about 1e-16 / s
        s, sigma = 1e-10, 1.0 - 2.0 ** -40
        num = Fraction(s) * Fraction(sigma)
        exact = num / (num + 1 - Fraction(sigma))
        assert abs(Fraction(shift_sigma(sigma, s)) - exact) / exact < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shift_sigma(1.5, 1.0)
        with pytest.raises(ValueError):
            shift_sigma(-0.1, 1.0)
        with pytest.raises(ValueError):
            shift_sigma(0.5, 0.0)


class TestBuildBaseSchedule:
    def test_last_element_unshifted(self):
        assert abs(build_base_schedule(1000, 1.0)[-1] - 0.001) < 1e-12

    def test_interior_element(self):
        assert abs(build_base_schedule(1000, 1.0)[333] - 0.667) < 1e-12

    def test_two_point_linspace(self):
        assert np.allclose(build_base_schedule(2, 1.0), [1.0, 0.5])

    def test_invariants(self):
        for shift in (0.5, 1.0, 3.0):
            base = build_base_schedule(1000, shift)
            assert base[0] == 1.0
            assert np.all(np.diff(base) < 0)
            assert base[-1] > 0

    def test_too_few_timesteps(self):
        with pytest.raises(ValueError):
            build_base_schedule(1, 1.0)


# golden rows for N=4; tiny slack because improved shift=3 sits exactly on
# the 2e-3 tolerance boundary
TOL = 2e-3 + 1e-9


class TestSampleOriginal:
    def test_shift1_n4(self):
        sig = sample_original(4, 1.0)
        assert np.all(np.abs(sig - [1.000, 0.667, 0.334, 0.001, 0.000]) <= TOL)

    def test_shift3_n4(self):
        sig = sample_original(4, 3.0)
        assert np.all(np.abs(sig - [1.000, 0.858, 0.602, 0.009, 0.000]) <= TOL)

    def test_prezero_sigma_shift3(self):
        sig = sample_original(4, 3.0)
        assert abs(sig[-2] - 0.0089) <= 2e-4

    def test_full_grid_degenerate(self):
        sig = sample_original(1000, 1.0)
        assert len(sig) == 1001
        assert abs(sig[-2] - 0.001) < 1e-9

    def test_range_error(self):
        with pytest.raises(ValueError):
            sample_original(0, 1.0)
        with pytest.raises(ValueError):
            sample_original(1001, 1.0)


class TestSampleImproved:
    def test_shift1_n4(self):
        sig = sample_improved(4, 1.0)
        assert np.all(np.abs(sig - [1.000, 0.750, 0.500, 0.250, 0.000]) <= TOL)

    def test_shift3_n4(self):
        sig = sample_improved(4, 3.0)
        assert np.all(np.abs(sig - [1.000, 0.900, 0.751, 0.502, 0.000]) <= TOL)

    def test_n2_midpoint(self):
        sig = sample_improved(2, 1.0)
        assert np.all(np.abs(sig - [1.000, 0.500, 0.000]) <= TOL)

    def test_full_augmented_grid(self):
        sig = sample_improved(1000, 2.0)
        assert np.array_equal(sig, np.append(build_base_schedule(1000, 2.0), 0.0))


class TestSamplerProperties:
    @pytest.mark.parametrize("shift", [0.5, 1.0, 3.0, 6.0])
    @pytest.mark.parametrize("n", [1, 2, 4, 10, 32, 250])
    def test_decreasing_ending_at_zero(self, shift, n):
        for sampler in (sample_original, sample_improved):
            sig = sampler(n, shift)
            assert len(sig) == n + 1
            assert sig[0] == 1.0 and sig[-1] == 0.0
            assert np.all(np.diff(sig) < 0)

    @settings(max_examples=300, deadline=None)
    @given(shift=SHIFTS, n=st.integers(1, T))
    def test_any_shift_and_step_count(self, shift, n):
        # once the shifted sigmas underflow, float64 holds no strictly
        # decreasing grid and a ValueError says so: shift / T is subnormal
        # below 1e-300, and the original sampler, which shifts twice
        # (about shift**2 * sigma), underflows below 1e-150
        limits = {"original": 1e-150, "improved": 1e-300}
        for name in SAMPLERS:
            try:
                sig = default_grid(n, shift, sampler=name).boundaries
            except ValueError:
                assert shift < limits[name]
                continue
            assert len(sig) == n + 1
            assert sig[0] == 1.0 and sig[-1] == 0.0
            assert np.all(np.diff(sig) < 0)

    @settings(max_examples=300, deadline=None)
    @given(shift=st.floats(1e-300, 10.0), n=st.integers(1, T))
    def test_improved_steps_equal_in_unshifted_t(self, shift, n):
        sig = sample_improved(n, shift, T)
        raw = sig / (shift * (1.0 - sig) + sig)  # shift_sigma inverted
        # unshifted sigmas are 1 - i/T for indices i; rounding each index
        # to an integer moves a step by less than one index from T/n
        steps = -np.diff(raw) * T
        assert np.all(np.abs(steps - T / n) < 1.0)

    def test_improved_proportional_steps_shift1(self):
        sig = sample_improved(4, 1.0)
        diffs = np.diff(sig)
        assert np.ptp(diffs) <= 2e-3

    def test_original_disproportional_last_step(self):
        sig = sample_original(4, 1.0)
        first_interval = sig[0] - sig[1]
        last_interval = sig[-2] - sig[-1]
        assert last_interval < first_interval / 100

    def test_n1_both_reduce_to_single_step(self):
        assert np.array_equal(sample_original(1, 3.0), [1.0, 0.0])
        assert np.array_equal(sample_improved(1, 3.0), [1.0, 0.0])


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
    """build_base_schedule checks the shifted sigmas it builds; StageGrid
    checks every sampler's output. The shift map is replaced to hand
    build_base_schedule a bad schedule."""

    @staticmethod
    def base_from(monkeypatch, sigmas):
        monkeypatch.setattr(sched, "shift_sigma",
                            lambda raw, shift: np.asarray(sigmas, dtype=float))
        return build_base_schedule(len(sigmas), 1.0)

    def test_schedule_rejects_bad_first_element(self, monkeypatch):
        with pytest.raises(ValueError, match="start at sigma = 1.0"):
            self.base_from(monkeypatch, np.linspace(0.9, 0.1, 10))

    @pytest.mark.parametrize("sigmas, message", [
        ([1.0, 0.5, 0.5], "strictly decreasing"),
        ([1.0, 0.5, 0.0], r"\(0, 1\]"),
    ], ids=["flat", "reaches-zero"])
    def test_schedule_rejects_bad_shape(self, monkeypatch, sigmas, message):
        with pytest.raises(ValueError, match=message):
            self.base_from(monkeypatch, sigmas)

    def test_inference_rejects_nonzero_tail(self):
        with pytest.raises(ValueError):
            StageGrid(np.array([1.0, 0.5, 0.1]))
