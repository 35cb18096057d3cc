import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import flowlab
import flowlab.diag
from flowlab.diag import (energy_distance, energy_permutation_test,
                          expected_velocity_residual, interstage_distance,
                          teacher_trajectory_divergence, w2_exact_small)
from flowlab.distill import default_grid, rollout, train_student
from flowlab.flow import (AnalyticField, MixtureSpec, TrainConfig,
                          default_benchmark, interpolate)


def w2_bruteforce(a, b):
    """Exhaustive minimum over all permutations (oracle, n <= 6)."""
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1))
        best = min(best, cost)
    return np.sqrt(best)


def energy_permutation_oracle(a, b, n_permutations=1000, seed=0):
    """Reference: the energy statistic of the observed labels and of each
    of the permutation test's label draws, from float64 distances taken
    in row blocks and the textbook V-statistic x'Dx, x'Dy, y'Dy."""
    n = len(a)
    pooled = np.vstack([a, b])
    rng = np.random.default_rng(seed)
    X = np.zeros((2 * n, n_permutations + 1))
    X[:n, 0] = 1.0
    for p in range(n_permutations):
        X[rng.permutation(2 * n)[:n], p + 1] = 1.0
    s_aa, s_ab, s_bb = (np.zeros(n_permutations + 1) for _ in range(3))
    for i in range(0, 2 * n, 256):
        D = cdist(pooled[i:i + 256], pooled)
        x = X[i:i + 256]
        DX = D @ X
        DY = D.sum(axis=1)[:, None] - DX  # D @ (1 - X)
        s_aa += (x * DX).sum(axis=0)
        s_ab += (x * DY).sum(axis=0)
        s_bb += ((1.0 - x) * DY).sum(axis=0)
    stats = (2.0 * s_ab - s_aa - s_bb) / n ** 2
    return stats[0], stats[1:]


ORACLE_NS = (1, 5, 512, 1000, 1024, 2049, 3001, 4096)
ORACLE_PERMUTATIONS = (1, 200)
# "scaled" shrinks half the points by 1e-6: the case where adding
# per-block float64 sums, instead of numpy's chunk order, breaks the total
ORACLE_POINT_SETS = ("gaussian", "rounded", "scaled")


def oracle_points(n, kind):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2)) + 0.1
    if kind == "rounded":  # duplicate points
        a, b = np.round(a, 1), np.round(b, 1)
    elif kind == "scaled":
        a[: n // 2] *= 1e-6
        b[: n // 2] *= 1e-6
    return a, b


def oracle_results(n):
    """(P, kind, oracle statistic, oracle permutation statistics, result)
    for every oracle case of n."""
    rows = []
    for P, kind in itertools.product(ORACLE_PERMUTATIONS, ORACLE_POINT_SETS):
        a, b = oracle_points(n, kind)
        rows.append((P, kind, *energy_permutation_oracle(a, b, P, seed=n),
                     energy_permutation_test(a, b, P, seed=n)))
    return rows


# Blocks are 128 rows high, two 64-row units, which shares 2 and 3 split
# one unit per thread. n = 200's 160,000 distances run on the calling
# thread at every share. n = 992's 1984 rows leave a last block of one
# unit, and n = 1001's 2002 rows one of a unit and 18 rows.
SHARE_NS = (200, 992, 1001)


def share_results():
    """(share, n, result, sums, ran on the calling thread, widths,
    distances) for each share in 1-3 and n in SHARE_NS: the test's
    result, _triangle_sums of 5 random label columns, and over every
    cdist call the widths it ran to and the distances it made. Run it in
    a child process: it replaces diag's share rule by the share, and
    diag's cdist by one that records its calls."""
    calling, calls, cdist_ = threading.get_ident(), [], flowlab.diag.cdist

    def recorded(xa, xb, *args, **kwargs):
        calls.append((threading.get_ident(), len(xa), len(xb)))
        return cdist_(xa, xb, *args, **kwargs)

    flowlab.diag.cdist = recorded
    rows = []
    for share, n in itertools.product((1, 2, 3), SHARE_NS):
        flowlab.diag._cpu_share = lambda: share
        a, b = oracle_points(n, "scaled")
        labels = np.random.default_rng(n).random((2 * n, 5)) < 0.5
        sums = flowlab.diag._triangle_sums(np.vstack([a, b]),
                                           labels.astype(np.float32))
        calls.clear()
        result = energy_permutation_test(a, b, 50, seed=n)
        rows.append((share, n, result, [sums[0], sums[1], list(sums[2])],
                     any(t == calling for t, _, _ in calls),
                     sorted({width for _, _, width in calls}),
                     sum(m * width for _, m, width in calls)))
    return rows


def pinned_child(call):
    """json of this module's call() in a child process pinned to one BLAS
    thread. JSON floats round-trip exactly."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(Path(flowlab.__file__).parents[1]), str(Path(__file__).parent)]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, paths + [os.environ.get("PYTHONPATH")]))
    code = (f"import json, {Path(__file__).stem} as t; "
            f"print(json.dumps(t.{call}()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out)


def traced_peak_bytes(n):
    """numpy's traced allocation peak over one permutation test."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2))
    tracemalloc.start()
    try:
        energy_permutation_test(a, b, 200, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestW2Exact:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).standard_normal((50, 2))
        assert w2_exact_small(pts, pts.copy()) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((30, 2))
        assert np.isclose(w2_exact_small(a, b),
                          w2_exact_small(a, b[rng.permutation(30)]))

    def test_single_pair(self):
        assert np.isclose(w2_exact_small([[0.0, 0.0]], [[3.0, 4.0]]), 5.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            for _ in range(5):
                a = rng.standard_normal((n, 2))
                b = rng.standard_normal((n, 2))
                assert np.isclose(w2_exact_small(a, b), w2_bruteforce(a, b),
                                  atol=1e-12)

    def test_triangle_inequality_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = rng.standard_normal((3, 20, 2))
            ab = w2_exact_small(a, b)
            bc = w2_exact_small(b, c)
            ac = w2_exact_small(a, c)
            assert ac <= ab + bc + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((15, 2))
        b = rng.standard_normal((15, 2))
        assert np.isclose(w2_exact_small(a, b), w2_exact_small(b, a))

    def test_size_limits(self):
        with pytest.raises(ValueError):
            w2_exact_small(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            w2_exact_small(np.zeros((300, 2)), np.zeros((300, 2)))
        with pytest.raises(ValueError, match="nonempty"):
            w2_exact_small(np.zeros((0, 2)), np.zeros((0, 2)))


class TestEnergyDistance:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(5).standard_normal((40, 2))
        assert abs(energy_distance(pts, pts.copy())) < 1e-12

    def test_hand_computed(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        # 2*5 - 0 - 0 = 10
        assert np.isclose(energy_distance(a, b), 10.0)

    def test_symmetry_and_nonnegativity_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((30, 2))
            b = rng.standard_normal((30, 2)) + rng.uniform(-1, 1, 2)
            e = energy_distance(a, b)
            assert np.isclose(e, energy_distance(b, a))
            assert e >= -1e-10

    def test_grows_with_separation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2))
        e_near = energy_distance(a, b + [0.5, 0.0])
        e_far = energy_distance(a, b + [5.0, 0.0])
        assert e_far > e_near

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((0, 2)), np.zeros((3, 2)))


class TestEnergyPermutationTest:
    def test_statistic_matches_direct_computation(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((64, 2))
        b = rng.standard_normal((64, 2)) + 0.3
        stat, _ = energy_permutation_test(a, b, 50, seed=0)
        # float32 pooled distances inside the fast path
        assert abs(stat - energy_distance(a, b)) < 1e-4

    def test_detects_shifted_distribution(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((256, 2))
        b = rng.standard_normal((256, 2)) + 1.0
        _, p = energy_permutation_test(a, b, 500, seed=1)
        assert p < 0.01

    def test_null_calibration(self):
        # under the null the p-value should be roughly uniform: check that
        # the rejection rate at alpha = 0.2 over 50 repeats is plausible
        rng = np.random.default_rng(10)
        rejections = 0
        for rep in range(50):
            a = rng.standard_normal((64, 2))
            b = rng.standard_normal((64, 2))
            _, p = energy_permutation_test(a, b, 200, seed=rep)
            rejections += p <= 0.2
        # Binomial(50, 0.2): mean 10, sd 2.83; allow 4 sd
        assert rejections <= 22

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((32, 2))
        b = rng.standard_normal((32, 2))
        assert (energy_permutation_test(a, b, 100, seed=3)
                == energy_permutation_test(a, b, 100, seed=3))

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            energy_permutation_test(np.zeros((4, 2)), np.zeros((5, 2)), 10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            energy_permutation_test(np.zeros((0, 2)), np.zeros((0, 2)), 10)

    @pytest.mark.parametrize("n_permutations", [0, -1])
    def test_no_permutations_rejected(self, n_permutations):
        with pytest.raises(ValueError, match="n_permutations"):
            energy_permutation_test(np.zeros((4, 2)), np.ones((4, 2)),
                                    n_permutations)

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_matches_float64_oracle(self, n):
        # the observed statistic sums float64 distances; the permutations'
        # come from float32 products, so a permutation whose statistic
        # lies within the float32 band of the observed one is a tie that
        # may fall either way (n = 5 has many)
        for P, kind, expected, perms, (stat, p) in oracle_results(n):
            band = 3.9e-4 * abs(expected)
            assert abs(stat - expected) <= 1e-9 * abs(expected), (P, kind)
            above = np.sum(perms > expected + band)
            near = np.sum(np.abs(perms - expected) <= band)
            count = round(p * (1 + P)) - 1  # permutations at or above
            assert above <= count <= above + near, (P, kind)

    def test_statistic_does_not_depend_on_permutation_count(self):
        a, b = oracle_points(1001, "scaled")
        stats = {energy_permutation_test(a, b, P, seed=3)[0]
                 for P in (1, 7, 200)}
        assert len(stats) == 1

    def test_rows_longer_than_the_cdist_scratch(self, monkeypatch):
        # rows of 2n > CDIST_ELEMENTS distances, as at n > 32768 by default,
        # are computed one whole row at a time
        a, b = oracle_points(20, "gaussian")
        default = energy_permutation_test(a, b, 50, seed=4)
        monkeypatch.setattr(flowlab.diag, "CDIST_ELEMENTS", 16)
        stat, p = energy_permutation_test(a, b, 50, seed=4)
        assert (stat, p) == default
        expected, perms = energy_permutation_oracle(a, b, 50, seed=4)
        assert abs(stat - expected) <= 1e-9 * abs(expected)
        band = 3.9e-4 * abs(expected)
        above = np.sum(perms > expected + band)
        near = np.sum(np.abs(perms - expected) <= band)
        assert above <= round(p * 51) - 1 <= above + near

    def test_python_thread_count_does_not_change_bits(self):
        rows = pinned_child("share_results")
        for n in SHARE_NS:
            results = {share: (tuple(result), sums, widths, distances)
                       for share, m, result, sums, _, widths, distances
                       in rows if m == n}
            assert results[2] == results[3] == results[1], n
        for share, n, _, _, on_calling_thread, _, _ in rows:
            threaded = share > 1 and n > 200
            assert on_calling_thread != threaded, (share, n)
        # the fixed partition: 128-row blocks, each to the columns from its
        # own first row on, at every share
        for _, n, _, _, _, widths, distances in rows:
            starts = range(0, 2 * n, 128)
            assert widths == sorted(2 * n - i0 for i0 in starts)
            assert distances == sum(min(128, 2 * n - i0) * (2 * n - i0)
                                    for i0 in starts)

    def test_threads_share_one_block_of_memory(self, monkeypatch):
        peaks = {}
        for share in (1, 2):
            monkeypatch.setattr(flowlab.diag, "_cpu_share", lambda: share)
            peaks[share] = traced_peak_bytes(4096)
        assert peaks[2] <= 1.1 * peaks[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN statistic used to come with p = 1 / (P + 1), the most
        # significant p-value there is
        finite = np.zeros((4, 2))
        broken = np.ones((4, 2))
        broken[2, 1] = bad
        for a, b in ((finite, broken), (broken, finite)):
            with pytest.raises(ValueError, match="finite"):
                energy_permutation_test(a, b, 20)

    def test_memory_without_the_product_matrix(self):
        # the (2n, P) float32 product matrix (6.25 MiB here) is gone; the
        # peak was 26,034,941 bytes with it
        assert traced_peak_bytes(4096) <= 26_034_941 - 2 * 4096 * 200 * 4

    def test_memory_linear_in_n(self):
        # the whole distance matrix would take 192 MiB at n = 2048 and grow
        # 4x per doubling of n
        small, large = traced_peak_bytes(1024), traced_peak_bytes(2048)
        assert large < 64 * 2 ** 20
        assert large < 2 * small


def divergence_every_stage_solved(teacher, grid, n, seed):
    """teacher_trajectory_divergence as it was when every piecewise stage,
    the first included, was solved on its own (reference)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, 2))
    K, substeps = grid.n_stages, grid.teacher_substeps_per_stage
    continuous = rollout(teacher, grid, eps, K, 0, substeps)[1:]
    z0_true = continuous[-1][rng.permutation(n)]
    piecewise = []
    for k in range(K, 0, -1):
        start = eps if k == K else interpolate(z0_true, eps, grid.t(k))
        piecewise.append(rollout(teacher, grid, start, k, k - 1, substeps)[-1])
    gaps = [np.linalg.norm(c - p, axis=1) for c, p in zip(continuous, piecewise)]
    return (grid.boundaries[1:], np.array([g.mean() for g in gaps]),
            np.array([g.std(ddof=1) / np.sqrt(n) for g in gaps]))


class TestTrajectoryDivergence:
    def test_point_mass_no_divergence(self):
        # straight teacher trajectories: re-initializing on the chord is a
        # no-op, so the gap vanishes at every boundary
        teacher = AnalyticField(MixtureSpec([1.0], [1.0, -0.5], [0.0]))
        _, means, _ = teacher_trajectory_divergence(teacher, default_grid(4),
                                                    64, seed=0)
        assert np.all(means <= 1e-9)

    def test_mixture_diverges_at_interior_boundaries(self):
        teacher = AnalyticField(default_benchmark())
        bnds, means, ses = teacher_trajectory_divergence(teacher,
                                                         default_grid(4),
                                                         512, seed=1)
        assert len(bnds) == 4
        # no divergence at the first boundary (same start, same stage)
        assert means[0] <= 1e-9
        # later boundaries diverge measurably and the gap compounds
        assert means[1] > 0.01
        assert np.all(np.diff(means) > 0)

    def test_first_stage_solved_once(self):
        # the piecewise protocol's first stage starts from eps like the
        # continuous rollout, so its state is reused, not solved again:
        # 4 stages x 8 sub-steps continuous + 3 x 8 piecewise
        calls = []

        def teacher(z, sigma):
            calls.append(sigma)
            return AnalyticField(default_benchmark())(z, sigma)

        got = teacher_trajectory_divergence(teacher, default_grid(4), 256,
                                            seed=3)
        assert len(calls) == 56
        want = divergence_every_stage_solved(
            AnalyticField(default_benchmark()), default_grid(4), 256, seed=3)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_single_stage_empty(self):
        teacher = AnalyticField(default_benchmark())
        bnds, means, ses = teacher_trajectory_divergence(teacher,
                                                         default_grid(1), 16)
        assert len(bnds) == len(means) == len(ses) == 0

    def test_invalid_n(self):
        teacher = AnalyticField(default_benchmark())
        with pytest.raises(ValueError):
            teacher_trajectory_divergence(teacher, default_grid(4), 0)


class TestInterstageDistance:
    def test_report_structure(self):
        teacher = AnalyticField(default_benchmark())
        grid = default_grid(4)
        student = train_student(teacher, default_benchmark(), "perflow", grid,
                                cfg=TrainConfig(iterations=100, batch_size=32,
                                                seed=0))
        rows = interstage_distance(student, grid, 128, default_benchmark(),
                                   seed=0, n_permutations=100)
        assert len(rows) == 3  # interior boundaries only
        for row in rows:
            assert set(row) == {"boundary", "energy_distance", "p_value", "w2"}
            assert 0.0 < row["p_value"] <= 1.0
            assert row["w2"] >= 0.0


class TestVelocityResidual:
    def test_exact_field_within_three_se(self):
        spec = default_benchmark()
        field = AnalyticField(spec)
        for sigma in (0.25, 0.5, 0.75):
            resid, se = expected_velocity_residual(field, spec, sigma,
                                                   20000, seed=4)
            assert resid <= 3.0 * se

    def test_biased_field_detected(self):
        spec = default_benchmark()

        def biased(z, sigma):
            return AnalyticField(spec)(z, sigma) + np.array([0.5, 0.0])

        resid, se = expected_velocity_residual(biased, spec, 0.5, 20000,
                                               seed=5)
        assert resid > 3.0 * se
        assert abs(resid - 0.5) < 0.1

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            expected_velocity_residual(AnalyticField(default_benchmark()),
                                       default_benchmark(), 0.0, 10)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("diagnostic", [
    lambda n: teacher_trajectory_divergence(
        AnalyticField(default_benchmark()), default_grid(4), n),
    lambda n: expected_velocity_residual(
        AnalyticField(default_benchmark()), default_benchmark(), 0.5, n),
], ids=["divergence", "velocity_residual"])
def test_standard_error_needs_two_points(diagnostic, n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        diagnostic(n)

