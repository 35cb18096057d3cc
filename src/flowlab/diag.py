"""Quantitative mismatch diagnostics and small-sample distribution metrics.

Covers: exact small-n 2-Wasserstein via optimal assignment, the energy
distance with a permutation test, divergence between the teacher's
continuous trajectory and the piecewise re-initialized protocol, the
inter-stage distribution gap between training-time stage inputs (the
noising-path marginal) and the student's inference-time stage inputs, and
the first-moment check E[v(z_sigma, sigma)] = -mu_data on interpolation
marginals (sigma(t) = t, so sigma' = 1).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .distill import StageGrid, rollout
from .flow import MixtureSpec, SIGMA_FLOOR, interpolate, sample_mixture
from .netcore import TrainingError, _cpu_share

W2_MAX_POINTS = 256
# a student's samples stay within this multiple of max |mu| + 5 max s + 1
SAMPLE_BOUND = 100.0
# distances per row block (8 MiB in float64), split between the threads
ENERGY_BLOCK_ELEMENTS = 2 ** 20


def w2_exact_small(a, b) -> float:
    """Exact 2-Wasserstein between equal-size point sets (<= 256 points):
    sqrt of the minimum mean squared distance over perfect matchings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("point sets must have equal size")
    if len(a) > W2_MAX_POINTS:
        raise ValueError(f"at most {W2_MAX_POINTS} points (exact assignment)")
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def energy_distance(a, b) -> float:
    """2 E||a-b|| - E||a-a'|| - E||b-b'|| (V-statistic over all pairs)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("point sets must be nonempty")
    return float(2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean())


def _sum_chunks(s_tot, tail, flat):
    """Add a float32 stream to a float64 total in the order of numpy's sum.

    `D.sum(dtype=np.float64)` adds the pairwise sums of consecutive
    np.getbufsize()-element chunks of the flattened array one after
    another. Feeding D here piece by piece, carrying the partial chunk
    (`tail`) into the next call, and finally reducing the last tail gives
    the same total bit for bit. Returns the new (s_tot, tail).
    """
    chunk = np.getbufsize()
    if len(tail):
        k = min(chunk - len(tail), len(flat))
        tail = np.concatenate([tail, flat[:k]])
        flat = flat[k:]
        if len(tail) < chunk:
            return s_tot, tail
        s_tot = np.add.reduce(tail, dtype=np.float64, initial=s_tot)
    whole = len(flat) // chunk * chunk
    s_tot = np.add.reduce(flat[:whole], dtype=np.float64, initial=s_tot)
    return s_tot, flat[whole:].copy()


def energy_permutation_test(a, b, n_permutations: int = 1000, seed: int = 0):
    """Two-sample energy-distance test; returns (statistic, p_value).

    Let D be the float32 distance matrix of the 2n pooled points. Every
    permutation statistic follows from D @ X, where X holds one 0/1 label
    column per permutation, so all P permutations cost one matrix product.
    D is never held whole: it is computed in blocks of rows, each written
    into its rows of D @ X and D @ mask and folded, in row order, into the
    total of D. The blocks run on as many threads as netcore._cpu_share()
    allows (1 with the BLAS unpinned), which split one block of
    ENERGY_BLOCK_ELEMENTS distances between them (each at least 64 rows).
    Memory is O(n * P) plus those blocks, and the results are bit-identical
    to forming D whole for a fixed BLAS thread count, whatever the number
    of threads here. Non-finite points raise ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("permutation test assumes equal sample sizes")
    if len(a) == 0:
        raise ValueError("point sets must be nonempty")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("points must be finite")
    n = len(a)
    pooled = np.vstack([a, b])

    mask = np.zeros(2 * n, dtype=np.float32)
    mask[:n] = 1.0
    rng = np.random.default_rng(seed)
    X = np.zeros((2 * n, n_permutations), dtype=np.float32)
    for p in range(n_permutations):
        X[rng.permutation(2 * n)[:n], p] = 1.0

    r = np.empty(2 * n, dtype=np.float32)
    R = np.empty((2 * n, n_permutations), dtype=np.float32)
    # heights that are not a multiple of 64 rows changed D @ mask in the
    # float32 last bits against the whole-matrix product
    rows = max(64, ENERGY_BLOCK_ELEMENTS // (2 * n) // 64 * 64)
    # the threads split one block's rows, so the memory does not grow
    share = min(_cpu_share(), rows // 64) if 2 * n > rows else 1
    rows = rows // share // 64 * 64
    starts = range(0, 2 * n, rows)
    dist = np.empty((share, min(rows, 2 * n), 2 * n))
    dist32 = np.empty(dist.shape, dtype=np.float32)

    def block(j):
        # one block into buffer j % share; a thread's body calls no public
        # flowlab function, whose tracer keeps one span stack per process
        i0 = starts[j]
        m = min(rows, 2 * n - i0)
        D64, Db = dist[j % share, :m], dist32[j % share, :m]
        cdist(pooled[i0:i0 + m], pooled, out=D64)
        np.copyto(Db, D64)
        np.matmul(Db, X, out=R[i0:i0 + m])
        np.matmul(Db, mask, out=r[i0:i0 + m])
        return Db.ravel()

    s_tot, tail = 0.0, np.empty(0, dtype=np.float32)
    if share == 1:
        for j in range(len(starts)):
            s_tot, tail = _sum_chunks(s_tot, tail, block(j))
    else:
        # buffer j % share is refilled only after block j is folded, and
        # the pool's threads are joined before this returns
        with ThreadPoolExecutor(share) as pool:
            ahead = deque(pool.submit(block, j) for j in range(share))
            for j in range(len(starts)):
                s_tot, tail = _sum_chunks(s_tot, tail,
                                          ahead.popleft().result())
                if j + share < len(starts):
                    ahead.append(pool.submit(block, j + share))
    s_tot = float(np.add.reduce(tail, dtype=np.float64, initial=s_tot))

    def stat_from_saa(s_aa, colsum):
        s_ab = colsum - s_aa
        s_bb = s_tot - 2.0 * colsum + s_aa
        return (2.0 * s_ab - s_aa - s_bb) / n ** 2

    observed = stat_from_saa(float(mask @ r), float(r.sum(dtype=np.float64)))
    s_aa = np.einsum("ip,ip->p", X, R, dtype=np.float64)
    colsum = R.sum(axis=0, dtype=np.float64)
    stats = stat_from_saa(s_aa, colsum)
    p_value = float((1 + np.sum(stats >= observed)) / (1 + n_permutations))
    return observed, p_value


def teacher_trajectory_divergence(teacher, grid: StageGrid, n: int,
                                  seed: int = 0):
    """Mean L2 gap between continuous and piecewise-reinitialized trajectories.

    The piecewise protocol replaces the state at each earlier boundary with
    an interpolation between a ground-truth endpoint and the noise draw,
    then evolves one stage. Ground truth is the teacher's own set of sigma=0
    endpoints, re-paired with the noise draws by a random permutation: the
    off-trajectory training protocol pairs data and noise independently, and
    self-paired endpoints would hide most of the resulting mismatch (a
    straight-trajectory teacher still yields zero either way). Returns
    (boundaries, means, standard errors); empty for K = 1 (no interior
    boundary to re-initialize at).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid.n_stages == 1:
        return np.array([]), np.array([]), np.array([])
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, 2))
    K, substeps = grid.n_stages, grid.teacher_substeps_per_stage
    continuous = rollout(teacher, grid, eps, K, 0, substeps)[1:]
    z0_true = continuous[-1][rng.permutation(n)]

    piecewise = [continuous[0]]  # stage K starts from eps in both protocols
    for k in range(K - 1, 0, -1):
        start = interpolate(z0_true, eps, grid.t(k))
        piecewise.append(rollout(teacher, grid, start, k, k - 1, substeps)[-1])

    boundaries = grid.boundaries[1:]
    gaps = [np.linalg.norm(c - p, axis=1) for c, p in zip(continuous, piecewise)]
    means = np.array([g.mean() for g in gaps])
    ses = np.array([g.std(ddof=1) / np.sqrt(n) for g in gaps])
    return boundaries, means, ses


def check_bounded(points, spec: MixtureSpec, what: str):
    """TrainingError if a coordinate of points leaves SAMPLE_BOUND x (max
    |mu| + 5 max s + 1) of spec: a student blown up but still finite."""
    bound = SAMPLE_BOUND * (np.abs(spec.means).max() + 5 * spec.stds.max() + 1)
    peak = np.abs(points).max(initial=0.0)  # K = 1 has no boundary states
    if not peak <= bound:
        raise TrainingError(f"{what} reach |x| = {peak:.3g}, beyond {bound:g}"
                            f" = {SAMPLE_BOUND:g} x (max |mu| + 5 max s + 1)")


def interstage_distance(student, grid: StageGrid, n: int, data: MixtureSpec,
                        seed: int = 0, n_permutations: int = 1000):
    """Distribution gap at each interior boundary t_k between training-time
    stage inputs, the noising-path marginal interpolate(z0, eps, t_k) of
    `data` (set A), and the student's own previous-stage outputs (set B,
    which must pass check_bounded). Returns a list of dicts with energy
    distance, permutation p-value, and exact W2 on 256-point subsamples.
    """
    rng = np.random.default_rng(seed)
    eps_train = rng.standard_normal((n, 2))
    z0 = sample_mixture(data, n, rng)
    eps_infer = rng.standard_normal((n, 2))

    K = grid.n_stages
    a_sets = [interpolate(z0, eps_train, grid.t(k))
              for k in range(K - 1, 0, -1)]
    b_sets = rollout(student, grid, eps_infer, K, 1, 1)[1:]
    check_bounded(b_sets, data, "student boundary states")
    results = []
    for k, a_set, z in zip(range(K, 1, -1), a_sets, b_sets):
        t_b = grid.t(k - 1)
        stat, p = energy_permutation_test(a_set, z, n_permutations,
                                          seed=seed + k)
        m = min(W2_MAX_POINTS, n)
        w2 = w2_exact_small(a_set[:m], z[:m])
        results.append({"boundary": float(t_b), "energy_distance": stat,
                        "p_value": p, "w2": w2})
    return results


def expected_velocity_residual(field_, spec: MixtureSpec, sigma: float,
                               n: int, seed: int = 0):
    """First-moment check on interpolation marginals.

    Draws n path states z_sigma, returns (|| mean v + mu_data ||, standard
    error of that norm). The exact marginal field satisfies
    E[v] = -mu_data at every fixed sigma.
    """
    if not SIGMA_FLOOR <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [{SIGMA_FLOOR}, 1]")
    rng = np.random.default_rng(seed)
    z0 = sample_mixture(spec, n, rng)
    eps = rng.standard_normal((n, 2))
    z = interpolate(z0, eps, sigma)
    v = field_(z, sigma)
    mean_v = v.mean(axis=0)
    residual = float(np.linalg.norm(mean_v + spec.mean))
    se = float(np.sqrt(np.sum(v.var(axis=0, ddof=1) / n)))
    return residual, se
