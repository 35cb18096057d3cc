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
# the energy test's row blocks are 128 rows, or 64 once 128 would hold more
# than this many float32 distances (4 MiB); it runs threads above this many
ENERGY_BLOCK_ELEMENTS = 2 ** 20
# float64 distances each thread computes at once, before the float32 cast;
# a row longer than this is computed whole
CDIST_ELEMENTS = 2 ** 16


def w2_exact_small(a, b) -> float:
    """Exact 2-Wasserstein between equal-size point sets (<= 256 points):
    sqrt of the minimum mean squared distance over perfect matchings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("point sets must have equal size")
    if not 0 < len(a) <= W2_MAX_POINTS:
        raise ValueError(f"point sets must be nonempty, of at most "
                         f"{W2_MAX_POINTS} points (exact assignment)")
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


def energy_permutation_test(a, b, n_permutations: int = 1000, seed: int = 0):
    """Two-sample energy-distance test; returns (statistic, p_value).

    With D the distance matrix of the 2n pooled points and x a 0/1 column
    labelling n of them, the statistic is (4 x'D(1 - x) - 1'D1) / n^2 in
    float64; it does not depend on P. The p-value ranks the observed
    labels among P random ones, the columns of X, by the exact integers
    x'D_q(1 - x) of `_triangle_sums`, ties counting against the observed
    labels, so it is fixed by n, P, the seed and the points on any threads
    or BLAS. Memory is X's 2n * P * 4 bytes plus one block of distances.
    Non-finite points raise ValueError, and so does n > 2^22.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("permutation test assumes equal sample sizes")
    if not 0 < len(a) <= 2 ** 22:
        raise ValueError("point sets must be nonempty, of at most 2^22 points")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("points must be finite")
    n = len(a)
    rng = np.random.default_rng(seed)
    X = np.zeros((2 * n, n_permutations), dtype=np.float32)
    for p in range(n_permutations):
        X[rng.permutation(2 * n)[:n], p] = 1.0

    s_obs, s_tot, s_q = _triangle_sums(np.vstack([a, b]), X)
    p_value = float((1 + np.sum(s_q[1:] >= s_q[0])) / (1 + n_permutations))
    return float((4.0 * s_obs - s_tot) / n ** 2), p_value


def _triangle_sums(pooled, X):
    """(x'D(1 - x) for x labelling the first half of pooled, 1'D1, and
    x'D_q(1 - x) for that x, then for each column x of X), D the pooled
    distance matrix and D_q = rint(D / q) its integers in units of q.

    D's rows are cut into blocks of 128 rows, or 64 once 128 would hold
    more than ENERGY_BLOCK_ELEMENTS distances, and block I holds its
    distances to the columns from its own first row on. With r_I those
    rows' sums, block I adds x_I'(r_I - D_II x_I - 2 D_I,>I x_>I) +
    1'D_I,>I x_>I to x'D(1 - x), and 1'D_II 1 + 2 1'D_I,>I 1 to 1'D1:
    from float64 distances, added block by block in row order, for the
    first two sums, and from D_q's float32 products with X for the rest.
    A block's rows split evenly over min(2, netcore._cpu_share()) threads.
    """
    N, P = X.shape
    n = N // 2
    # q: the smallest normal power of two with B / q <= 2^24 // N - 1, B
    # twice the largest distance to pooled[0], which bounds every distance.
    # A row of D_q sums below 2^24, so its float32 products with 0/1 labels,
    # and the float64 sums after them, are exact integers in any order
    bound = 2.0 * np.linalg.norm(pooled - pooled[0], axis=1).max()
    frac, exp = np.frexp(bound / (2 ** 24 // N - 1))
    scale = 1.0 / max(np.ldexp(1.0, exp - (frac == 0.5)), np.finfo(float).tiny)
    rows = 128 if 128 * N <= ENERGY_BLOCK_ELEMENTS else 64
    share = min(_cpu_share(), 2) if N * N > ENERGY_BLOCK_ELEMENTS else 1
    dist = np.empty(rows * N, dtype=np.float32)
    scratch = np.empty((share, max(CDIST_ELEMENTS, N)))
    # each row's float64 distance sums in the block's square or past it, to
    # the first n points or to the rest; then its D_q sums to either half
    sums = np.empty((6, rows))
    Yd, Yo = (np.empty((rows, P), dtype=np.float32) for _ in range(2))

    def part(i0, m, t):
        # thread t's rows of the m-row block at i0, through scratch row t;
        # a thread's body calls no public flowlab function, whose tracer
        # keeps one span stack per process
        u0, u1 = t * m // share, (t + 1) * m // share
        k = N - i0
        D = dist[:m * k].reshape(m, k)
        h = min(max(n - i0, 0), k)
        cuts = (0, min(m, h), m, max(m, h), k)
        step = max(1, CDIST_ELEMENTS // k)
        for c0 in range(u0, u1, step):
            c1 = min(c0 + step, u1)
            D64 = scratch[t, :(c1 - c0) * k].reshape(c1 - c0, k)
            cdist(pooled[i0 + c0:i0 + c1], pooled[i0:], out=D64)
            for s in range(4):
                np.sum(D64[:, cuts[s]:cuts[s + 1]], axis=1,
                       out=sums[s, c0:c1])
            np.rint(np.multiply(D64, scale, out=D64), out=D64)
            np.sum(D64[:, :h], axis=1, out=sums[4, c0:c1])
            np.sum(D64[:, h:], axis=1, out=sums[5, c0:c1])
            np.copyto(D[c0:c1], D64)
        np.matmul(D[u0:u1, :m], X[i0:i0 + m], out=Yd[u0:u1])
        np.matmul(D[u0:u1, m:], X[i0 + m:], out=Yo[u0:u1])

    s_obs, s_tot, s_q = 0.0, 0.0, np.zeros(1 + P)
    w = np.empty((rows, P))
    with ThreadPoolExecutor(share) as pool:
        run = pool.map if share > 1 else map
        for i0 in range(0, N, rows):
            m = min(rows, N - i0)
            list(run(lambda t: part(i0, m, t), range(share)))
            da, db, oa, ob, a_q, b_q = sums[:, :m]
            r = da + db + oa + ob
            s_tot += (r + oa + ob).sum()
            s_obs += (r - da - 2.0 * oa)[:max(0, n - i0)].sum() + oa.sum()
            W = np.multiply(Yo[:m], -2.0, out=w[:m])
            W -= Yd[:m]
            W += (a_q + b_q)[:, None]
            W *= X[i0:i0 + m]
            W += Yo[:m]
            s_q[1:] += W.sum(axis=0)
            s_q[0] += b_q[:max(0, n - i0)].sum()
    return s_obs, s_tot, s_q


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
    if n < 2:
        raise ValueError("n must be >= 2")
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

    gaps = [np.linalg.norm(c - p, axis=1) for c, p in zip(continuous, piecewise)]
    means = np.array([g.mean() for g in gaps])
    ses = np.array([g.std(ddof=1) / np.sqrt(n) for g in gaps])
    return grid.boundaries[1:], means, ses


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
        stat, p = energy_permutation_test(a_set, z, n_permutations,
                                          seed=seed + k)
        m = min(W2_MAX_POINTS, n)
        w2 = w2_exact_small(a_set[:m], z[:m])
        results.append({"boundary": float(grid.t(k - 1)), "energy_distance": stat,
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
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    z0 = sample_mixture(spec, n, rng)
    eps = rng.standard_normal((n, 2))
    z = interpolate(z0, eps, sigma)
    v = field_(z, sigma)
    mean_v = v.mean(axis=0)
    residual = float(np.linalg.norm(mean_v + spec.mean))
    se = float(np.sqrt(np.sum(v.var(axis=0, ddof=1) / n)))
    return residual, se
