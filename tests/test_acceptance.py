"""Acceptance gate: eleven criteria, one test each.

Each test prints an explicit verdict line (visible with `pytest -s`; the
pytest outcome itself carries the same verdict). Training-based criteria
are deterministic: fixed seeds, fixed budgets, fixed evaluation draws.
"""

import time

import numpy as np

from flowlab.adv import train_adversarial
from flowlab.cli import (ExperimentConfig, map_seeds, reproduce_tables,
                         run_experiment)
from flowlab.diag import (energy_permutation_test, expected_velocity_residual,
                          interstage_distance, teacher_trajectory_divergence,
                          w2_exact_small)
from flowlab.distill import (default_grid, infer_few_step, rollout,
                             train_student)
from flowlab.flow import (AnalyticField, TrainConfig, analytic_velocity,
                          default_benchmark, interpolate, ode_solve,
                          point_mass, sample_mixture, solve_on_grid,
                          train_flow_matching)
from flowlab.netcore import (MlpSpec, backward, forward, forward_with_hidden,
                             init_params)

SPEC = default_benchmark()


def verdict(num, desc, ok):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def averaged_w2(data, out, block=256):
    n = len(data) - len(data) % block
    return float(np.mean([w2_exact_small(data[i:i + block], out[i:i + block])
                          for i in range(0, n, block)]))


def test_criterion_01_scheduler_golden_values():
    t0 = time.time()
    report = reproduce_tables(printer=lambda *_: None)
    elapsed = time.time() - t0
    verdict(1, "scheduler golden rows and pre-zero sigma",
            report["all_pass"] and elapsed < 1.0)


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(10):
        depth = int(rng.integers(1, 4))
        widths = (int(rng.integers(2, 5)),
                  *(int(rng.integers(4, 10)) for _ in range(depth)),
                  int(rng.integers(1, 4)))
        params = init_params(MlpSpec(widths, 100 + trial))
        x = rng.standard_normal((3, widths[0]))
        g = rng.standard_normal((3, widths[-1]))
        _, tape = forward_with_hidden(params, x)
        param_grads, _ = backward(params, tape, g)
        wg, bg = param_grads.weights, param_grads.biases
        h = 1e-5
        for arrs, grads in ((params.weights, wg), (params.biases, bg)):
            for arr, grad in zip(arrs, grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    arr[idx] += h
                    up = float(np.sum(forward(params, x) * g))
                    arr[idx] -= 2 * h
                    down = float(np.sum(forward(params, x) * g))
                    arr[idx] += h
                    fd = (up - down) / (2 * h)
                    rel = abs(grad[idx] - fd) / max(abs(fd), 1e-6)
                    worst = max(worst, rel)
    elapsed = time.time() - t0
    verdict(2, f"backward vs finite differences on 10 nets "
               f"(worst rel err {worst:.2e})",
            worst <= 1e-5 and elapsed < 10.0)


def test_criterion_03_analytic_field_vs_monte_carlo():
    # probes are drawn from the interpolation marginal at each sigma: that
    # is where the field is evaluated in practice, and it keeps the
    # self-normalized importance-sampling oracle well conditioned (for z
    # deep in the likelihood tail the oracle's effective sample size
    # collapses and its standard error estimate is meaningless)
    t0 = time.time()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        sigma = float(rng.uniform(0.1, 1.0))
        z0 = sample_mixture(SPEC, 1, rng)[0]
        z = interpolate(z0, rng.standard_normal(2), sigma)
        v = analytic_velocity(SPEC, z, sigma)
        x = sample_mixture(SPEC, 10 ** 6, rng)
        logw = -np.sum((z - (1 - sigma) * x) ** 2, axis=1) / (2 * sigma ** 2)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        assert 1.0 / np.sum(w ** 2) > 1000, "oracle ESS too low to trust"
        g = (z - x) / sigma
        est = w @ g
        se = np.sqrt(np.sum(w[:, None] ** 2 * (g - est) ** 2, axis=0))
        ok &= bool(np.all(np.abs(v - est) <= 3 * np.maximum(se, 1e-12)))
    elapsed = time.time() - t0
    verdict(3, "analytic velocity vs importance-sampling oracle, 20 probes",
            ok and elapsed < 60.0)


def test_criterion_04_marginal_preservation():
    t0 = time.time()
    field = AnalyticField(SPEC)
    rng = np.random.default_rng(2)
    n = 4096
    eps = rng.standard_normal((n, 2))
    pushed = ode_solve(field, eps, 1.0, 0.5, 512)
    z0 = sample_mixture(SPEC, n, rng)
    direct = interpolate(z0, rng.standard_normal((n, 2)), 0.5)
    _, p = energy_permutation_test(pushed, direct, 1000, seed=0)
    elapsed = time.time() - t0
    verdict(4, f"pushforward marginal test not rejected (p={p:.3f})",
            p >= 0.01 and elapsed < 120.0)


def test_criterion_05_first_moment_law():
    t0 = time.time()
    field = AnalyticField(SPEC)
    ok = True
    for sigma in (0.25, 0.5, 0.75):
        resid, se = expected_velocity_residual(field, SPEC, sigma, 10 ** 5,
                                               seed=3)
        ok &= resid <= 3 * se

    def shifted(z, sigma):
        return field(z, sigma) + np.array([0.5, 0.0])

    resid, se = expected_velocity_residual(shifted, SPEC, 0.5, 10 ** 5, seed=3)
    ok &= abs(resid - 0.5) <= 3 * se
    elapsed = time.time() - t0
    verdict(5, "expected-velocity residual: exact field ~0, shifted field ~0.5",
            ok and elapsed < 60.0)


def test_criterion_06_teacher_trajectory_mismatch():
    t0 = time.time()
    grid = default_grid(4)
    _, means, _ = teacher_trajectory_divergence(AnalyticField(SPEC), grid,
                                                1024, seed=0)
    _, means_pm, _ = teacher_trajectory_divergence(
        AnalyticField(point_mass([2.0, 0.0])), grid, 1024, seed=0)
    ok = (means[1] > 0.05 and bool(np.all(np.diff(means) > 0))
          and bool(np.all(means_pm <= 1e-9)))
    elapsed = time.time() - t0
    verdict(6, f"divergence {np.round(means, 3).tolist()} increasing, "
               f"point-mass max {means_pm.max():.1e}",
            ok and elapsed < 120.0)


def test_criterion_07_pointmass_equivalence():
    t0 = time.time()
    mu = np.array([1.0, -0.5])
    teacher = AnalyticField(point_mass(mu))
    grid = default_grid(4)
    rng = np.random.default_rng(4)
    eps = rng.standard_normal((1024, 2))
    z0 = np.broadcast_to(mu, (1024, 2))
    worst = 0.0
    for k in range(1, 5):
        # perflow stage start vs ota stage start
        pa = interpolate(z0, eps, grid.t(k))
        pb = rollout(teacher, grid, eps, 4, k, grid.teacher_substeps_per_stage)[-1]
        worst = max(worst, float(np.mean(np.linalg.norm(pa - pb, axis=1))))
    elapsed = time.time() - t0
    verdict(7, f"point-mass start discrepancy {worst:.1e}",
            worst <= 1e-9 and elapsed < 60.0)


def test_criterion_08_ota_beats_perflow():
    # learned (imperfect) teacher: the advantage of on-trajectory starts
    # only exists when the teacher's pushforward deviates from the
    # interpolation marginals, which the exact analytic field never does
    t0 = time.time()
    grid = default_grid(4)
    teacher = train_flow_matching(
        SPEC, cfg=TrainConfig(iterations=4000, batch_size=256, seed=42))

    def eval_w2(student, seed):
        rng = np.random.default_rng(1000 + seed)
        eps = rng.standard_normal((2048, 2))
        out = infer_few_step(student, grid, eps)
        data = sample_mixture(SPEC, 2048, rng)
        return averaged_w2(data, out)

    def run(method_seed):
        method, seed = method_seed
        cfg = TrainConfig(iterations=3000, batch_size=128, seed=seed)
        student = train_student(teacher, SPEC, method, grid, cfg=cfg)
        return eval_w2(student, seed), student if seed == 0 else None

    w2 = {"perflow": [], "ota": []}
    seed0_students = {}
    pairs = [(method, seed) for method in ("perflow", "ota")
             for seed in range(5)]
    for (method, seed), (w2_m, student) in zip(pairs, map_seeds(run, pairs)):
        if seed == 0:
            seed0_students[method] = student
        w2[method].append(w2_m)
    wins = sum(o <= p for o, p in zip(w2["ota"], w2["perflow"]))

    gap = {}
    for method, student in seed0_students.items():
        rows = interstage_distance(student, grid, n=1024, seed=0, data=SPEC,
                                   n_permutations=200)
        gap[method] = next(r["energy_distance"] for r in rows
                           if abs(r["boundary"] - grid.t(2)) < 1e-12)
    elapsed = time.time() - t0
    verdict(8, f"OTA wins {wins}/5 "
               f"(perflow {np.round(w2['perflow'], 4).tolist()} vs "
               f"ota {np.round(w2['ota'], 4).tolist()}); interstage at t_2 "
               f"ota {gap['ota']:.4f} < perflow {gap['perflow']:.4f}",
            wins >= 4 and gap["ota"] < gap["perflow"] and elapsed < 1200.0)


def test_criterion_09_adversarial_component():
    t0 = time.time()
    teacher = AnalyticField(SPEC)
    grid = default_grid(4)

    def eval_w2(student, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xEE]))
        eps = rng.standard_normal((2048, 2))
        data = sample_mixture(SPEC, 2048, rng)
        return averaged_w2(data, infer_few_step(student, grid, eps))

    def run(method_seed):
        method, seed = method_seed
        cfg = TrainConfig(iterations=2000, batch_size=128, seed=seed)
        if method == "ota":
            return eval_w2(train_student(teacher, SPEC, "ota", grid,
                                         cfg=cfg), seed), True
        hist = []
        w2 = eval_w2(train_adversarial(teacher, SPEC, grid, cfg=cfg,
                                       history=hist), seed)
        d_loss = np.array([row[3] for row in hist[200:]])  # after warmup
        return w2, bool(np.all((d_loss >= 0.0) & (d_loss <= 4.0)))

    base, full = [], []
    hinge_ok = True
    pairs = [(method, seed) for seed in range(5)
             for method in ("ota", "ota+adv")]
    for (method, _), (w2, bounded) in zip(pairs, map_seeds(run, pairs)):
        (base if method == "ota" else full).append(w2)
        hinge_ok &= bounded
    base, full = np.array(base), np.array(full)
    wins = int((full <= base).sum())
    worst_degradation = float(((full - base) / base).max())
    elapsed = time.time() - t0
    verdict(9, f"full method wins {wins}/5, worst degradation "
               f"{worst_degradation:+.1%}, hinge bounded: {hinge_ok}",
            wins >= 3 and worst_degradation <= 0.10 and hinge_ok
            and elapsed < 2400.0)


def test_criterion_10_scheduler_ablation():
    t0 = time.time()
    field = AnalyticField(SPEC)

    def paired_runs(shift, n_steps):
        rows = {"original": [], "improved": []}
        bands = []
        for seed in range(5):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
            eps = rng.standard_normal((2048, 2))
            data = sample_mixture(SPEC, 2048, rng)
            per_sampler = {}
            for name in ("original", "improved"):
                sig = default_grid(n_steps, shift, sampler=name).boundaries
                out = solve_on_grid(field, eps, sig)
                blocks = [w2_exact_small(data[i:i + 256], out[i:i + 256])
                          for i in range(0, 2048, 256)]
                rows[name].append(float(np.mean(blocks)))
                per_sampler[name] = np.array(blocks)
            # the metric's own 95% noise band for this seed: sampling
            # spread of the 8-block mean
            spread = np.concatenate([b - b.mean()
                                     for b in per_sampler.values()])
            bands.append(1.96 * spread.std(ddof=2) / np.sqrt(8))
        return (np.array(rows["original"]), np.array(rows["improved"]),
                np.array(bands))

    ok = True
    for shift in (1.0, 3.0):
        orig, impr, _ = paired_runs(shift, 4)
        wins = int((impr < orig).sum())
        ok &= wins >= 4
        print(f"\n  shift={shift} N=4: improved wins {wins}/5 "
              f"(orig mean {orig.mean():.3f}, impr mean {impr.mean():.3f})")
    orig32, impr32, band = paired_runs(3.0, 32)
    within = bool(np.all(np.abs(orig32 - impr32) < band))
    ok &= within
    print(f"  shift=3 N=32: max |diff| {np.abs(orig32 - impr32).max():.5f} "
          f"vs min band {band.min():.5f}")
    elapsed = time.time() - t0
    verdict(10, "improved beats original at N=4; tie within noise at N=32",
            ok and elapsed < 300.0)


def test_criterion_11_determinism(tmp_path):
    config = dict(method="ota", iterations=300, batch=64, eval_samples=512,
                  seeds=(0,))
    run_experiment(ExperimentConfig(output_dir=str(tmp_path / "a"), **config))
    run_experiment(ExperimentConfig(output_dir=str(tmp_path / "b"), **config))
    ok = True
    for name in ("losses_seed0.csv", "checkpoint_seed0.json",
                 "samples_seed0.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        ok &= a == b
    # summaries embed the resolved config, including the output path;
    # everything else must match byte for byte
    strip = lambda text: text.replace(str(tmp_path / "a"), "OUT").replace(
        str(tmp_path / "b"), "OUT")
    ok &= (strip((tmp_path / "a" / "summary.json").read_text())
           == strip((tmp_path / "b" / "summary.json").read_text()))
    verdict(11, "repeated run_experiment artifacts bit-identical", ok)
