import argparse
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import flowlab.cli
import flowlab.netcore
from flowlab.adv import AdvConfig
from flowlab.cli import (CONFIG_TABLE, ConfigError, ExperimentConfig,
                         _config_from_args, build_parser, load_config, main,
                         map_seeds, reproduce_tables, run_experiment)
from flowlab.distill import default_grid
from flowlab.flow import TrainConfig, default_benchmark
from flowlab.netcore import MlpSpec, TrainingError, init_params, save_params
from flowlab.sched import format_sigmas


def net_layers(widths):
    """The widths, weights and biases of a checkpoint of a fresh net."""
    params = init_params(MlpSpec(widths))
    return {"widths": list(widths),
            "weights": [w.tolist() for w in params.weights],
            "biases": [b.tolist() for b in params.biases]}


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.method == "ota"
        assert cfg.grid().n_stages == 4

    def test_defaults_are_the_librarys(self):
        cfg, train = ExperimentConfig(), TrainConfig()
        assert cfg.adv_config() == AdvConfig()
        assert (cfg.iterations, cfg.batch, cfg.lr) == (
            train.iterations, train.batch_size, train.learning_rate)
        assert cfg.substeps == default_grid(4).teacher_substeps_per_stage
        mix, ref = cfg.mixture(), default_benchmark()
        for name in ("weights", "means", "stds"):
            assert np.array_equal(getattr(mix, name), getattr(ref, name))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="reflow")

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheduler="cosine")

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_eval_samples(self, n):
        with pytest.raises(ConfigError, match="eval.samples"):
            ExperimentConfig(eval_samples=n)

    def test_missing_teacher_checkpoint(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(teacher="learned:/nonexistent/ckpt.json")

    def test_text_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(method="perflow", shift=3.0, seeds=(1, 2),
                               lambda_adv=0.25)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        assert load_config(path) == cfg


class TestLoadConfig:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nmethod = perflow\n")
        assert load_config(path).method == "perflow"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("methud = perflow\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.iterations = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            load_config(path)

    def test_mixture_parsing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mixture.weights = 0.25,0.75\n"
                        "mixture.means = -1.0,0.0;1.0,0.5\n"
                        "mixture.stds = 0.2,0.4\n")
        cfg = load_config(path)
        assert cfg.mixture_weights == (0.25, 0.75)
        assert cfg.mixture_means == ((-1.0, 0.0), (1.0, 0.5))


def every_key_config(tmp_path):
    """A config that sets every key, each to a value other than its default."""
    teacher = tmp_path / "teacher.json"
    save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), teacher)
    return ExperimentConfig(
        method="ota+adv", teacher=f"learned:{teacher}",
        mixture_weights=(0.25, 0.75), mixture_means=((-1.5, 0.5), (1.0, -0.25)),
        mixture_stds=(0.2, 0.4), stages=3, shift=2.5, substeps=5,
        scheduler="original", iterations=17, batch=32, lr=1e-05,
        lambda_adv=0.25, lambda_fm=0.1 + 0.2, gan="lsgan",
        t_probs=(0.5, 0.3, 0.2), seeds=(3, 11), eval_samples=300,
        output_dir="runs/every key")


# golden to_text() bytes: summary.json embeds them and reruns are compared
# byte for byte, so a change here is a change of the report format
DEFAULT_TEXT = """\
method = ota
teacher = analytic
mixture.weights = 0.5,0.5
mixture.means = -2.0,0.0;2.0,0.0
mixture.stds = 0.3,0.3
grid.stages = 4
grid.shift = 1.0
grid.substeps = 8
scheduler = improved
train.iterations = 2000
train.batch = 128
train.lr = 0.001
adv.lambda_adv = 0.1
adv.lambda_fm = 1.0
adv.gan = hinge
adv.t_probs = 0.4,0.2,0.2,0.2
seeds = 0
eval.samples = 4096
output_dir = runs/out
"""
EVERY_KEY_TEXT = """\
method = ota+adv
teacher = learned:{teacher}
mixture.weights = 0.25,0.75
mixture.means = -1.5,0.5;1.0,-0.25
mixture.stds = 0.2,0.4
grid.stages = 3
grid.shift = 2.5
grid.substeps = 5
scheduler = original
train.iterations = 17
train.batch = 32
train.lr = 1e-05
adv.lambda_adv = 0.25
adv.lambda_fm = 0.30000000000000004
adv.gan = lsgan
adv.t_probs = 0.5,0.3,0.2
seeds = 3,11
eval.samples = 300
output_dir = runs/every key
"""


def _probabilities(k):
    """k positive floats summing to 1 within the validators' 1e-12."""
    return st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k).map(
        lambda w: tuple(x / sum(w) for x in w))


@st.composite
def configs(draw):
    """Keyword arguments for ExperimentConfig, mostly valid ones, with
    non-finite floats and arbitrary text among them; the constructor
    decides what is valid."""
    k = draw(st.integers(1, 3))
    stages = draw(st.integers(1, 6))
    return dict(
        method=draw(st.sampled_from(["perflow", "ota", "ota+adv"])),
        mixture_weights=draw(_probabilities(k)),
        mixture_means=tuple(draw(st.tuples(st.floats(), st.floats()))
                            for _ in range(k)),
        mixture_stds=tuple(draw(st.floats(min_value=0)) for _ in range(k)),
        stages=stages,
        shift=draw(st.floats(0.05, 20.0)),
        substeps=draw(st.integers(1, 64)),
        scheduler=draw(st.sampled_from(["original", "improved"])),
        iterations=draw(st.integers(0, 10**9)),
        batch=draw(st.integers(1, 10**6)),
        lr=draw(st.floats(min_value=0, exclude_min=True)),
        lambda_adv=draw(st.floats(min_value=0)),
        lambda_fm=draw(st.floats(min_value=0)),
        gan=draw(st.sampled_from(["hinge", "lsgan", "wgan"])),
        t_probs=draw(_probabilities(stages)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**64), min_size=1,
                                  max_size=4))),
        eval_samples=draw(st.integers(1, 10**6)),
        output_dir=draw(st.text(max_size=24)),
    )


class TestConfigTable:
    def test_default_text_unchanged(self):
        assert ExperimentConfig().to_text() == DEFAULT_TEXT

    def test_every_key_text_unchanged(self, tmp_path):
        text = EVERY_KEY_TEXT.format(teacher=tmp_path / "teacher.json")
        assert every_key_config(tmp_path).to_text() == text

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=configs())
    def test_text_roundtrip_property(self, tmp_path, fields):
        try:
            cfg = ExperimentConfig(**fields)
        except ConfigError:
            assume(False)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        assert load_config(path) == cfg

    @pytest.mark.parametrize("text", [" runs/x", "runs/x ", "runs\nx",
                                      "runs\u2028x", "\t"])
    def test_unwritable_text_value_rejected(self, text):
        # to_text could not write these on one config line
        with pytest.raises(ConfigError, match="output_dir"):
            ExperimentConfig(output_dir=text)

    def test_flag_and_file_line_agree(self, tmp_path):
        every = every_key_config(tmp_path)
        flagged = [(key, flag, fmt(getattr(every, name)))
                   for key, (name, flag, _, fmt) in CONFIG_TABLE.items() if flag]
        assert len(flagged) == 14
        for key, flag, value in flagged:
            path = tmp_path / "c.cfg"
            path.write_text(f"{key} = {value}\n")
            args = build_parser().parse_args(["train", flag, value])
            from_flag = _config_from_args(args)
            assert from_flag == load_config(path), key
            assert from_flag != ExperimentConfig(), key

    def test_flags_override_file(self, tmp_path):
        # the file alone is invalid (3 stages, 4 timestep probabilities);
        # file and flags are resolved together
        path = tmp_path / "c.cfg"
        path.write_text("method = ota+adv\ngrid.stages = 3\nseeds = 5\n")
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--t-probs", "0.5,0.25,0.25"])
        cfg = _config_from_args(args)
        assert (cfg.stages, cfg.t_probs, cfg.seeds) == (3, (0.5, 0.25, 0.25), (5,))


class TestReproduceTables:
    def test_all_rows_pass(self):
        lines = []
        report = reproduce_tables(printer=lines.append)
        assert report["all_pass"]
        assert len(report["rows"]) == 4
        assert report["prezero_sigma"]["pass"]
        assert len(lines) == 5
        assert all("PASS" in line for line in lines)


def one_config_error(capsys) -> str:
    """The one stderr line of a rejected invocation, which wrote no stdout."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert captured.out == ""
    return err[0]


def tiny_config(tmp_path, **kw):
    base = dict(iterations=30, batch=16, eval_samples=256, seeds=(0,),
                output_dir=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = tiny_config(tmp_path)
        summary = run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "summary.json").exists()
        assert (out / "losses_seed0.csv").exists()
        assert (out / "checkpoint_seed0.json").exists()
        assert (out / "samples_seed0.txt").exists()
        assert summary["status"] == "ok"
        assert summary["seeds"]["0"]["status"] == "ok"
        assert "w2" in summary["seeds"]["0"]

    def test_loss_csv_format(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        lines = (tmp_path / "out" / "losses_seed0.csv").read_text().splitlines()
        assert lines[0] == "iter,l_dist,l_adv,l_fm,d_loss"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1])

    def test_rerun_bit_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("losses_seed0.csv", "checkpoint_seed0.json",
                     "samples_seed0.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_points_text_equals_the_per_row_writer(self, tmp_path):
        points = np.array([[-0.0, 0.0], [5e-324, -2.2250738585072014e-308],
                           [1e300, -1e300], [0.1, 1 / 3], [-7.0, 123456.789]])
        per_row = tmp_path / "per_row.txt"
        with open(per_row, "w") as f:
            for x, y in points:
                f.write(f"{float(x)!r} {float(y)!r}\n")
        joined = tmp_path / "joined.txt"
        with open(joined, "w") as f:
            flowlab.cli._write_points(f, points)
        assert joined.read_bytes() == per_row.read_bytes()
        assert joined.read_text().splitlines()[:2] == [
            "-0.0 0.0", "5e-324 -2.2250738585072014e-308"]

    def test_adversarial_method_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, method="ota+adv", iterations=10)
        summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        lines = (tmp_path / "out" / "losses_seed0.csv").read_text().splitlines()
        # adversarial columns are populated, not zero-filled
        d_losses = [float(line.split(",")[4]) for line in lines[1:]]
        assert any(d > 0 for d in d_losses)

    def test_non_finite_metric_fails_the_seed(self, tmp_path, monkeypatch):
        real = flowlab.cli._evaluate

        def nan_interstage(*args):
            samples, metrics = real(*args)
            metrics["interstage"][1]["p_value"] = float("nan")
            return samples, metrics

        monkeypatch.setattr(flowlab.cli, "_evaluate", nan_interstage)
        with pytest.raises(TrainingError, match="one or more seeds failed"):
            run_experiment(tiny_config(tmp_path))
        summary = strict_json((tmp_path / "out" / "summary.json").read_text())
        assert summary["seeds"]["0"] == {
            "status": "failed", "error": "non-finite metric interstage[1].p_value"}
        assert summary["status"] == "training_failed"


def strict_json(text):
    """json.loads that rejects the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def two_cpus(monkeypatch):
    """Two usable CPUs and one BLAS thread, as map_seeds counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(flowlab.netcore, "_blas_threads", lambda: 1)


def run_files(out):
    """{file name: bytes} of a run, summary.json with its path masked."""
    return {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
            for p in sorted(out.iterdir())}


class TestSeedPool:
    """Seeds run in forked workers; what they write and report must be what
    a serial run writes and reports."""

    @pytest.mark.parametrize("method", ["perflow", "ota+adv"])
    def test_pool_and_serial_artifacts_identical(self, tmp_path, monkeypatch,
                                                 method):
        runs = {}
        for name, cpus in (("pool", two_cpus), ("serial", one_cpu)):
            cpus(monkeypatch)
            out = tmp_path / name
            run_experiment(tiny_config(tmp_path, method=method, iterations=6,
                                       seeds=(0, 1, 2), output_dir=str(out)))
            assert multiprocessing.active_children() == []
            runs[name] = run_files(out)
        assert len(runs["pool"]) == 10  # 3 seeds x 3 files + summary.json
        assert runs["pool"] == runs["serial"]

    def test_failed_seed_in_worker(self, tmp_path, monkeypatch):
        real = flowlab.cli._train_one

        def fail_seed_1(config, seed, history):
            if seed == 1:
                raise TrainingError("loss diverged at iteration 3")
            return real(config, seed, history)

        monkeypatch.setattr(flowlab.cli, "_train_one", fail_seed_1)
        runs, errors = {}, {}
        for name, cpus in (("pool", two_cpus), ("serial", one_cpu)):
            cpus(monkeypatch)
            out = tmp_path / name
            with pytest.raises(TrainingError) as failure:
                run_experiment(tiny_config(tmp_path, iterations=4,
                                           seeds=(0, 1, 2), output_dir=str(out)))
            assert multiprocessing.active_children() == []
            runs[name], errors[name] = run_files(out), str(failure.value)
        assert runs["pool"] == runs["serial"]
        assert errors["pool"] == errors["serial"]
        summary = json.loads(runs["pool"]["summary.json"])
        assert summary["seeds"]["1"] == {
            "status": "failed", "error": "loss diverged at iteration 3"}
        assert [summary["seeds"][s]["status"] for s in "02"] == ["ok", "ok"]
        assert "losses_seed1.csv" not in runs["pool"]

    def test_one_item_never_forks(self, monkeypatch):
        two_cpus(monkeypatch)
        assert map_seeds(lambda _: os.getpid(), [7]) == [os.getpid()]

    def test_many_items_run_in_workers(self, monkeypatch):
        two_cpus(monkeypatch)
        pids = map_seeds(lambda _: os.getpid(), range(4))
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("blas, cpus, workers", [
        (2, 2, 1), (8, 8, 1), (1, 2, 2), (2, 8, 4), (3, 8, 2), (4, 2, 1),
        (None, 2, 1), (None, 8, 1)])
    def test_workers_share_cpus_with_blas_threads(self, monkeypatch, blas,
                                                  cpus, workers):
        monkeypatch.setattr(flowlab.netcore, "_blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        pools = []

        class Recorded(ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(flowlab.cli, "ProcessPoolExecutor", Recorded)
        assert map_seeds(lambda x: -x, range(8)) == [-x for x in range(8)]
        assert pools == ([] if workers == 1 else [workers])

    @pytest.mark.parametrize("blas, cpus, share", [
        (1, 2, 2), (2, 2, 1), (4, 2, 1), (None, 2, 1), (1, 1, 1), (2, 8, 4)])
    def test_cpu_share(self, monkeypatch, blas, cpus, share):
        # one rule sizes both the seed pool and the energy test's threads
        monkeypatch.setattr(flowlab.netcore, "_blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert flowlab.netcore._cpu_share() == share

    def test_share_is_one_in_a_worker(self, monkeypatch):
        two_cpus(monkeypatch)
        seen = map_seeds(lambda _: (os.getpid(), flowlab.netcore._cpu_share()),
                         range(2))
        assert all(pid != os.getpid() for pid, _ in seen)
        assert [share for _, share in seen] == [1, 1]
        assert flowlab.netcore._cpu_share() == 2

    @pytest.mark.parametrize("env, threads", [
        ({"MKL_NUM_THREADS": "1"}, "cpus"),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1)])
    def test_blas_threads_asked_of_the_library(self, env, threads):
        # OpenBLAS reads its variables once, when numpy loads it, so each
        # case runs in a fresh interpreter; MKL_NUM_THREADS is not one of
        # them, and OPENBLAS_NUM_THREADS wins over OMP_NUM_THREADS
        script = ("import os, flowlab.cli as c, flowlab.netcore as core; "
                  "print(core._blas_threads(), "
                  "len(os.sched_getaffinity(0)), "
                  "set(c.map_seeds(lambda _: os.getpid(), range(2))) "
                  "== {os.getpid()})")
        clean = {k: v for k, v in os.environ.items() if k not in (
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")}
        src = str(Path(flowlab.__file__).parents[1])
        clean["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**clean, **env}, capture_output=True,
                              text=True, check=True, timeout=120)
        blas, cpus, in_process = proc.stdout.split()
        if threads == "cpus":
            # OpenBLAS's default: a thread per CPU, so the pool never starts
            assert int(blas) >= int(cpus)
            assert in_process == "True"
        else:
            assert int(blas) == threads
            assert in_process == str(int(cpus) == 1)

    def test_blas_lookup_once_count_asked_each_call(self):
        # a child pinned to one BLAS thread: the count follows a runtime
        # openblas_set_num_threads, and /proc/self/maps is read once
        script = """
import builtins, ctypes, json, flowlab, flowlab.netcore as core
real_open, reads = builtins.open, []
def counting_open(file, *args, **kwargs):
    reads.append(file)
    return real_open(file, *args, **kwargs)
builtins.open = counting_open
before = [core._blas_threads() for _ in range(3)]
builtins.open = real_open
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in line}
for path in sorted(paths):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_set_num_threads64_",
                   "scipy_openblas_set_num_threads",
                   "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, symbol):
            getattr(lib, symbol)(2)
            break
builtins.open = counting_open
after = core._blas_threads()
print(json.dumps([before, after, reads.count("/proc/self/maps")]))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(flowlab.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert json.loads(out) == [[1, 1, 1], 2, 1]

    def test_traced_process_stays_in_process(self, monkeypatch):
        two_cpus(monkeypatch)
        real = flowlab.cli.map_seeds

        @functools.wraps(real)
        def wrapped(fn, items):
            return real(fn, items)

        monkeypatch.setattr(flowlab.cli, "map_seeds", wrapped)
        assert wrapped(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3
        monkeypatch.undo()
        two_cpus(monkeypatch)
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            pids = map_seeds(lambda _: os.getpid(), range(3))
        finally:
            sys.setprofile(previous)
        assert pids == [os.getpid()] * 3

    def test_keeps_input_order(self, monkeypatch):
        two_cpus(monkeypatch)

        def late_first(x):  # earlier items finish last
            time.sleep(0.02 * (6 - x))
            return x, x * x

        assert map_seeds(late_first, range(7)) == [(x, x * x) for x in range(7)]


class TestMainCli:
    def test_schedule_print(self, capsys):
        assert main(["schedule", "print", "--shift", "1", "--steps", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1"
        assert out[-1] == "0"
        assert len(out) == 5

    def test_grid_flag_defaults_are_the_training_grid(self, tmp_path, capsys,
                                                      monkeypatch):
        # schedule print and infer, without grid flags, use the grid a
        # default config trains on
        trained = ExperimentConfig().grid().boundaries
        assert main(["schedule", "print"]) == 0
        assert capsys.readouterr().out == format_sigmas(trained) + "\n"
        ckpt, grids = tmp_path / "student.json", []
        save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), ckpt)
        monkeypatch.setattr(flowlab.cli, "infer_few_step",
                            lambda student, grid, eps: grids.append(grid) or eps)
        assert main(["infer", "--checkpoint", str(ckpt), "--n", "4",
                     "--out", str(tmp_path / "pts.txt")]) == 0
        assert np.array_equal(grids[0].boundaries, trained)

    def test_reproduce_tables_exit_zero(self, capsys):
        assert main(["reproduce-tables"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_method_exit_one(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("method = reflow\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_zero_eval_samples_exit_one_before_training(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("eval.samples = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config_text", [
        (["--method", "ota+adv", "--stages", "3"], ""),
        (["--stages", "0"], ""),
        (["--batch", "0"], ""),
        ([], "method = ota+adv\nadv.gan = foo\n"),
        ([], "mixture.weights = 0.5,0.4\n"),
    ], ids=["adv-stage-count", "zero-stages", "zero-batch", "unknown-gan",
            "weights-sum"])
    def test_invalid_config_exit_one_before_output(self, tmp_path, capsys,
                                                   flags, config_text):
        path = tmp_path / "c.cfg"
        path.write_text(config_text)
        out = tmp_path / "run"
        argv = ["train", "--config", str(path), "--out", str(out), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "a"],
        ["train", "--seed", ","],
        ["train", "--t-probs", "x"],
        ["train", "--stages", "a"],
        ["train", "--seed", "-1"],
        ["train", "--iters", "-1"],
        ["train", "--lr", "-0.001"],
        ["train", "--lr", "nan"],
        ["train", "--lambda-adv", "nan"],
        ["train", "--lambda-fm", "nan"],
        ["train", "--gan", "foo"],
        ["schedule", "print", "--steps", "0"],
        ["schedule", "print", "--shift", "0"],
        ["schedule", "print", "--steps", "1001"],
        # the original sampler shifts twice and underflows to zero
        ["schedule", "print", "--shift", "1e-200", "--sampler", "original"],
        ["compare-schedulers", "--steps", "a"],
        ["compare-schedulers", "--steps", "0"],
        # the original sampler underflows at a shift the improved one takes
        ["compare-schedulers", "--shift", "1e-200", "--steps", "4", "--n", "8",
         "--seed", "0"],
        ["compare-schedulers", "--n", "300"],
        ["infer", "--n", "-1"],
        ["infer", "--stages", "0"],
        ["infer", "--shift", "-1"],
        # values argparse itself rejects, and unknown flags
        ["schedule", "print", "--steps", "a"],
        ["schedule", "print", "--shift", "x"],
        ["schedule", "print", "--sampler", "foo"],
        ["infer", "--n", "a"],
        ["infer", "--stages", "x"],
        ["compare-schedulers", "--n", "a"],
        ["train", "--bogus", "1"],
    ], ids=" ".join)
    def test_bad_flag_value_exit_one_before_output(self, tmp_path, capsys, argv):
        # where two flags could be at fault, the message names the right one
        named = {"compare-schedulers --steps 0": "steps: ",
                 "compare-schedulers --shift 1e-200 --steps 4 --n 8 --seed 0":
                 "--shift: "}.get(" ".join(argv), "")
        out = tmp_path / "run"
        if argv[0] == "infer":
            ckpt = tmp_path / "student.json"
            save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), ckpt)
            argv = [*argv, "--checkpoint", str(ckpt)]
        if argv[0] != "schedule":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 1
        assert one_config_error(capsys).startswith(f"config error: {named}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["train", "--config", "{dir}"], "{dir}"),
        (["train", "--iters", "0", "--out", "{file}/x"], "{file}/x"),
        (["infer", "--checkpoint", "{file}", "--out", "{dir}"], "{dir}"),
        (["infer", "--checkpoint", "{file}"], "--out"),
    ], ids=["config-is-dir", "out-under-file", "infer-out-is-dir",
            "infer-out-missing"])
    def test_bad_path_exit_one_naming_it(self, tmp_path, capsys, argv, named):
        paths = {"dir": tmp_path / "a dir", "file": tmp_path / "student.json"}
        paths["dir"].mkdir()
        save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), paths["file"])
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert named.format(**paths) in one_config_error(capsys)

    def test_infer_checks_out_before_inference(self, tmp_path, capsys,
                                               monkeypatch):
        ckpt = tmp_path / "student.json"
        save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), ckpt)

        def never(*args):
            raise AssertionError("inference ran before --out was checked")

        monkeypatch.setattr(flowlab.cli, "infer_few_step", never)
        assert main(["infer", "--checkpoint", str(ckpt), "--n", "100000",
                     "--out", str(tmp_path)]) == 1
        assert str(tmp_path) in one_config_error(capsys)

    def test_failed_inference_leaves_empty_out(self, tmp_path, capsys,
                                               monkeypatch):
        ckpt, out = tmp_path / "student.json", tmp_path / "pts.txt"
        save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), ckpt)
        out.write_text("old points\n")

        def diverge(*args):
            raise TrainingError("non-finite state during inference")

        monkeypatch.setattr(flowlab.cli, "infer_few_step", diverge)
        assert main(["infer", "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("training error: ")
        assert out.read_text() == ""

    @pytest.mark.parametrize("command", sorted(next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)).choices))
    def test_every_subcommand_rejects_unknown_flag(self, capsys, command):
        # a new subcommand's parser inherits the one usage-error exit
        assert main([command, "--no-such-flag"]) == 1
        one_config_error(capsys)

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exit_zero(self, capsys, argv):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("break_checkpoint", [
        lambda d: d.update(weights=d["weights"][:2], biases=d["biases"][:2]),
        lambda d: d.update(biases=[b[:-1] for b in d["biases"]]),
        lambda d: d.pop("activation"),
        lambda d: d.update(activation="tanh"),
        None,
        lambda d: d.update(net_layers((3, 8, 2))),
        lambda d: d.update(net_layers((5, 8, 3))),
        lambda d: d.update(net_layers((5, 8, 1))),
        lambda d: d["biases"][0].__setitem__(0, float("nan")),
        lambda d: d["weights"][-1][0].__setitem__(1, float("-inf")),
    ], ids=["too-few-layers", "bias-sizes", "missing-activation",
            "tanh-activation", "invalid-json", "three-inputs",
            "three-outputs", "scalar-head", "nan-bias", "infinite-weight"])
    @pytest.mark.parametrize("command", ["infer", "diagnose", "train"])
    def test_malformed_checkpoint_exit_one(self, tmp_path, capsys, command,
                                           break_checkpoint):
        good = tmp_path / "good.json"
        save_params(init_params(MlpSpec((5, 8, 8, 8, 2))), good)
        bad = tmp_path / "bad.json"
        if break_checkpoint is None:
            bad.write_text(good.read_text()[:-20])
        else:
            payload = json.loads(good.read_text())
            break_checkpoint(payload)
            bad.write_text(json.dumps(payload))
        out = tmp_path / "run"
        argv = {"infer": ["infer", "--checkpoint", str(bad), "--out", str(out)],
                "diagnose": ["diagnose", "--checkpoint", str(bad)],
                "train": ["train", "--teacher", f"learned:{bad}",
                          "--out", str(out)]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    # made errors, as below: a blown-up student must not warn on its way out
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diagnose_blown_up_student_exit_two(self, tmp_path, capsys):
        # finite parameters whose rollout leaves the sample bound
        params = init_params(MlpSpec((5, 8, 8, 8, 2)))
        params.biases[-1][:] = 1e300
        ckpt = tmp_path / "blown.json"
        save_params(params, ckpt)
        assert main(["diagnose", "--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("training error: student boundary states "
                                 "reach |x| = ")

    def test_one_stage_train_and_diagnose(self, tmp_path, capsys):
        # one stage has no interior boundary: an empty inter-stage report
        out = tmp_path / "run"
        assert main(["train", "--stages", "1", "--iters", "2", "--seed", "0",
                     "--out", str(out)]) == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["seeds"]["0"]["interstage"] == []
        capsys.readouterr()
        ckpt = out / "checkpoint_seed0.json"
        assert main(["diagnose", "--stages", "1", "--iters", "1",
                     "--checkpoint", str(ckpt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["interstage"] == []

    def test_missing_config_file_exit_one(self, capsys):
        assert main(["train", "--config", "/no/such/file.cfg"]) == 1

    def test_train_and_infer_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--iters", "20", "--batch", "16",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        ckpt = out / "checkpoint_seed0.json"
        points = tmp_path / "pts.txt"
        rc = main(["infer", "--checkpoint", str(ckpt), "--n", "32",
                   "--out", str(points)])
        assert rc == 0
        data = np.loadtxt(points)
        assert data.shape == (32, 2)

    # pytest's warning capture hides numpy's RuntimeWarnings from capsys, so
    # they are made errors: the one stderr line must be all the user sees
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_blow_up_fails_every_seed_exit_two(self, tmp_path, capsys):
        # lr 1e6 blows the students up without a non-finite loss, to sample
        # coordinates as large as 1e14 that are still finite
        cfg, out = tmp_path / "small.cfg", tmp_path / "run"
        cfg.write_text("eval.samples = 64\n")
        rc = main(["train", "--config", str(cfg), "--lr", "1e6",
                   "--iters", "200", "--seed", "0,1,2", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("training error: ")
        summary = strict_json((out / "summary.json").read_text())
        assert summary["status"] == "training_failed"
        for seed in ("0", "1", "2"):
            row = summary["seeds"][seed]
            assert row["status"] == "failed"
            assert row["error"].startswith("samples reach |x| = ")
            assert row["error"].endswith(
                ", beyond 450 = 100 x (max |mu| + 5 max s + 1)")
            assert not (out / f"samples_seed{seed}.txt").exists()

    def test_diagnose_reports_divergence(self, tmp_path, capsys):
        rc = main(["diagnose", "--iters", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["trajectory_divergence"]) == 4
        assert "velocity_residuals" in report

    def test_compare_schedulers_structure(self, capsys):
        rc = main(["compare-schedulers", "--steps", "4", "--n", "64",
                   "--seed", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["steps"]["4"]
        assert set(rows) == {"original", "improved"}
        assert len(rows["original"]) == 1

    def test_compare_methods_reports_each_summary(self, tmp_path, capsys):
        cfg, out = tmp_path / "small.cfg", tmp_path / "cmp"
        cfg.write_text("eval.samples = 64\n")
        rc = main(["compare-methods", "--config", str(cfg), "--iters", "3",
                   "--seed", "0,1", "--out", str(out)])
        assert rc == 0
        report = strict_json(capsys.readouterr().out)
        for method in ("perflow", "ota"):
            summary = strict_json((out / method / "summary.json").read_text())
            assert report["methods"][method] == {
                seed: {"w2": row["w2"],
                       "energy_distance": row["energy_distance"]}
                for seed, row in summary["seeds"].items()}
            assert set(summary["seeds"]) == {"0", "1"}

    def test_parser_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


def test_import_loads_the_layer_modules_only():
    # `import flowlab` loads the package and its six layer modules, and not
    # the CLI: the import work a fresh interpreter does
    script = ("import sys, flowlab; print(*sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'flowlab'))")
    src = str(Path(flowlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert proc.stdout.split() == [
        "flowlab", "flowlab.adv", "flowlab.diag", "flowlab.distill",
        "flowlab.flow", "flowlab.netcore", "flowlab.sched"]
