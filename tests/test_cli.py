import json

import numpy as np
import pytest

from flowlab.cli import (ConfigError, ExperimentConfig, build_parser,
                         load_config, main, reproduce_tables, run_experiment)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.method == "ota"
        assert cfg.grid().n_stages == 4

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


class TestReproduceTables:
    def test_all_rows_pass(self):
        lines = []
        report = reproduce_tables(printer=lines.append)
        assert report["all_pass"]
        assert len(report["rows"]) == 4
        assert report["prezero_sigma"]["pass"]
        assert len(lines) == 5
        assert all("PASS" in line for line in lines)


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

    def test_adversarial_method_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, method="ota+adv", iterations=10)
        summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        lines = (tmp_path / "out" / "losses_seed0.csv").read_text().splitlines()
        # adversarial columns are populated, not zero-filled
        d_losses = [float(line.split(",")[4]) for line in lines[1:]]
        assert any(d > 0 for d in d_losses)


class TestMainCli:
    def test_schedule_print(self, capsys):
        assert main(["schedule", "print", "--shift", "1", "--steps", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1"
        assert out[-1] == "0"
        assert len(out) == 5

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

    def test_parser_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
