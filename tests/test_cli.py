"""Command-line surface: seed parsing, flag/config precedence, exit codes."""

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from replaygraph.cli import build_parser, main, parse_seeds
from replaygraph.experiment import ExperimentConfig

from conftest import write_idx_images, write_idx_labels


def sbm_args(tmp_path, **overrides):
    values = dict(dataset="synthetic-sbm", model="sgc", strategy="mf", e=1,
                  epochs=15, tasks=2, classes_per_task=2, train_per_class=5,
                  sbm_test_per_class=10, out=str(tmp_path / "out"))
    values.update(overrides)
    return values


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sbm_args(tmp_path, **overrides)))
    return path


class TestParseSeeds:
    def test_inclusive_range(self):
        assert parse_seeds("0..9") == list(range(10))

    def test_comma_list(self):
        assert parse_seeds("0,3,7") == [0, 3, 7]

    def test_single_value(self):
        assert parse_seeds("5") == [5]

    def test_whitespace_tolerated(self):
        assert parse_seeds(" 2..4 ") == [2, 3, 4]

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="end below start"):
            parse_seeds("9..0")

    def test_garbage_range_rejected(self):
        with pytest.raises(ValueError, match="bad seed range"):
            parse_seeds("a..b")

    def test_garbage_list_rejected(self):
        with pytest.raises(ValueError, match="bad seed list"):
            parse_seeds("1,x")


class TestRunCommand:
    def test_config_file_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 0
        assert "pm " in captured.out
        assert "fm " in captured.out
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "matrix_seed0.csv").exists()
        assert (tmp_path / "out" / "runlog_seed0.jsonl").exists()

    def test_flags_override_config_file(self, tmp_path):
        config = write_config(tmp_path, strategy="none")
        code = main(["run", "--config", str(config), "--strategy", "random",
                     "--seeds", "1,2"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["strategy"] == "random"
        assert report["config"]["seeds"] == [1, 2]
        assert (tmp_path / "out" / "matrix_seed2.csv").exists()

    def test_flags_alone_suffice(self, tmp_path, capsys):
        out = tmp_path / "flagged"
        code = main(["run", "--dataset", "synthetic-sbm", "--model", "sgc",
                     "--strategy", "mf", "--e", "1", "--epochs", "10",
                     "--tasks", "2", "--classes-per-task", "2",
                     "--train-per-class", "4", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()

    def test_invalid_config_exits_one_with_message(self, tmp_path, capsys):
        config = write_config(tmp_path, e=0)
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "e: must be >= 1" in captured.err

    def test_wrong_value_types_reported_without_traceback(self, tmp_path, capsys):
        for bad, key in (({"e": "3"}, "e"), ({"seeds": 5}, "seeds"), ({"lr": None}, "lr")):
            config = write_config(tmp_path, **bad)
            code = main(["run", "--config", str(config)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith("error:")
            assert f"{key}: must be " in captured.err
            assert "Traceback" not in captured.err

    def test_missing_config_file_reported(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot read" in captured.err

    def test_bad_seed_text_reported(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--seeds", "2..x"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad seed range" in captured.err

    def test_unknown_strategy_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--strategy", "newest"])
        assert exc.value.code == 2


class TestRemovedSettings:
    @pytest.mark.parametrize("key, value", [("probe", "test"), ("probe_fraction", 0.5),
                                            ("cm_d", 2.0), ("fm_denominator", "m"),
                                            ("data_dir", "data")])
    def test_config_key_rejected_and_nothing_runs(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        for argv in (["validate-config", str(config)], ["run", "--config", str(config)]):
            assert main(argv) == 1
            assert f"unknown config key(s): {key}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--probe", "test"), ("--fm-denominator", "m")])
    def test_flag_rejected_by_parser(self, tmp_path, flag, value):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_every_flag_sets_a_config_key(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for name in ("run", "sweep-e"):
            dests = {action.dest for action in commands[name]._actions}
            assert dests - {"config", "e_values", "help"} <= fields, name


class TestFixtureSettings:
    @pytest.mark.parametrize("overrides, key", [
        (dict(sbm_intra_p=1.5), "sbm_intra_p"),
        (dict(sbm_inter_p=-0.1), "sbm_inter_p"),
        (dict(sbm_test_per_class=0), "sbm_test_per_class"),
        (dict(dataset="synthetic-images", model="mlp", syn_images_per_class=0),
         "syn_images_per_class"),
        (dict(dataset="synthetic-images", model="mlp", syn_images_per_class=20,
              mnist_test_per_task=500), "mnist_test_per_task"),
        (dict(seeds=[-1]), "seeds"),
        (dict(dataset="synthetic-images", model="mlp", syn_images_per_class=20,
              mnist_test_per_task=30), "mnist_train_per_task"),
        (dict(dataset="synthetic-images", model="mlp", eval_mode="class-incremental"),
         "eval_mode"),
    ])
    def test_rejected_before_anything_runs(self, tmp_path, capsys, overrides, key):
        # each of these used to pass validate-config and then fail inside run,
        # or run other than its config says (fewer training rows, task-aware)
        config = write_config(tmp_path, **overrides)
        for argv in (["validate-config", str(config)], ["run", "--config", str(config)]):
            assert main(argv) == 1
            assert f"{key}: must " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_mnist_split_checked_against_the_idx_header(self, tmp_path, capsys, suffix):
        # six images: a 4 + 3 split used to fail inside run, after every
        # image had been converted
        gz = suffix == ".gz"
        write_idx_images(tmp_path / f"train-images-idx3-ubyte{suffix}",
                         np.zeros((6, 2, 2)), gz)
        write_idx_labels(tmp_path / f"train-labels-idx1-ubyte{suffix}", np.zeros(6), gz)
        mnist = dict(dataset="permuted-mnist", model="mlp", mnist_dir=str(tmp_path),
                     mnist_test_per_task=3)
        config = write_config(tmp_path, mnist_train_per_task=4, **mnist)
        for argv in (["validate-config", str(config)], ["run", "--config", str(config)]):
            assert main(argv) == 1
            assert "mnist_train_per_task: must be <= 3, the 6 images in " \
                in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        config = write_config(tmp_path, mnist_train_per_task=3, **mnist)
        assert main(["validate-config", str(config)]) == 0

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:12], "Compressed file ended"),  # EOFError
        (lambda blob: blob[:10] + b"\xff" * (len(blob) - 10), "invalid block type"),  # zlib
    ], ids=["truncated", "corrupt"])
    def test_damaged_gz_header_reported(self, tmp_path, capsys, damage, message):
        # reading the header of such a file used to end in a traceback
        images = tmp_path / "train-images-idx3-ubyte.gz"
        write_idx_images(images, np.zeros((6, 2, 2)), gz=True)
        images.write_bytes(damage(images.read_bytes()))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte.gz", np.zeros(6), gz=True)
        config = write_config(tmp_path, dataset="permuted-mnist", model="mlp",
                              mnist_dir=str(tmp_path), mnist_test_per_task=3)
        assert main(["validate-config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "mnist_dir: " in err and message in err


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["sweep-e", "--config", str(config), "--e-values", "1,2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "e=1:" in captured.out and "e=2:" in captured.out
        lines = (tmp_path / "out" / "sweep_e.csv").read_text().strip().splitlines()
        assert lines[0] == "e,pm,fm"
        assert len(lines) == 3

    def test_duplicate_e_values_exit_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["sweep-e", "--config", str(config), "--e-values", "2,2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "duplicate e values" in captured.err

    @pytest.mark.parametrize("text", ["1,x", "1, 2.5"])
    def test_bad_e_values_name_the_flag(self, tmp_path, capsys, text):
        config = write_config(tmp_path)
        code = main(["sweep-e", "--config", str(config), "--e-values", text])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: bad --e-values {text!r}; expected a comma list of "
                                "integers like 1,5,10\n")


class TestValidateCommand:
    def test_valid_file_prints_ok(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["validate-config", str(config)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "ok"

    def test_errors_listed_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": "synthetic-sbm", "e": 0,
                                    "tasks": 0}))
        code = main(["validate-config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "e: must be >= 1" in captured.err
        assert "tasks:" in captured.err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys
        config = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "replaygraph", "validate-config", str(config)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"
