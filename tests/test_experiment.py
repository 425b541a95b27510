"""Experiment orchestration: config validation, artifact files, aggregation,
and end-to-end determinism."""

import ast
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from replaygraph import datasets, experiment
from replaygraph.experiment import (DATA_DIR_ENV, DATASETS, ExperimentConfig,
                                    ExperimentError, run_experiment,
                                    run_single_seed, sweep_e,
                                    validate_config_file)
from replaygraph.replay import STRATEGIES, ReplayConfig, run_image_tasks
from replaygraph.selection import LINEAR_CG, MLP_CG

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def sbm_config(tmp_path, **overrides):
    """A seconds-scale synthetic-graph config."""
    base = dict(dataset="synthetic-sbm", model="sgc", strategy="mf", e=1,
                epochs=20, tasks=2, classes_per_task=2, train_per_class=5,
                sbm_test_per_class=10, seeds=[0], out=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def bench_workloads() -> dict:
    """The benchmark's WORKLOADS, read without importing bench/run.py (which
    pins BLAS threads through environment variables on import)."""
    tree = ast.parse(BENCH_RUN.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "WORKLOADS")


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unknown config key.*decay_rate"):
            ExperimentConfig.from_dict({"decay_rate": 0.1, "zz": 1})

    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config


class TestValidation:
    def test_e_zero_message(self):
        errors = ExperimentConfig(e=0).validate()
        assert "e: must be >= 1" in errors

    def test_violations_accumulate(self):
        config = ExperimentConfig(e=0, lr=0.0, tasks=0, jobs=0)
        errors = config.validate()
        keys = {e.split(":")[0] for e in errors}
        assert {"e", "lr", "tasks", "jobs"} <= keys

    @pytest.mark.parametrize("dataset, model", [
        ("cora", "sgc"), ("citeseer", "sgc"), ("citation", "sgc"), ("synthetic-sbm", "sgc"),
        ("permuted-mnist", "mlp"), ("synthetic-images", "mlp")])
    def test_dataset_model_pairing_enforced(self, dataset, model):
        other = "mlp" if model == "sgc" else "sgc"
        errors = ExperimentConfig(dataset=dataset, model=other).validate()
        assert f"model: dataset {dataset!r} requires model {model!r}" in errors
        errors = ExperimentConfig(dataset=dataset, model=model).validate()
        assert not any("requires model" in e for e in errors)
        errors = ExperimentConfig(dataset=dataset, model="gcn").validate()
        assert [e for e in errors if e.startswith("model:")] == \
            [f"model: dataset {dataset!r} requires model {model!r}"]

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_unset_model_takes_the_datasets(self, dataset):
        assert ExperimentConfig(dataset=dataset).model == DATASETS[dataset]
        assert ExperimentConfig.from_dict({"dataset": dataset}).to_dict()["model"] \
            == DATASETS[dataset]

    def test_mnist_dir_without_idx_files_rejected(self, tmp_path):
        # reported by validate; it used to surface as FileNotFoundError in run
        errors = ExperimentConfig(dataset="permuted-mnist", model="mlp",
                                  mnist_dir=str(tmp_path)).validate()
        assert f"mnist_dir: no train IDX files under {tmp_path}" in errors

    def test_duplicate_seeds_rejected(self):
        errors = ExperimentConfig(seeds=[0, 1, 0]).validate()
        assert "seeds: duplicate values" in errors

    def test_missing_citation_paths_named(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))  # empty directory
        errors = ExperimentConfig(dataset="cora").validate()
        assert any(e.startswith("content:") for e in errors)
        assert any(e.startswith("cites:") for e in errors)
        (tmp_path / "cora.cites").write_text("")
        errors = ExperimentConfig(dataset="cora", content="nope.content").validate()
        assert errors == [f"content: {tmp_path / 'nope.content'} does not exist"]

    @pytest.mark.parametrize("overrides, message", [
        (dict(dataset="mars"), "dataset: must be one of cora, citeseer, citation, "
                               "permuted-mnist, synthetic-sbm, synthetic-images; got 'mars'"),
        (dict(strategy="newest"), f"strategy: must be one of {', '.join(STRATEGIES)}; "
                                  "got 'newest'"),
        (dict(seeds=[]), "seeds: must list at least one seed"),
    ], ids=["dataset", "strategy", "seeds"])
    def test_value_outside_its_choices_named(self, overrides, message):
        assert ExperimentConfig(**overrides).validate() == [message]

    def test_valid_config_produces_no_errors(self, tmp_path):
        assert sbm_config(tmp_path).validate() == []

    def test_integer_accepted_for_float_key(self):
        assert ExperimentConfig(lr=1, decay=0).validate() == []

    def test_benchmark_configs_stay_valid(self, tmp_path):
        # as bench/run.py's write_configs does, citation configs get the
        # paths of the fixture files it writes
        fixture = {"content": tmp_path / "fixture.content", "cites": tmp_path / "fixture.cites"}
        for path in fixture.values():
            path.write_text("")
        for name, spec in bench_workloads().items():
            config = dict(spec["config"])
            if config["dataset"] == "citation":
                config.update({key: str(path) for key, path in fixture.items()})
            errors = ExperimentConfig.from_dict(config).validate()
            assert errors == [], name


class TestPathResolution:
    def test_env_var_supplies_dataset_root(self, monkeypatch, tmp_path):
        layout = tmp_path / "cora"
        layout.mkdir()
        (layout / "cora.content").write_text("n0\t1\t0\n")
        (layout / "cora.cites").write_text("n0\tn0\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        content, cites = ExperimentConfig(dataset="cora").citation_paths()
        assert content == layout / "cora.content"
        assert cites == layout / "cora.cites"

    def test_flat_layout_also_found(self, monkeypatch, tmp_path):
        (tmp_path / "citeseer.content").write_text("x\n")
        (tmp_path / "citeseer.cites").write_text("x\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        content, cites = ExperimentConfig(dataset="citeseer").citation_paths()
        assert content == tmp_path / "citeseer.content"

    def test_explicit_paths_win_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        config = ExperimentConfig(dataset="cora", content="/abs/c.content",
                                  cites="/abs/c.cites")
        content, cites = config.citation_paths()
        assert content == Path("/abs/c.content")

    @pytest.mark.parametrize("layout", ["citation/citation", "citation"])
    def test_citation_layouts_found(self, monkeypatch, tmp_path, layout):
        (tmp_path / "citation").mkdir()
        for suffix in (".content", ".cites"):
            (tmp_path / f"{layout}{suffix}").write_text("x\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        config = ExperimentConfig(dataset="citation")
        assert config.citation_paths() == (tmp_path / f"{layout}.content",
                                           tmp_path / f"{layout}.cites")
        assert not any(e.startswith(("content:", "cites:")) for e in config.validate())

    def test_explicit_citation_paths_win_over_both_layouts(self, monkeypatch, tmp_path):
        (tmp_path / "citation").mkdir()
        for layout in ("citation/citation", "citation", "mine"):
            for suffix in (".content", ".cites"):
                (tmp_path / f"{layout}{suffix}").write_text("x\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        config = ExperimentConfig(dataset="citation", content="mine.content",
                                  cites="mine.cites")
        assert config.citation_paths() == (tmp_path / "mine.content", tmp_path / "mine.cites")

    def test_relative_paths_resolve_against_data_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        config = ExperimentConfig(dataset="citation", content="g.content", cites="g.cites")
        content, _ = config.citation_paths()
        assert content == tmp_path / "g.content"

    def test_mnist_dir_flag_and_fallback(self, monkeypatch, tmp_path):
        config = ExperimentConfig(dataset="permuted-mnist", model="mlp",
                                  mnist_dir=str(tmp_path))
        assert config.mnist_path() == tmp_path
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert ExperimentConfig(dataset="permuted-mnist",
                                model="mlp").mnist_path() is None
        (tmp_path / "mnist").mkdir()
        assert ExperimentConfig(dataset="permuted-mnist", model="mlp") \
            .mnist_path() == tmp_path / "mnist"


class TestDerivedSettings:
    def test_cg_defaults_depend_on_model(self, tmp_path, cg_solves):
        # influence_scores chooses the settings from the model's depth
        run_single_seed(sbm_config(tmp_path, strategy="im"), seed=0)
        assert cg_solves and all(s is LINEAR_CG for s in cg_solves)
        cg_solves.clear()
        run_single_seed(ExperimentConfig.from_dict(dict(
            dataset="synthetic-images", model="mlp", strategy="im", e=1,
            epochs=2, lr=1e-2, batch_size=16, tasks=2, hidden_dim=8,
            syn_images_per_class=20, mnist_train_per_task=60,
            mnist_test_per_task=30)), seed=0)
        assert cg_solves and all(s is MLP_CG for s in cg_solves)
        assert MLP_CG.residual_tol == 1e-3 and LINEAR_CG.residual_tol == 1e-6

    def test_library_and_cli_select_the_same_im_rows(self):
        # The benchmark's mlp-images config, run once through the experiment
        # layer and once as a library user builds it.
        config = ExperimentConfig.from_dict(dict(bench_workloads()["mlp-images"]["config"],
                                                 strategy="im"))
        expected = [event["selected_nodes"] for event in run_single_seed(config, 0)["events"]]
        images, labels = datasets.synthetic_image_dataset(
            10, config.syn_images_per_class, config.syn_noise, seed=0)
        tasks = datasets.make_permuted_tasks(images, labels, config.tasks,
                                             config.mnist_train_per_task,
                                             config.mnist_test_per_task, seed=0)
        state = run_image_tasks(tasks, "im", ReplayConfig(
            e=config.e, epochs=config.epochs, lr=config.lr, decay=config.decay,
            batch_size=config.batch_size, seed=0), hidden_dim=config.hidden_dim)
        assert [event["selected_nodes"] for event in state.events] == expected

    def test_replay_config_batches_only_the_mlp(self):
        assert ExperimentConfig(model="sgc").replay_config(0).batch_size is None
        mlp = ExperimentConfig(model="mlp", dataset="permuted-mnist")
        assert mlp.replay_config(3).batch_size == 64
        assert mlp.replay_config(3).seed == 3


class TestRunSingleSeed:
    def test_sbm_run_shape(self, tmp_path):
        result = run_single_seed(sbm_config(tmp_path), seed=0)
        assert result["seed"] == 0
        assert len(result["rows"]) == 2
        assert 0.0 <= result["pm"] <= 1.0
        assert result["fm"] is not None
        assert len(result["events"]) == 2

    def test_single_task_has_no_forgetting_value(self, tmp_path):
        result = run_single_seed(sbm_config(tmp_path, tasks=1), seed=0)
        assert result["fm"] is None
        assert result["per_task_forgetting"] == []

    def test_synthetic_images_run(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(
            dataset="synthetic-images", model="mlp", strategy="random", e=1,
            epochs=2, lr=1e-2, batch_size=16, tasks=2, hidden_dim=8,
            syn_images_per_class=20, mnist_train_per_task=60,
            mnist_test_per_task=30, seeds=[0], out=str(tmp_path / "img")))
        result = run_single_seed(config, seed=0)
        assert len(result["rows"]) == 2

    def test_source_images_freed_before_training(self, monkeypatch, tmp_path):
        sources, alive = [], []
        build, run = datasets.synthetic_image_dataset, experiment.run_image_tasks

        def traced_build(*args, **kwargs):
            images, labels = build(*args, **kwargs)
            sources.append(weakref.ref(images))
            return images, labels

        def traced_run(*args, **kwargs):
            alive.append(sources[0]() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(datasets, "synthetic_image_dataset", traced_build)
        monkeypatch.setattr(experiment, "run_image_tasks", traced_run)
        run_single_seed(ExperimentConfig.from_dict(dict(
            dataset="synthetic-images", model="mlp", strategy="none", e=1,
            epochs=1, lr=1e-2, batch_size=16, tasks=2, hidden_dim=8,
            syn_images_per_class=20, mnist_train_per_task=60,
            mnist_test_per_task=30, out=str(tmp_path / "img"))), seed=0)
        assert alive == [False]


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        config = sbm_config(tmp_path, seeds=[0, 1])
        report = run_experiment(config)
        out = Path(config.out)
        assert (out / "report.json").exists()
        for seed in (0, 1):
            assert (out / f"matrix_seed{seed}.csv").exists()
            lines = (out / f"runlog_seed{seed}.jsonl").read_text().strip().splitlines()
            assert len(lines) == 2  # one event per task
            assert json.loads(lines[0])["task"] == 0
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report
        assert on_disk["schema_version"] == 1
        assert on_disk["config"]["dataset"] == "synthetic-sbm"

    def test_aggregate_mean_and_sample_std(self, tmp_path):
        config = sbm_config(tmp_path, seeds=[0, 1, 2])
        report = run_experiment(config)
        pms = [r["pm"] for r in report["per_seed"]]
        assert report["pm_mean"] == pytest.approx(np.mean(pms))
        assert report["pm_std"] == pytest.approx(np.std(pms, ddof=1))

    def test_single_seed_std_is_zero(self, tmp_path):
        report = run_experiment(sbm_config(tmp_path))
        assert report["pm_std"] == 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        config = sbm_config(tmp_path, seeds=[0, 1])
        run_experiment(config)
        out = Path(config.out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(config)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_parallel_seeds_match_serial(self, tmp_path):
        serial = run_experiment(sbm_config(tmp_path, seeds=[0, 1],
                                           out=str(tmp_path / "serial")))
        parallel = run_experiment(sbm_config(tmp_path, seeds=[0, 1], jobs=2,
                                             out=str(tmp_path / "parallel")))
        assert serial["per_seed"] == parallel["per_seed"]
        a = (tmp_path / "serial" / "matrix_seed1.csv").read_bytes()
        b = (tmp_path / "parallel" / "matrix_seed1.csv").read_bytes()
        assert a == b

    def test_pool_has_no_more_workers_than_seeds(self, tmp_path, monkeypatch):
        # under fork a pool starts all max_workers processes at once; a
        # recording stand-in runs the seeds serially and starts none
        import concurrent.futures
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = run_experiment(sbm_config(tmp_path, seeds=[0, 1], jobs=64))
        assert started == [2]
        assert [r["seed"] for r in report["per_seed"]] == [0, 1]

    def test_invalid_config_raises_before_compute(self, tmp_path):
        with pytest.raises(ExperimentError, match="e: must be >= 1"):
            run_experiment(sbm_config(tmp_path, e=0))


class TestSweepE:
    def test_per_value_artifacts_and_csv(self, tmp_path):
        config = sbm_config(tmp_path)
        reports = sweep_e(config, [1, 2])
        assert len(reports) == 2
        out = Path(config.out)
        assert (out / "e1" / "report.json").exists()
        assert (out / "e2" / "report.json").exists()
        lines = (out / "sweep_e.csv").read_text().strip().splitlines()
        assert lines[0] == "e,pm,fm"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_duplicates_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="duplicate e values"):
            sweep_e(sbm_config(tmp_path), [1, 1])

    def test_empty_and_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="empty"):
            sweep_e(sbm_config(tmp_path), [])
        with pytest.raises(ExperimentError, match=">= 1"):
            sweep_e(sbm_config(tmp_path), [0, 1])


class TestValidateConfigFile:
    def test_unreadable_file(self, tmp_path):
        errors = validate_config_file(tmp_path / "missing.json")
        assert errors and "cannot read" in errors[0]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        errors = validate_config_file(path)
        assert errors and "not valid JSON" in errors[0]

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        errors = validate_config_file(path)
        assert errors and "JSON object" in errors[0]

    def test_unknown_key_reported(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"dataset": "synthetic-sbm", "turbo": True}))
        errors = validate_config_file(path)
        assert errors and "unknown config key" in errors[0]

    def test_value_errors_listed_with_keys(self, tmp_path):
        path = tmp_path / "bad_values.json"
        path.write_text(json.dumps({"dataset": "synthetic-sbm", "e": 0,
                                    "lr": -1.0}))
        errors = validate_config_file(path)
        assert "e: must be >= 1" in errors
        assert any(e.startswith("lr:") for e in errors)

    def test_replay_only_values_rejected_before_run(self, tmp_path):
        # config_errors holds these checks, so validation reports them before any run
        path = tmp_path / "replay_values.json"
        path.write_text(json.dumps({"eval_mode": "bogus", "batch_size": 0}))
        errors = validate_config_file(path)
        assert any(e.startswith("eval_mode:") for e in errors)
        assert any(e.startswith("batch_size:") for e in errors)

    def test_wrong_types_reported_with_keys(self, tmp_path):
        # a type error is reported alone: the tasks range check never runs
        path = tmp_path / "typed.json"
        for data, message in (
                ({"e": "3"}, "e: must be an integer; got '3'"),
                ({"seeds": 5, "tasks": 0}, "seeds: must be a list of integers; got 5"),
                ({"lr": None}, "lr: must be a number; got None"),
                ({"seeds": [0, True]}, "seeds: must be a list of integers; got [0, True]"),
                ({"e": 2.0}, "e: must be an integer; got 2.0"),
                ({"content": 3}, "content: must be a string or null; got 3")):
            path.write_text(json.dumps(data))
            assert validate_config_file(path) == [message]

    def test_removed_keys_are_unknown(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"cg_tol": 1e-4, "signed_im": True}))
        assert validate_config_file(path) == ["unknown config key(s): cg_tol, signed_im"]

    def test_valid_file_is_clean(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps({"dataset": "synthetic-sbm", "model": "sgc",
                                    "strategy": "im", "seeds": [0, 1]}))
        assert validate_config_file(path) == []
