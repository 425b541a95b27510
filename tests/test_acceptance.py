"""Acceptance gate: one test per shipping criterion, each printing a PASS,
FAIL, or SKIP line with its headline numbers.

Criteria needing Cora, Citeseer, or MNIST files run faithfully when the data
is present (searched under REPLAYGRAPH_DATA_DIR, ./data, and /root/data) and
skip with the tried locations otherwise; a synthetic analogue of each such
criterion always runs so the machinery is exercised either way.
"""

import dataclasses
import logging
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from replaygraph.datasets import (_mnist_files, build_task_sequence, load_mnist,
                                  synthetic_sbm_graph)
from replaygraph.experiment import (DATA_DIR_ENV, ExperimentConfig,
                                    run_experiment, sweep_e)
from replaygraph.linear import Batch, LinearModel
from replaygraph.metrics import accuracy, micro_f1
from replaygraph.mlp import MlpModel
from replaygraph.replay import (ReplayConfig, loss_groups, run_sequence,
                                weight_factor)
from replaygraph.selection import (CgSettings, cg_solve, class_rows,
                                   fit_to_stationarity, influence_scores,
                                   loo_parameter_change, loo_retrain_oracle,
                                   predicted_loss_change, select_cm, select_im,
                                   select_mf, select_random)
from conftest import (batch_of, dense_gauss_newton, finite_difference_gradient,
                      write_idx_images, write_idx_labels)

pytestmark = pytest.mark.acceptance


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n[acceptance] {text}")


def data_roots():
    roots = []
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        roots.append(Path(env))
    roots += [Path(__file__).resolve().parent.parent / "data", Path("/root/data")]
    return roots


def find_citation(name):
    tried = []
    for root in data_roots():
        for content in (root / name / f"{name}.content", root / f"{name}.content"):
            tried.append(str(content))
            cites = content.with_suffix(".cites")
            if content.exists() and cites.exists():
                return (content, cites), tried
    return None, tried


def find_mnist():
    # the file names load_mnist accepts, from the loader itself
    tried = []
    for root in data_roots():
        for directory in (root / "mnist", root):
            tried.append(str(directory))
            try:
                _mnist_files(directory)
            except FileNotFoundError:
                continue
            return directory, tried
    return None, tried


def test_find_mnist_accepts_every_name_the_loader_reads(tmp_path, monkeypatch):
    images = np.arange(3 * 2 * 2).reshape(3, 2, 2)
    write_idx_images(tmp_path / "train-images.idx3-ubyte", images)
    write_idx_labels(tmp_path / "train-labels.idx1-ubyte", np.array([0, 1, 2]))
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    directory, _ = find_mnist()
    assert directory == tmp_path
    flat, labels = load_mnist(directory)
    assert flat.shape == (3, 4) and labels.tolist() == [0, 1, 2]


def budget(start, limit, capsys, label):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"


# -- criterion 1: numerics suite ------------------------------------------


def test_criterion1_numerics_suite(capsys):
    start = time.monotonic()
    worst_linear = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        model = LinearModel.zeros(4, 5, weight_decay=float(rng.uniform(0, 0.1)))
        model.set_flat(rng.standard_normal(model.num_params))
        samples = batch_of([(rng.standard_normal(5), int(rng.integers(4)),
                             float(rng.uniform(0.5, 2.0))) for _ in range(6)])
        scratch = model.copy()

        def loss_at(theta):
            scratch.set_flat(theta)
            return scratch.loss(samples)

        grad = model.gradient(samples)
        fd = finite_difference_gradient(loss_at, model.get_flat())
        worst_linear = max(worst_linear,
                           np.max(np.abs(grad - fd)) / (1 + np.max(np.abs(fd))))

    worst_mlp = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        model = MlpModel.init(input_dim=10, hidden_dim=4, class_count=3,
                              weight_decay=float(rng.uniform(0, 0.1)),
                              seed=trial)
        # fully random parameters keep pre-activations off the ReLU kinks,
        # where two-sided differences and the subgradient legitimately differ
        model.set_flat(0.5 * rng.standard_normal(model.num_params))
        samples = batch_of([(rng.standard_normal(10), int(rng.integers(3)),
                             float(rng.uniform(0.5, 2.0))) for _ in range(5)])
        scratch = model.copy()

        def loss_at(theta):
            scratch.set_flat(theta)
            return scratch.loss(samples)

        grad = model.gradient(samples)
        fd = finite_difference_gradient(loss_at, model.get_flat())
        worst_mlp = max(worst_mlp,
                        np.max(np.abs(grad - fd)) / (1 + np.max(np.abs(fd))))

    worst_hvp = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        model = LinearModel.zeros(3, 4, weight_decay=float(rng.uniform(0, 0.1)))
        model.set_flat(rng.standard_normal(model.num_params))
        samples = batch_of([(rng.standard_normal(4), int(rng.integers(3)))
                            for _ in range(6)])
        v = rng.standard_normal(model.num_params)
        closed = model.hvp(samples, v=v)
        h = 1e-6
        plus, minus = model.copy(), model.copy()
        plus.set_flat(model.get_flat() + h * v)
        minus.set_flat(model.get_flat() - h * v)
        fd = (plus.gradient(samples) - minus.gradient(samples)) / (2 * h * len(samples))
        worst_hvp = max(worst_hvp,
                        np.max(np.abs(closed - fd)) / (1 + np.max(np.abs(fd))))

    worst_gn = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2500 + trial)
        model = MlpModel.init(input_dim=6, hidden_dim=4, class_count=4,
                              weight_decay=float(rng.uniform(0, 0.1)),
                              seed=trial)
        model.set_flat(0.5 * rng.standard_normal(model.num_params))
        mask = (0, 2, 3)
        samples = batch_of([(rng.standard_normal(6), int(rng.choice(mask)),
                             float(rng.uniform(0.5, 2.0))) for _ in range(5)])
        v = rng.standard_normal(model.num_params)
        dense = dense_gauss_newton(model, samples, mask) @ v
        exact = model.hvp(samples, mask, v)
        worst_gn = max(worst_gn,
                       float(np.linalg.norm(exact - dense) / np.linalg.norm(dense)))

    worst_cg = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        m = rng.standard_normal((8, 8))
        h = m @ m.T + np.eye(8)
        rhs = rng.standard_normal(8)
        got = cg_solve(lambda u: h @ u, rhs, CgSettings(residual_tol=1e-12)).solution
        worst_cg = max(worst_cg, float(np.linalg.norm(got - np.linalg.solve(h, rhs))))

    ok = (worst_linear < 1e-6 and worst_mlp < 1e-5
          and worst_hvp < 1e-4 and worst_gn < 1e-6 and worst_cg < 1e-6)
    announce(capsys,
             f"criterion 1 (numerics suite): {'PASS' if ok else 'FAIL'} - "
             f"grad rel err linear {worst_linear:.2e} (<1e-6), "
             f"mlp {worst_mlp:.2e} (<1e-5), hvp {worst_hvp:.2e} (<1e-4), "
             f"mlp gauss-newton {worst_gn:.2e} (<1e-6), cg {worst_cg:.2e} (<1e-6)")
    assert worst_linear < 1e-6
    assert worst_mlp < 1e-5
    assert worst_hvp < 1e-4
    assert worst_gn < 1e-6
    assert worst_cg < 1e-6
    budget(start, 30, capsys, "criterion 1")


# -- criterion 2: influence-function fidelity ------------------------------


def blob_instance(seed, n_per_class=15, dim=4, weight_decay=0.3, sep=1.5,
                  probes_per_class=5):
    rng = np.random.default_rng(seed)
    template = LinearModel.zeros(2, dim, weight_decay)
    centers = {0: np.full(dim, -sep / 2), 1: np.full(dim, sep / 2)}

    def draw(count):
        return batch_of([(centers[label] + rng.standard_normal(dim), label)
                         for label in (0, 1) for _ in range(count)])

    return template, draw(n_per_class), draw(probes_per_class)


def test_criterion2_influence_fidelity(capsys):
    start = time.monotonic()
    rhos, cosines = [], []
    for seed in range(20):
        template, train, probes = blob_instance(seed)
        model = fit_to_stationarity(template, train)

        scores = influence_scores(model, train, probes, CgSettings(damping=0.0))
        predicted = predicted_loss_change(scores, len(train))
        actual = np.array([loo_retrain_oracle(template, train, probes, i)
                           for i in range(len(train))])
        rhos.append(float(spearmanr(predicted, actual).statistic))

        rng = np.random.default_rng(seed)
        k = int(rng.integers(len(train)))
        bare = dataclasses.replace(model, weight_decay=0.0)
        solve = cg_solve(lambda v: model.hvp(train, v=v, damping=0.0),
                         bare.gradient(train.take([k])),
                         CgSettings(residual_tol=1e-10, damping=0.0))
        pred_move = solve.solution / len(train)
        true_move = loo_parameter_change(template, train, k)
        cosines.append(float(pred_move @ true_move
                             / (np.linalg.norm(pred_move) * np.linalg.norm(true_move))))

    ok = min(rhos) >= 0.8 and min(cosines) >= 0.9
    announce(capsys,
             f"criterion 2 (influence fidelity, 20 instances): "
             f"{'PASS' if ok else 'FAIL'} - spearman min {min(rhos):.4f} (>=0.8), "
             f"parameter-move cosine min {min(cosines):.4f} (>=0.9)")
    assert min(rhos) >= 0.8
    assert min(cosines) >= 0.9
    budget(start, 120, capsys, "criterion 2")


# -- criterion 3: forgetting on citation graphs ----------------------------

CITATION_FM_TABLE = {
    "cora": {"mf": 0.2500, "cm": 0.2546, "im": 0.2611},
    "citeseer": {"mf": 0.2034, "cm": 0.1938, "im": 0.1716},
}


@pytest.mark.parametrize("name", ["cora", "citeseer"])
def test_criterion3_citation_forgetting(name, capsys, tmp_path):
    start = time.monotonic()
    found, tried = find_citation(name)
    if found is None:
        announce(capsys, f"criterion 3 ({name} forgetting): SKIP - dataset not "
                         f"found; tried {', '.join(tried)}")
        pytest.skip(f"{name} dataset unavailable")
    content, cites = found

    def aggregate(strategy):
        config = ExperimentConfig.from_dict(dict(
            dataset=name, content=str(content), cites=str(cites), model="sgc",
            strategy=strategy, e=1, epochs=100, tasks=3, classes_per_task=2,
            train_per_class=20, seeds=list(range(10)),
            out=str(tmp_path / name / strategy)))
        return run_experiment(config)["fm_mean"]

    fm = {strategy: aggregate(strategy) for strategy in ("none", "mf", "cm", "im")}
    margin_ok = all(fm["none"] >= fm[s] + 0.05 for s in ("mf", "cm", "im"))
    table_ok = all(abs(fm[s] - CITATION_FM_TABLE[name][s]) <= 0.06
                   for s in ("mf", "cm", "im"))
    ok = margin_ok and table_ok
    announce(capsys,
             f"criterion 3 ({name} forgetting): {'PASS' if ok else 'FAIL'} - "
             f"vanilla fm {fm['none']:.4f}; "
             + ", ".join(f"{s} {fm[s]:.4f} (ref {CITATION_FM_TABLE[name][s]:.4f})"
                         for s in ("mf", "cm", "im")))
    assert margin_ok, f"vanilla must exceed each replay strategy by >= 5 points: {fm}"
    assert table_ok, f"strategy FM outside +/-6 points of reference: {fm}"
    budget(start, 300, capsys, f"criterion 3 ({name})")


def test_criterion3_synthetic_analogue(capsys, tmp_path):
    # same protocol on the block-model fixture: replay must beat vanilla
    # by the criterion's 5-point margin
    start = time.monotonic()

    def aggregate(strategy):
        config = ExperimentConfig.from_dict(dict(
            dataset="synthetic-sbm", model="sgc", strategy=strategy, e=1,
            epochs=100, tasks=3, classes_per_task=2, train_per_class=20,
            sbm_test_per_class=40, seeds=list(range(10)),
            out=str(tmp_path / strategy)))
        return run_experiment(config)["fm_mean"]

    fm = {strategy: aggregate(strategy)
          for strategy in ("none", "random", "mf", "cm", "im")}
    replayed = {s: v for s, v in fm.items() if s != "none"}
    ok = all(fm["none"] >= v + 0.05 for v in replayed.values())
    announce(capsys,
             f"criterion 3 (synthetic analogue): {'PASS' if ok else 'FAIL'} - "
             f"vanilla fm {fm['none']:.4f} vs "
             + ", ".join(f"{s} {v:.4f}" for s, v in replayed.items()))
    for strategy, value in replayed.items():
        assert fm["none"] >= value + 0.05, (strategy, value, fm["none"])
    budget(start, 300, capsys, "criterion 3 (synthetic)")


# -- criterion 4: buffer-size sweep ----------------------------------------

E_VALUES = [1, 5, 10, 20]


def check_sweep(fms, capsys, label, start, limit):
    non_increasing = all(fms[i + 1] <= fms[i] + 0.01 for i in range(len(fms) - 1))
    capped = fms[-1] <= 0.02
    ok = non_increasing and capped
    announce(capsys, f"{label}: {'PASS' if ok else 'FAIL'} - fm by e "
             + ", ".join(f"e={e}: {fm:+.4f}" for e, fm in zip(E_VALUES, fms))
             + " (non-increasing within 1pt; <=2pts at e=20)")
    assert non_increasing, f"fm must be non-increasing in e within 1 point: {fms}"
    assert capped, f"fm at e=20 must be <= 2 points: {fms[-1]}"
    budget(start, limit, capsys, label)


def test_criterion4_e_sweep_cora(capsys, tmp_path):
    start = time.monotonic()
    found, tried = find_citation("cora")
    if found is None:
        announce(capsys, "criterion 4 (cora e-sweep): SKIP - dataset not found; "
                         f"tried {', '.join(tried)}")
        pytest.skip("cora dataset unavailable")
    content, cites = found
    config = ExperimentConfig.from_dict(dict(
        dataset="cora", content=str(content), cites=str(cites), model="sgc",
        strategy="im", e=1, epochs=100, tasks=3, classes_per_task=2,
        train_per_class=20, seeds=[0, 1, 2], out=str(tmp_path / "sweep")))
    reports = sweep_e(config, E_VALUES)
    check_sweep([r["fm_mean"] for r in reports], capsys,
                "criterion 4 (cora e-sweep)", start, 600)


def test_criterion4_synthetic_analogue(capsys, tmp_path):
    start = time.monotonic()
    config = ExperimentConfig.from_dict(dict(
        dataset="synthetic-sbm", model="sgc", strategy="mf", epochs=100,
        tasks=3, classes_per_task=2, train_per_class=20, sbm_test_per_class=40,
        sbm_noise=1.5, sbm_intra_p=0.15, sbm_inter_p=0.05, seeds=[0, 1, 2],
        out=str(tmp_path / "sweep")))
    reports = sweep_e(config, E_VALUES)
    check_sweep([r["fm_mean"] for r in reports], capsys,
                "criterion 4 (synthetic analogue e-sweep)", start, 600)


# -- criterion 5: sequential permuted images -------------------------------


def test_criterion5_permuted_mnist(capsys, tmp_path):
    start = time.monotonic()
    mnist_dir, tried = find_mnist()
    if mnist_dir is None:
        announce(capsys, "criterion 5 (permuted MNIST): SKIP - IDX files not "
                         f"found; tried {', '.join(tried)}")
        pytest.skip("MNIST dataset unavailable")

    def aggregate(strategy):
        config = ExperimentConfig.from_dict(dict(
            dataset="permuted-mnist", mnist_dir=str(mnist_dir), model="mlp",
            strategy=strategy, e=10, epochs=20, lr=1e-3, decay=1e-5,
            batch_size=64, tasks=5, hidden_dim=256, mnist_train_per_task=1000,
            mnist_test_per_task=500, seeds=[0, 1, 2],
            out=str(tmp_path / strategy)))
        return run_experiment(config)["fm_mean"]

    fm_none = aggregate("none")
    fm_im = aggregate("im")
    gap = fm_none - fm_im
    ok = gap >= 0.05
    announce(capsys, f"criterion 5 (permuted MNIST): {'PASS' if ok else 'FAIL'} - "
                     f"finetune fm {fm_none:.4f}, im fm {fm_im:.4f}, "
                     f"gap {gap:+.4f} (>=0.05)")
    assert gap >= 0.05
    budget(start, 900, capsys, "criterion 5")


def test_criterion5_synthetic_analogue(capsys, tmp_path, caplog):
    # same shape on the template-image fixture: 5 tasks, shared labels,
    # 1000/400 split, influence replay vs plain finetuning
    start = time.monotonic()
    caplog.set_level(logging.WARNING, logger="replaygraph.selection")

    def aggregate(strategy):
        config = ExperimentConfig.from_dict(dict(
            dataset="synthetic-images", model="mlp", strategy=strategy, e=10,
            epochs=20, lr=5e-3, decay=1e-5, batch_size=64, tasks=5,
            hidden_dim=64, syn_noise=0.6, syn_images_per_class=200,
            mnist_train_per_task=1000, mnist_test_per_task=400,
            seeds=[0, 1, 2], out=str(tmp_path / strategy)))
        return run_experiment(config)["fm_mean"]

    fm_none = aggregate("none")
    fm_im = aggregate("im")
    gap = fm_none - fm_im
    solves = 15  # one influence solve per task: 3 seeds x 5 tasks
    unconverged = sum(r.name == "replaygraph.selection" and r.levelno == logging.WARNING
                      for r in caplog.records)
    converged = solves - unconverged
    ok = gap >= 0.05 and converged == solves
    announce(capsys, f"criterion 5 (synthetic-image analogue): "
                     f"{'PASS' if ok else 'FAIL'} - finetune fm {fm_none:.4f}, "
                     f"im fm {fm_im:.4f}, gap {gap:+.4f} (>=0.05), "
                     f"cg converged {converged}/{solves}")
    assert gap >= 0.05
    assert converged == solves
    budget(start, 900, capsys, "criterion 5 (synthetic)")


# -- criterion 6: property suite -------------------------------------------


def test_criterion6_property_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)

    # weighting identities
    assert weight_factor(40, 2) == pytest.approx(2 / 42)
    assert weight_factor(40, 0) == 0.0
    assert weight_factor(7, 7) == 0.5
    train = Batch(np.zeros((40, 1)), np.zeros(40))
    buf = Batch(np.zeros((2, 1)), np.zeros(2))
    groups = loss_groups(train, buf, None, None)
    assert groups[0].coeff * 40 == pytest.approx(groups[1].coeff * 2)
    assert groups[0].coeff * 40 == pytest.approx(40 / 21)
    assert loss_groups(train, None, None, None)[0].coeff == 1.0

    # metric identities
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        pred = rng.integers(0, 6, size=n)
        lab = rng.integers(0, 6, size=n)
        assert micro_f1(pred, lab) == pytest.approx(accuracy(pred, lab))

    # selection cardinality on a real task's candidates
    graph = synthetic_sbm_graph([20] * 4, intra_p=0.3, inter_p=0.02,
                                feature_noise=0.3, seed=0)
    seq = build_task_sequence(graph, 2, 2, 8, seed=1)
    from replaygraph.replay import prepare_task_data
    data = prepare_task_data(graph, seq.tasks[0], k=2)
    candidates = data.train
    template = LinearModel.zeros(4, 4, 0.1)
    model = fit_to_stationarity(template, candidates, mask=(0, 1))
    probes = candidates.take(np.arange(4))
    for e in (1, 3, 8, 50):
        for rows in (select_random(candidates, e, seed=0),
                     select_mf(candidates, e, candidates.attributes),
                     select_cm(candidates, e, candidates.attributes),
                     select_im(model, candidates, e, probes, mask=(0, 1))):
            labels = candidates.y[rows]
            for label, group in class_rows(candidates):
                assert np.sum(labels == label) == min(e, len(group))

    # buffer monotonicity and end-to-end determinism
    config = ReplayConfig(e=2, epochs=30, seed=3)
    state_a = run_sequence(seq, "mf", config)
    state_b = run_sequence(seq, "mf", config)
    sizes = [ev["buffer_after"] for ev in state_a.events]
    assert sizes == sorted(sizes)
    assert [ev["buffer_before"] for ev in state_a.events] == [0] + sizes[:-1]
    assert np.array_equal(state_a.matrix().values, state_b.matrix().values,
                          equal_nan=True)
    for snap_a, snap_b in zip(state_a.snapshots, state_b.snapshots):
        for name in snap_a:
            assert np.array_equal(snap_a[name], snap_b[name])

    announce(capsys, "criterion 6 (property suite): PASS - weighting identities, "
                     "micro-F1 == accuracy (1000 cases), selection cardinality, "
                     "buffer monotonicity, determinism")
    budget(start, 60, capsys, "criterion 6")
