import gzip
import struct

import numpy as np
import pytest

from replaygraph import (ImageTask, TaskSequence, TaskSpec, build_task_sequence,
                         load_citation_dataset, load_mnist, make_permuted_tasks,
                         synthetic_image_dataset, synthetic_sbm_graph)
from replaygraph.datasets import CitationFormatError, IdxFormatError


def write_citation(tmp_path, content_lines, cites_lines):
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    content.write_text("\n".join(content_lines) + "\n")
    cites.write_text("\n".join(cites_lines) + "\n")
    return content, cites


class TestCitationLoader:
    def test_basic_parse_first_appearance_labels(self, tmp_path):
        content, cites = write_citation(
            tmp_path,
            ["35 0 1 0 theory", "40 1 0 0 systems", "41 0 0 1 theory"],
            ["35 40", "40 41"])
        g = load_citation_dataset(content, cites)
        assert g.num_nodes == 3
        assert g.feature_dim == 3
        assert g.class_count == 2
        assert g.label_names == ("theory", "systems")
        assert np.array_equal(g.labels, [0, 1, 0])
        assert np.array_equal(g.features[0], [0, 1, 0])
        assert g.num_edges == 2

    def test_unknown_edge_ids_dropped_with_warning(self, tmp_path, caplog):
        content, cites = write_citation(
            tmp_path, ["1 0 1 a", "2 1 0 b"], ["1 2", "1 999", "998 2"])
        with caplog.at_level("WARNING"):
            g = load_citation_dataset(content, cites)
        assert g.num_edges == 1
        assert any("2" in rec.message and "dropped" in rec.message
                   for rec in caplog.records)

    def test_malformed_content_line_reports_line_number(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 banana"], [])
        with pytest.raises(CitationFormatError, match="toy.content:2"):
            load_citation_dataset(content, cites)

    def test_inconsistent_attribute_width(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 0 1 0 b"], [])
        with pytest.raises(CitationFormatError, match="expected 2 attributes"):
            load_citation_dataset(content, cites)

    def test_duplicate_node_id(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "1 1 0 b"], [])
        with pytest.raises(CitationFormatError, match="duplicate"):
            load_citation_dataset(content, cites)

    def test_tab_separated_lines(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["35\t0\t1\t0\ttheory", "40 \t1\t 0  0\tsystems"], ["35\t40"])
        g = load_citation_dataset(content, cites)
        assert g.label_names == ("theory", "systems")
        assert np.array_equal(g.features, [[0, 1, 0], [1, 0, 0]])
        assert g.num_edges == 1

    def test_numeric_spellings_parse_as_float(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["1 1e3 -2.5 +.5 5. a", "2 -0 1E-3 inf -Infinity b"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.dtype == np.float64
        assert np.array_equal(g.features,
                              [[1e3, -2.5, 0.5, 5.0], [0.0, 1e-3, np.inf, -np.inf]])

    def test_blank_lines_skipped_and_counted_in_errors(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["", "1 0 1 a", "   ", "", "2 1 0 b", "\t", "3 0 x c"], [])
        with pytest.raises(CitationFormatError, match="toy.content:7: non-numeric"):
            load_citation_dataset(content, cites)
        content.write_text("\n1 0 1 a\n\n2 1 0 b\n\n")
        g = load_citation_dataset(content, cites)
        assert g.num_nodes == 2

    def test_non_numeric_attribute_mid_row(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["1 0 1 0 1 a", "2 1 0 1 0 a", "3 0 1 x 1 b", "4 0 1 1 0 b"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:3: non-numeric attribute"):
            load_citation_dataset(content, cites)

    @pytest.mark.parametrize("line, count", [("2", 1), ("2 b", 2)])
    def test_too_few_fields(self, tmp_path, line, count):
        content, cites = write_citation(tmp_path, ["1 0 1 a", line], [])
        with pytest.raises(CitationFormatError,
                           match=f"toy.content:2: .* got {count} fields"):
            load_citation_dataset(content, cites)

    def test_one_attribute_file(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 a", "2 1 b", "3 1 a"], ["1 3"])
        g = load_citation_dataset(content, cites)
        assert g.features.shape == (3, 1)
        assert np.array_equal(g.features[:, 0], [0, 1, 1])

    def test_one_row_file(self, tmp_path):
        content, cites = write_citation(tmp_path, ["7 0 1 1 a"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.shape == (1, 3)
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_single_row_single_attribute(self, tmp_path):
        content, cites = write_citation(tmp_path, ["7 2.5 a"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.shape == (1, 1)
        assert g.features[0, 0] == 2.5

    def test_hash_in_id_and_label_is_data(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["#1 0 1 a#b", "2# 1 0 #c", "3 1 1 a#b"], ["#1 2#", "3 #1"])
        g = load_citation_dataset(content, cites)
        assert g.num_nodes == 3
        assert g.label_names == ("a#b", "#c")
        assert np.array_equal(g.labels, [0, 1, 0])
        assert np.array_equal(g.features, [[0, 1], [1, 0], [1, 1]])
        assert g.num_edges == 2

    def test_hash_attribute_is_not_a_comment(self, tmp_path):
        # Read as comments, `#1`/`#0` would silently shrink every row to one
        # attribute; they are attributes, and not numbers.
        content, cites = write_citation(tmp_path, ["1 0 #1 a", "2 1 #0 b"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:1: non-numeric attribute"):
            load_citation_dataset(content, cites)

    def test_first_bad_line_wins_across_error_kinds(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["1 0 1 a", "2 0 1 0 b", "1 1 0 c", "4"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:2: expected 2 attributes, got 3"):
            load_citation_dataset(content, cites)
        content.write_text("1 0 1 a\n2 0 y b\n1 1 0 c\n")
        with pytest.raises(CitationFormatError, match="toy.content:2: non-numeric"):
            load_citation_dataset(content, cites)

    @pytest.mark.parametrize("token", ["1_0", "١"])
    def test_python_only_float_spellings_rejected(self, tmp_path, token):
        # float() accepts digit-group underscores and non-ASCII digits; the
        # attribute parser does not, and says where.
        content, cites = write_citation(tmp_path, ["1 0 1 a", f"2 1 {token} b"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:2: non-numeric attribute"):
            load_citation_dataset(content, cites)

    @pytest.mark.parametrize("blocks", [
        ["1"],
        ["0 1 1 0"],
        ["0\t1\t1\t0"],
        ["0", "1", "1"],
        ["0 1\t1", "1\t0 0", "0 0 1"],
        ["1\t0", "0 1", "1 1", "0\t0"],
    ], ids=["1x1", "1xd", "1xd-tabs", "nx1", "nxd-mixed", "nxd-tabs-and-spaces"])
    def test_binary_attributes_match_loadtxt(self, tmp_path, blocks):
        content, cites = write_citation(
            tmp_path, [f"{i} {block} c{i % 2}" for i, block in enumerate(blocks)], [])
        g = load_citation_dataset(content, cites)
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        assert g.features.shape == expected.shape
        assert g.features.dtype == expected.dtype
        assert g.features.flags.c_contiguous == expected.flags.c_contiguous
        assert g.features.tobytes() == expected.tobytes()

    def test_binary_attributes_read_without_loadtxt(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("binary attributes went through np.loadtxt")

        content, cites = write_citation(tmp_path, ["1 0 1 0 a", "2 1\t1 0 b"], [])
        monkeypatch.setattr(np, "loadtxt", refuse)
        g = load_citation_dataset(content, cites)
        assert np.array_equal(g.features, [[0, 1, 0], [1, 1, 0]])

    @pytest.mark.parametrize("block, expected", [
        ("01 1", [1.0, 1.0]),
        ("-0 1", [-0.0, 1.0]),
        ("1.0 0", [1.0, 0.0]),
        ("2 0", [2.0, 0.0]),
        ("0  1", [0.0, 1.0]),
        ("0\x0b1", [0.0, 1.0]),
    ])
    def test_near_binary_attributes_parse_as_floats(self, tmp_path, block, expected):
        content, cites = write_citation(tmp_path, ["1 1 0 a", f"2 {block} b"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.tobytes() == np.array([[1.0, 0.0], expected]).tobytes()

    def test_non_ascii_digit_among_binary_attributes_rejected(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 1 0 a", "2 \u0661 0 b"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:2: non-numeric attribute"):
            load_citation_dataset(content, cites)

    def test_ragged_binary_rows_rejected(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 0 a", "2 0 1 b"], [])
        with pytest.raises(CitationFormatError,
                           match="toy.content:2: expected 3 attributes, got 2"):
            load_citation_dataset(content, cites)

    def test_malformed_cites_line(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"],
                                        ["1 2 3"])
        with pytest.raises(CitationFormatError, match="toy.cites:1"):
            load_citation_dataset(content, cites)


class TestTaskSequenceConstruction:
    def make_graph(self, per_class=8, classes=6, seed=0):
        return synthetic_sbm_graph([per_class] * classes, 0.3, 0.05, 0.3, seed)

    def test_partition_and_counts(self):
        g = self.make_graph()
        seq = build_task_sequence(g, classes_per_task=2, num_tasks=3,
                                  train_per_class=3, seed=0)
        assert [t.classes for t in seq.tasks] == [(0, 1), (2, 3), (4, 5)]
        for task in seq.tasks:
            assert len(task.train_nodes) == 6
            assert len(task.test_nodes) == 10
            assert not set(task.train_nodes.tolist()) & set(task.test_nodes.tolist())

    def test_leftover_class_unused(self):
        g = self.make_graph(classes=7)
        seq = build_task_sequence(g, 2, 3, 3, seed=0)
        used = {c for t in seq.tasks for c in t.classes}
        assert used == set(range(6))

    def test_single_task_all_classes(self):
        g = self.make_graph(classes=4)
        seq = build_task_sequence(g, 4, 1, 3, seed=0)
        assert seq.tasks[0].classes == (0, 1, 2, 3)

    def test_class_too_small_rejected(self):
        g = self.make_graph(per_class=4)
        with pytest.raises(ValueError, match="class"):
            build_task_sequence(g, 2, 3, 4, seed=0)

    def test_too_many_tasks_rejected(self):
        g = self.make_graph(classes=4)
        with pytest.raises(ValueError):
            build_task_sequence(g, 2, 3, 3, seed=0)

    def test_seed_determinism(self):
        g = self.make_graph()
        a = build_task_sequence(g, 2, 3, 3, seed=5)
        b = build_task_sequence(g, 2, 3, 3, seed=5)
        c = build_task_sequence(g, 2, 3, 3, seed=6)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train_nodes, tb.train_nodes)
        assert any(not np.array_equal(ta.train_nodes, tc.train_nodes)
                   for ta, tc in zip(a.tasks, c.tasks))

    def test_taskspec_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            TaskSpec(0, (0,), np.array([1, 2]), np.array([2, 3]))

    def test_sequence_rejects_class_reuse(self):
        g = self.make_graph(classes=2)
        nodes = np.where(g.labels == 0)[0]
        t0 = TaskSpec(0, (0,), nodes[:2], nodes[2:4])
        t1 = TaskSpec(1, (0,), nodes[4:5], nodes[5:6])
        with pytest.raises(ValueError, match="reuses"):
            TaskSequence(g, (t0, t1))

    def test_sequence_rejects_mislabeled_nodes(self):
        g = self.make_graph(classes=2)
        wrong = np.where(g.labels == 1)[0]
        t0 = TaskSpec(0, (0,), wrong[:2], wrong[2:4])
        with pytest.raises(ValueError, match="outside"):
            TaskSequence(g, (t0,))


def write_idx_images(path, images, gz=False):
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", 2051, n, rows, cols) + images.astype(np.uint8).tobytes()
    if gz:
        path.write_bytes(gzip.compress(blob))
    else:
        path.write_bytes(blob)


def write_idx_labels(path, labels, gz=False):
    blob = struct.pack(">II", 2049, len(labels)) + labels.astype(np.uint8).tobytes()
    if gz:
        path.write_bytes(gzip.compress(blob))
    else:
        path.write_bytes(blob)


class TestIdxLoader:
    def test_roundtrip_and_scaling(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
        flat, got = load_mnist(tmp_path, split="train")
        assert flat.shape == (5, 16)
        assert flat.max() <= 1.0 and flat.min() >= 0.0
        assert np.allclose(flat[0], images[0].reshape(-1) / 255.0)
        assert np.array_equal(got, labels)

    def test_gzipped_files(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([1, 0, 1], dtype=np.uint8)
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte.gz", images, gz=True)
        write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte.gz", labels, gz=True)
        flat, got = load_mnist(tmp_path, split="test")
        assert flat.shape == (3, 4)
        assert np.array_equal(got, labels)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "train-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 7, 1, 1, 1))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([0], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist(tmp_path)

    def test_truncated_data(self, tmp_path):
        blob = struct.pack(">IIII", 2051, 2, 4, 4) + b"\x00" * 10
        (tmp_path / "train-images-idx3-ubyte").write_bytes(blob)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.array([0, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="expected 32 data bytes"):
            load_mnist(tmp_path)

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.array([0, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="3 images vs 2 labels"):
            load_mnist(tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist(tmp_path)


class TestPermutedTasks:
    def test_first_task_identity_later_tasks_permuted(self, rng):
        images = rng.uniform(size=(50, 9))
        labels = rng.integers(0, 3, 50)
        tasks = make_permuted_tasks(images, labels, num_tasks=3,
                                    per_task_train=20, per_task_test=10, seed=0)
        assert np.array_equal(tasks[0].pixel_permutation, np.arange(9))
        for task in tasks[1:]:
            assert sorted(task.pixel_permutation.tolist()) == list(range(9))
            assert not np.array_equal(task.pixel_permutation, np.arange(9))

    def test_inverse_permutation_restores_images(self, rng):
        images = rng.uniform(size=(30, 16))
        labels = rng.integers(0, 2, 30)
        tasks = make_permuted_tasks(images, labels, 2, 10, 5, seed=1)
        task = tasks[1]
        inverse = np.argsort(task.pixel_permutation)
        restored = task.train_images[:, inverse]
        # each restored row must be one of the source images
        for row in restored:
            assert any(np.allclose(row, img) for img in images)

    def test_shapes_and_determinism(self, rng):
        images = rng.uniform(size=(40, 4))
        labels = rng.integers(0, 2, 40)
        a = make_permuted_tasks(images, labels, 2, 12, 6, seed=3)
        b = make_permuted_tasks(images, labels, 2, 12, 6, seed=3)
        assert a[0].train_images.shape == (12, 4)
        assert a[0].test_images.shape == (6, 4)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.train_images, tb.train_images)
            assert np.array_equal(ta.pixel_permutation, tb.pixel_permutation)

    def test_oversized_request_rejected(self, rng):
        images = rng.uniform(size=(10, 4))
        labels = rng.integers(0, 2, 10)
        with pytest.raises(ValueError):
            make_permuted_tasks(images, labels, 2, 8, 3, seed=0)


class TestSyntheticFixtures:
    def test_sbm_shapes_and_labels(self):
        g = synthetic_sbm_graph([5, 5, 5], 0.5, 0.05, 0.1, seed=0)
        assert g.num_nodes == 15
        assert g.class_count == 3
        assert np.array_equal(np.bincount(g.labels), [5, 5, 5])

    def test_sbm_determinism(self):
        a = synthetic_sbm_graph([6, 6], 0.4, 0.1, 0.2, seed=2)
        b = synthetic_sbm_graph([6, 6], 0.4, 0.1, 0.2, seed=2)
        assert np.array_equal(a.csr_neighbors, b.csr_neighbors)
        assert np.array_equal(a.features, b.features)

    def test_image_fixture(self):
        images, labels = synthetic_image_dataset(4, 10, 0.2, seed=0, dim=25)
        assert images.shape == (40, 25)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(np.bincount(labels), [10, 10, 10, 10])
