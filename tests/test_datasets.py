import hashlib
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from replaygraph import (ImageTask, TaskSequence, TaskSpec, build_task_sequence,
                         load_citation_dataset, load_mnist, make_permuted_tasks,
                         synthetic_image_dataset, synthetic_sbm_graph)
from replaygraph import datasets
from replaygraph.datasets import CitationFormatError, IdxFormatError

from conftest import (traced_peak, write_damaged_idx_images, write_idx_images,
                      write_idx_labels)


def write_citation(tmp_path, content_lines, cites_lines):
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    content.write_text("\n".join(content_lines) + "\n")
    cites.write_text("\n".join(cites_lines) + "\n")
    return content, cites


def refuse_loadtxt(*args, **kwargs):
    raise AssertionError("binary attributes went through np.loadtxt")


# Lines of generated .cites text: ids known to the index and one that is not,
# separated and padded by every ASCII character str.split() treats as
# whitespace apart from the line ends, and by non-ASCII ones. "à1" and "Ņ2"
# hold the bytes A0 and 85 in UTF-8 (C3 A0, C5 85): U+00A0 and U+0085 are
# whitespace, the bytes are not.
CITES_IDS = ("1", "35", "#2", "x7", "é1", "à1", "Ņ2")
CITES_TOKEN = st.sampled_from(CITES_IDS + ("999",))
CITES_SEPARATORS = " \t\v\f\x1c\x1d\x1e\x1f\xa0\x85\u2003\u2028\u3000"
CITES_SPACE = st.text(alphabet=CITES_SEPARATORS, min_size=1, max_size=3)
CITES_PAD = st.text(alphabet=CITES_SEPARATORS, max_size=2)
CITES_GOOD_LINE = st.one_of(  # blank, or two tokens
    CITES_PAD,
    st.builds(lambda pad, a, space, b, end: pad + a + space + b + end,
              CITES_PAD, CITES_TOKEN, CITES_SPACE, CITES_TOKEN, CITES_PAD))
CITES_ANY_LINE = st.builds(lambda tokens, space: space.join(tokens),
                           st.lists(CITES_TOKEN, min_size=1, max_size=4), CITES_SPACE)


def read_cites_by_line(path, text, index):
    """``(pairs, dropped)`` of ``.cites`` text read one line at a time, the
    reference for ``datasets._citations``: the first line without two tokens
    raises."""
    edges = []
    dropped = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise CitationFormatError(
                f"{path}:{lineno}: expected `<cited_id> <citing_id>`, "
                f"got {len(tokens)} fields")
        cited, citing = tokens
        if cited not in index or citing not in index or cited == citing:
            dropped += 1
            continue
        edges.append((index[cited], index[citing]))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), dropped


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
        assert np.array_equal(g.labels, [0, 1, 0])  # first appearance, not sorted order
        assert np.array_equal(g.features.toarray()[0], [0, 1, 0])
        assert g.adjacency.nnz // 2 == 2

    def test_unknown_edge_ids_dropped_with_warning(self, tmp_path, caplog):
        content, cites = write_citation(
            tmp_path, ["1 0 1 a", "2 1 0 b"], ["1 2", "1 999", "998 2"])
        with caplog.at_level("WARNING"):
            g = load_citation_dataset(content, cites)
        assert g.adjacency.nnz // 2 == 1
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
        assert np.array_equal(g.labels, [0, 1])  # theory, then systems
        assert np.array_equal(g.features.toarray(), [[0, 1, 0], [1, 0, 0]])
        assert g.adjacency.nnz // 2 == 1

    def test_numeric_spellings_parse_as_float(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["1 1e3 -2.5 +.5 5. a", "2 -0 1E-3 1e308 -.5E-2 b"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.dtype == np.float64
        assert np.array_equal(g.features.toarray(),
                              [[1e3, -2.5, 0.5, 5.0], [0.0, 1e-3, 1e308, -5e-3]])

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_attribute_named(self, tmp_path, token):
        # such a value used to reach the features, and the run then failed
        # with "parameters became non-finite", blaming the learning rate
        content, cites = write_citation(
            tmp_path, ["1 0 1 a", f"2 1 {token} b", "3 1 0 c"], [])
        with pytest.raises(CitationFormatError,
                           match=f"toy.content:2: non-finite attribute '{token}'"):
            load_citation_dataset(content, cites)

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
        assert np.array_equal(g.features.toarray()[:, 0], [0, 1, 1])

    def test_one_row_file(self, tmp_path):
        content, cites = write_citation(tmp_path, ["7 0 1 1 a"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.shape == (1, 3)
        assert g.num_nodes == 1 and g.adjacency.nnz // 2 == 0

    def test_single_row_single_attribute(self, tmp_path):
        content, cites = write_citation(tmp_path, ["7 2.5 a"], [])
        g = load_citation_dataset(content, cites)
        assert g.features.shape == (1, 1)
        assert g.features.toarray()[0, 0] == 2.5

    def test_hash_in_id_and_label_is_data(self, tmp_path):
        content, cites = write_citation(
            tmp_path, ["#1 0 1 a#b", "2# 1 0 #c", "3 1 1 a#b"], ["#1 2#", "3 #1"])
        g = load_citation_dataset(content, cites)
        assert g.num_nodes == 3
        assert np.array_equal(g.labels, [0, 1, 0])  # a#b, then #c, which sorts first
        assert np.array_equal(g.features.toarray(), [[0, 1], [1, 0], [1, 1]])
        assert g.adjacency.nnz // 2 == 2

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
        dense = g.features.toarray()
        assert dense.shape == expected.shape
        assert dense.dtype == expected.dtype
        assert dense.flags.c_contiguous == expected.flags.c_contiguous
        assert dense.tobytes() == expected.tobytes()

    def test_binary_attributes_read_without_loadtxt(self, tmp_path, monkeypatch):
        content, cites = write_citation(tmp_path, ["1 0 1 0 a", "2 1\t1 0 b"], [])
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        g = load_citation_dataset(content, cites)
        assert np.array_equal(g.features.toarray(), [[0, 1, 0], [1, 1, 0]])

    def test_binary_attributes_become_csr_holding_only_the_ones(self, tmp_path):
        rng = np.random.default_rng(3)
        bag = (rng.random((40, 25)) < 0.1).astype(int)
        blocks = [" ".join(map(str, row)) for row in bag]
        content, cites = write_citation(
            tmp_path, [f"{i} {block} c{i % 3}" for i, block in enumerate(blocks)], [])
        g = load_citation_dataset(content, cites)
        assert sp.issparse(g.features) and g.features.format == "csr"
        assert g.features.dtype == np.float64
        assert g.features.nnz == sum(block.split().count("1") for block in blocks)
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        assert g.features.toarray().tobytes() == expected.tobytes()

    def test_loadtxt_attributes_become_csr_too(self, tmp_path):
        blocks = ["0.5 0 2", "0 0 0", "1e-3 -4 0"]
        content, cites = write_citation(
            tmp_path, [f"{i} {block} c" for i, block in enumerate(blocks)], [])
        g = load_citation_dataset(content, cites)
        assert sp.issparse(g.features) and g.features.format == "csr"
        assert g.features.nnz == 4
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        assert g.features.toarray().tobytes() == expected.tobytes()

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
        # Read the stored entries: toarray() adds them onto +0.0, which
        # would turn a stored -0.0 into +0.0.
        coo = g.features.tocoo()
        stored = np.zeros(coo.shape)
        stored[coo.row, coo.col] = coo.data
        assert stored.tobytes() == np.array([[1.0, 0.0], expected]).tobytes()

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

    def test_cora_width_load_peaks_below_twice_its_text(self, tmp_path):
        # the attributes are decoded a block of rows at a time; decoding the
        # whole text at once peaked at 3.6x it
        rng = np.random.default_rng(0)
        blocks = bag_of_words(rng, 1000, 1433, rate=0.0127)
        content, cites = write_citation(
            tmp_path, [f"{i} {block} c{i % 7}" for i, block in enumerate(blocks)],
            [f"{i} {(7 * i + 1) % 1000}" for i in range(1000)])
        g, peak = traced_peak(load_citation_dataset, content, cites)
        assert g.features.nnz == sum(block.count("1") for block in blocks)
        assert peak < 2 * content.stat().st_size

    def test_malformed_cites_line(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"],
                                        ["1 2 3"])
        with pytest.raises(CitationFormatError, match="toy.cites:1"):
            load_citation_dataset(content, cites)

    @pytest.mark.parametrize("line, count", [("1", 1), ("1 2 1", 3)])
    def test_bad_cites_line_after_blank_lines_reports_its_line(self, tmp_path, line, count):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"],
                                        ["", "1 2", " \t", line, "2 1"])
        with pytest.raises(CitationFormatError,
                           match=f"toy.cites:4: expected `<cited_id> <citing_id>`, "
                                 f"got {count} fields"):
            load_citation_dataset(content, cites)

    def test_empty_cites_file(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"], [])
        cites.write_text("")
        g = load_citation_dataset(content, cites)
        assert g.num_nodes == 2 and g.adjacency.nnz == 0

    def test_non_ascii_ids_give_the_ascii_result(self, tmp_path):
        content, cites = write_citation(tmp_path, ["é1 0 1 a", "2 1 0 b", "3 1 1 b"],
                                        ["é1 2", "3 é1", "é1 é1", "4 2"])
        g = load_citation_dataset(content, cites)
        write_citation(tmp_path, ["e1 0 1 a", "2 1 0 b", "3 1 1 b"],
                       ["e1 2", "3 e1", "e1 e1", "4 2"])
        ascii_g = load_citation_dataset(content, cites)
        for got, want in ((g.adjacency, ascii_g.adjacency), (g.features, ascii_g.features)):
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    def test_bad_line_in_a_later_block_reports_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datasets, "CITES_BLOCK_BYTES", 16)  # 6 lines a block
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"],
                                        ["1 2", "", "2 1"] * 10 + ["1 2 1", "2 1"])
        with pytest.raises(CitationFormatError,
                           match="toy.cites:31: expected `<cited_id> <citing_id>`, "
                                 "got 3 fields"):
            load_citation_dataset(content, cites)

    def test_no_break_space_separates_fields(self, tmp_path):
        content, cites = write_citation(tmp_path, ["1 0 1 a", "2 1 0 b"],
                                        ["1\xa02", "2\xa01\xa0\xa01"])
        with pytest.raises(CitationFormatError,
                           match="toy.cites:2: expected `<cited_id> <citing_id>`, "
                                 "got 3 fields"):
            load_citation_dataset(content, cites)
        cites.write_text("1\xa02\n\xa0\n2\u3000 1\n")
        assert load_citation_dataset(content, cites).adjacency.nnz == 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CITES_GOOD_LINE, max_size=30),
           st.lists(st.tuples(st.integers(0, 30), CITES_ANY_LINE), max_size=2),
           st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=32, max_size=32),
           st.booleans(),
           st.one_of(st.just(datasets.CITES_BLOCK_BYTES), st.integers(1, 40)))
    def test_one_pass_matches_the_line_reader(self, lines, extras, newlines, newline_at_end,
                                              block_bytes):
        for at, line in extras:  # lines of any token count, at any place
            lines.insert(at, line)
        raw = "".join(line + newline for line, newline in zip(lines, newlines))
        if not newline_at_end:
            raw = raw.rstrip("\r\n")
        index = {node_id: k for k, node_id in enumerate(CITES_IDS)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "toy.cites"
            path.write_bytes(raw.encode())
            with path.open(encoding="utf-8") as fh:
                text = fh.read()
            with path.open(encoding="utf-8") as fh:  # the lines as the file iterates them
                file_lines = [line.split() for line in fh]
        read_lines = [line.split() for line in text.split("\n")]
        assert read_lines[:len(file_lines)] == file_lines
        assert not any(read_lines[len(file_lines):])
        with mock.patch.object(datasets, "CITES_BLOCK_BYTES", block_bytes):
            try:
                pairs, dropped = read_cites_by_line(path, text, index)
            except CitationFormatError as exc:
                with pytest.raises(CitationFormatError) as raised:
                    datasets._citations(path, text, index)
                assert str(raised.value) == str(exc)
                return
            found, found_dropped = datasets._citations(path, text, index)
        assert found.dtype == pairs.dtype and found.shape == pairs.shape
        assert found.tobytes() == pairs.tobytes()
        assert found_dropped == dropped

    def test_one_pass_over_a_cites_heavy_file_peaks_below_four_times_its_text(self):
        # only one block's token strings are held at a time; the pairs take
        # 16 bytes per line, and an int64 per input byte alone would take 8x
        rng = np.random.default_rng(0)
        ids = [str(i) for i in rng.choice(np.arange(10**5, 10**7), 1000, replace=False)]
        index = {node_id: k for k, node_id in enumerate(ids)}
        pairs = rng.integers(0, len(ids), (60_000, 2))
        text = "".join(f"{ids[u]} {ids[v]}\n" for u, v in pairs.tolist())
        (found, dropped), peak = traced_peak(datasets._citations, "toy.cites", text, index)
        assert dropped == np.count_nonzero(pairs[:, 0] == pairs[:, 1])
        assert len(found) + dropped == len(pairs)
        assert peak < 4 * len(text)


def bag_of_words(rng, rows, words, rate=0.1, sep=" "):
    """Attribute blocks of ``words`` random 0/1 digits each."""
    bag = (rng.random((rows, words)) < rate).astype(int)
    return [sep.join(map(str, row)) for row in bag]


class TestBlockedAttributeParse:
    """Bag-of-words attributes are decoded ``PARSE_BLOCK_BYTES`` of text at a
    time; here that is four rows of five words."""

    @pytest.fixture(autouse=True)
    def four_row_blocks(self, monkeypatch):
        monkeypatch.setattr(datasets, "PARSE_BLOCK_BYTES", 4 * len("0 0 0 0 0") + 3)

    def load(self, tmp_path, blocks):
        content, cites = write_citation(
            tmp_path, [f"{i} {block} c{i % 2}" for i, block in enumerate(blocks)], [])
        return load_citation_dataset(content, cites)

    @pytest.mark.parametrize("rows", [3, 4, 5, 9], ids=["B-1", "B", "B+1", "2B+1"])
    def test_rows_around_the_block_size(self, tmp_path, monkeypatch, rows):
        blocks = bag_of_words(np.random.default_rng(rows), rows, 5, rate=0.4)
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        features = self.load(tmp_path, blocks).features
        assert features.nnz == np.count_nonzero(expected)
        assert features.has_sorted_indices
        assert features.toarray().tobytes() == expected.tobytes()

    def test_tab_gap_only_in_the_last_block(self, tmp_path, monkeypatch):
        blocks = bag_of_words(np.random.default_rng(1), 9, 5, rate=0.4)
        blocks[-1] = blocks[-1].replace(" ", "\t", 1)
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        features = self.load(tmp_path, blocks).features
        assert features.toarray().tobytes() == expected.tobytes()

    def test_bad_digit_only_in_the_last_block(self, tmp_path):
        blocks = bag_of_words(np.random.default_rng(2), 9, 5, rate=0.4)
        blocks[-1] = "0 1 x 0 1"
        with pytest.raises(CitationFormatError,
                           match="toy.content:9: non-numeric attribute 'x'"):
            self.load(tmp_path, blocks)

    def test_other_number_only_in_the_last_block(self, tmp_path):
        # any block off the bag-of-words form sends the whole input to loadtxt
        blocks = bag_of_words(np.random.default_rng(3), 9, 5, rate=0.4)
        blocks[-1] = "0 1 2 0 1"
        expected = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        assert self.load(tmp_path, blocks).features.toarray().tobytes() == expected.tobytes()


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


class TestIdxLoader:
    def test_roundtrip_and_scaling(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
        flat, got = load_mnist(tmp_path)
        assert flat.shape == (5, 16)
        assert flat.max() <= 1.0 and flat.min() >= 0.0
        assert np.allclose(flat[0], images[0].reshape(-1) / 255.0)
        assert np.array_equal(got, labels)

    def test_gzipped_files(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([1, 0, 1], dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte.gz", images, gz=True)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte.gz", labels, gz=True)
        flat, got = load_mnist(tmp_path)
        assert flat.shape == (3, 4)
        assert np.array_equal(got, labels)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "train-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 7, 1, 1, 1))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([0], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("name, other, magic, expected", [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 2049, 2051),
        ("train-labels-idx1-ubyte", "train-images-idx3-ubyte", 2051, 2049)])
    def test_magic_must_match_the_file(self, tmp_path, name, other, magic, expected):
        # a labels file under the images name used to load as 1-pixel images
        write_idx_images(tmp_path / "train-images-idx3-ubyte", np.zeros((2, 2, 2)))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([0, 1]))
        (tmp_path / name).write_bytes((tmp_path / other).read_bytes())
        with pytest.raises(IdxFormatError,
                           match=f"{name}: bad magic number {magic}, expected {expected}"):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("damage, message", [
        ("truncated", "Compressed file ended"), ("corrupt", "invalid block type")])
    def test_damaged_gzip_data(self, tmp_path, damage, message):
        # the header reads, and reading the pixels used to raise EOFError or
        # zlib.error, which name no file
        path = tmp_path / "train-images-idx3-ubyte.gz"
        write_damaged_idx_images(path, damage)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte.gz", np.zeros(4096), gz=True)
        assert datasets._mnist_train_count(tmp_path) == 4096
        with pytest.raises(IdxFormatError, match=f"{path}: .*{message}"):
            load_mnist(tmp_path)

    def test_truncated_data(self, tmp_path):
        blob = struct.pack(">IIII", 2051, 2, 4, 4) + b"\x00" * 10
        (tmp_path / "train-images-idx3-ubyte").write_bytes(blob)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.array([0, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="expected 32 data bytes"):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("size", [0, 3, 4, 15])
    def test_truncated_header(self, tmp_path, size):
        blob = struct.pack(">IIII", 2051, 2, 4, 4) + b"\x00" * 32
        (tmp_path / "train-images-idx3-ubyte").write_bytes(blob[:size])
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.array([0, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="truncated header"):
            load_mnist(tmp_path)

    def test_header_size_past_int64_rejected(self, tmp_path):
        # np.prod of these dims wraps to a negative count that passed the
        # length check, and the reshape then failed with a bare ValueError
        dims = (2**32 - 1, 2**32 - 1, 2)
        blob = struct.pack(">IIII", 2051, *dims) + b"\x00" * 100
        (tmp_path / "train-images-idx3-ubyte").write_bytes(blob)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([0], dtype=np.uint8))
        with pytest.raises(IdxFormatError,
                           match=f"expected {2 * (2**32 - 1) ** 2} data bytes, got 100"):
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

    def test_splits_are_c_ordered_copies_of_the_permuted_rows(self, rng):
        # 65 and 33 rows: whole and partial blocks of the 32-row gather
        images = rng.uniform(size=(120, 12))
        labels = rng.integers(0, 3, 120)
        tasks = make_permuted_tasks(images, labels, 3, 65, 33, seed=4)
        draws = np.random.default_rng(4)  # the draws make_permuted_tasks makes
        for t, task in enumerate(tasks):
            perm = np.arange(12) if t == 0 else draws.permutation(12)
            idx = draws.choice(120, size=98, replace=False)
            assert np.array_equal(task.pixel_permutation, perm)
            for x, y, rows in ((task.train_images, task.train_labels, idx[:65]),
                               (task.test_images, task.test_labels, idx[65:])):
                assert x.flags.c_contiguous and x.dtype == np.float64
                assert not np.shares_memory(x, images)
                assert x.tobytes() == images[np.ix_(rows, perm)].tobytes()
                assert np.array_equal(y, labels[rows])

    def test_splits_need_no_split_sized_temporary(self, rng):
        # gathering a split's rows whole before permuting its columns
        # peaked at 1.7x the splits
        images = rng.uniform(size=(400, 784))
        tasks, peak = traced_peak(make_permuted_tasks, images, np.zeros(400, dtype=int),
                                  1, 300, 50, seed=0)
        assert peak < 1.3 * (tasks[0].train_images.nbytes + tasks[0].test_images.nbytes)

    def test_oversized_request_rejected(self, rng):
        images = rng.uniform(size=(10, 4))
        labels = rng.integers(0, 2, 10)
        with pytest.raises(ValueError):
            make_permuted_tasks(images, labels, 2, 8, 3, seed=0)


def two_copy_image_fixture(num_classes, per_class, noise, seed, dim=784):
    """synthetic_image_dataset as first written: each class block built
    apart, then the whole set gathered into a shuffled second copy."""
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.0, 1.0, size=(num_classes, dim))
    images = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        intensity = rng.uniform(0.6, 1.0, size=(per_class, 1))
        block = templates[c] * intensity + noise * rng.standard_normal((per_class, dim))
        images[c * per_class:(c + 1) * per_class] = np.clip(block, 0.0, 1.0)
        labels[c * per_class:(c + 1) * per_class] = c
    order = rng.permutation(len(images))
    return images[order], labels[order]


class TestSyntheticFixtures:
    def test_sbm_shapes_and_labels(self):
        g = synthetic_sbm_graph([5, 5, 5], 0.5, 0.05, 0.1, seed=0)
        assert g.num_nodes == 15
        assert g.class_count == 3
        assert np.array_equal(np.bincount(g.labels), [5, 5, 5])

    def test_sbm_determinism(self):
        a = synthetic_sbm_graph([6, 6], 0.4, 0.1, 0.2, seed=2)
        b = synthetic_sbm_graph([6, 6], 0.4, 0.1, 0.2, seed=2)
        assert (a.adjacency != b.adjacency).nnz == 0
        assert np.array_equal(a.features.toarray(), b.features.toarray())

    def test_sbm_fixture_bytes_are_pinned(self):
        # The graphs these seeds have always drawn: adjacency pattern,
        # features and labels. A change to the order of the pair draws
        # changes the digest.
        digest = hashlib.sha256()
        for seed in (0, 1, 2):
            g = synthetic_sbm_graph([60] * 6, 0.2, 0.02, 0.6, seed=seed)
            coo = g.adjacency.tocoo()
            order = np.lexsort((coo.col, coo.row))
            for arr in (coo.row[order].astype(np.int64), coo.col[order].astype(np.int64),
                        g.features.toarray(), g.labels.astype(np.int64)):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == \
            "358f99245e7d518c0cc08bfd4ef5975708a4984fd46c49c58a9c3f5aa25e50a6"

    def test_negative_noise_rejected(self):
        # a negative scale used to flip the noise's sign without complaint
        with pytest.raises(ValueError, match="feature_noise must be >= 0"):
            synthetic_sbm_graph([5, 5], 0.5, 0.05, -1.0, seed=0)
        with pytest.raises(ValueError, match="noise must be >= 0"):
            synthetic_image_dataset(2, 5, -0.5, seed=0, dim=9)
        # zero noise stays allowed: features are the bare block indicators
        g = synthetic_sbm_graph([5, 5], 0.5, 0.05, 0.0, seed=0)
        assert np.array_equal(g.features.toarray(), np.eye(2)[g.labels])
        images, _ = synthetic_image_dataset(2, 5, 0.0, seed=0, dim=9)
        assert np.isfinite(images).all()

    def test_image_fixture(self):
        images, labels = synthetic_image_dataset(4, 10, 0.2, seed=0, dim=25)
        assert images.shape == (40, 25)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(np.bincount(labels), [10, 10, 10, 10])

    @pytest.mark.parametrize("num_classes, per_class, noise, seed, dim", [
        (10, 200, 0.6, 0, 784), (10, 200, 0.25, 3, 784), (4, 10, 0.2, 0, 25),
        (3, 1, 0.5, 7, 784), (1, 1, 0.1, 2, 25), (2, 50, 1.0, 9, 25)])
    def test_image_fixture_bytes_match_the_two_copy_build(self, num_classes, per_class,
                                                          noise, seed, dim):
        got = synthetic_image_dataset(num_classes, per_class, noise, seed=seed, dim=dim)
        want = two_copy_image_fixture(num_classes, per_class, noise, seed, dim)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_image_fixture_holds_one_copy(self):
        # the two-copy build peaks above 2x the images it returns
        (images, _), peak = traced_peak(synthetic_image_dataset, 10, 200, 0.6, seed=0)
        assert peak < 1.5 * images.nbytes
