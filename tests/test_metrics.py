"""Accuracy-matrix metrics: performance mean, forgetting mean, micro-F1."""

import numpy as np
import pytest

from replaygraph.metrics import (AccuracyMatrix, accuracy, forgetting_mean,
                                 micro_f1, performance_mean)


def matrix_from_rows(*rows):
    return AccuracyMatrix.from_rows(rows)


class TestAccuracyMatrix:
    def test_from_rows_builds_lower_triangle(self):
        m = matrix_from_rows([0.9], [0.8, 0.95], [0.7, 0.85, 0.92])
        assert m.num_tasks == 3
        assert m.values[2, 0] == 0.7
        assert np.isnan(m.values[0, 2])

    def test_ragged_row_length_rejected(self):
        with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
            matrix_from_rows([0.9], [0.8])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            AccuracyMatrix(np.zeros((2, 3)))

    def test_incomplete_lower_triangle_rejected(self):
        values = np.full((2, 2), np.nan)
        values[0, 0] = 0.5
        values[1, 1] = 0.5  # [1, 0] left undefined
        with pytest.raises(ValueError, match="incomplete"):
            AccuracyMatrix(values)

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            matrix_from_rows([0.9], [1.3, 0.9])

    def test_defined_upper_triangle_rejected(self):
        values = np.array([[0.5, 0.7], [0.5, 0.5]])
        with pytest.raises(ValueError, match="above the diagonal"):
            AccuracyMatrix(values)

    def test_csv_roundtrip(self, tmp_path):
        m = matrix_from_rows([0.9], [0.8, 0.95], [0.7, 0.85, 0.92])
        path = tmp_path / "matrix.csv"
        m.to_csv(path)
        back = AccuracyMatrix.from_csv(path)
        lower = np.tril_indices(3)
        assert np.allclose(m.values[lower], back.values[lower])

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,0.5\n")
        with pytest.raises(ValueError, match="expected header"):
            AccuracyMatrix.from_csv(path)

    def test_csv_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n0,0,0.5\n1,0\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            AccuracyMatrix.from_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("i,j,value\n0,0,0.5\n1,0,0.4\n1,1,0.6\n1,0,0.3\n", "bad.csv:5: .* given twice"),
        ("i,j,value\n0,0,0.5\n-1,0,0.4\n", "bad.csv:3: indices must be non-negative"),
        ("i,j,value\n0,0,0.5\n1,x,0.4\n1,1,0.6\n", "bad.csv:3: indices must be non-negative"),
        ("i,j,value\n0,0.0,0.5\n", "bad.csv:2: indices must be non-negative"),
        ("i,j,value\n0,0,0.5\n1,0,high\n1,1,0.6\n", "bad.csv:3: non-numeric value 'high'"),
        ("i,j,value\n0,0,0.5\n0,1,0.4\n", r"bad.csv:3: entry \(0, 1\) lies above the diagonal"),
        ("i,j,value\n", "bad.csv:1: no entries"),
        ("\n\ni,j,value\n\n", "bad.csv:3: no entries"),
        ("\n\ni,j,value\n0,0,0.5\n1,0\n", "bad.csv:5: expected 'i,j,value'"),
    ], ids=["repeated", "negative", "non-integer", "float-index", "non-numeric",
            "above-diagonal", "header-only", "blank-then-header-only", "blank-lines-counted"])
    def test_csv_misreads_rejected_with_lineno(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            AccuracyMatrix.from_csv(path)

    def test_csv_blank_lines_and_spaces_skipped(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("\ni,j,value\n\n0, 0,0.5\n1,0 ,0.25\n\n1,1,0.75\n\n")
        back = AccuracyMatrix.from_csv(path)
        assert np.array_equal(back.values, [[0.5, np.nan], [0.25, 0.75]], equal_nan=True)


class TestPerformanceMean:
    def test_three_task_example(self):
        m = matrix_from_rows([0.9], [0.8, 0.95], [0.7, 0.85, 0.92])
        assert performance_mean(m) == pytest.approx((0.9 + 0.95 + 0.92) / 3)

    def test_single_task(self):
        m = matrix_from_rows([0.73])
        assert performance_mean(m) == pytest.approx(0.73)

    def test_ignores_off_diagonal_entries(self, rng):
        diag = [0.9, 0.95, 0.92]
        rows_a = [[0.9], [0.1, 0.95], [0.2, 0.3, 0.92]]
        rows_b = [[0.9], [0.8, 0.95], [0.7, 0.85, 0.92]]
        assert performance_mean(matrix_from_rows(*rows_a)) == \
            performance_mean(matrix_from_rows(*rows_b)) == pytest.approx(np.mean(diag))


class TestForgettingMean:
    def test_three_task_example(self):
        m = matrix_from_rows([0.9], [0.8, 0.95], [0.7, 0.85, 0.92])
        fm, per_task = forgetting_mean(m)
        assert per_task == pytest.approx([0.2, 0.10])
        assert fm == pytest.approx(0.15)

    def test_time_constant_columns_give_zero(self):
        m = matrix_from_rows([0.8], [0.8, 0.6], [0.8, 0.6, 0.7])
        fm, per_task = forgetting_mean(m)
        assert fm == 0.0
        assert np.allclose(per_task, 0.0)

    def test_negative_forgetting_allowed(self):
        # backward transfer: later training improved an earlier task
        m = matrix_from_rows([0.8], [0.9, 0.95])
        fm, per_task = forgetting_mean(m)
        assert per_task == pytest.approx([-0.1])
        assert fm == pytest.approx(-0.1)

    def test_single_task_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            forgetting_mean(matrix_from_rows([0.9]))

    def test_column_shift_cancels(self):
        # adding the same constant to A[j][j] and A[M-1][j] leaves f_j fixed
        base = matrix_from_rows([0.5], [0.4, 0.6], [0.3, 0.5, 0.7])
        shifted_rows = [[0.5 + 0.2], [0.4, 0.6], [0.3 + 0.2, 0.5, 0.7]]
        shifted = matrix_from_rows(*shifted_rows)
        _, f_base = forgetting_mean(base)
        _, f_shifted = forgetting_mean(shifted)
        assert f_base[0] == pytest.approx(f_shifted[0])


class TestPointwiseMetrics:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 2, 0]) == 0.75
        assert micro_f1([0, 1, 2, 2], [0, 1, 2, 0]) == pytest.approx(0.75)

    def test_all_wrong(self):
        assert accuracy([1, 1], [0, 0]) == 0.0
        assert micro_f1([1, 1], [0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])
        with pytest.raises(ValueError, match="empty"):
            micro_f1([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy([0, 1], [0])

    def test_micro_f1_equals_accuracy_for_single_label(self, rng):
        # every wrong single-label prediction is one FP and one FN, so pooled
        # precision = recall = accuracy; checked on many random vectors
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            classes = int(rng.integers(2, 8))
            pred = rng.integers(0, classes, size=n)
            lab = rng.integers(0, classes, size=n)
            assert micro_f1(pred, lab) == pytest.approx(accuracy(pred, lab))
