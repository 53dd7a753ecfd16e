import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marscache.core import (
    NEG_INF,
    DegenerateVectorError,
    FullyMaskedRowError,
    as_matrix,
    cosine_similarity,
    seeded_stream,
    softmax_rows,
)


class TestAsMatrix:
    def test_coerces_to_float64(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan]])


class TestSeededStream:
    def test_same_seed_label_identical(self):
        a = seeded_stream(42, "mask").uniform(size=100)
        b = seeded_stream(42, "mask").uniform(size=100)
        assert np.array_equal(a, b)

    def test_label_separation(self):
        a = seeded_stream(42, "mask").uniform(size=10)
        b = seeded_stream(42, "init").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_seed_separation(self):
        a = seeded_stream(42, "mask").uniform(size=10)
        b = seeded_stream(43, "mask").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_children_independent_of_evaluation_order(self):
        root = seeded_stream(7, "root")
        first = root.child("a").normal(size=5)
        root.uniform(size=1000)  # consume from the parent
        second = root.child("a").normal(size=5)
        assert np.array_equal(first, second)

    def test_position_counts_draws(self):
        s = seeded_stream(1, "x")
        s.uniform(size=3)
        s.normal(size=(2, 2))
        assert s.position == 7


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1 / 3)

    def test_mask_excludes_exactly(self):
        out = softmax_rows(np.array([[5.0, NEG_INF, 5.0]]))
        assert out[0, 1] == 0.0
        assert out[0, 0] == out[0, 2] == 0.5

    def test_shift_invariance(self):
        a = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        b = softmax_rows(np.array([[1.0 + 17.5, 2.0 + 17.5, 3.0 + 17.5]]))
        assert np.allclose(a, b, atol=1e-15)

    def test_fully_masked_row_raises(self):
        scores = np.zeros((2, 3))
        scores[1] = NEG_INF
        with pytest.raises(FullyMaskedRowError, match=r"row\(s\) at indices \[1\]"):
            softmax_rows(scores)

    def test_row_without_entries_raises(self):
        with pytest.raises(FullyMaskedRowError, match="rows with no entries"):
            softmax_rows(np.zeros((2, 0)))

    def test_input_left_unchanged(self):
        scores = seeded_stream(4, "scores").normal(size=(3, 5))
        scores[:, 0] = NEG_INF
        before = scores.copy()
        out = softmax_rows(scores)
        assert np.array_equal(scores, before)
        assert np.all(out[:, 0] == 0.0)

    def test_masked_column_drops_out(self):
        # The other columns normalise as if the -inf column were absent.
        scores = seeded_stream(3, "scores").normal(size=(4, 4))
        masked = scores.copy()
        masked[:, 2] = NEG_INF
        out = softmax_rows(masked)
        assert np.all(out[:, 2] == 0.0)
        assert np.allclose(out[:, [0, 1, 3]], softmax_rows(scores[:, [0, 1, 3]]),
                           rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = softmax_rows(np.array([row]))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=6),
        st.floats(-100, 100),
    )
    def test_shift_invariance_property(self, row, shift):
        a = softmax_rows(np.array([row]))
        b = softmax_rows(np.array([[x + shift for x in row]]))
        assert np.allclose(a, b, atol=1e-9)


class TestCosineSimilarity:
    def test_self_similarity(self):
        u = seeded_stream(1, "u").normal(size=8)
        assert cosine_similarity(u, u) == pytest.approx(1.0)

    def test_antipodal(self):
        u = seeded_stream(2, "u").normal(size=8)
        assert cosine_similarity(u, -u) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_symmetric(self):
        s = seeded_stream(3, "uv")
        u, v = s.normal(size=8), s.normal(size=8)
        assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u))

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError, match="degenerate vector"):
            cosine_similarity(np.zeros(4), np.ones(4))

    def test_range(self):
        s = seeded_stream(4, "uv")
        for _ in range(20):
            c = cosine_similarity(s.normal(size=16), s.normal(size=16))
            assert -1.0 <= c <= 1.0
