import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexi.sparsemat import (
    build_csc,
    column_subset_mean,
    from_scipy,
    left_apply,
    live_columns,
    load_dense_block,
    load_matrix_snapshot,
    parse_edge_list,
    right_apply,
    save_dense_block,
    save_matrix_snapshot,
    spectral_norm,
)

from conftest import dense_to_csc, random_sparse

# values whose text form must round-trip exactly
VALUES = st.one_of(
    st.sampled_from([1e-300, -1e-300, 1 / 3, -1 / 3, 5e-324, -1e300, 1.0]),
    # bounded so that no sum of duplicates overflows
    st.floats(-1e300, 1e300),
)


@st.composite
def triplet_lists(draw):
    """(d, n, triplets), including empty and zero-row or zero-column shapes,
    repeated positions and cancelling values."""
    d = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    if d == 0 or n == 0:
        return d, n, []
    entry = st.tuples(st.integers(0, d - 1), st.integers(0, n - 1), VALUES)
    return d, n, draw(st.lists(entry, max_size=30))


def _crowded_duplicates():
    """(d, n, triplets) with about 170 entries per position, of magnitudes
    from 1e-8 to 1e8: long enough for an unstable sort to reorder them,
    and their sum depends on the order."""
    rng = np.random.default_rng(3)
    r, c = rng.integers(0, 3, 2000), rng.integers(0, 4, 2000)
    v = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 9, 2000)
    return 3, 4, [(int(i), int(j), float(x)) for i, j, x in zip(r, c, v)]


MATRICES = triplet_lists().map(lambda t: build_csc(t[2], t[0], t[1]))


def assert_csc_invariants(A):
    assert A.col_ptr.dtype == np.int64 and A.row_idx.dtype == np.int64
    assert A.values.dtype == np.float64
    assert A.col_ptr.shape == (A.cols + 1,)
    assert A.col_ptr[0] == 0 and A.col_ptr[-1] == A.nnz == A.row_idx.size == A.values.size
    assert np.all(np.diff(A.col_ptr) >= 0)
    for j in range(A.cols):
        seg = A.row_idx[A.col_ptr[j] : A.col_ptr[j + 1]]
        assert np.all(np.diff(seg) > 0)  # strictly increasing rows per column
        assert np.all((seg >= 0) & (seg < A.rows))
    assert np.all(A.values != 0.0) and np.all(np.isfinite(A.values))


class TestBuildCsc:
    def test_empty_input(self):
        A = build_csc([], d=2, n=3)
        assert A.shape == (2, 3)
        assert A.nnz == 0
        np.testing.assert_array_equal(A.toarray(), np.zeros((2, 3)))

    def test_duplicates_are_summed(self):
        A = build_csc([(0, 0, 1.0), (0, 0, 2.0)], d=1, n=1)
        assert A.nnz == 1
        assert A.values[0] == 3.0

    def test_cancellation_drops_zero(self):
        A = build_csc([(0, 0, 1.0), (0, 0, -1.0)], d=1, n=1)
        assert A.nnz == 0

    def test_out_of_range_names_triplet(self):
        with pytest.raises(ValueError, match=r"\(5, 0, 1\.0\)"):
            build_csc([(0, 0, 2.0), (5, 0, 1.0)], d=2, n=2)

    @settings(max_examples=200, deadline=None)
    @given(t=triplet_lists())
    def test_invariants_and_sums(self, t):
        d, n, trips = t
        r = np.array([x[0] for x in trips], dtype=np.int64)
        c = np.array([x[1] for x in trips], dtype=np.int64)
        v = np.array([x[2] for x in trips], dtype=np.float64)
        coo = sp.coo_array((v, (r, c)), shape=(d, n))  # unsorted, with duplicates
        ref = coo.toarray()
        mass = sp.coo_array((np.abs(v), (r, c)), shape=(d, n)).toarray()
        for A in (build_csc(trips, d, n), from_scipy(coo)):
            assert A.shape == (d, n)
            assert_csc_invariants(A)
            # duplicates may be summed in another order than scipy's
            assert np.all(np.abs(A.toarray() - ref) <= 30 * np.finfo(float).eps * mass)

    def test_duplicate_sum_overflow_is_rejected(self):
        big = np.finfo(float).max
        with pytest.raises(ValueError, match=r"triplet #0 .* at \(0, 1\) sum to inf"):
            build_csc([(0, 1, big), (1, 0, 1.0), (0, 1, big)], d=2, n=2)

    @settings(max_examples=100, deadline=None)
    @given(t=triplet_lists(), seed=st.integers(0, 2**32 - 1))
    def test_shuffled_input_gives_sorted_input_bytes(self, t, seed):
        # each position holds one entry, a duplicate pair or a cancelling
        # pair; a sum of two does not depend on their order
        d, n, trips = t
        single = [(r, c, v) for (r, c), v in {(r, c): v for r, c, v in trips}.items()]
        trips = single + [(r, c, 0.5 * v) for r, c, v in single[1::3]]
        trips += [(r, c, -v) for r, c, v in single[2::3]]
        shuffled = [trips[i] for i in np.random.default_rng(seed).permutation(len(trips))]
        A = build_csc(sorted(trips, key=lambda x: (x[1], x[0])), d, n)
        B = build_csc(shuffled, d, n)
        for got, want in ((B.col_ptr, A.col_ptr), (B.row_idx, A.row_idx), (B.values, A.values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(t=triplet_lists())
    @example(t=_crowded_duplicates())
    def test_sums_match_lexsort_reference(self, t):
        # the reference orders by (column, row) with np.lexsort, which is
        # stable, and sums each run of equal positions with np.add.reduceat
        d, n, trips = t
        A = build_csc(trips, d, n)
        if not trips:
            assert A.nnz == 0
            return
        r, c, v = (np.array(x) for x in zip(*trips))
        order = np.lexsort((r, c))
        r, c, v = r[order], c[order], v[order].astype(np.float64)
        starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
        summed = np.add.reduceat(v, starts)
        keep = summed != 0.0
        assert A.row_idx.tolist() == r[starts][keep].tolist()
        assert A.values.tobytes() == summed[keep].tobytes()
        assert np.repeat(np.arange(n), A.column_nnz()).tolist() == c[starts][keep].tolist()

    def test_oversized_shape_is_rejected(self):
        with pytest.raises(ValueError, match=r"^a 4294967296x4294967296 matrix has more "
                                             r"than 2\^63 - 1 positions$"):
            build_csc([(0, 0, 1.0)], d=2**32, n=2**32)

    def test_invariants_on_random_input(self):
        rng = np.random.default_rng(0)
        trips = [
            (int(r), int(c), float(v))
            for r, c, v in zip(
                rng.integers(0, 17, 300), rng.integers(0, 23, 300), rng.standard_normal(300)
            )
        ]
        A = build_csc(trips, 17, 23)
        assert A.col_ptr[0] == 0
        assert A.col_ptr[-1] == A.nnz
        assert np.all(np.diff(A.col_ptr) >= 0)
        for j in range(23):
            seg = A.row_idx[A.col_ptr[j] : A.col_ptr[j + 1]]
            assert np.all(np.diff(seg) > 0)  # strictly increasing rows per column
            assert np.all(seg < 17)
        assert np.all(A.values != 0.0)


class TestProducts:
    def test_identity(self):
        A = build_csc([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        X = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(right_apply(A, X), X)

    def test_zero_matrix(self):
        A = build_csc([], 3, 2)
        np.testing.assert_array_equal(right_apply(A, np.ones((2, 4))), np.zeros((3, 4)))

    def test_hand_product(self):
        A = dense_to_csc([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(right_apply(A, np.array([[1.0], [1.0]])), [[3.0], [3.0]])

    def test_left_apply_row_extraction(self):
        A = dense_to_csc([[5.0, 0.0, 7.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(left_apply(np.array([1.0, 0.0]), A), [5.0, 0.0, 7.0])

    def test_left_apply_zero_vector(self):
        A = random_sparse(6, 9, 0.3, seed=1)
        np.testing.assert_array_equal(left_apply(np.zeros(6), A), np.zeros(9))

    def test_left_apply_hand(self):
        A = dense_to_csc([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(left_apply(np.array([1.0, 1.0]), A), [4.0, 6.0])

    def test_dimension_mismatch(self):
        A = random_sparse(4, 5, 0.4, seed=2)
        with pytest.raises(ValueError):
            right_apply(A, np.ones((4, 2)))
        with pytest.raises(ValueError):
            left_apply(np.ones(5), A)

    @pytest.mark.parametrize("seed", range(5))
    def test_right_apply_matches_naive_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        d, n, c = rng.integers(2, 50), rng.integers(2, 50), rng.integers(1, 6)
        A = random_sparse(d, n, 0.2, seed=seed)
        X = rng.standard_normal((n, c))
        Ad = A.toarray()
        expected = np.zeros((d, c))
        for i in range(d):
            for j in range(n):
                for t in range(c):
                    expected[i, t] += Ad[i, j] * X[j, t]
        got = right_apply(A, X)
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_left_apply_transpose_consistency(self, seed):
        A = random_sparse(20, 30, 0.15, seed=100 + seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(20)
        col_of = np.repeat(np.arange(A.cols), np.diff(A.col_ptr))
        At = build_csc(
            [(int(c), int(r), float(v)) for r, c, v in zip(A.row_idx, col_of, A.values)],
            A.cols,
            A.rows,
        )
        via_transpose = right_apply(At, y)
        direct = left_apply(y, A)
        assert np.max(np.abs(via_transpose - direct)) <= 1e-12 * max(1.0, np.abs(direct).max())


class TestLiveColumns:
    @pytest.mark.parametrize("shape, density, seed", [
        ((6, 40), 0.05, 1), ((9, 300), 0.01, 2), ((4, 7), 0.0, 3),
    ])
    def test_view_holds_the_columns_with_an_entry(self, shape, density, seed):
        A = random_sparse(*shape, density, seed=seed)
        live, view = live_columns(A)
        dense = A.toarray()
        np.testing.assert_array_equal(live, np.flatnonzero(np.any(dense != 0.0, axis=0)))
        assert view.shape == (shape[0], live.size) and view.nnz == A.nnz
        np.testing.assert_array_equal(view.toarray(), dense[:, live])
        assert view.row_idx is A.row_idx and view.values is A.values

    def test_no_empty_column_returns_the_matrix(self):
        A = dense_to_csc(np.arange(1.0, 13.0).reshape(3, 4))
        live, view = live_columns(A)
        assert view is A
        np.testing.assert_array_equal(live, np.arange(4))


class TestColumnSubsetMean:
    def test_singleton_is_column(self):
        A = dense_to_csc([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(column_subset_mean(A, np.array([1])), [3.0, 4.0])

    def test_hand_average(self):
        A = dense_to_csc([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_allclose(column_subset_mean(A, np.array([0, 1])), [2.0, 3.0])

    def test_all_zero_columns(self):
        A = build_csc([], 4, 6)
        np.testing.assert_array_equal(column_subset_mean(A, np.array([1, 3])), np.zeros(4))

    def test_full_subset_equals_row_means(self):
        A = random_sparse(12, 40, 0.25, seed=3)
        expected = A.toarray() @ np.full(40, 1.0 / 40)
        np.testing.assert_allclose(column_subset_mean(A, np.arange(40)), expected, atol=1e-14)

    def test_repeated_rows_match_add_at(self):
        # every selected column hits rows 0 and 2, with values of mixed scale
        # whose sum depends on the order they are added in
        A = build_csc(
            [(0, 0, 1e16), (2, 0, 0.1), (0, 1, 1.0), (1, 1, 0.3), (2, 1, 0.2),
             (0, 3, -1e16), (2, 3, 0.7), (0, 4, 1.0), (2, 4, 1e-17)],
            3, 5,
        )
        S = np.array([4, 0, 1, 3, 1])
        acc = np.zeros(3)
        for j in S:
            lo, hi = A.col_ptr[j], A.col_ptr[j + 1]
            np.add.at(acc, A.row_idx[lo:hi], A.values[lo:hi])
        np.testing.assert_array_equal(column_subset_mean(A, S), acc / S.size)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_bincount_bit_for_bit(self, data):
        # unsorted, duplicated subsets; the reference adds each row's entries
        # in the order of S with bincount
        A = data.draw(MATRICES.filter(lambda A: A.cols > 0))
        S = np.array(data.draw(st.lists(st.integers(0, A.cols - 1), min_size=1, max_size=40)))
        entry = np.concatenate(
            [np.arange(A.col_ptr[j], A.col_ptr[j + 1]) for j in S] + [np.zeros(0, np.int64)]
        )
        ref = np.bincount(A.row_idx[entry], weights=A.values[entry], minlength=A.rows) / S.size
        got = column_subset_mean(A, S)
        assert got.dtype == np.float64 and got.shape == (A.rows,)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_matches_scipy_column_product_bit_for_bit(self, data):
        # the mean as a scipy submatrix product, which adds each row's
        # entries in the order of S from 0.0
        if data is None:  # columns 1 and 3 empty; S unsorted with repeats
            A = build_csc([(0, 0, 1e16), (2, 0, 0.1), (0, 2, -1e16), (1, 2, 0.3),
                           (2, 4, 0.7), (0, 4, 1.0)], 3, 5)
            cases = [np.array([4, 0, 2, 0, 1]), np.array([3, 1, 3])]
        else:
            A = data.draw(MATRICES.filter(lambda A: A.cols > 0))
            index = st.integers(0, A.cols - 1)
            cases = [np.array(data.draw(st.lists(index, min_size=1, max_size=40)))]
        for S in cases:
            ref = (A._scipy[:, S] @ np.ones(S.size)) / S.size
            got = column_subset_mean(A, S)
            assert got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()

    def test_selection_without_entries_is_zero(self):
        A = build_csc([(1, 0, 2.0)], 3, 4)
        got = column_subset_mean(A, np.array([3, 2, 3]))
        assert got.dtype == np.float64 and got.tobytes() == np.zeros(3).tobytes()

    def test_errors(self):
        A = random_sparse(3, 4, 0.5, seed=4)
        with pytest.raises(ValueError):
            column_subset_mean(A, np.array([], dtype=int))
        with pytest.raises(ValueError):
            column_subset_mean(A, np.array([4]))


def _norm(A, seed=0):
    return spectral_norm(
        A.shape, lambda x: right_apply(A, x), lambda y: left_apply(y, A), seed=seed
    )


class TestSpectralNormEst:
    """``spectral_norm`` applied to a matrix through its products."""

    def test_diagonal(self):
        A = build_csc([(0, 0, 3.0), (1, 1, 1.0)], 2, 2)
        assert _norm(A) == pytest.approx(3.0, rel=1e-14)

    def test_zero_matrix(self):
        for shape in [(5, 5), (3, 8), (8, 3), (0, 4), (4, 0), (1, 1)]:
            assert _norm(build_csc([], *shape)) == 0.0

    def test_permutation(self):
        A = build_csc([(0, 1, 1.0), (1, 0, 1.0)], 2, 2)
        assert _norm(A) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_known_singular_values(self, seed):
        rng = np.random.default_rng(seed)
        d, n = 30, 40
        s = np.concatenate(([5.0], np.sort(rng.uniform(0.5, 4.0, size=7))[::-1]))
        U = np.linalg.qr(rng.standard_normal((d, 8)))[0]
        V = np.linalg.qr(rng.standard_normal((n, 8)))[0]
        A = dense_to_csc((U * s) @ V.T)
        assert _norm(A, seed=seed) == pytest.approx(s[0], rel=1e-12)

    def test_deterministic_given_seed(self):
        A = random_sparse(25, 25, 0.2, seed=9)
        assert _norm(A, seed=5) == _norm(A, seed=5)


class TestParseEdgeList:
    def test_two_undirected_edges(self):
        res = parse_edge_list("0 1\n1 2\n", mode="square")
        assert res.matrix.shape == (3, 3)
        assert res.matrix.nnz == 4
        D = res.matrix.toarray()
        np.testing.assert_array_equal(D, D.T)

    def test_comments_and_remap(self):
        res = parse_edge_list("# header\n10 30\n30 20\n", mode="square")
        assert res.num_nodes == 3
        assert res.num_edges == 2
        assert res.matrix.shape == (3, 3)

    def test_empty_file_is_error(self):
        with pytest.raises(ValueError, match="no edges"):
            parse_edge_list("# only comments\n", mode="square")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("0 1\n0 x\n", mode="square")

    def test_duplicate_edges_stay_binary(self):
        res = parse_edge_list("0 1\n0 1\n1 0\n", mode="square")
        assert res.matrix.nnz == 2
        assert np.all(res.matrix.values == 1.0)

    def test_bipartite_split_deterministic(self):
        text = "\n".join(f"{i} {i + 5}" for i in range(5))
        a = parse_edge_list(text, mode="bipartite", d=4, n=6, seed=3)
        b = parse_edge_list(text, mode="bipartite", d=4, n=6, seed=3)
        assert a.matrix.shape == (4, 6)
        np.testing.assert_array_equal(a.matrix.toarray(), b.matrix.toarray())

    def test_bipartite_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least"):
            parse_edge_list("0 1\n", mode="bipartite", d=3, n=3, seed=0)

    def test_email_fixture_counts(self, email_fixture_path):
        with open(email_fixture_path) as f:
            res = parse_edge_list(f, mode="square")
        assert res.num_nodes == 1005
        assert res.num_edges == 25571
        assert res.matrix.shape == (1005, 1005)


class TestSnapshots:
    def test_matrix_roundtrip(self):
        A = random_sparse(8, 11, 0.3, seed=12)
        buf = io.StringIO()
        save_matrix_snapshot(A, buf)
        buf.seek(0)
        B = load_matrix_snapshot(buf)
        assert B.shape == A.shape
        np.testing.assert_array_equal(A.toarray(), B.toarray())

    @settings(max_examples=200, deadline=None)
    @given(A=MATRICES)
    @example(A=build_csc([], 0, 3))
    @example(A=build_csc([], 4, 0))
    @example(A=build_csc([(0, 0, 1e-300), (1, 0, -1e-300), (1, 2, 1 / 3)], 2, 3))
    def test_matrix_roundtrip_is_bit_exact(self, A):
        buf = io.StringIO()
        save_matrix_snapshot(A, buf)
        buf.seek(0)
        B = load_matrix_snapshot(buf)
        assert B.shape == A.shape
        for got, want in ((B.col_ptr, A.col_ptr), (B.row_idx, A.row_idx), (B.values, A.values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body, line, message", [
        pytest.param("0 1\n1 1 2\n", 2, "'0 1'", id="two-tokens"),
        pytest.param("0 0 1\n0 1 2 3\n", 3, "'0 1 2 3'", id="four-tokens"),
        pytest.param("1.5 0 1\n1 1 2\n", 2, "'1.5 0 1'", id="fractional-row"),
        pytest.param("0 0 1\n1.0 1 2\n", 3, "'1.0 1 2'", id="float-row"),
        pytest.param("0 0 1\n\n1 1 2\n", 3, "''", id="blank-line"),
        pytest.param("\n0 0 1\n1 1 2\n", 2, "''", id="leading-blank-line"),
        pytest.param("0 0 1\n  \t\n", 3, r"'  \\t'", id="whitespace-line"),
        pytest.param("# a comment\n0 0 1\n", 2, "'# a comment'", id="comment-line"),
        pytest.param("0 0 1\n", 3, "end of the file", id="short-body"),
        pytest.param("0 0 1\n1 1 nan\n", 3, "non-finite value nan", id="nan"),
        pytest.param("0 0 1\n1 2 2\n", 3, r"\(1, 2, 2\.0\) out of range", id="index-out-of-range"),
    ])
    def test_malformed_snapshot_names_line(self, body, line, message):
        with pytest.raises(ValueError, match=rf"^<text>:{line}: .*{message}") as info:
            load_matrix_snapshot(io.StringIO("2 2 2\n" + body))
        assert "\n" not in str(info.value) and "usecols" not in str(info.value)

    @pytest.mark.parametrize("header", ["2 2\n", "2 2 x\n", "2 -1 0\n", "2 2 2 2\n", "\n"])
    def test_malformed_snapshot_header(self, header):
        with pytest.raises(ValueError, match=r"^<text>:1: header must be 'd n nnz'$"):
            load_matrix_snapshot(io.StringIO(header + "0 0 1\n"))

    def test_empty_snapshot_ignores_what_follows(self):
        A = load_matrix_snapshot(io.StringIO("3 4 0\nnot read\n"))
        assert A.shape == (3, 4) and A.nnz == 0 and A.col_ptr.tolist() == [0] * 5

    def test_malformed_line_names_the_file(self, tmp_path):
        path = tmp_path / "A.txt"
        path.write_text("2 2 1\n0 x 1\n")
        with open(path) as f, pytest.raises(ValueError, match=rf"^{path}:2: "):
            load_matrix_snapshot(f)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        data=st.data(),
    )
    def test_dense_block_roundtrip_is_bit_exact(self, shape, data):
        M = np.array(data.draw(st.lists(VALUES, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1])), dtype=np.float64)
        M = M.reshape(shape)
        buf = io.StringIO()
        save_dense_block("M", M, buf)
        buf.seek(0)
        name, back = load_dense_block(buf)
        assert name == "M"
        assert back.shape == M.shape and back.dtype == np.float64
        assert back.tobytes() == M.tobytes()

    @pytest.mark.parametrize("text, line, message", [
        pytest.param("M 2 2\n1 2\n3\n", 3, "expected 2 numbers, got '3'", id="short-row"),
        pytest.param("M 2 2\n1 2\n3 4 5\n", 3, "expected 2 numbers, got '3 4 5'", id="long-row"),
        pytest.param("M 2 2\n\n1 2\n", 2, "expected 2 numbers, got ''", id="blank-row"),
        pytest.param("M 2 2\n1 2\n3 x\n", 3, "expected 2 numbers, got '3 x'", id="not-a-number"),
        pytest.param("M 2 2\n1 2\n", 3, "end of the file", id="short-body"),
        pytest.param("M 2 0\n\n7\n", 3, "expected an empty line, got '7'", id="zero-columns-not-empty"),
        pytest.param("M 2\n", 1, "header must be", id="two-field-header"),
        pytest.param("M 2 -2\n", 1, "header must be", id="negative-cols"),
    ])
    def test_malformed_dense_block_names_line(self, text, line, message):
        with pytest.raises(ValueError, match=rf"^<text>:{line}: .*{message}"):
            load_dense_block(io.StringIO(text))

    def test_dense_block_roundtrip(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 3))
        buf = io.StringIO()
        save_dense_block("M", M, buf)
        buf.seek(0)
        name, back = load_dense_block(buf)
        assert name == "M"
        np.testing.assert_array_equal(M, back)

    def test_from_scipy_canonicalizes(self):
        import scipy.sparse as sp

        m = sp.coo_array(([1.0, -1.0, 2.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2))
        A = from_scipy(m)
        assert A.nnz == 1  # duplicate summed to zero and dropped
        assert A.values[0] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_scipy_rejects_non_finite(self, bad):
        import scipy.sparse as sp

        m = sp.coo_array(([1.0, bad], ([0, 1], [0, 2])), shape=(2, 3))
        with pytest.raises(ValueError, match=r"entry \(1, 2\) has non-finite value"):
            from_scipy(m)
