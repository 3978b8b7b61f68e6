import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexi.metrics as metrics_mod
from simplexi.learner import LearnerConfig, learn_simplex
from simplexi.metrics import (
    _smoothing_subsets,
    _subset_deviations,
    ls_loss,
    match_vertices,
    project_columns_to_simplex,
    reduction_check,
    subset_smoothing_check,
)
from simplexi.models import gen_mmsb
from simplexi.sketch import _squared_singular_values

from conftest import dense_to_csc, random_sparse


class TestMatchVertices:
    def test_identity_match(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 4))
        res = match_vertices(M.copy(), M)
        np.testing.assert_array_equal(res.permutation, np.arange(4))
        assert res.max_error == 0.0

    def test_reversed_match(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 4))
        res = match_vertices(M[:, ::-1].copy(), M)
        np.testing.assert_array_equal(res.permutation, [3, 2, 1, 0])
        assert res.max_error == 0.0

    def test_forced_cross_matching(self):
        # estimates e1, e2 against targets placed so that the diagonal
        # pairing costs 2 each but the cross pairing costs 1 each
        est = np.array([[1.0, 0.0], [0.0, 1.0]]).T
        est = np.column_stack([np.array([2.0, 0.0]), np.array([0.0, 2.0])])
        M = np.column_stack([np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        res = match_vertices(est, M)
        np.testing.assert_array_equal(res.permutation, [1, 0])

    def test_bound_fields(self):
        M = np.eye(3)
        res = match_vertices(M, M, sigma=0.01, alpha=0.5, delta=0.04)
        expected = 300 * 3**4 * 0.01 / (0.5 * 0.2)
        assert res.bound == pytest.approx(expected)
        assert res.within_bound

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            match_vertices(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_assignment_is_brute_force_optimal(self, k):
        rng = np.random.default_rng(k)
        V = rng.standard_normal((5, k))
        M = rng.standard_normal((5, k))
        res = match_vertices(V, M)
        cost = np.linalg.norm(V[:, :, None] - M[:, None, :], axis=0)
        total = cost[np.arange(k), res.permutation].sum()
        best = min(
            sum(cost[t, perm[t]] for t in range(k))
            for perm in itertools.permutations(range(k))
        )
        assert total == pytest.approx(best, abs=1e-12)


class TestSimplexProjection:
    @pytest.mark.parametrize("seed", range(10))
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((6, 20)) * 3
        P = project_columns_to_simplex(W)
        assert np.all(P >= 0)
        np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-9)
        # projection is idempotent
        np.testing.assert_allclose(project_columns_to_simplex(P), P, atol=1e-9)

    def test_interior_point_fixed(self):
        w = np.array([[0.2], [0.3], [0.5]])
        np.testing.assert_allclose(project_columns_to_simplex(w), w, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_small(self, seed):
        # brute force over a fine grid of the 2-simplex
        rng = np.random.default_rng(100 + seed)
        v = rng.standard_normal(3)
        P = project_columns_to_simplex(v[:, None]).ravel()
        grid = np.linspace(0, 1, 301)
        best = None
        for a in grid:
            for b in grid[grid <= 1 - a + 1e-12]:
                w = np.array([a, b, 1 - a - b])
                dist = np.linalg.norm(w - v)
                if best is None or dist < best[0]:
                    best = (dist, w)
        assert np.linalg.norm(P - best[1]) <= 0.01


class TestLsLoss:
    def test_columns_equal_vertex(self):
        V = np.column_stack([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        A = dense_to_csc(np.tile(V[:, [0]], (1, 30)))
        assert ls_loss(A, V, sample=30, seed=0) <= 1e-10

    def test_columns_at_centroid(self):
        rng = np.random.default_rng(2)
        V = rng.standard_normal((5, 3))
        centroid = V.mean(axis=1)
        A = dense_to_csc(np.tile(centroid[:, None], (1, 40)))
        assert ls_loss(A, V, sample=40, seed=0) <= 1e-8

    def test_single_outside_column_distance(self):
        # k = 2 hull is the segment [e1, e2]; a column at distance r from
        # the nearest hull point carries loss r^2, cross-checked by a grid
        V = np.column_stack([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        x = np.array([1.5, 0.5])
        grid = np.linspace(0, 1, 20001)
        dists = [np.linalg.norm(x - (t * V[:, 0] + (1 - t) * V[:, 1])) for t in grid]
        r2 = min(dists) ** 2
        A = dense_to_csc(x[:, None])
        loss = ls_loss(A, V, sample=1, seed=0)
        assert loss == pytest.approx(r2, abs=1e-4)

    def test_adding_data_vertex_never_hurts(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((6, 3))
        X = rng.standard_normal((6, 25))
        A = dense_to_csc(X)
        base = ls_loss(A, V, sample=25, seed=1)
        V_plus = np.column_stack([V, X[:, 0]])
        assert ls_loss(A, V_plus, sample=25, seed=1) <= base + 1e-8

    def test_scaling_by_sample(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((4, 2))
        X = rng.standard_normal((4, 60))
        A = dense_to_csc(X)
        full = ls_loss(A, V, sample=60, seed=0)
        half = ls_loss(A, V, sample=30, seed=0)
        assert half == pytest.approx(full, rel=0.8)  # same scale, sampled

    def test_rejects_bad_sample(self):
        A = random_sparse(4, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            ls_loss(A, np.eye(4)[:, :2], sample=11)

    def test_rejects_vertices_of_other_length(self):
        A = random_sparse(4, 10, 0.5, seed=0)
        with pytest.raises(ValueError, match="length 3, the instance has d=4"):
            ls_loss(A, np.zeros((3, 2)), sample=5)


class TestReductionCheck:
    def test_exact_rank_k_residual_zero(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((10, 3))
        W = np.abs(rng.standard_normal((3, 50)))
        W /= W.sum(axis=0)
        A = dense_to_csc(V @ W)
        res = reduction_check(A, V, 3, _squared_singular_values(A))
        assert res.spectral_residual <= 1e-16 * max(1.0, res.lra_bound)
        assert res.passes

    def test_zero_estimates_fail(self):
        A = random_sparse(20, 80, 0.3, seed=1)
        res = reduction_check(A, np.zeros((20, 3)), 3, _squared_singular_values(A))
        top = np.linalg.norm(A.toarray(), ord=2)
        assert res.spectral_residual == pytest.approx(top**2, rel=1e-6)
        assert not res.passes

    def test_residual_invariant_under_basis_change(self):
        rng = np.random.default_rng(2)
        A = random_sparse(15, 60, 0.2, seed=2)
        V = rng.standard_normal((15, 3))
        R = rng.standard_normal((3, 3))  # invertible with probability 1
        lam = _squared_singular_values(A)
        res1 = reduction_check(A, V, 3, lam)
        res2 = reduction_check(A, V @ R, 3, lam)
        assert res1.spectral_residual == pytest.approx(res2.spectral_residual, rel=1e-9)

    def test_operator_path_matches_dense_path(self, monkeypatch):
        A = random_sparse(20, 80, 0.3, seed=3)
        V = np.random.default_rng(3).standard_normal((20, 3))
        lam = _squared_singular_values(A)
        dense = reduction_check(A, V, 3, lam)
        monkeypatch.setattr(metrics_mod, "DENSE_RESIDUAL_LIMIT", 0)
        op = reduction_check(A, V, 3, lam)
        assert op.spectral_residual == pytest.approx(dense.spectral_residual, rel=1e-10)
        assert (op.lra_bound, op.passes) == (dense.lra_bound, dense.passes)

    def test_operator_path_exact_span_passes(self, monkeypatch):
        # A is supported on rows 0-2 and V spans them, so the projected
        # residual is exactly the zero operator
        A = random_sparse(10, 50, 0.4, seed=4).toarray()
        A[3:] = 0.0
        A = dense_to_csc(A)
        monkeypatch.setattr(metrics_mod, "DENSE_RESIDUAL_LIMIT", 0)
        res = reduction_check(A, np.eye(10)[:, :3], 3, _squared_singular_values(A))
        assert res.spectral_residual == 0.0
        assert res.passes


def _loop_draws(n, trials, seed):
    """The subsets the per-subset check drew: log-uniform sizes, each
    drawn without replacement, in call order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        size = int(np.exp(rng.uniform(0.0, np.log(n))))
        size = min(max(size, 1), n)
        out.append(rng.choice(n, size=size, replace=False))
    return out


def _loop_deviation(Ad, P, S):
    """||mean_S(A) - mean_S(P)|| sqrt(|S| / n), summing A - P column by
    column in the order of S."""
    acc = np.zeros(Ad.shape[0])
    for j in S:
        acc += Ad[:, j] - P[:, j]
    return np.linalg.norm(acc) / S.size * np.sqrt(S.size / Ad.shape[1])


def _rtol(d):
    # The sums agree bit for bit; the two norms add d squares in different orders.
    return 4 * (d + 2) * np.finfo(np.float64).eps


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def _dense_pair(draw):
    """(A, P) as d x n arrays; A has zero entries and often empty columns."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 9))
    blocks = [draw(st.lists(_ENTRY, min_size=d * n, max_size=d * n)) for _ in range(2)]
    return tuple(np.array(b, dtype=np.float64).reshape(d, n) for b in blocks)


class TestSubsetSmoothing:
    def test_exact_match_ratio_zero(self):
        P = np.random.default_rng(0).standard_normal((6, 40))
        A = dense_to_csc(P)
        assert subset_smoothing_check(A, P, sigma=1.0, trials=50, seed=0) == 0.0

    def test_full_subset_within_bound(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((8, 60))
        E = rng.standard_normal((8, 60))
        A = dense_to_csc(P + E)
        sigma = np.linalg.norm(E, ord=2) / np.sqrt(60)
        worst = subset_smoothing_check(A, P, sigma, trials=400, seed=2)
        assert worst <= 1.0 + 1e-9

    def test_whole_column_set_ratio_at_most_one(self):
        # |S| = n: the mean difference is bounded by the operator norm
        rng = np.random.default_rng(7)
        P = rng.standard_normal((10, 80))
        E = rng.standard_normal((10, 80))
        A = dense_to_csc(P + E)
        sigma = np.linalg.norm(E, ord=2) / np.sqrt(80)
        from simplexi.sparsemat import column_subset_mean

        diff = column_subset_mean(A, np.arange(80)) - P.mean(axis=1)
        ratio = np.linalg.norm(diff) * np.sqrt(80 / 80) / sigma
        assert ratio <= 1.0 + 1e-9

    def test_no_trials_ratio_zero(self):
        P = np.ones((4, 10))
        A = dense_to_csc(2 * P)
        for trials in (0, -3):
            assert subset_smoothing_check(A, P, sigma=1.0, trials=trials, seed=0) == 0.0

    def test_zero_sigma(self):
        P = np.random.default_rng(3).standard_normal((5, 30))
        assert subset_smoothing_check(dense_to_csc(P + 1e-3), P, sigma=0.0, trials=20) == np.inf
        assert subset_smoothing_check(dense_to_csc(P), P, sigma=0.0, trials=20) == 0.0

    def test_wrong_p_shape_raises(self):
        A = random_sparse(6, 20, 0.3, seed=1)
        for shape in ((6, 21), (20, 6), (6,)):
            for trials in (0, 10):
                with pytest.raises(ValueError, match="shape mismatch"):
                    subset_smoothing_check(A, np.zeros(shape), sigma=1.0, trials=trials)

    def test_empty_columns_match_loop(self):
        A = random_sparse(6, 50, 0.05, seed=4)
        Ad = A.toarray()
        assert np.any(~Ad.any(axis=0))  # some columns hold no entry
        P = np.random.default_rng(5).uniform(0, 0.1, (6, 50))
        got = subset_smoothing_check(A, P, sigma=0.5, trials=200, seed=6)
        want = max(_loop_deviation(Ad, P, S) for S in _loop_draws(50, 200, 6)) / 0.5
        assert got == pytest.approx(want, rel=_rtol(6), abs=0)

    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_batched_deviations_match_loop(self, case):
        Ad, P = case.draw(_dense_pair())
        d, n = Ad.shape
        prefixes = st.tuples(st.permutations(range(n)), st.integers(1, n))
        drawn = case.draw(st.lists(prefixes, max_size=6))
        # the whole set in reverse, one column, then unsorted subsets of any size
        subsets = [np.arange(n)[::-1], np.array([n - 1])]
        subsets += [np.array(perm[:m], dtype=np.int64) for perm, m in drawn]
        got = _subset_deviations(dense_to_csc(Ad), P, subsets)
        want = [_loop_deviation(Ad, P, S) for S in subsets]
        np.testing.assert_allclose(got, want, rtol=_rtol(d), atol=0)

    @settings(max_examples=100, deadline=None)
    @given(case=st.data(), trials=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           sigma=st.floats(1e-3, 1e3))
    def test_check_is_worst_loop_ratio_of_same_draws(self, case, trials, seed, sigma):
        Ad, P = case.draw(_dense_pair())
        d, n = Ad.shape
        drawn = _loop_draws(n, trials, seed)
        subsets = _smoothing_subsets(n, trials, seed)
        assert len(subsets) == trials
        assert all(np.array_equal(a, b) for a, b in zip(subsets, drawn))
        got = subset_smoothing_check(dense_to_csc(Ad), P, sigma, trials=trials, seed=seed)
        want = max(_loop_deviation(Ad, P, S) for S in drawn) / sigma
        assert got == pytest.approx(want, rel=_rtol(d), abs=0)

    def test_learner_pipeline_smoke(self):
        # end-to-end: loss of recovered vertices beats random vertices
        inst = gen_mmsb(n=300, d=60, k=4, p=0.5, q=0.05, seed=3, pure=True)
        est = learn_simplex(inst.A, LearnerConfig(k=4, delta=1.0 / 8, seed=0))
        rng = np.random.default_rng(0)
        good = ls_loss(inst.A, est, sample=150, seed=1)
        bad = ls_loss(inst.A, rng.standard_normal(est.vertices.shape), sample=150, seed=1)
        assert good < bad
