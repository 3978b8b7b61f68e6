import dataclasses
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simplexi.learner as learner_mod
import simplexi.sketch as sketch_mod
from simplexi.learner import (
    LearnerConfig,
    LearnerError,
    VertexEstimates,
    compute_factors,
    learn_simplex,
    load_vertex_estimates,
    save_vertex_estimates,
    select_indices,
    select_vertices,
)
from simplexi.metrics import match_vertices
from simplexi.models import gen_bernoulli
from simplexi.sketch import RankKFactors
from simplexi.sparsemat import column_subset_mean, live_columns
from simplexi.subspace import Basis, extend_basis, project_out

from conftest import dense_to_csc, duplicated_vertex_instance, full_Z, random_sparse


class TestSelectIndices:
    def test_abs_top_two(self):
        u = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        np.testing.assert_array_equal(select_indices(u, 2, "abs"), [0, 4])

    def test_abs_uses_magnitude(self):
        np.testing.assert_array_equal(select_indices(np.array([-5.0, 1.0, 3.0]), 1, "abs"), [0])

    def test_two_sided_prefers_larger_total(self):
        u = np.array([-5.0, -4.0, 3.0, 2.0])
        np.testing.assert_array_equal(select_indices(u, 2, "two_sided"), [0, 1])

    def test_two_sided_positive_side(self):
        u = np.array([-1.0, 6.0, 5.0, -2.0])
        np.testing.assert_array_equal(select_indices(u, 2, "two_sided"), [1, 2])

    def test_ties_break_to_lower_index(self):
        u = np.array([2.0, 2.0, 2.0, 1.0])
        np.testing.assert_array_equal(select_indices(u, 2, "abs"), [0, 1])

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            select_indices(np.ones(3), 4, "abs")
        with pytest.raises(ValueError):
            select_indices(np.ones(3), 0, "abs")

    @pytest.mark.parametrize("mode", ["abs", "two_sided"])
    @pytest.mark.parametrize("seed", range(6))
    def test_positive_scale_invariance(self, mode, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(40)
        s = int(rng.integers(1, 15))
        base = select_indices(u, s, mode)
        for c in (0.5, 3.0, 1e6, 1e-6):
            np.testing.assert_array_equal(select_indices(c * u, s, mode), base)

    @pytest.mark.parametrize("mode", ["abs", "two_sided"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, mode, bad):
        u = np.array([1.0, bad, -2.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            select_indices(u, 2, mode)


def reference_select(u: np.ndarray, s: int, mode: str) -> np.ndarray:
    """select_indices by full stable sorts: the definition it must match."""
    if mode == "abs":
        return np.sort(np.argsort(-np.abs(u), kind="stable")[:s])
    top = np.argsort(-u, kind="stable")[:s]
    bottom = np.argsort(u, kind="stable")[:s]
    if abs(u[top].sum()) >= abs(u[bottom].sum()):
        return np.sort(top)
    return np.sort(bottom)


# Few distinct values, so most draws have ties at the cut; +0.0 and -0.0
# compare equal and must tie too.
TIED = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
SCORE = st.one_of(TIED, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


class TestSelectIndicesProperty:
    @settings(max_examples=300, deadline=None)
    @given(u=st.lists(SCORE, min_size=1, max_size=60), data=st.data())
    @example(u=[0.0], data=None)
    @example(u=[-0.0, 0.0, -0.0, 0.0], data=None)
    @example(u=[2.0, -2.0, 2.0, -2.0, 1.0], data=None)
    def test_matches_stable_sort_reference(self, u, data):
        u = np.asarray(u, dtype=np.float64)
        n = u.size
        sizes = {1, n} if data is None else {1, n, data.draw(st.integers(1, n))}
        for s in sorted(sizes):
            for mode in ("abs", "two_sided"):
                got = select_indices(u, s, mode)
                np.testing.assert_array_equal(got, reference_select(u, s, mode))
                assert got.dtype == np.int64


class TestSelectIndicesSampledCut:
    """From n = 2^14 on, each side first cuts at a strided sample."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(learner_mod._SAMPLED_MIN_N, 1 << 17),
        shape=st.sampled_from(["random", "constant", "ascending", "descending"]),
        tie_density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        data=st.data(),
    )
    def test_matches_stable_sort_reference(self, seed, n, shape, tie_density, data):
        rng = np.random.default_rng(seed)
        if shape == "random":
            u = rng.standard_normal(n)
        elif shape == "constant":
            u = np.full(n, rng.choice([-0.0, 0.0, 2.5]))
        else:
            u = np.arange(n, dtype=np.float64) - n // 2
            if shape == "descending":
                u = u[::-1].copy()
        s = data.draw(st.one_of(st.integers(1, 400), st.integers(1, n)))
        # ties at both cuts and at zero: copies of the s-th largest and
        # s-th smallest values and of +-0.0 replace a share of the entries
        ordered = np.sort(u)
        levels = np.array([ordered[s - 1], ordered[n - s], -0.0, 0.0])
        tied = rng.random(n) < tie_density
        u[tied] = rng.choice(levels, size=int(tied.sum()))
        for mode in ("abs", "two_sided"):
            got = select_indices(u, s, mode)
            np.testing.assert_array_equal(got, reference_select(u, s, mode))
            assert got.dtype == np.int64

    @pytest.fixture()
    def sizes(self, monkeypatch):
        """Key lengths of the calls to the exact search ``_smallest``."""
        sizes = []
        real = learner_mod._smallest

        def recording(key, s):
            sizes.append(key.size)
            return real(key, s)

        monkeypatch.setattr(learner_mod, "_smallest", recording)
        return sizes

    def test_sample_holding_the_extremes_falls_back(self, sizes):
        # every 64th entry is huge and distinct, so the top side's cut keeps
        # only those 2 floor(s/64) + 8 entries, fewer than s
        n, s = 100_000, 200
        u = np.random.default_rng(0).standard_normal(n)
        u[::64] = 1e6 + np.arange(u[::64].size)
        np.testing.assert_array_equal(select_indices(u, s, "two_sided"),
                                      reference_select(u, s, "two_sided"))
        assert sizes[0] == n  # the top side ran the exact search on all of u
        assert sizes[1] < n  # the bottom side's cut held
        sizes.clear()
        np.testing.assert_array_equal(select_indices(-u, s, "two_sided"),
                                      reference_select(-u, s, "two_sided"))
        assert sizes[0] < n and sizes[1] == n

    def test_sums_add_in_key_order_past_the_cut(self):
        # the top side sums to 1e16 in (key, index) order and to 1e16 + 2 in
        # index order; the bottom side's |sum| of 1e16 + 2 lies between
        u = np.zeros(learner_mod._SAMPLED_MIN_N)
        u[[10, 11, 5000]] = [1.0, 1.0, 1e16]
        u[20] = -(1e16 + 2)
        np.testing.assert_array_equal(select_indices(u, 3, "two_sided"), [0, 1, 20])
        np.testing.assert_array_equal(reference_select(u, 3, "two_sided"), [0, 1, 20])

    def test_gate(self, sizes):
        rng = np.random.default_rng(1)
        n = learner_mod._SAMPLED_MIN_N
        select_indices(rng.standard_normal(n - 1), 20, "two_sided")
        assert sizes == [n - 1, n - 1]  # below the gate: the exact search on all of u
        sizes.clear()
        # at it: only the candidates, about 64 (2 floor(s/64) + 8) = 512 per side
        select_indices(rng.standard_normal(n), 20, "two_sided")
        assert len(sizes) == 2 and max(sizes) < n // 16


class TestLearnerConfig:
    def test_rejects_k_one(self):
        with pytest.raises(ValueError):
            LearnerConfig(k=1, delta=0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            LearnerConfig(k=3, delta=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(k=3, delta=1.5)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            LearnerConfig(k=3, delta=0.1, selection_mode="best")
        with pytest.raises(ValueError):
            LearnerConfig(k=3, delta=0.1, baseline="lanczos")

    def test_smoothing_floor_is_one(self):
        cfg = LearnerConfig(k=2, delta=0.001)
        assert cfg.smoothing_size(100) == 1
        assert cfg.smoothing_size(5000) == 5


class TestNoiselessRecovery:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_duplicated_vertices_recovered_exactly(self, k):
        A, M, _ = duplicated_vertex_instance(d=16, k=k, n=400, delta=0.1, seed=k)
        est = learn_simplex(A, LearnerConfig(k=k, delta=0.1, seed=123))
        res = match_vertices(est, M)
        assert res.max_error <= 1e-8

    def test_abs_mode_also_recovers(self):
        A, M, _ = duplicated_vertex_instance(d=12, k=3, n=300, delta=0.1, seed=9)
        est = learn_simplex(A, LearnerConfig(k=3, delta=0.1, seed=5, selection_mode="abs"))
        assert match_vertices(est, M).max_error <= 1e-8

    def test_power_iteration_baseline_recovers(self):
        A, M, _ = duplicated_vertex_instance(d=12, k=3, n=300, delta=0.1, seed=2)
        est = learn_simplex(
            A, LearnerConfig(k=3, delta=0.1, seed=5, baseline="power_iteration")
        )
        assert match_vertices(est, M).max_error <= 1e-8


class TestNoisyRecovery:
    def test_two_vertices_under_noise(self):
        """40% copies of each of two axis vertices plus 20% midpoints,
        spectral noise at most 0.01 sqrt(n).  The 0.15 budget is three
        times the calibrated 95th-percentile error, asserted at the 95th
        percentile over 50 seeds: at k=2 a random direction occasionally
        lands near the diagonal between the vertices and blends the
        selection, which is exactly the event the success probability
        excludes.
        """
        errors = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = 500
            cols = [np.array([1.0, 0.0])] * 200 + [np.array([0.0, 1.0])] * 200
            cols += [np.array([0.5, 0.5])] * 100
            P = np.column_stack(cols)
            E = rng.standard_normal(P.shape)
            E *= 0.01 * np.sqrt(n) / np.linalg.svd(E, compute_uv=False)[0]
            A = dense_to_csc(P + E)
            est = learn_simplex(A, LearnerConfig(k=2, delta=0.3, seed=seed))
            errors.append(match_vertices(est, np.eye(2)).max_error)
        errors = np.asarray(errors)
        assert np.quantile(errors, 0.95) <= 0.15
        assert np.median(errors) <= 0.05


class TestDeterminismAndConsistency:
    def test_bit_for_bit_determinism(self):
        A = random_sparse(30, 400, 0.05, seed=3)
        cfg = LearnerConfig(k=3, delta=0.05, seed=8)
        a = learn_simplex(A, cfg)
        b = learn_simplex(A, cfg)
        assert np.array_equal(a.vertices, b.vertices)
        assert all(np.array_equal(x, y) for x, y in zip(a.index_sets, b.index_sets))
        assert np.array_equal(a.directions, b.directions)

    def test_vertices_are_column_means(self):
        A = random_sparse(20, 300, 0.1, seed=4)
        est = learn_simplex(A, LearnerConfig(k=4, delta=0.08, seed=1))
        for t, R in enumerate(est.index_sets):
            np.testing.assert_array_equal(est.vertices[:, t], column_subset_mean(A, R))

    def test_index_sets_have_smoothing_size(self):
        A = random_sparse(20, 300, 0.1, seed=4)
        cfg = LearnerConfig(k=3, delta=0.07, seed=1)
        est = learn_simplex(A, cfg)
        s = cfg.smoothing_size(300)
        assert all(R.size == s for R in est.index_sets)
        assert all(np.all(np.diff(R) > 0) for R in est.index_sets)

    def test_index_sets_follow_directions_above_the_sampling_gate(self):
        # most columns are empty, so each direction is full of tied zeros
        A = gen_bernoulli(60, 70_000, 1e-3, 2)
        cfg = LearnerConfig(k=3, delta=2e-3, seed=5)
        est = learn_simplex(A, cfg)
        s = cfg.smoothing_size(A.cols)
        assert A.cols >= learner_mod._SAMPLED_MIN_N and est.k == 3
        for u, R in zip(est.directions, est.index_sets):
            np.testing.assert_array_equal(R, reference_select(u, s, "two_sided"))

    def test_directions_recorded(self):
        A = random_sparse(20, 300, 0.1, seed=4)
        est = learn_simplex(A, LearnerConfig(k=3, delta=0.07, seed=1))
        assert est.directions.shape == (3, 300)
        # each index set re-derives from its recorded direction
        for u, R in zip(est.directions, est.index_sets):
            np.testing.assert_array_equal(select_indices(u, R.size, "two_sided"), R)

    def test_blas_thread_count_does_not_change_estimates(self):
        # the first matrix takes the streaming Gram route, the second (hyper-
        # sparse) the A A^T route; both compress their k^2-wide sketch; the
        # third has n past the gate of select_indices' sampled cut; in the
        # fourth, 4197 of the 30001 columns hold an entry, and neither count
        # is a multiple of 8, so the live scoring product ends in BLAS's
        # remainder rows; the fifth is the second under the power-iteration
        # baseline; in the sixth, 31 columns hold an entry and s = 200, so
        # every round picks its block on the whole row; the seventh has
        # working rank 26, the smallest eigenproblem that goes to scipy
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from simplexi import LearnerConfig, gen_bernoulli, learn_simplex
            for d, n, p, k, baseline in (
                (300, 3000, 0.05, 8, "sketch"), (1000, 20000, 2e-4, 16, "sketch"),
                (200, 70000, 5e-4, 4, "sketch"), (500, 30001, 3e-4, 6, "sketch"),
                (1000, 20000, 2e-4, 16, "power_iteration"), (100, 20000, 2e-5, 3, "sketch"),
                (1000, 50000, 5e-4, 13, "sketch"),
            ):
                A = gen_bernoulli(d, n, p, 4)
                cfg = LearnerConfig(k=k, delta=0.01, seed=3, baseline=baseline)
                est = learn_simplex(A, cfg)
                h = hashlib.sha256()
                for a in (est.vertices, est.directions, *est.index_sets):
                    h.update(np.ascontiguousarray(a).tobytes())
                print(h.hexdigest())
        """)
        digests = [_run_script(script, threads).split() for threads in ("1", "2")]
        assert [len(x) for x in digests[0]] == [64] * 7
        assert digests[0] == digests[1]


class TestSingleBlasThread:
    def test_sparse_learner_keeps_one_core_busy(self):
        # after a threaded BLAS call OpenBLAS's idle worker spins on a second
        # core for about 0.15 s, longer than one of these calls, so a single
        # threaded call per call of learn_simplex doubles its CPU time
        script = textwrap.dedent("""
            import time
            from simplexi import LearnerConfig, gen_bernoulli, learn_simplex
            A = gen_bernoulli(1000, 200_000, 1 / 5000, 4)
            learn_simplex(A, LearnerConfig(k=16, delta=1e-3, seed=0))
            time.sleep(0.3)  # a worker the generator woke goes idle
            wall, cpu = time.perf_counter(), time.process_time()
            for seed in range(20):
                learn_simplex(A, LearnerConfig(k=16, delta=1e-3, seed=seed))
            print(time.process_time() - cpu, time.perf_counter() - wall)
        """)
        cpu, wall = map(float, _run_script(script, "2").split())
        assert cpu <= 1.3 * wall, (cpu, wall)


def _run_script(script: str, threads: str) -> str:
    """Standard output of ``script`` run with OPENBLAS_NUM_THREADS=threads
    in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return out.stdout


class TestIndexFreshness:
    def test_matched_true_vertices_distinct(self):
        """On clean instances the k selections hit k distinct true vertices."""
        hits = 0
        runs = 20
        for seed in range(runs):
            A, M, _ = duplicated_vertex_instance(d=14, k=5, n=500, delta=0.08, seed=seed)
            est = learn_simplex(A, LearnerConfig(k=5, delta=0.08, seed=1000 + seed))
            nearest = [
                int(np.argmin(np.linalg.norm(M - est.vertices[:, [t]], axis=0)))
                for t in range(5)
            ]
            hits += len(set(nearest)) == 5
        assert hits >= 0.9 * runs


class TestSelectionReadsOnlySelectedColumns:
    def test_access_counter(self, monkeypatch):
        """After the factorization pass, the matrix is touched only via
        the column averages of the selected index sets."""
        A = random_sparse(25, 400, 0.08, seed=6)
        cfg = LearnerConfig(k=3, delta=0.05, seed=2)
        fac = learner_mod._factors(A, cfg)

        touched: list[np.ndarray] = []
        real_mean = column_subset_mean

        def counting_mean(mat, S):
            touched.append(np.asarray(S))
            return real_mean(mat, S)

        def forbidden(*args, **kwargs):
            raise AssertionError("selection phase must not run matrix products")

        monkeypatch.setattr(learner_mod, "column_subset_mean", counting_mean)
        monkeypatch.setattr(learner_mod, "mixed_lra", forbidden)
        monkeypatch.setattr(learner_mod, "subspace_power", forbidden)
        est = select_vertices(A, fac, cfg)

        assert len(touched) == 3
        seen = np.concatenate(touched)
        expected = np.concatenate(est.index_sets)
        np.testing.assert_array_equal(np.sort(seen), np.sort(expected))
        s = cfg.smoothing_size(400)
        assert seen.size == 3 * s  # nothing outside the selected sets


def reference_select_vertices(A, Y, Z, cfg):
    """select_vertices scoring every column with one product over all of Z:
    the loop the live-column scoring must reproduce."""
    d, n = A.shape
    s = cfg.smoothing_size(n)
    rng = np.random.default_rng(learner_mod._seeds(cfg)[1])
    kf = Y.shape[1]
    rank_deficient = kf < cfg.k
    vertices, index_sets = [], []
    D = np.empty((cfg.k, n))
    U_t = Basis(np.zeros((d, 0)))
    for t in range(cfg.k):
        if vertices:
            U_t = extend_basis(U_t, vertices[-1])
        h_prime = None
        for _ in range(learner_mod._REDRAW_LIMIT):
            h = Y @ rng.standard_normal(kf)
            hn = np.linalg.norm(h)
            if hn == 0.0:
                continue
            cand = project_out(h, U_t)
            if np.linalg.norm(cand) > learner_mod._DEGENERATE_REL * hn:
                h_prime = cand
                break
        if h_prime is None:
            if rank_deficient:
                break
            raise LearnerError(f"round {t}: direction collapsed")
        h_prime = h_prime / np.linalg.norm(h_prime)
        u = np.matmul(h_prime @ Y, Z.T, out=D[t])
        R_t = select_indices(u, s, cfg.selection_mode)
        vertices.append(column_subset_mean(A, R_t))
        index_sets.append(R_t)
    V = np.column_stack(vertices) if vertices else np.zeros((d, 0))
    return VertexEstimates(V, tuple(index_sets), D[: len(vertices)], rank_deficient)


def _with_empty_columns(d, n, m, rank, seed):
    """d x n matrix whose m columns at random positions hold entries and the
    rest none; rank < d gives live columns B W of that rank, all entries
    nonzero, otherwise each live column keeps a random subset of its rows."""
    rng = np.random.default_rng(seed)
    live = np.sort(rng.choice(n, size=m, replace=False))
    if rank < d:
        X = rng.uniform(0.2, 1.0, (d, rank)) @ rng.uniform(0.1, 1.0, (rank, m))
    else:
        X = rng.uniform(0.2, 1.0, (d, m)) * (rng.random((d, m)) < 0.4)
        X[rng.integers(0, d, m), np.arange(m)] = 1.0  # at least one entry per column
    dense = np.zeros((d, n))
    dense[:, live] = X
    return dense_to_csc(dense)


def _selection_or_error(select, *args):
    try:
        return select(*args)
    except LearnerError:
        return None


class TestLiveColumnScoring:
    """Selection scores only the columns that hold an entry; the others
    score +0.0, and the factors hold no row of Z for them."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(4, 24),
        n=st.integers(9, 300),
        live_share=st.floats(0.02, 0.9),
        k=st.integers(2, 4),
        rank=st.integers(1, 24),
        s_share=st.floats(0.0, 1.0),
        mode=st.sampled_from(["two_sided", "abs"]),
    )
    # s above m: zero scores fill the set, lowest index first
    @example(seed=1, d=12, n=203, live_share=0.07, k=3, rank=12, s_share=0.2, mode="two_sided")
    @example(seed=3, d=9, n=131, live_share=0.1, k=2, rank=9, s_share=0.5, mode="abs")
    # rank below k: a rank-deficient prefix
    @example(seed=2, d=10, n=77, live_share=0.5, k=4, rank=2, s_share=0.05, mode="two_sided")
    def test_matches_full_scoring_and_never_reads_empty_rows(
        self, seed, d, n, live_share, k, rank, s_share, mode
    ):
        m = min(n - 1, max(1, round(live_share * n)))
        A = _with_empty_columns(d, n, m, min(rank, d), seed)
        s = 1 + int(s_share * (n - 1))
        cfg = LearnerConfig(k=k, delta=min(1.0, (s + 0.5) / n), seed=seed % 1000,
                            selection_mode=mode)
        assert cfg.smoothing_size(n) == s
        fac = learner_mod._factors(A, cfg)
        empty = A.column_nnz() == 0
        assert empty.sum() == n - m
        np.testing.assert_array_equal(fac.live, np.flatnonzero(~empty))
        assert fac.Z.shape == (m, fac.Y.shape[1])

        est = _selection_or_error(select_vertices, A, fac, cfg)
        ref = _selection_or_error(reference_select_vertices, A, fac.Y, full_Z(fac, n), cfg)
        assert (est is None) == (ref is None)
        if est is None:
            return
        assert est.rank_deficient == ref.rank_deficient
        assert len(est.index_sets) == len(ref.index_sets)
        for R, R_ref in zip(est.index_sets, ref.index_sets):
            np.testing.assert_array_equal(R, R_ref)
        assert np.array_equal(est.vertices, ref.vertices)
        assert est.directions.shape == ref.directions.shape
        for u, u_ref in zip(est.directions, ref.directions):
            # the live product may round its last rows differently from the
            # full one, by a few ulps of an entry
            assert np.all(np.abs(u - u_ref) <= 1e-15 * np.abs(u_ref).max())
            assert np.all(u[empty] == 0.0) and not np.signbit(u[empty]).any()

    @pytest.mark.parametrize("d, n, density", [(20, 301, 1.0), (30, 1003, 0.3)])
    def test_no_empty_column_is_bit_identical(self, d, n, density):
        rng = np.random.default_rng(n)
        dense = rng.uniform(0.2, 1.0, (d, n)) * (rng.random((d, n)) < density)
        dense[0] = np.where(dense[0] == 0.0, 0.5, dense[0])  # every column holds an entry
        A = dense_to_csc(dense)
        cfg = LearnerConfig(k=4, delta=0.05, seed=11)
        fac = learner_mod._factors(A, cfg)
        assert fac.live.size == n
        est = select_vertices(A, fac, cfg)
        ref = reference_select_vertices(A, fac.Y, fac.Z, cfg)
        assert np.array_equal(est.vertices, ref.vertices)
        assert np.array_equal(est.directions, ref.directions)
        for R, R_ref in zip(est.index_sets, ref.index_sets):
            np.testing.assert_array_equal(R, R_ref)

    @pytest.mark.parametrize("baseline, shape, density, streaming", [
        ("sketch", (25, 120), 0.3, True),
        ("sketch", (200, 2000), 0.005, False),
        ("power_iteration", (25, 120), 0.3, None),
    ], ids=["stream-gram", "aat-gram", "power-iteration"])
    def test_factor_routes_give_zero_rows_for_empty_columns(
        self, monkeypatch, baseline, shape, density, streaming
    ):
        routes = []
        gram = sketch_mod._projected_gram

        def spy(*args):
            G, Wt = gram(*args)
            routes.append(Wt is not None)
            return G, Wt

        monkeypatch.setattr(sketch_mod, "_projected_gram", spy)
        d, n = shape
        rng = np.random.default_rng(5)
        dense = rng.uniform(0.2, 1.0, shape) * (rng.random(shape) < density)
        dense[:, rng.random(n) < 0.3] = 0.0
        A = dense_to_csc(dense)
        Y, Z, _ = compute_factors(A, LearnerConfig(k=3, delta=0.1, seed=4, baseline=baseline))
        assert routes == ([] if streaming is None else [streaming])
        empty = A.column_nnz() == 0
        assert 0 < empty.sum() < n and Y.shape[1] == 3
        assert np.all(Z[empty] == 0.0)


class TestLiveSelection:
    """``learn_simplex`` keeps only the live rows of Z and picks each block
    among the live scores where that is exact; everything it returns must
    equal the path through the n-row Z and the whole score row."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        live_share=st.floats(0.0, 1.0),
        scores=st.sampled_from(["mixed", "positive", "negative", "signed-zeros", "tied"]),
        s_share=st.floats(0.0, 1.0),
        mode=st.sampled_from(["two_sided", "abs"]),
    )
    # s above m
    @example(seed=1, n=60, live_share=0.1, scores="mixed", s_share=0.5, mode="two_sided")
    @example(seed=1, n=60, live_share=0.1, scores="mixed", s_share=0.5, mode="abs")
    # live scores of one sign: the empty columns' zeros win the other side
    @example(seed=2, n=90, live_share=0.5, scores="positive", s_share=0.1, mode="two_sided")
    @example(seed=3, n=90, live_share=0.5, scores="negative", s_share=0.1, mode="two_sided")
    # exact +-0.0 live scores, which tie with the empty columns' +0.0
    @example(seed=4, n=70, live_share=0.9, scores="signed-zeros", s_share=0.3, mode="abs")
    @example(seed=4, n=70, live_share=0.9, scores="signed-zeros", s_share=0.3,
             mode="two_sided")
    # ties at the cut, m = 13
    @example(seed=5, n=29, live_share=0.45, scores="tied", s_share=0.1, mode="two_sided")
    def test_live_choice_equals_full_row_choice(self, seed, n, live_share, scores, s_share,
                                                mode):
        rng = np.random.default_rng(seed)
        m = round(live_share * n)
        live = np.sort(rng.choice(n, size=m, replace=False))
        if scores == "signed-zeros":
            u = rng.choice([-0.0, 0.0, -1.0, 1.0], size=m)
        elif scores == "tied":
            u = rng.choice([-2.0, -1.0, 1.0, 2.0], size=m)
        else:
            u = rng.standard_normal(m)
            if scores != "mixed":
                u = np.abs(u) if scores == "positive" else -np.abs(u)
        row = np.zeros(n)
        row[live] = u
        s = 1 + int(s_share * (n - 1))
        got = learner_mod._select_live(row, u, live, s, mode)
        np.testing.assert_array_equal(got, select_indices(row, s, mode))
        np.testing.assert_array_equal(got, reference_select(row, s, mode))

    @pytest.mark.parametrize("mode", ["two_sided", "abs"])
    def test_live_choice_past_the_sampling_gate(self, mode):
        # m live scores past the gate: the sampled cut runs on the live scores
        rng = np.random.default_rng(9)
        n, m, s = 100_000, 70_003, 150
        live = np.sort(rng.choice(n, size=m, replace=False))
        u = rng.standard_normal(m)
        row = np.zeros(n)
        row[live] = u
        got = learner_mod._select_live(row, u, live, s, mode)
        np.testing.assert_array_equal(got, reference_select(row, s, mode))

    @pytest.fixture()
    def row_sizes(self, monkeypatch):
        """Lengths of the rows ``select_indices`` is called on."""
        sizes = []
        real = learner_mod.select_indices

        def recording(u, s, mode="two_sided"):
            sizes.append(np.asarray(u).size)
            return real(u, s, mode)

        monkeypatch.setattr(learner_mod, "select_indices", recording)
        return sizes

    @pytest.mark.parametrize("baseline", ["sketch", "power_iteration"])
    @pytest.mark.parametrize("mode", ["two_sided", "abs"])
    @pytest.mark.parametrize("d, n, m, rank, k, delta, whole_rows", [
        (30, 2003, 301, 30, 8, 0.01, 0),  # m mod 8 = 5
        # positive live columns of rank 5: a round can score them all one sign
        (20, 700, 413, 5, 4, 0.05, None),
        (12, 500, 37, 12, 3, 0.2, 3),  # s = 100 > m = 37
    ], ids=["m301", "rank5", "s-above-m"])
    def test_learn_simplex_equals_full_row_path(
        self, row_sizes, baseline, mode, d, n, m, rank, k, delta, whole_rows
    ):
        A = _with_empty_columns(d, n, m, rank, seed=m)
        cfg = LearnerConfig(k=k, delta=delta, seed=7, selection_mode=mode, baseline=baseline)
        est = learn_simplex(A, cfg)
        assert est.k == k and not est.rank_deficient
        # one pick per round, on the m live scores or on the whole n-long row
        assert len(row_sizes) == k and set(row_sizes) <= {m, n}
        if whole_rows is not None:
            assert row_sizes.count(n) == whole_rows
        Y, Z, _ = compute_factors(A, cfg)
        assert Z.shape == (n, k)
        ref = reference_select_vertices(A, Y, Z, cfg)
        assert np.array_equal(est.vertices, ref.vertices)
        assert len(est.index_sets) == len(ref.index_sets)
        for R, R_ref in zip(est.index_sets, ref.index_sets):
            assert np.array_equal(R, R_ref)
        # the product over all n rows may round its last rows differently
        scale = np.abs(ref.directions).max()
        assert np.all(np.abs(est.directions - ref.directions) <= 1e-15 * scale)

    def test_no_empty_column_takes_no_copy(self, monkeypatch):
        class Uncopied(np.ndarray):
            def take(self, *args, **kwargs):
                raise AssertionError("Z was copied")

            def copy(self, *args, **kwargs):
                raise AssertionError("Z was copied")

            def __getitem__(self, key):
                raise AssertionError("Z was indexed")

        rng = np.random.default_rng(2)
        dense = rng.uniform(0.2, 1.0, (25, 400)) * (rng.random((25, 400)) < 0.3)
        dense[0] = 1.0  # every column holds an entry
        A = dense_to_csc(dense)
        cfg = LearnerConfig(k=4, delta=0.05, seed=3)
        want = learn_simplex(A, cfg)

        sketched = []
        real_apply = sketch_mod.apply_countsketch
        real_lra = learner_mod.mixed_lra

        def apply_spy(M, S):
            sketched.append(M)
            return real_apply(M, S)

        def lra_spy(*args, **kwargs):
            fac = real_lra(*args, **kwargs)
            return dataclasses.replace(fac, Z=fac.Z.view(Uncopied))

        monkeypatch.setattr(sketch_mod, "apply_countsketch", apply_spy)
        monkeypatch.setattr(learner_mod, "mixed_lra", lra_spy)
        est = learn_simplex(A, cfg)
        assert len(sketched) == 1 and sketched[0] is A
        assert np.array_equal(est.vertices, want.vertices)
        assert np.array_equal(est.directions, want.directions)


class TestDegenerateInputs:
    def test_rank_deficient_factors_return_flagged_prefix(self):
        # rank-1 data cannot produce three distinct directions
        A = dense_to_csc(np.outer([1.0, 2.0, 1.0], np.ones(60)))
        est = learn_simplex(A, LearnerConfig(k=3, delta=0.1, seed=0))
        assert est.rank_deficient
        assert est.k <= 2

    def test_zero_factors_raise_diagnostic(self):
        A = random_sparse(10, 50, 0.2, seed=1)
        cfg = LearnerConfig(k=2, delta=0.1, seed=0)
        live, _ = live_columns(A)
        fac = RankKFactors(np.zeros((10, 2)), np.zeros((live.size, 2)), live)
        with pytest.raises(LearnerError, match="redraws"):
            select_vertices(A, fac, cfg)

    def test_k_larger_than_matrix(self):
        A = random_sparse(3, 50, 0.3, seed=1)
        with pytest.raises(ValueError):
            learn_simplex(A, LearnerConfig(k=4, delta=0.1))
        # k > n but k <= d: the power-iteration factorization checks both sides
        tall = random_sparse(50, 3, 0.3, seed=1)
        with pytest.raises(ValueError, match=r"min\(d, n\) = 3"):
            learn_simplex(tall, LearnerConfig(k=4, delta=0.1, baseline="power_iteration"))
        with pytest.raises(ValueError, match=r"min\(d, n\) = 3"):
            learner_mod.subspace_power(tall, 4, T=3)


class TestEstimateSerialization:
    def test_roundtrip(self):
        A = random_sparse(15, 200, 0.1, seed=8)
        est = learn_simplex(A, LearnerConfig(k=3, delta=0.06, seed=4))
        buf = io.StringIO()
        save_vertex_estimates(est, buf)
        buf.seek(0)
        back = load_vertex_estimates(buf)
        np.testing.assert_array_equal(est.vertices, back.vertices)
        assert all(np.array_equal(a, b) for a, b in zip(est.index_sets, back.index_sets))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_roundtrip_is_exact(self, data):
        if data is None:  # the signed zeros, the subnormal extremes and +-1e300
            values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1 / 3]
            V = np.array(values).reshape(4, 2)
            sets = (np.array([7, 0, 2**62]), np.array([1, 1, 3]))
        else:
            k = data.draw(st.integers(1, 4))
            d = data.draw(st.integers(0, 5))
            s = data.draw(st.integers(0, 6))
            finite = st.floats(allow_nan=False, allow_infinity=False)
            V = np.array(data.draw(st.lists(finite, min_size=d * k, max_size=d * k)),
                         dtype=np.float64).reshape(d, k)
            index = st.lists(st.integers(0, 2**63 - 1), min_size=s, max_size=s)
            sets = tuple(np.array(data.draw(index), dtype=np.int64) for _ in range(k))
        buf = io.StringIO()
        save_vertex_estimates(VertexEstimates(V, sets, np.zeros((V.shape[1], 0))), buf)
        buf.seek(0)
        back = load_vertex_estimates(buf)
        assert back.vertices.shape == V.shape
        assert back.vertices.tobytes() == V.tobytes()  # bit for bit, signs of zero included
        assert len(back.index_sets) == len(sets)
        for a, b in zip(back.index_sets, sets):
            assert a.dtype == np.int64 and np.array_equal(a, b)
