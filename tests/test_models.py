import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexi.metrics import project_columns_to_simplex
from simplexi.models import (
    SimplexInstance,
    check_assumptions,
    compute_alpha,
    compute_sigma,
    gen_bernoulli,
    gen_clusters_adversarial,
    gen_lda,
    gen_mmsb,
    load_instance,
    save_instance,
)
from simplexi.sketch import singular_values
from simplexi.sparsemat import build_csc, save_dense_block

from conftest import dense_to_csc


def hull_residual(M, p, iters=4000):
    """Distance of p from conv(columns of M), by projected gradient."""
    k = M.shape[1]
    G = M.T @ M
    L = np.linalg.eigvalsh(G)[-1]
    w = np.full((k, 1), 1.0 / k)
    target = (M.T @ p).reshape(k, 1)
    for _ in range(iters):
        w = project_columns_to_simplex(w - (G @ w - target) / L)
    return np.linalg.norm(M @ w.ravel() - p)


class TestGenLda:
    def test_large_m_concentrates(self):
        inst = gen_lda(d=40, n=3, k=2, m=10**6, seed=0)
        for j in range(3):
            col = np.zeros(40)
            seg = slice(inst.A.col_ptr[j], inst.A.col_ptr[j + 1])
            col[inst.A.row_idx[seg]] = inst.A.values[seg]
            assert np.linalg.norm(col - inst.P[:, j]) <= 0.01

    def test_single_topic(self):
        inst = gen_lda(d=30, n=50, k=1, m=100, seed=1)
        np.testing.assert_allclose(inst.P, np.tile(inst.M, (1, 50)), atol=1e-12)

    def test_columns_sum_to_one(self):
        inst = gen_lda(d=25, n=80, k=3, m=64, seed=2)
        np.testing.assert_allclose(inst.M.sum(axis=0), 1.0, atol=1e-12)
        Ad = inst.A.toarray()
        np.testing.assert_allclose(Ad.sum(axis=0), 1.0, atol=1e-12)

    def test_sigma_bounded_by_entry_variance(self):
        # crude concentration check on the measured noise level
        hits = 0
        for seed in range(10):
            inst = gen_lda(d=100, n=500, k=5, m=200, seed=seed)
            cap = 2.0 * np.sqrt(np.max(inst.P * (1.0 - inst.P)))
            hits += inst.sigma <= cap
        assert hits >= 9

    def test_topic_prior_shapes_topics(self):
        rng = np.random.default_rng(3)
        prior = np.full((50, 2), 1e-4 * 1e8)
        prior[0, 0] = 0.9e8
        prior[1, 1] = 0.9e8
        inst = gen_lda(d=50, n=40, k=2, m=1000, seed=3, topic_prior=prior)
        assert inst.M[0, 0] > 0.8 and inst.M[1, 1] > 0.8

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_lda(d=10, n=10, k=2, m=0)
        with pytest.raises(ValueError):
            gen_lda(d=10, n=10, k=2, m=5, concentration=-1.0)
        with pytest.raises(ValueError):
            gen_lda(d=10, n=10, k=2, m=5, topic_prior=np.zeros((10, 2)))


class TestGenMmsb:
    def test_equal_rates_give_rank_one(self):
        inst = gen_mmsb(n=60, d=20, k=3, p=0.4, q=0.4, seed=0)
        s = np.linalg.svd(inst.P, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]
        assert np.allclose(inst.P, 0.4)

    def test_pure_two_blocks_full_contrast(self):
        inst = gen_mmsb(n=40, d=10, k=2, p=1.0, q=1e-9, seed=1, pure=True)
        Ad = inst.A.toarray()
        # within-block all ones, cross-block (almost surely) empty
        M = inst.M
        assert set(np.unique(np.round(M, 6))) <= {0.0, 1.0}
        labels_row = np.argmax(inst.M, axis=1)
        labels_col = np.argmax(inst.W, axis=0)
        same = labels_row[:, None] == labels_col[None, :]
        assert np.all(Ad[same] == 1.0)
        assert np.all(Ad[~same] == 0.0)

    def test_block_mass_matches_expectation(self):
        # appendix-style desk instance: edge count near its expectation
        k, n, d, p, q = 4, 2048, 256, 0.2, 0.02
        inst = gen_mmsb(n=n, d=d, k=k, p=p, q=q, seed=2, pure=True)
        expected = n * d * (p + (k - 1) * q) / k
        assert abs(inst.A.nnz - expected) <= 0.2 * expected

    def test_mean_entry_matches_latent_mean(self):
        inst = gen_mmsb(n=400, d=80, k=3, p=0.3, q=0.05, seed=3)
        mean_a = inst.A.nnz / (400 * 80)
        mean_p = float(inst.P.mean())
        se = np.sqrt(mean_p * (1 - mean_p) / (400 * 80))
        assert abs(mean_a - mean_p) <= 3 * se

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            gen_mmsb(n=10, d=5, k=2, p=0.1, q=0.5)


class TestGenClusters:
    def test_no_adversary_no_noise_is_exact(self):
        inst = gen_clusters_adversarial(
            d=20, n=200, k=3, sigma_target=0.0, delta=0.1, adversary_fraction=0.0,
            seed=0, noise_rank=0,
        )
        assert inst.sigma <= 1e-12
        np.testing.assert_allclose(inst.A.toarray(), inst.P, atol=1e-15)
        # every column sits exactly on its cluster mean
        dists = np.linalg.norm(
            inst.P[:, :, None] - inst.M[:, None, :], axis=0
        ).min(axis=1)
        assert np.max(dists) == 0.0

    def test_centroid_adversary_keeps_protected_sets(self):
        inst = gen_clusters_adversarial(
            d=30, n=300, k=3, sigma_target=1e-5, delta=0.05,
            adversary_fraction=0.95 - 0.05, seed=1,
        )
        radius = 4 * inst.sigma / np.sqrt(inst.delta)
        dists = np.linalg.norm(inst.P[:, :, None] - inst.M[:, None, :], axis=0)
        counts = (dists.min(axis=1) <= radius).sum()
        assert counts >= 3 * int(np.floor(0.05 * 300))

    def test_generator_passes_checker(self):
        passes = 0
        for seed in range(10):
            inst = gen_clusters_adversarial(
                d=50, n=3000, k=3, sigma_target=2e-6, delta=0.1,
                adversary_fraction=0.3, seed=seed,
            )
            rep = check_assumptions(inst, singular_values(inst.A))
            passes += rep.proximate_ok and rep.spectral_ok and rep.alpha > 0.9
        assert passes >= 8

    def test_infeasible_dimensions_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_clusters_adversarial(d=2, n=50, k=3, sigma_target=0.1, delta=0.1,
                                     adversary_fraction=0.0)
        with pytest.raises(ValueError):
            gen_clusters_adversarial(d=10, n=50, k=2, sigma_target=0.1, delta=0.6,
                                     adversary_fraction=0.5)


def assert_canonical_ones(A, d, n):
    """A is a d x n CSC matrix with sorted, distinct rows and 1.0 values."""
    assert A.shape == (d, n)
    assert A.col_ptr.dtype == np.int64 and A.row_idx.dtype == np.int64
    assert A.col_ptr.shape == (n + 1,) and A.col_ptr[0] == 0
    assert np.all(np.diff(A.col_ptr) >= 0)
    assert A.col_ptr[-1] == A.nnz == A.row_idx.size == A.values.size
    assert np.all(A.values == 1.0)
    assert np.all((A.row_idx >= 0) & (A.row_idx < d))
    for c in range(n):
        rows = A.row_idx[A.col_ptr[c]:A.col_ptr[c + 1]]
        assert np.all(np.diff(rows) > 0)


class TestGenBernoulli:
    def test_p_zero(self):
        assert gen_bernoulli(10, 20, 0.0, seed=0).nnz == 0

    def test_p_one(self):
        A = gen_bernoulli(7, 9, 1.0, seed=0)
        assert A.nnz == 63
        assert np.all(A.values == 1.0)

    def test_count_concentration(self):
        A = gen_bernoulli(1000, 50000, 1.0 / 2000.0, seed=4)
        assert abs(A.nnz - 25000) <= 0.05 * 25000

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gen_bernoulli(4, 4, 1.5)

    def test_positions_are_independent_bernoulli(self):
        d, n, p, trials = 7, 11, 0.3, 2000
        freq = np.zeros((d, n))
        nnz = np.empty(trials)
        for seed in range(trials):
            A = gen_bernoulli(d, n, p, seed=seed)
            freq += A.toarray()
            nnz[seed] = A.nnz
        # each position is set in Binomial(trials, p) of the draws
        band = 5.0 * np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(freq - trials * p) <= band)
        # nnz per draw is Binomial(d n, p) only if positions are independent
        mean, var = d * n * p, d * n * p * (1 - p)
        assert abs(nnz.mean() - mean) <= 5.0 * np.sqrt(var / trials)
        assert abs(nnz.var(ddof=1) - var) <= 5.0 * var * np.sqrt(2.0 / (trials - 1))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(0, 40),
        n=st.integers(0, 40),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=3, n=0, p=0.1, seed=0)
    @example(d=0, n=3, p=0.1, seed=0)
    @example(d=0, n=0, p=1.0, seed=0)
    def test_canonical_csc(self, d, n, p, seed):
        A = gen_bernoulli(d, n, p, seed=seed)
        assert_canonical_ones(A, d, n)
        if p == 1.0:
            assert A.nnz == d * n
        if p == 0.0:
            assert A.nnz == 0

    @pytest.mark.parametrize("d, n", [
        (5, 5),
        (2**50, 2**12),  # d n = 2^62
        ((2**63 - 1) // 7, 7),  # d n = 2^63 - 1, the largest shape allowed
    ])
    def test_tiny_p_gives_no_entries(self, d, n):
        # numpy saturates Geometric(1e-300) at 2^63 - 1: that gap must end
        # the draw, neither wrap past 2^63 nor land on the last position
        A = gen_bernoulli(d, n, 1e-300, seed=0)
        assert A.nnz == 0
        assert_canonical_ones(A, d, n)

    def test_positions_near_the_int64_limit(self):
        d, n = (2**63 - 1) // 7, 7
        A = gen_bernoulli(d, n, 4.0 / (d * n), seed=1)
        assert 0 < A.nnz < 30
        assert_canonical_ones(A, d, n)

    def test_memory_follows_nnz_not_shape(self):
        # d n = 1e11 positions and about 1000 entries
        tracemalloc.start()
        try:
            A = gen_bernoulli(10**7, 10**4, 1e-8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 500 < A.nnz < 1500
        assert peak < 2 * 2**20

    def test_chunks_continue_where_the_last_ended(self, monkeypatch):
        # a chunk holds enough gaps to finish the draw all but never, so
        # force two gaps per chunk, every gap 3
        class FixedGaps:
            def geometric(self, p, size):
                return np.full(min(size, 2), 3, dtype=np.int64)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedGaps())
        A = gen_bernoulli(4, 5, 0.5)
        flat = np.zeros(20)
        flat[2::3] = 1.0  # column-major positions 2, 5, ..., 17
        np.testing.assert_array_equal(A.toarray(), flat.reshape(5, 4).T)
        assert_canonical_ones(A, 4, 5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2\\^63 - 1"):
            gen_bernoulli(2**32, 2**32, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            gen_bernoulli(-1, 4, 0.1)

    def test_same_seed_same_matrix(self):
        A = gen_bernoulli(300, 500, 0.01, seed=9)
        B = gen_bernoulli(300, 500, 0.01, seed=9)
        C = gen_bernoulli(300, 500, 0.01, seed=10)
        assert np.array_equal(A.col_ptr, B.col_ptr)
        assert np.array_equal(A.row_idx, B.row_idx)
        assert np.array_equal(A.values, B.values)
        assert not (A.nnz == C.nnz and np.array_equal(A.row_idx, C.row_idx))


class TestComputeAlpha:
    def test_orthonormal_columns(self):
        assert compute_alpha(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_column_is_zero(self):
        M = np.column_stack([np.ones(3), np.ones(3)])
        assert compute_alpha(M) <= 1e-10

    def test_hand_computed_half(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert compute_alpha(M) == pytest.approx(0.5, abs=1e-12)


class TestComputeSigma:
    def test_exact_match_is_zero(self):
        # M = P with W = I: the factored P is P itself
        P = np.random.default_rng(0).standard_normal((8, 30))
        A = dense_to_csc(P)
        assert compute_sigma(A, P, np.eye(30)) <= 1e-12

    def test_single_entry_bump(self):
        n = 50
        M, W = np.zeros((6, 1)), np.ones((1, n))  # P = 0
        A = build_csc([(2, 7, 3.0)], 6, n)
        assert compute_sigma(A, M, W) == pytest.approx(3.0 / np.sqrt(n), rel=1e-9)

    def test_matches_dense_oracle(self):
        inst = gen_lda(d=120, n=400, k=4, m=150, seed=7)
        dense_norm = np.linalg.norm(inst.A.toarray() - inst.P, ord=2)
        assert inst.sigma == pytest.approx(dense_norm / np.sqrt(400), rel=1e-6)

    def test_matches_dense_oracle_on_block_model_noise(self):
        # Bernoulli noise has a flat top spectrum, on which plain power
        # iteration stalls short of the norm (here by 1.2e-4 after 500 steps)
        inst = gen_mmsb(n=1000, d=100, k=4, p=0.1, q=0.02, seed=5)
        dense_norm = np.linalg.norm(inst.A.toarray() - inst.P, ord=2)
        assert inst.sigma == pytest.approx(dense_norm / np.sqrt(1000), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 40), (40, 1)])
    def test_single_row_or_column(self, shape):
        rng = np.random.default_rng(4)
        d, n = shape
        A = dense_to_csc(rng.standard_normal(shape))
        M, W = rng.standard_normal((d, 2)), rng.random((2, n))
        dense_norm = np.linalg.norm(A.toarray() - M @ W, ord=2)
        assert compute_sigma(A, M, W) == pytest.approx(dense_norm / np.sqrt(n), rel=1e-12)


class TestCheckAssumptions:
    def test_exact_vertex_copies_pass_everything(self):
        M = 2.0 * np.eye(5)[:, :3]
        W = np.tile(np.eye(3), (1, 10))
        P = np.tile(M, (1, 10))
        inst = SimplexInstance(M, dense_to_csc(P), W, 0.0, 0.2, "clustering", 0)
        assert inst.P.tobytes() == P.tobytes()
        rep = check_assumptions(inst, singular_values(inst.A))
        assert rep.alpha == pytest.approx(1.0)
        assert rep.proximate_ok
        assert rep.spectral_ok
        assert rep.significant_ok  # rank <= k tail vanishes
        assert rep.overall_ok

    def test_duplicate_vertex_fails_separation(self):
        M = np.column_stack([np.ones(4), np.ones(4), np.eye(4)[:, 0]])
        W = np.tile(np.eye(3), (1, 5))
        P = np.tile(M, (1, 5))
        inst = SimplexInstance(M, dense_to_csc(P), W, 0.0, 0.2, "clustering", 0)
        assert inst.P.tobytes() == P.tobytes()
        rep = check_assumptions(inst, singular_values(inst.A))
        assert rep.alpha <= 1e-10

    def test_golden_lda_report(self):
        """Frozen first-run report for the moderate-document fixture:
        proximity holds, the two spectral conditions honestly fail."""
        inst = gen_lda(d=500, n=5000, k=5, m=200, seed=42)
        rep = check_assumptions(inst, singular_values(inst.A))
        assert inst.sigma == pytest.approx(0.0109760550836, rel=1e-6)
        assert inst.delta == pytest.approx(0.151579396108, rel=1e-9)
        assert rep.alpha == pytest.approx(0.923600694052, rel=1e-9)
        assert rep.proximate_ok
        assert int(rep.proximate_counts.min()) == 800
        assert not rep.spectral_ok
        assert rep.spectral_lhs == pytest.approx(0.0281920197926, rel=1e-6)
        assert rep.spectral_rhs == pytest.approx(7.61676013465e-08, rel=1e-6)
        assert rep.significant_ok is False
        assert rep.gap_ratio == pytest.approx(5.11544944521, rel=1e-6)
        assert rep.tail_energy_ratio == pytest.approx(44.6559794116, rel=1e-6)
        assert rep.phi == pytest.approx(0.6301056, rel=1e-9)

    def test_oversized_instance_marks_a4_unchecked(self):
        # the dense oracle refuses the instance, so the caller passes no spectrum
        d, n = 4100, 4200
        A = build_csc([(0, 0, 1.0), (1, 1, 1.0)], d, n)
        M = np.eye(d)[:, :2]
        W = np.zeros((2, n))
        W[0, 0] = W[1, 1] = 1.0  # P holds M's columns first, zeros after
        inst = SimplexInstance(M, A, W, 0.01, 0.001, "clustering", 0)
        with pytest.raises(ValueError, match="exact SVD refused"):
            singular_values(inst.A)
        rep = check_assumptions(inst, None)
        assert rep.significant_ok is None


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: gen_lda(d=60, n=150, k=3, m=80, seed=11),
            lambda: gen_mmsb(n=150, d=40, k=3, p=0.4, q=0.1, seed=11),
            lambda: gen_clusters_adversarial(
                d=30, n=150, k=3, sigma_target=1e-4, delta=0.1,
                adversary_fraction=0.2, seed=11,
            ),
        ],
        ids=["lda", "mmsb", "clustering"],
    )
    def test_latent_points_inside_hull(self, maker):
        inst = maker()
        # exact factorization when weights are recorded
        np.testing.assert_allclose(inst.P, inst.M @ inst.W, atol=1e-8)
        assert np.all(inst.W >= -1e-12)
        np.testing.assert_allclose(inst.W.sum(axis=0), 1.0, atol=1e-8)
        # independent hull check on a few columns
        rng = np.random.default_rng(0)
        for j in rng.choice(inst.P.shape[1], size=5, replace=False):
            assert hull_residual(inst.M, inst.P[:, j]) <= 1e-6

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: gen_lda(d=60, n=150, k=3, m=80, seed=13),
            lambda: gen_mmsb(n=150, d=40, k=4, p=0.4, q=0.1, seed=13),
        ],
        ids=["lda", "mmsb"],
    )
    def test_latent_matrix_has_rank_k(self, maker):
        inst = maker()
        s = singular_values(dense_to_csc(inst.P))
        assert s[inst.k] <= 1e-8 * s[0]

    def test_subset_smoothing_bound_small_scale(self):
        inst = gen_lda(d=60, n=300, k=3, m=50, seed=17)
        rng = np.random.default_rng(5)
        from simplexi.sparsemat import column_subset_mean

        for _ in range(200):
            size = int(rng.integers(1, 301))
            S = rng.choice(300, size=size, replace=False)
            diff = column_subset_mean(inst.A, S) - inst.P[:, S].mean(axis=1)
            bound = inst.sigma * np.sqrt(300 / size)
            assert np.linalg.norm(diff) <= bound + 1e-9

    def test_latent_rank_k_singular_value_floor(self):
        """Diagnostic consequence of vertex separation: with floor(delta n)
        near-copies of each vertex, sigma_k(P) clears the smoothed-vertex
        lower level sqrt(delta n) sigma_k(M) - 4 sigma sqrt(k n / delta)."""
        inst = gen_clusters_adversarial(
            d=60, n=1500, k=4, sigma_target=1e-6, delta=0.1,
            adversary_fraction=0.2, seed=29,
        )
        sM = singular_values(dense_to_csc(inst.M))
        sP = singular_values(dense_to_csc(inst.P))
        n = 1500
        lower = (
            np.sqrt(np.floor(inst.delta * n)) * sM[inst.k - 1]
            - 4 * inst.sigma * np.sqrt(inst.k * n / inst.delta)
        )
        if lower > 0:
            assert sP[inst.k - 1] >= lower

    def test_fit_delta_matches_proximity(self):
        inst = gen_lda(d=60, n=300, k=3, m=80, seed=19)
        # the fitted delta itself passes the proximity count
        radius = 4 * inst.sigma / np.sqrt(inst.delta)
        dists = np.linalg.norm(inst.P[:, :, None] - inst.M[:, None, :], axis=0)
        counts = (dists <= radius).sum(axis=0)
        assert np.all(counts >= int(np.floor(inst.delta * 300)))


class TestInstanceIO:
    def test_roundtrip(self, tmp_path):
        inst = gen_lda(d=20, n=40, k=3, m=30, seed=23)
        save_instance(inst, str(tmp_path / "inst"))
        back = load_instance(str(tmp_path / "inst"))
        assert not (tmp_path / "inst" / "P.txt").exists()
        np.testing.assert_array_equal(back.M, inst.M)
        assert back.P.tobytes() == inst.P.tobytes()  # derived from M and W
        np.testing.assert_array_equal(back.A.toarray(), inst.A.toarray())
        np.testing.assert_array_equal(back.W, inst.W)
        assert back.sigma == inst.sigma
        assert back.delta == inst.delta
        assert back.model_tag == inst.model_tag
        assert back.seed == inst.seed
        assert back.params["m"] == 30

    @pytest.mark.parametrize("name, shape, message", [
        ("M", (19, 3), "has 19 rows, but A is 20x40"),
        ("W", (2, 40), "is 2x40, but M has 3 columns and A has 40"),
    ])
    def test_block_shape_must_fit_a(self, tmp_path, name, shape, message):
        inst = gen_lda(d=20, n=40, k=3, m=30, seed=23)
        save_instance(inst, str(tmp_path / "inst"))
        path = tmp_path / "inst" / f"{name}.txt"
        with open(path, "w") as f:
            save_dense_block(name, np.zeros(shape), f)
        with pytest.raises(ValueError) as info:
            load_instance(str(tmp_path / "inst"))
        assert str(info.value) == f"{path} {message}"
