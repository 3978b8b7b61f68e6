import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import simplexi.sketch as sketch_mod
from simplexi.models import gen_bernoulli
from simplexi.sketch import (
    apply_countsketch,
    make_countsketch,
    mixed_lra,
    singular_values,
    subspace_power,
    svd_tail_norms,
)
from simplexi.sparsemat import build_csc, from_scipy
from simplexi.subspace import Basis, sin_theta

from conftest import dense_to_csc, full_Z, random_sparse, spectrum_matrix


class TestMakeCountsketch:
    def test_single_bucket(self):
        S = make_countsketch(4, 1, seed=0)
        assert np.all(S.bucket == 0)
        assert set(np.unique(S.sign)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = make_countsketch(50, 7, seed=3)
        b = make_countsketch(50, 7, seed=3)
        np.testing.assert_array_equal(a.bucket, b.bucket)
        np.testing.assert_array_equal(a.sign, b.sign)

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            make_countsketch(4, 0, seed=0)

    def test_bucket_loads_concentrate(self):
        # balls-in-bins: 1000 balls in 100 bins, expected load 10
        worst = 0
        for seed in range(100):
            S = make_countsketch(1000, 100, seed=seed)
            worst = max(worst, int(np.bincount(S.bucket, minlength=100).max()))
        assert worst <= 40


class TestApplyCountsketch:
    def test_permutation_sketch(self):
        A = dense_to_csc(np.eye(2))
        S = make_countsketch(2, 2, seed=0)
        object.__setattr__(S, "bucket", np.array([0, 1]))
        object.__setattr__(S, "sign", np.array([1.0, 1.0]))
        np.testing.assert_array_equal(apply_countsketch(A, S), np.eye(2))

    def test_sign_flip(self):
        A = dense_to_csc(np.eye(2))
        S = make_countsketch(2, 2, seed=0)
        object.__setattr__(S, "bucket", np.array([0, 1]))
        object.__setattr__(S, "sign", np.array([-1.0, 1.0]))
        out = apply_countsketch(A, S)
        np.testing.assert_array_equal(out[:, 0], [-1.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_sketch_matrix(self, seed):
        A = random_sparse(3, 5, 0.5, seed=seed)
        S = make_countsketch(5, 3, seed=seed)
        dense_sketch = np.zeros((5, 3))
        dense_sketch[np.arange(5), S.bucket] = S.sign
        np.testing.assert_allclose(apply_countsketch(A, S), A.toarray() @ dense_sketch)

    def test_blocked_path_matches_sparse_product(self):
        # more than 2^18 entries, so the scatter runs in column blocks; column
        # 5 is full, longer than a block so a block of its own, and follows
        # two empty columns, and empty runs sit in the middle and at the end
        rng = np.random.default_rng(11)
        d, n, c = (1 << 18) + 1000, 40, 1
        filled = [j for j in range(n) if j not in (3, 4, 5) and not 10 <= j < 15 and j < 35]
        rows = [np.arange(d)] + [rng.integers(0, d, size=20_000) for _ in filled]
        cols = [np.full(d, 5)] + [np.full(20_000, j) for j in filled]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        A = from_scipy(
            sp.coo_array((rng.uniform(-1.0, 1.0, size=rows.size), (rows, cols)), shape=(d, n))
        )
        assert A.nnz > 2 * d * c and A.column_nnz()[5] == d
        S = make_countsketch(n, c, seed=4)
        S_mat = sp.csc_array((S.sign, (np.arange(n), S.bucket)), shape=(n, c))
        np.testing.assert_array_equal(apply_countsketch(A, S), (A._scipy @ S_mat).toarray())

    @pytest.mark.parametrize("n", [500, 1600])
    def test_wide_sketch_matches_sparse_product(self, n):
        # the d x c output is larger than a block, and both inputs span
        # several blocks; each output entry still adds its terms in column
        # order, as the sparse product does
        d, c = 1000, 300
        A = random_sparse(d, n, 0.8, seed=n)
        assert d * c > 1 << 18 and A.nnz > 1 << 18
        S = make_countsketch(n, c, seed=5)
        S_mat = sp.csc_array((S.sign, (np.arange(n), S.bucket)), shape=(n, c))
        np.testing.assert_array_equal(apply_countsketch(A, S), (A._scipy @ S_mat).toarray())

    def test_scatter_memory_is_block_sized(self):
        # beyond the d x c output, the scatter holds two arrays of one block's
        # entries and a few n-long ones, however large nnz(A) and d * c are
        d, n, c = 1000, 1600, 300
        A = random_sparse(d, n, 0.8, seed=n)
        assert d * c > 1 << 18 and A.nnz >= d * c
        S = make_countsketch(n, c, seed=5)
        tracemalloc.start()
        try:
            apply_countsketch(A, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * d * c + 16 * (1 << 18) + 16 * n + (1 << 20)

    def test_dimension_mismatch(self):
        A = random_sparse(3, 5, 0.5, seed=0)
        with pytest.raises(ValueError):
            apply_countsketch(A, make_countsketch(4, 3, seed=0))


class TestExactTopkSvd:
    """The dense spectrum oracle: ``singular_values`` and ``svd_tail_norms``."""

    def test_diagonal(self):
        A = dense_to_csc(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(singular_values(A), [3.0, 2.0, 1.0], rtol=1e-12)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        s = singular_values(dense_to_csc(np.outer(u, v)))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert s[1] <= 1e-12 * s[0]

    def test_golden_ratio_singular_values(self):
        # eigenvalues of A^T A for [[1,1],[0,1]] are (3 +- sqrt(5)) / 2
        A = dense_to_csc([[1.0, 1.0], [0.0, 1.0]])
        s = singular_values(A)
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(s, [phi, 1.0 / phi], rtol=1e-12)
        np.testing.assert_allclose(s, [1.618034, 0.618034], atol=5e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lapack_reference(self, seed):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        Ad = rng.standard_normal((d, n))
        k = int(rng.integers(1, min(d, n)))
        A = dense_to_csc(Ad)
        ref = np.linalg.svd(Ad, compute_uv=False)
        np.testing.assert_allclose(singular_values(A), ref, rtol=1e-9)
        spec, frob_sq = svd_tail_norms(A, k)
        assert spec == pytest.approx(ref[k], rel=1e-9)
        assert frob_sq == pytest.approx(float(np.sum(ref[k:] ** 2)), rel=1e-9)

    @pytest.mark.parametrize("p", [0.3, 0.01])
    def test_gram_routes_match_lapack_reference(self, p):
        # d * n above the direct-SVD size: p = 0.3 takes the dense Gram
        # product, p = 0.01 the sparse one
        A = gen_bernoulli(2001, 2100, p, seed=11)
        ref = np.linalg.svd(A.toarray(), compute_uv=False)
        s = singular_values(A)
        # the Gram route resolves singular values only down to sqrt(eps) * sigma_1
        resolved = ref > 1e-6 * ref[0]
        np.testing.assert_allclose(s[resolved], ref[resolved], rtol=1e-10)
        np.testing.assert_allclose(s, ref, rtol=0, atol=1e-6 * ref[0])

    def test_refuses_oversized_input(self):
        A = build_csc([(0, 0, 1.0)], 4100, 4100)
        with pytest.raises(ValueError, match="refused"):
            singular_values(A)
        with pytest.raises(ValueError, match="refused"):
            svd_tail_norms(A, 1)

    def test_tail_norms(self):
        s = np.array([4.0, 3.0, 2.0, 1.0])
        Ad, _, _ = spectrum_matrix(6, 8, s, seed=0)
        spec, frob_sq = svd_tail_norms(dense_to_csc(Ad), 2)
        assert spec == pytest.approx(2.0, rel=1e-10)
        assert frob_sq == pytest.approx(5.0, rel=1e-10)
        all_s = singular_values(dense_to_csc(Ad))
        np.testing.assert_allclose(all_s[:4], s, rtol=1e-10)


class TestMixedLra:
    def test_exact_rank_k_input_has_zero_residual(self):
        rng = np.random.default_rng(0)
        k = 4
        Ad = rng.standard_normal((30, 6)) @ rng.standard_normal((6, 200))
        Ad = Ad[:, :200]
        A = dense_to_csc(rng.standard_normal((30, k)) @ rng.standard_normal((k, 200)))
        fac = mixed_lra(A, k, seed=1)
        res = np.linalg.norm(A.toarray() - fac.Y @ full_Z(fac, A.cols).T, ord=2)
        top = np.linalg.norm(A.toarray(), ord=2)
        assert res <= 1e-8 * top

    def test_tiny_diagonal_with_one_bucket(self):
        # c = k^2 = 1 collapses both columns into one sketch direction; the
        # rank-1 residual must still respect the mixed bound with the
        # measured tail (exact best rank-1 residual is 1)
        A = dense_to_csc(np.diag([10.0, 1.0]))
        fac = mixed_lra(A, 1, seed=0)
        res = np.linalg.norm(A.toarray() - fac.Y @ full_Z(fac, A.cols).T, ord=2)
        spec_tail, frob_tail = svd_tail_norms(A, 1)
        # epsilon = 1 desk bound
        assert res**2 <= 2 * spec_tail**2 + frob_tail + 1e-9

    def test_orthonormal_Y_invariant(self):
        for seed in range(10):
            A = random_sparse(40, 300, 0.05, seed=seed)
            k = 2 + seed % 5
            fac = mixed_lra(A, k, seed=seed)
            np.testing.assert_allclose(
                fac.Y.T @ fac.Y, np.eye(fac.Y.shape[1]), atol=1e-8
            )

    def test_rank_deficient_flag(self):
        A = dense_to_csc(np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 2.0, 1.0]))
        fac = mixed_lra(A, 3, seed=0)
        assert fac.rank_deficient
        assert fac.k == 1

    @pytest.mark.parametrize(
        "shape, density, k, streaming",
        [
            ((25, 120), 0.1, 3, True),  # c = 9 <= cap 13
            ((60, 300), 0.5, 5, True),  # c = 25 > cap 15
            ((200, 2000), 0.005, 3, False),
            ((200, 2000), 0.005, 5, False),
        ],
        ids=["stream-c9", "stream-c25", "aat-c9", "aat-c25"],
    )
    def test_z_equals_projected_matrix(self, monkeypatch, shape, density, k, streaming):
        # streaming: Z comes from the A^T Q product of the Gram step; the
        # d x d route takes its own pass for Z
        routes = []
        gram = sketch_mod._projected_gram

        def spy(*args):
            G, Wt = gram(*args)
            routes.append(Wt is not None)
            return G, Wt

        monkeypatch.setattr(sketch_mod, "_projected_gram", spy)
        A = random_sparse(*shape, density, seed=7)
        fac = mixed_lra(A, k, seed=7)
        assert routes == [streaming] and fac.k == k
        np.testing.assert_allclose(full_Z(fac, A.cols), A.toarray().T @ fac.Y, atol=1e-10)

    def test_rejects_bad_k(self):
        A = random_sparse(10, 20, 0.2, seed=0)
        with pytest.raises(ValueError):
            mixed_lra(A, 0)
        with pytest.raises(ValueError):
            mixed_lra(A, 11)

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_bound_spot_check(self, seed):
        """Mixed spectral-Frobenius bound at epsilon = 1 against the oracle."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(30, 200))
        n = int(rng.integers(100, 1000))
        k = int(rng.integers(2, 11))
        A = random_sparse(d, n, 0.02, seed=seed, values="ones")
        fac = mixed_lra(A, k, seed=seed)
        spec_tail, frob_tail = svd_tail_norms(A, k)
        res = np.linalg.norm(A.toarray() - fac.Y @ full_Z(fac, A.cols).T, ord=2)
        assert res**2 <= 2 * spec_tail**2 + frob_tail / k + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_flat_tail_implies_pure_spectral_bound(self, seed):
        """When the tail energy is at most twice the spectral tail, the
        Frobenius slack folds into a plain factor-4 spectral bound."""
        rng = np.random.default_rng(400 + seed)
        d = int(rng.integers(40, 150))
        n = int(rng.integers(200, 800))
        k = int(rng.integers(3, 9))
        s = np.zeros(min(d, n))
        s[:k] = np.sort(rng.uniform(8.0, 20.0, k))[::-1]
        s[k:] = 0.7 ** np.arange(s.size - k)
        Ad, _, _ = spectrum_matrix(d, n, s, seed=400 + seed)
        A = dense_to_csc(Ad)
        spec_tail, frob_tail = svd_tail_norms(A, k)
        assert frob_tail <= 2 * spec_tail**2  # flat-tail premise
        fac = mixed_lra(A, k, seed=seed)
        res = np.linalg.norm(Ad - fac.Y @ full_Z(fac, A.cols).T, ord=2)
        assert res**2 <= 4 * spec_tail**2


class TestSubspacePower:
    def test_dominant_axis(self):
        A = dense_to_csc(np.diag([10.0, 1.0, 0.1]))
        res = subspace_power(A, 1, T=10, seed=0)
        e1 = Basis(np.eye(3)[:, :1])
        assert sin_theta(Basis(res.basis), e1) <= 1e-6

    def test_degenerate_spectrum_returns_orthonormal_basis(self):
        # all singular values equal: nothing distinguishes a subspace, but
        # the basis must still be orthonormal
        rng = np.random.default_rng(1)
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        A = dense_to_csc(Q)
        res = subspace_power(A, 3, T=8, seed=2)
        assert res.basis.shape == (8, 3)
        np.testing.assert_allclose(res.basis.T @ res.basis, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_to_oracle_subspace_at_gap_half(self, seed):
        rng = np.random.default_rng(seed)
        d, n, k = 40, 60, 3
        s = np.concatenate([[4.0, 3.5, 3.0], 1.5 * 0.7 ** np.arange(d - k)])
        Ad, U, _ = spectrum_matrix(d, n, s, seed=seed)
        A = dense_to_csc(Ad)
        T = int(np.ceil(np.log2(d))) + 20
        res = subspace_power(A, k, T=T, seed=seed)
        assert sin_theta(Basis(res.basis), Basis(U[:, :k])) <= 1e-4

    def test_deterministic(self):
        A = random_sparse(20, 30, 0.3, seed=5)
        a = subspace_power(A, 2, T=5, seed=9)
        b = subspace_power(A, 2, T=5, seed=9)
        np.testing.assert_array_equal(a.basis, b.basis)

    def test_rank_deficiency_redraw(self):
        # rank-1 matrix cannot support a 3-dim iterate without repair
        A = dense_to_csc(np.outer([1.0, 0.5, 0.25, 0.1], np.ones(6)))
        res = subspace_power(A, 3, T=4, seed=0)
        assert res.redraws > 0
        np.testing.assert_allclose(res.basis.T @ res.basis, np.eye(3), atol=1e-8)


class TestPerIterationContraction:
    def test_contraction_matches_gap_ratio(self):
        """Between consecutive iterates the extremal angle shrinks by about
        (sigma_{k+1} / sigma_k)^2 once the transient has passed."""
        rho = 0.5
        d, n, k = 50, 70, 3
        s = np.concatenate([[4.0, 4.0, 4.0], [4.0 * rho], 0.5 * 0.5 ** np.arange(d - k - 1)])
        Ad, U, _ = spectrum_matrix(d, n, s, seed=11)
        A = dense_to_csc(Ad)
        res = subspace_power(A, k, T=18, seed=11, keep_iterates=True)
        Uk = Basis(U[:, :k])
        sines = [sin_theta(Basis(Q), Uk) for Q in res.iterates]
        # measure inside the clean linear-convergence window, above the
        # sqrt(eps) resolution floor of the sine metric
        ratios = [
            b / a for a, b in zip(sines, sines[1:]) if 1e-7 <= b and a <= 1e-3
        ]
        assert len(ratios) >= 3
        geo = float(np.exp(np.mean(np.log(ratios))))
        assert 0.5 * rho**2 <= geo <= 2.0 * rho**2
        for r in ratios:
            assert r <= rho**2 * 1.3 + 1e-10


class TestRuntimeScaling:
    def test_mixed_lra_scales_linearly_in_nnz(self):
        """Doubling nnz at fixed shape roughly doubles the wall time
        (log-log slope within [0.8, 1.3]).  Sizes start large enough that
        fixed per-call overhead stays negligible; each point is a
        best-of-five and the reported slope is the median over three
        grid sweeps, riding out scheduler jitter on the shared host."""
        d, n, k = 400, 32000, 3
        densities = [0.1, 0.2, 0.4, 0.8]
        matrices = [random_sparse(d, n, density, seed=1) for density in densities]
        mixed_lra(matrices[0], k, seed=1)  # warm-up
        slopes = []
        for _ in range(3):
            sizes, times = [], []
            for A in matrices:
                best = np.inf
                for _ in range(5):
                    t0 = time.perf_counter()
                    mixed_lra(A, k, seed=1)
                    best = min(best, time.perf_counter() - t0)
                sizes.append(A.nnz)
                times.append(best)
            slopes.append(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        slope = float(np.median(slopes))
        assert 0.8 <= slope <= 1.3, f"median slope {slope:.3f} of {slopes}"
