import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexi.subspace import (
    Basis,
    extend_basis,
    orthonormalize,
    project_out,
    sin_theta,
)


def basis_from(cols) -> Basis:
    return orthonormalize(np.asarray(cols, dtype=np.float64))


class TestOrthonormalize:
    def test_two_axes(self):
        B = orthonormalize([np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert B.r == 2
        np.testing.assert_allclose(B.cols.T @ B.cols, np.eye(2), atol=1e-12)

    def test_dependent_vectors_dropped(self):
        v = np.array([1.0, 2.0, 3.0])
        B = orthonormalize([v, 2 * v])
        assert B.r == 1

    def test_span_preserved(self):
        v1 = np.array([1.0, 1.0, 0.0])
        v2 = np.array([1.0, 0.0, 0.0])
        B = orthonormalize([v1, v2])
        assert B.r == 2
        gram = B.cols.T @ B.cols
        assert abs(np.linalg.det(gram) - 1.0) <= 1e-12
        for v in (v1, v2):
            resid = project_out(v, B)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)

    def test_all_zero_gives_empty_basis(self):
        B = orthonormalize([np.zeros(4), np.zeros(4)])
        assert B.is_empty

    def test_near_dependent_dropped_at_tolerance(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1e-12])
        B = orthonormalize([v1, v2])
        assert B.r == 1


class TestExtendBasis:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 40),
        count=st.integers(1, 8),
        dependent_at=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_orthonormalize_bit_for_bit(self, d, count, dependent_at, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for _ in range(count)]
        # a combination of the vectors before it, or zero when there are none
        at = min(dependent_at, count)
        vectors.insert(at, sum((c * v for c, v in zip(rng.standard_normal(at), vectors[:at])),
                               np.zeros(d)))
        U = Basis(np.zeros((d, 0)))
        for t, v in enumerate(vectors, start=1):
            before = U.r
            U = extend_basis(U, v)
            full = orthonormalize(vectors[:t])
            assert U.cols.shape == full.cols.shape
            assert U.cols.tobytes() == full.cols.tobytes()
            if t == at + 1:
                assert U.r == before  # the dependent vector is dropped

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            extend_basis(orthonormalize([np.ones(3)]), np.ones(4))


class TestSinTheta:
    def test_identical_subspaces(self):
        # sqrt(1 - c^2) resolves zero angles only to sqrt(eps)
        rng = np.random.default_rng(0)
        F = basis_from(rng.standard_normal((6, 3)))
        assert sin_theta(F, F) <= 1e-7

    def test_orthogonal_lines(self):
        F = basis_from([[1.0], [0.0]])
        G = basis_from([[0.0], [1.0]])
        assert sin_theta(F, G) == pytest.approx(1.0)

    def test_analytic_angle(self):
        theta = np.pi / 6
        F = basis_from([[1.0], [0.0]])
        G = basis_from([[np.cos(theta)], [np.sin(theta)]])
        assert sin_theta(F, G) == pytest.approx(0.5, abs=1e-12)

    def test_larger_into_smaller_is_one(self):
        rng = np.random.default_rng(1)
        F = basis_from(rng.standard_normal((8, 3)))
        G = basis_from(rng.standard_normal((8, 2)))
        assert sin_theta(F, G) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry_equal_dimensions(self, seed):
        rng = np.random.default_rng(seed)
        F = basis_from(rng.standard_normal((10, 4)))
        G = basis_from(rng.standard_normal((10, 4)))
        assert abs(sin_theta(F, G) - sin_theta(G, F)) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_triangle_inequality_equal_dimensions(self, seed):
        rng = np.random.default_rng(100 + seed)
        F = basis_from(rng.standard_normal((12, 3)))
        G = basis_from(rng.standard_normal((12, 3)))
        H = basis_from(rng.standard_normal((12, 3)))
        assert sin_theta(F, H) <= sin_theta(F, G) + sin_theta(G, H) + 1e-8

    def test_empty_basis_rejected(self):
        F = basis_from([[1.0], [0.0]])
        with pytest.raises(ValueError):
            sin_theta(F, orthonormalize([np.zeros(2)]))


class TestWedinBound:
    """Perturbation bound: the top-m subspace of R and the top-l subspace
    of S = R + E are within ||E||_2 / (sigma_m(R) - sigma_{l+1}(S))."""

    @pytest.mark.parametrize("seed", range(50))
    def test_wedin_on_random_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        d, n = 12, 15
        R = rng.standard_normal((d, n))
        sR = np.linalg.svd(R, compute_uv=False)
        m = int(rng.integers(1, 4))
        ell = int(rng.integers(m, 6))
        # perturbation kept below the spectral gap so gamma > 0
        E = rng.standard_normal((d, n))
        E *= 0.1 * sR[m - 1] / np.linalg.svd(E, compute_uv=False)[0]
        S = R + E
        sS = np.linalg.svd(S, compute_uv=False)
        gamma = sR[m - 1] - (sS[ell] if ell < min(d, n) else 0.0)
        if gamma <= 0:
            pytest.skip("no spectral gap for this draw")
        UR = np.linalg.svd(R)[0][:, :m]
        US = np.linalg.svd(S)[0][:, :ell]
        normE = np.linalg.svd(E, compute_uv=False)[0]
        assert sin_theta(Basis(UR), Basis(US)) <= normE / gamma + 1e-8


class TestProjectOut:
    def test_empty_basis_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        out = project_out(v, orthonormalize([np.zeros(3)]))
        np.testing.assert_array_equal(out, v)

    def test_vector_in_span_vanishes(self):
        rng = np.random.default_rng(4)
        B = basis_from(rng.standard_normal((9, 3)))
        v = B.cols @ rng.standard_normal(3)
        assert np.linalg.norm(project_out(v, B)) <= 1e-10 * np.linalg.norm(v)

    def test_axis_case(self):
        B = basis_from([[1.0], [0.0]])
        np.testing.assert_allclose(project_out(np.array([1.0, 1.0]), B), [0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(300 + seed)
        B = basis_from(rng.standard_normal((30, 5)))
        v = rng.standard_normal(30)
        r = project_out(v, B)
        assert np.max(np.abs(B.cols.T @ r)) <= 1e-10 * np.linalg.norm(v)
