import os

import numpy as np
import pytest
import scipy.sparse as sp

from simplexi.sparsemat import SparseColMatrix, from_scipy

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def dense_to_csc(D) -> SparseColMatrix:
    """Exact CSC copy of a dense array (zeros dropped)."""
    return from_scipy(sp.csc_array(np.asarray(D, dtype=np.float64)))


def random_sparse(d, n, density, seed, values="uniform") -> SparseColMatrix:
    """Seeded random sparse matrix for property tests."""
    rng = np.random.default_rng(seed)
    nnz = int(round(density * d * n))
    rows = rng.integers(0, d, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    if values == "uniform":
        vals = rng.uniform(0.2, 1.0, size=nnz)
    else:
        vals = np.ones(nnz)
    m = sp.coo_array((vals, (rows, cols)), shape=(d, n))
    return from_scipy(m)


def full_Z(fac, n) -> np.ndarray:
    """The n x k factor Z = A^T Y of ``RankKFactors``, with the zero rows of
    the columns outside ``fac.live`` put back."""
    Z = np.zeros((n, fac.Z.shape[1]))
    Z[fac.live] = fac.Z
    return Z


def spectrum_matrix(d, n, s, seed):
    """Dense d x n matrix with prescribed singular values s (descending).

    Returns (dense, U, V) with A = U diag(s) V^T, U and V orthonormal.
    """
    rng = np.random.default_rng(seed)
    s = np.asarray(s, dtype=np.float64)
    r = s.size
    U = np.linalg.qr(rng.standard_normal((d, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (U * s) @ V.T, U, V


@pytest.fixture(scope="session")
def email_fixture_path() -> str:
    return os.path.join(FIXTURES, "email_eu_core.txt")


def duplicated_vertex_instance(d, k, n, delta, seed, noise=0.0):
    """Noise-free (or lightly noised) instance whose k vertices are each
    repeated in exactly floor(delta * n) identical columns; remaining
    columns are strict interior points.

    Returns (A, M, P).
    """
    rng = np.random.default_rng(seed)
    M = np.linalg.qr(rng.standard_normal((d, k)))[0]
    s = int(np.floor(delta * n))
    cols = []
    for ell in range(k):
        cols.extend([M[:, ell]] * s)
    while len(cols) < n:
        w = rng.dirichlet(np.ones(k)) * 0.7 + 0.3 / k  # bounded away from corners
        cols.append(M @ (w / w.sum()))
    P = np.column_stack(cols[:n])
    A = P
    if noise > 0:
        E = rng.standard_normal(P.shape)
        E *= noise * np.sqrt(n) / np.linalg.svd(E, compute_uv=False)[0]
        A = P + E
    return dense_to_csc(A), M, P
