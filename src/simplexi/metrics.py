"""Evaluation: vertex matching, convex-hull least-squares loss, and the
spectral-residual and subset-smoothing verification checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp

from .learner import VertexEstimates
from .sketch import _tail_norms
from .sparsemat import SparseColMatrix, left_apply, right_apply, spectral_norm
from .subspace import orthonormalize

__all__ = [
    "MatchResult",
    "BenchRecord",
    "ReductionCheck",
    "match_vertices",
    "ls_loss",
    "project_columns_to_simplex",
    "reduction_check",
    "subset_smoothing_check",
]

VertexSource = Union[VertexEstimates, np.ndarray, Sequence[np.ndarray]]

DENSE_RESIDUAL_LIMIT = 50_000_000  # d * n up to which reduction_check densifies A
SMOOTHING_TRIALS = 1000  # random subsets subset_smoothing_check draws by default


def _vertex_matrix(vertices: VertexSource) -> np.ndarray:
    if isinstance(vertices, VertexEstimates):
        return vertices.vertices
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    return np.column_stack([np.asarray(v, dtype=np.float64) for v in vertices])


@dataclass(frozen=True)
class MatchResult:
    """Best pairing of estimated vertices to true vertices.

    ``permutation[t]`` is the true-vertex column matched to estimate t
    under the minimum-total-cost assignment; ``bound`` is the error
    budget 300 k^4 sigma / (alpha sqrt(delta)) when those quantities are
    supplied, else NaN.
    """

    permutation: np.ndarray
    per_vertex_error: np.ndarray
    max_error: float
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark grid cell: phase timings plus optional losses."""

    label: str
    wall_time_sketch: float
    wall_time_topk: float
    loss_sketch: float
    loss_topk: float
    seed: int


@dataclass(frozen=True)
class ReductionCheck:
    """Squared spectral residual of projecting A onto the recovered
    vertex span, against the rank-k tail budget."""

    spectral_residual: float  # ||A - P_B A||_2^2
    lra_bound: float  # ||A - A_k||_2^2 + n^(-1/3) ||A - A_k||_F^2
    passes: bool


def match_vertices(
    est: VertexSource,
    M: np.ndarray,
    sigma: float | None = None,
    alpha: float | None = None,
    delta: float | None = None,
) -> MatchResult:
    """Match estimates to true vertices by exact minimum-cost assignment."""
    # imported here, not with the module: loading scipy.optimize more than
    # doubles the time of ``import simplexi``, and this is its only use
    from scipy.optimize import linear_sum_assignment

    V = _vertex_matrix(est)
    M = np.asarray(M, dtype=np.float64)
    if V.shape[0] != M.shape[0] or V.shape[1] != M.shape[1]:
        raise ValueError(f"estimate block {V.shape} does not match vertex block {M.shape}")
    k = M.shape[1]
    cost = np.linalg.norm(V[:, :, None] - M[:, None, :], axis=0)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    errors = cost[rows, cols][np.argsort(rows)]
    max_error = float(errors.max()) if k else 0.0
    if sigma is not None and alpha is not None and delta is not None and alpha > 0:
        bound = 300.0 * float(k) ** 4 * sigma / (alpha * np.sqrt(delta))
    else:
        bound = float("nan")
    within = bool(max_error <= bound) if np.isfinite(bound) else False
    return MatchResult(perm, errors, max_error, bound, within)


def project_columns_to_simplex(W: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column onto the probability simplex.

    Exact sort-based rule: with the column sorted descending, the active
    support is the largest prefix whose shifted average stays below its
    smallest element.
    """
    W = np.asarray(W, dtype=np.float64)
    k, s = W.shape
    U = -np.sort(-W, axis=0)
    css = np.cumsum(U, axis=0) - 1.0
    denom = np.arange(1, k + 1, dtype=np.float64)[:, None]
    cond = U - css / denom > 0
    rho = k - 1 - np.argmax(cond[::-1, :], axis=0)
    tau = css[rho, np.arange(s)] / (rho + 1.0)
    return np.maximum(W - tau[None, :], 0.0)


def ls_loss(
    A: SparseColMatrix,
    vertices: VertexSource,
    sample: int,
    seed: int = 0,
) -> float:
    """Squared residual of fitting sampled columns inside the vertex hull.

    For each sampled column solve min_w ||A_j - V w||^2 over the
    probability simplex by projected gradient (200 iterations, step
    1/||V^T V||_2), then scale the summed residual by n / sample.
    """
    V = _vertex_matrix(vertices)
    d, n = A.shape
    if V.shape[0] != d:
        raise ValueError(f"vertices have length {V.shape[0]}, the instance has d={d}")
    if not 1 <= sample <= n:
        raise ValueError(f"sample={sample} out of range for n={n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=sample, replace=False))
    X = A._scipy[:, idx].toarray()

    k = V.shape[1]
    G = V.T @ V
    L = float(np.linalg.eigvalsh(G)[-1]) if k else 0.0
    if L == 0.0:
        return float(np.sum(X * X) * (n / sample))
    VtX = V.T @ X
    W = np.full((k, sample), 1.0 / k)
    step = 1.0 / L
    for _ in range(200):
        grad = G @ W - VtX
        W = project_columns_to_simplex(W - step * grad)
    R = X - V @ W
    return float(np.sum(R * R) * (n / sample))


def reduction_check(
    A: SparseColMatrix, est: VertexSource, k: int, lam: np.ndarray
) -> ReductionCheck:
    """Spectral-residual test of the recovered vertex span.

    Passes when the squared spectral norm of A minus its projection onto
    the span of the recovered vertices is at most the rank-k tail budget
    ||A - A_k||_2^2 + n^(-1/3) ||A - A_k||_F^2.  ``lam`` holds A's
    squared singular values, nonincreasing, from the dense spectrum
    oracle (``sketch._squared_singular_values``).  Above
    ``DENSE_RESIDUAL_LIMIT`` entries the residual is applied as an
    operator and its norm comes from ``sparsemat.spectral_norm``."""
    V = _vertex_matrix(est)
    d, n = A.shape
    Q = orthonormalize(V).cols
    spec_tail, frob_tail_sq = _tail_norms(lam, k)
    bound = spec_tail**2 + frob_tail_sq / float(n) ** (1.0 / 3.0)
    floor = 1e-12 * float(np.sum(A.values * A.values))  # rounding allowance

    if d * n <= DENSE_RESIDUAL_LIMIT:
        Ad = A.toarray()
        R = Ad - Q @ (Q.T @ Ad)
        residual = float(np.linalg.svd(R, compute_uv=False)[0]) ** 2
    else:
        top = spectral_norm(
            A.shape,
            lambda x: (lambda w: w - Q @ (Q.T @ w))(right_apply(A, x)),
            lambda y: left_apply(y - Q @ (Q.T @ y), A),
        )
        residual = top * top
    return ReductionCheck(residual, bound, bool(residual <= bound + floor))


def _smoothing_subsets(n: int, trials: int, seed: int) -> list[np.ndarray]:
    """The seeded column subsets: log-uniform sizes in [1, n], each drawn
    without replacement, in draw order."""
    rng = np.random.default_rng(seed)
    subsets = []
    for _ in range(trials):
        size = int(np.exp(rng.uniform(0.0, np.log(n))))
        size = min(max(size, 1), n)
        subsets.append(rng.choice(n, size=size, replace=False))
    return subsets


def _subset_deviations(
    A: SparseColMatrix, P: np.ndarray, subsets: list[np.ndarray]
) -> np.ndarray:
    """||mean_S(A) - mean_S(P)|| sqrt(|S| / n) for every subset S.

    All subset sums come from one product of a trials x n 0/1 indicator
    with the dense residual (A - P)^T.  scipy adds each sum row by row
    in the order of S, with no threads, and taking the difference
    before summing avoids the cancellation of subtracting two means.
    """
    n = A.cols
    sizes = np.array([S.size for S in subsets], dtype=np.int64)
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    ind = sp.csr_array(
        (np.ones(indptr[-1]), np.concatenate(subsets), indptr), shape=(sizes.size, n)
    )
    Et = A._scipy.T.toarray()  # n x d, C order: one contiguous row per column of A
    Et -= P.T
    sums = ind @ Et
    return np.linalg.norm(sums, axis=1) / sizes * np.sqrt(sizes / n)


def subset_smoothing_check(
    A: SparseColMatrix,
    P: np.ndarray,
    sigma: float,
    trials: int = SMOOTHING_TRIALS,
    seed: int = 0,
) -> float:
    """Worst noise-shrinkage ratio over random column subsets.

    For each seeded random subset S, the averaged observation column can
    deviate from the averaged latent column by at most
    sigma sqrt(n / |S|); this returns the largest measured
    ||A_S - P_S|| sqrt(|S| / n) / sigma, which stays at or below 1 when
    sigma is the true spectral norm of (A - P) / sqrt(n).  With
    ``trials <= 0`` it is 0; with ``sigma <= 0`` it is inf when any
    deviation exceeds 1e-15, else 0.

    Cost: O(sum |S| d + nnz(A) + d n) time, and one extra d x n array
    holding A - P.
    """
    P = np.asarray(P, dtype=np.float64)
    d, n = A.shape
    if P.shape != (d, n):
        raise ValueError(f"shape mismatch: A is {A.shape}, P is {P.shape}")
    if trials <= 0:
        return 0.0
    worst = float(_subset_deviations(A, P, _smoothing_subsets(n, trials, seed)).max())
    if sigma > 0:
        return float(worst / sigma)
    return float("inf") if worst > 1e-15 else 0.0
