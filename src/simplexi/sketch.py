"""Randomized low-rank approximation.

The fast path sketches the columns of a sparse d x n matrix with a
CountSketch (one signed bucket per column) into a dense d x c block,
compresses that block with a small Gaussian test matrix when the bucket
count exceeds what the final rank needs, and extracts the best rank-k
factors of the projected matrix through a small eigendecomposition.
A is read twice: once by the O(nnz + d c) sketch scatter, which adds
fixed blocks of 2^18 entries into one d x c accumulator and equals the
sparse product A S exactly, and once, at nnz times the working rank,
for the projected Gram matrix, whose m x r product also yields the Z
factor.  Both passes, and every product after the sketch draw, run on
the m columns of A that hold an entry, so an empty column costs a scan
of its column pointer and one bucket draw.  The exact dense singular
values live here too, as the oracle for the top-k mass assumption and
the rank-k tail budget of the reduction check, together with the
classical subspace power iteration used as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparsemat import SparseColMatrix, live_columns

__all__ = [
    "CountSketch",
    "RankKFactors",
    "PowerIterationResult",
    "RankRestoreError",
    "make_countsketch",
    "apply_countsketch",
    "mixed_lra",
    "svd_tail_norms",
    "singular_values",
    "subspace_power",
    "default_power_iters",
]

DENSE_ORACLE_LIMIT = 4000  # refuse the exact SVD when min(d, n) exceeds this
_BLOCK_ENTRIES = 1 << 18  # entries of A per CountSketch scatter block


class RankRestoreError(RuntimeError):
    """Raised when subspace power iteration cannot redraw a full-rank basis."""


@dataclass(frozen=True)
class CountSketch:
    """Signed bucket assignment mapping n input coordinates to c buckets."""

    input_dim: int
    sketch_dim: int
    bucket: np.ndarray  # one bucket index per input coordinate
    sign: np.ndarray  # +-1.0 per input coordinate
    seed: int


@dataclass(frozen=True)
class RankKFactors:
    """Factors of the rank-k approximation B = Y Z^T of a d x n matrix A.

    Y has orthonormal columns.  Z holds the rows of A^T Y for the m
    columns ``live`` of A that hold an entry (row i for column live[i]);
    the row of every other column is zero and is not stored, so Z costs
    O(m k), not O(n k).  If the sketched column space cannot support the
    requested rank, the achievable rank is returned instead and
    ``rank_deficient`` is set.
    """

    Y: np.ndarray  # d x k, orthonormal columns
    Z: np.ndarray  # m x k
    live: np.ndarray  # the m ascending indices of the columns of A with an entry
    k: int
    rank_deficient: bool = False


def make_countsketch(n: int, c: int, seed: int) -> CountSketch:
    """Draw a CountSketch: uniform buckets and uniform signs, seeded."""
    if c < 1:
        raise ValueError("sketch dimension c must be at least 1")
    rng = np.random.default_rng(seed)
    bucket = rng.integers(0, c, size=n)
    # the draw rng.choice([-1.0, 1.0], size=n) makes, without its overhead
    sign = np.array([-1.0, 1.0])[rng.integers(0, 2, size=n)]
    return CountSketch(n, c, bucket, sign, seed)


def apply_countsketch(A: SparseColMatrix, S: CountSketch) -> np.ndarray:
    """Scatter the columns of A into the sketch buckets: returns d x c dense.

    Column j is added, multiplied by sign_j, into output column
    bucket_j.  Runtime is O(nnz(A) + d * c).  Every entry is added with
    ``np.add.at`` straight into one bucket-major c x d accumulator, so
    one column's entries land in one d-long row of it.  The pass walks
    blocks of whole columns holding at most 2^18 entries each (a column
    longer than that is a block of its own), so its temporaries stay
    block-sized whatever nnz(A) and c are; each block's end is found in
    ``col_ptr`` by one binary search, so Python does one step per block
    and no work per column.  Each output entry adds its terms one by
    one in column order, so the result equals the sparse product A S
    exactly.  The result is the transposed view of the c x d
    accumulator, so it is F-ordered.
    """
    if S.input_dim != A.cols:
        raise ValueError(
            f"sketch input dim {S.input_dim} does not match matrix columns {A.cols}"
        )
    d, c = A.rows, S.sketch_dim
    counts = A.column_nnz()
    out = np.zeros(c * d)
    j0 = 0
    while j0 < A.cols:
        lo = A.col_ptr[j0]
        j1 = int(np.searchsorted(A.col_ptr, lo + _BLOCK_ENTRIES, side="right")) - 1
        j1 = max(j0 + 1, j1)
        hi = A.col_ptr[j1]
        flat = np.repeat(S.bucket[j0:j1] * d, counts[j0:j1])
        flat += A.row_idx[lo:hi]
        w = np.repeat(S.sign[j0:j1], counts[j0:j1])
        w *= A.values[lo:hi]
        np.add.at(out, flat, w)
        del flat, w  # free this block's arrays before the next block's exist
        j0 = j1
    return out.reshape(c, d).T


def _cholqr2(X: np.ndarray) -> np.ndarray | None:
    """Two-pass Cholesky QR for well-conditioned tall blocks.

    Runs entirely on BLAS-3 kernels.  Returns None when the Gram matrix
    is not safely positive definite or the first pass left more than a
    trace of non-orthogonality, in which case the caller should fall
    back to a rank-revealing factorization.

    Each pass multiplies X by the inverse of the small triangular factor
    (LAPACK ``trtri``) rather than solving against X: scipy's OpenBLAS
    threads a triangular solve of any size, even 9 x 9, and its idle
    workers then spin on the second core while the caller's next
    single-threaded stage runs.
    """
    from scipy.linalg.lapack import dtrtri

    for attempt in range(2):
        G = X.T @ X
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return None
        L_inv, info = dtrtri(L, lower=1)
        if info != 0:
            return None
        X = X @ L_inv.T
        if attempt == 1 and np.abs(G - np.eye(G.shape[0])).max() > 1e-4:
            return None  # first pass too degraded for the correction
    return np.ascontiguousarray(X)


def _orth_columns(C: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of C with rank detection.

    Cholesky QR covers the (typical) well-conditioned case; a
    rank-revealing SVD handles deficient input.
    """
    if C.shape[1] == 0:
        return np.zeros((C.shape[0], 0))
    if C.shape[0] >= C.shape[1]:
        Q = _cholqr2(C.copy())
        if Q is not None:
            return Q
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((C.shape[0], 0))
    r = int(np.sum(s > max(C.shape) * np.finfo(float).eps * s[0]))
    return U[:, :r]


def _projected_gram(
    A: SparseColMatrix, Q: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """G = Q^T (A A^T) Q by whichever product order is cheaper.

    The d x d product route wins only for very sparse matrices; the
    pair-count bound on its output size keeps it off dense-ish inputs,
    where assembling a nearly dense matrix in sparse format would
    dominate.  A may be the live columns of a d x n matrix; the route is
    decided on that matrix's n, so dropping empty columns moves no
    input from one route to the other.  The streaming route also returns
    the product A^T Q it forms on the way (None on the d x d route), so
    the caller can build Z from it without reading A again.
    """
    r = Q.shape[1]
    col_nnz = A.column_nnz().astype(np.float64)
    pair_count = float(np.sum(col_nnz * col_nnz))
    stream_flops = float(A.nnz) * r + float(n) * r * r
    d = A.rows
    if d <= 4096 and pair_count < stream_flops and pair_count < 0.25 * d * d:
        AAt = A._scipy @ A._scipy.T
        # not Q.T @ (...): BLAS splits that d-long sum across threads, so its
        # rounding would depend on the thread count
        G = np.einsum("ij,ik->jk", Q, AAt @ Q)
        Wt = None
    else:
        Wt = np.asarray(A._scipy.T @ Q)  # one row per column of A, one pass over A
        G = Wt.T @ Wt
    return 0.5 * (G + G.T), Wt


def mixed_lra(A: SparseColMatrix, k: int, seed: int = 0) -> RankKFactors:
    """Rank-k factors whose product satisfies a mixed spectral-Frobenius bound.

    Pipeline: sketch the columns into c = k^2 buckets with
    ``apply_countsketch``; if the bucket count exceeds the
    working-rank cap max(2k, k + 10), compress that d x c block with a
    seeded Gaussian test matrix; orthonormalize to get the basis Q; take
    the top-k directions of the projection of A onto span(Q) via the
    small Gram matrix Q^T A A^T Q; return Y (those directions) and the
    live rows of Z = A^T Y (see ``RankKFactors``).

    Everything after the sketch draw runs on a zero-copy view of the m
    columns of A that hold an entry.  The draw covers all n columns and
    the view takes its live buckets and signs, and the Gram route is
    decided on n, so the seeded stream and the route are those of the
    whole matrix, and so is every output on the d x d route.  On the
    streaming route, G sums over the m live rows of A^T Q without the
    n - m zero rows, which can move its last bits when m < n.

    Cost: one O(n) scan of the column pointers and the O(n) bucket
    draw; one O(nnz(A) + m + d k^2) scatter for the sketch, which adds
    fixed blocks of 2^18 entries of A into one d x c accumulator and
    equals A S exactly; one O(nnz(A) r + m r^2) pass for A^T Q and its
    Gram matrix (r is the working rank), whose product with the top-k
    eigenvectors is Z on that route.  On the d x d Gram route used for
    hyper-sparse input, Z takes one more sparse pass.
    """
    d, n = A.shape
    if not 1 <= k <= min(d, n):
        raise ValueError(f"k={k} must satisfy 1 <= k <= min(d, n) = {min(d, n)}")
    c = k * k
    s1, s2 = np.random.SeedSequence(seed).generate_state(2)
    live, A_live = live_columns(A)
    S = make_countsketch(n, c, int(s1))
    if live.size < n:
        S = CountSketch(live.size, c, S.bucket[live], S.sign[live], S.seed)
    C = apply_countsketch(A_live, S)

    q_cap = max(2 * k, k + 10)
    if min(d, c) > q_cap:
        # range compression to the working rank
        C = C @ np.random.default_rng(int(s2)).standard_normal((c, q_cap))

    Q = _orth_columns(C)
    if Q.shape[1] == 0:
        return RankKFactors(np.zeros((d, 0)), np.zeros((live.size, 0)), live, 0, True)

    G, Wt = _projected_gram(A_live, Q, n)
    lam, vecs = np.linalg.eigh(G)
    order = np.argsort(lam)[::-1]
    lam, vecs = lam[order], vecs[:, order]
    positive = int(np.sum(lam > max(lam[0], 0.0) * len(lam) * np.finfo(float).eps))
    kk = min(k, positive)
    if kk == 0:
        return RankKFactors(np.zeros((d, 0)), np.zeros((live.size, 0)), live, 0, True)
    # contiguous: numpy's OpenBLAS threads the m x r by r x kk product when
    # V is a strided view, and its idle workers then spin on the second core
    V = np.ascontiguousarray(vecs[:, :kk])
    Y = Q @ V
    # Z^T = Y^T A, so B = Y Z^T projects A onto span(Y); A^T Y = (A^T Q) V
    Z = Wt @ V if Wt is not None else np.asarray(A_live._scipy.T @ Y)
    return RankKFactors(Y, Z, live, kk, kk < k)


def _squared_singular_values(A: SparseColMatrix) -> np.ndarray:
    """Squared singular values of A, nonincreasing, via a dense path.

    Small inputs use a direct bidiagonal SVD (full eps accuracy on tiny
    singular values); larger ones take the eigenvalues of the
    min(d, n)-sized Gram matrix, whose small values are only resolved to
    sqrt(eps).
    """
    d, n = A.shape
    if min(d, n) > DENSE_ORACLE_LIMIT:
        raise ValueError(
            f"exact SVD refused: min(d, n) = {min(d, n)} exceeds {DENSE_ORACLE_LIMIT}"
        )
    if d * n <= 4_000_000:
        s = np.linalg.svd(A.toarray(), compute_uv=False)
        return s * s
    left = d <= n
    if A.nnz / (d * n) >= 0.2 and d * n <= 50_000_000:
        Ad = A.toarray()
        G = Ad @ Ad.T if left else Ad.T @ Ad
    else:
        M = A._scipy
        G = (M @ M.T).toarray() if left else (M.T @ M).toarray()
    G = 0.5 * (G + G.T)
    return np.maximum(np.linalg.eigvalsh(G)[::-1], 0.0)


def _tail_norms(lam: np.ndarray, k: int) -> tuple[float, float]:
    """(sigma_{k+1}, ||A - A_k||_F^2) from A's squared singular values."""
    spec_tail = float(np.sqrt(lam[k])) if k < lam.size else 0.0
    frob_tail_sq = float(np.sum(lam[k:])) if k < lam.size else 0.0
    return spec_tail, frob_tail_sq


def svd_tail_norms(A: SparseColMatrix, k: int) -> tuple[float, float]:
    """(sigma_{k+1}, ||A - A_k||_F^2) from the full Gram spectrum."""
    return _tail_norms(_squared_singular_values(A), k)


def singular_values(A: SparseColMatrix) -> np.ndarray:
    """All min(d, n) singular values, nonincreasing, via the dense Gram side."""
    return np.sqrt(_squared_singular_values(A))


@dataclass(frozen=True)
class PowerIterationResult:
    """Output of the subspace power method.

    ``redraws`` counts rank-deficiency repairs.
    """

    basis: np.ndarray  # d x k, orthonormal columns
    redraws: int
    iterates: list[np.ndarray] | None = None


def default_power_iters(d: int) -> int:
    """Iteration budget 3 ceil(ln d), at least 3, of the power-iteration
    baseline: O(log d) steps, as the paper runs it."""
    return 3 * math.ceil(math.log(max(d, 2)))


def subspace_power(
    A: SparseColMatrix,
    k: int,
    T: int,
    seed: int = 0,
    keep_iterates: bool = False,
) -> PowerIterationResult:
    """Orthogonal iteration Q <- orth(A A^T Q) for the top-k left subspace.

    Each iteration costs O(nnz(A) * k) plus a QR of a d x k
    block.  Rank-deficient iterates are repaired by re-randomizing the
    dropped directions.  It runs exactly T iterations and reports no
    convergence verdict.
    """
    d, n = A.shape
    if not 1 <= k <= min(d, n):
        raise ValueError(f"k={k} must satisfy 1 <= k <= min(d, n) = {min(d, n)}")
    if T < 1:
        raise ValueError("T must be at least 1")
    rng = np.random.default_rng(seed)
    M = A._scipy
    Q = np.linalg.qr(rng.standard_normal((d, k)))[0]
    iterates = [Q] if keep_iterates else None
    redraws = 0
    for _ in range(T):
        Z = np.asarray(M @ (M.T @ Q))
        Qn = _cholqr2(Z)
        if Qn is None:
            # rank-deficient iterate: repair via Householder QR, replacing
            # the collapsed directions with fresh random draws
            Qn, R = np.linalg.qr(Z)
            diag = np.abs(np.diag(R))
            bad = diag <= max(d, k) * np.finfo(float).eps * (
                diag.max() if diag.max() > 0 else 1.0
            )
            tries = 0
            while np.any(bad):
                Z[:, bad] = rng.standard_normal((d, int(bad.sum())))
                Qn, R = np.linalg.qr(Z)
                diag = np.abs(np.diag(R))
                bad = diag <= max(d, k) * np.finfo(float).eps * diag.max()
                redraws += 1
                tries += 1
                if tries > 5:
                    raise RankRestoreError(
                        "subspace power iteration could not restore full rank"
                    )
        Q = Qn
        if keep_iterates:
            iterates.append(Q)
    return PowerIterationResult(Q, redraws, iterates)
