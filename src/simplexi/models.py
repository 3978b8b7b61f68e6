"""Ground-truth instance generators and the model-assumption checker.

Three generative models produce bundles of (true vertices M, latent
points P inside their convex hull, sparse observations A): topic-style
multinomial documents, mixed-membership bipartite block graphs, and
noisy clusters with a hull-respecting adversary.  A raw Bernoulli
generator covers the synthetic benchmark matrices.  ``check_assumptions``
measures the four model conditions (vertex separation, proximate latent
points, bounded perturbation, dominant top-k spectrum) on any bundle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .sparsemat import (
    SparseColMatrix,
    _check_shape,
    from_scipy,
    left_apply,
    load_dense_block,
    load_matrix_snapshot,
    read_key_values,
    right_apply,
    save_dense_block,
    save_matrix_snapshot,
    spectral_norm,
)
from .subspace import orthonormalize, project_out

__all__ = [
    "SimplexInstance",
    "AssumptionReport",
    "gen_lda",
    "gen_mmsb",
    "gen_clusters_adversarial",
    "gen_bernoulli",
    "compute_alpha",
    "compute_sigma",
    "fit_delta",
    "check_assumptions",
    "save_instance",
    "load_instance",
    "load_instance_core",
]


@dataclass(frozen=True)
class SimplexInstance:
    """Generated ground-truth bundle.

    The latent points P = M @ W are derived, not stored: the columns of
    W are stochastic, so every column of P is a convex combination of
    the columns of M.  ``sigma`` is the measured value of
    ||A - P||_2 / sqrt(n).
    """

    M: np.ndarray  # d x k true vertices
    A: SparseColMatrix  # d x n observations
    W: np.ndarray  # k x n mixing weights
    sigma: float
    delta: float
    model_tag: str
    seed: int
    params: dict = field(default_factory=dict)

    @cached_property
    def P(self) -> np.ndarray:
        """d x n latent points, M @ W (computed once per instance)."""
        return self.M @ self.W

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    @property
    def k(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True)
class AssumptionReport:
    """Measured quantities and verdicts for the four model assumptions.

    ``significant_ok`` is None when the instance is too large for the
    dense spectrum oracle.  ``overall_ok`` treats an unchecked condition
    as not failing.
    """

    alpha: float
    proximate_ok: bool
    proximate_counts: np.ndarray  # per-vertex counts of close latent points
    spectral_ok: bool
    spectral_lhs: float  # sigma / sqrt(delta)
    spectral_rhs: float  # alpha^2 min ||M_l|| / k^9
    significant_ok: bool | None
    gap_ratio: float  # sigma_k / sigma_{k+1}
    tail_energy_ratio: float  # ||A - A_k||_F^2 / ||A - A_k||_2^2
    phi: float
    proximity_radius_used: float

    @property
    def overall_ok(self) -> bool:
        return self.proximate_ok and self.spectral_ok and self.significant_ok is not False


def compute_alpha(M: np.ndarray) -> float:
    """Separation measure: worst residual mass of a vertex outside the
    span of the others, relative to the largest vertex norm."""
    M = np.asarray(M, dtype=np.float64)
    k = M.shape[1]
    if k < 2:
        raise ValueError("compute_alpha requires at least two vertices")
    max_norm = float(np.max(np.linalg.norm(M, axis=0)))
    if max_norm == 0.0:
        return 0.0
    worst = np.inf
    for ell in range(k):
        others = np.delete(M, ell, axis=1)
        basis = orthonormalize(others)
        resid = project_out(M[:, ell], basis) if not basis.is_empty else M[:, ell]
        worst = min(worst, float(np.linalg.norm(resid)))
    return worst / max_norm


def compute_sigma(A: SparseColMatrix, M: np.ndarray, W: np.ndarray, seed: int = 0) -> float:
    """Measured ||A - M W||_2 / sqrt(n), from ``spectral_norm`` with ``seed``.
    The difference is applied operator-style with P = M W in factored
    form (neither A nor P is densified), so each Lanczos step costs
    O(nnz(A) + (n + d) k)."""
    top = spectral_norm(
        A.shape,
        lambda x: right_apply(A, x) - M @ (W @ x),
        lambda y: left_apply(y, A) - (y @ M) @ W,
        seed=seed,
    )
    return top / np.sqrt(A.cols)


def fit_delta(M: np.ndarray, P: np.ndarray, sigma: float) -> float:
    """Largest smoothing fraction delta, on a 60-point geometric grid from
    1/2 down to 1/n, for which every vertex has at least floor(delta n)
    latent points within 4 sigma / sqrt(delta)."""
    n = P.shape[1]
    dists = _vertex_distances(M, P)
    for delta in np.geomspace(0.5, 1.0 / n, 60):
        radius = 4.0 * sigma / np.sqrt(delta)
        need = int(np.floor(delta * n))
        counts = (dists <= radius).sum(axis=1)
        if need >= 1 and np.all(counts >= need):
            return float(delta)
    return 1.0 / n


def _vertex_distances(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """k x n matrix of distances ||P_j - M_l||_2."""
    # (|M_l|^2 - 2 M_l . P_j + |P_j|^2), clipped for rounding
    mm = np.sum(M * M, axis=0)[:, None]
    pp = np.sum(P * P, axis=0)[None, :]
    sq = mm - 2.0 * (M.T @ P) + pp
    return np.sqrt(np.maximum(sq, 0.0))


def _sparse_from_dense(D: np.ndarray) -> SparseColMatrix:
    return from_scipy(sp.csc_array(D))


def _stochastic_columns(rng, concentration: float, dim: int, count: int) -> np.ndarray:
    """count Dirichlet(concentration * 1_dim) draws as columns."""
    draws = rng.dirichlet(np.full(dim, concentration), size=count)
    return draws.T


def gen_lda(
    d: int,
    n: int,
    k: int,
    m: int,
    concentration: float | None = None,
    seed: int = 0,
    topic_concentration: float = 0.05,
    topic_prior: np.ndarray | None = None,
    delta: float | None = None,
) -> SimplexInstance:
    """Multinomial document model over a d-word dictionary.

    Topic columns are Dirichlet draws on the word simplex; document
    weights are Dirichlet(concentration) over topics (default 1/k);
    each document averages m multinomial word draws, so every column of
    A and of M sums to one.

    The topic prior defaults to the symmetric
    Dirichlet(topic_concentration); ``topic_prior`` (a d x k array of
    positive Dirichlet parameters, one column per topic) selects an
    asymmetric prior, e.g. anchor-word topics.
    """
    if m < 1:
        raise ValueError("words per document m must be at least 1")
    conc = 1.0 / k if concentration is None else float(concentration)
    if conc <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    if topic_prior is not None:
        topic_prior = np.asarray(topic_prior, dtype=np.float64)
        if topic_prior.shape != (d, k) or np.any(topic_prior <= 0):
            raise ValueError("topic_prior must be a positive d x k array")
        M = np.column_stack([rng.dirichlet(topic_prior[:, ell]) for ell in range(k)])
    else:
        M = _stochastic_columns(rng, topic_concentration, d, k)
    W = _stochastic_columns(rng, conc, k, n)
    P = M @ W

    rows, cols, vals = [], [], []
    inv_m = 1.0 / float(m)
    for j in range(n):
        pv = np.maximum(P[:, j], 0.0)
        pv = pv / pv.sum()
        counts = rng.multinomial(int(m), pv)
        nz = np.flatnonzero(counts)
        rows.append(nz)
        cols.append(np.full(nz.size, j, dtype=np.int64))
        vals.append(counts[nz] * inv_m)
    A = from_scipy(
        sp.coo_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(d, n),
        )
    )
    sigma = compute_sigma(A, M, W, seed=seed)
    dl = fit_delta(M, P, sigma) if delta is None else float(delta)
    return SimplexInstance(
        M, A, W, sigma, dl, "lda", seed,
        {"d": d, "n": n, "k": k, "m": m, "concentration": conc,
         "topic_concentration": topic_concentration},
    )


def _one_hot_blocks(k: int, count: int) -> np.ndarray:
    """k x count one-hot memberships in k contiguous near-equal blocks."""
    sizes = np.full(k, count // k)
    sizes[: count % k] += 1
    labels = np.repeat(np.arange(k), sizes)
    out = np.zeros((k, count))
    out[labels, np.arange(count)] = 1.0
    return out


def gen_mmsb(
    n: int,
    d: int,
    k: int,
    p: float,
    q: float,
    seed: int = 0,
    pure: bool = False,
    delta: float | None = None,
) -> SimplexInstance:
    """Mixed-membership bipartite block graph.

    The block matrix is q off the diagonal and p on it.  Row vertices
    (d of them) and column vertices (n) carry Dirichlet(1/k) membership
    weights, or one-hot equal-block memberships when ``pure`` is set.
    Edges are independent Bernoulli draws on the probability matrix
    P = W1^T B W2; the recovery target is M = W1^T B.
    """
    if not 0.0 <= q <= p <= 1.0 or p == 0.0:
        raise ValueError("need 0 <= q <= p <= 1 with p > 0")
    rng = np.random.default_rng(seed)
    B = np.full((k, k), q) + (p - q) * np.eye(k)
    if pure:
        W1 = _one_hot_blocks(k, d)
        W2 = _one_hot_blocks(k, n)
    else:
        W1 = _stochastic_columns(rng, 1.0 / k, k, d)
        W2 = _stochastic_columns(rng, 1.0 / k, k, n)
    M = W1.T @ B
    P = M @ W2

    # Sample edges in column blocks to bound peak memory.
    block = max(1, min(n, 8_000_000 // max(d, 1)))
    parts = []
    for start in range(0, n, block):
        stop = min(n, start + block)
        mask = rng.random((d, stop - start)) < P[:, start:stop]
        parts.append(sp.csc_array(mask.astype(np.float64)))
    A = from_scipy(sp.hstack(parts, format="csc") if len(parts) > 1 else parts[0])
    sigma = compute_sigma(A, M, W2, seed=seed)
    dl = fit_delta(M, P, sigma) if delta is None else float(delta)
    return SimplexInstance(
        M, A, W2, sigma, dl, "mmsb", seed,
        {"n": n, "d": d, "k": k, "p": p, "q": q, "pure": float(pure)},
    )


def gen_clusters_adversarial(
    d: int,
    n: int,
    k: int,
    sigma_target: float,
    delta: float,
    adversary_fraction: float,
    seed: int = 0,
    separation_factor: float = 10.0,
    noise_rank: int = 1,
) -> SimplexInstance:
    """Well-separated cluster means with a hull-respecting adversary.

    Cluster means are scaled orthonormal directions, so their pairwise
    distances satisfy the separation requirement
    separation_factor * k * sigma_target / sqrt(delta).  Within each
    cluster, floor(delta n) protected points stay within
    4 sigma_target / sqrt(delta) of the mean (moved only toward the hull
    of the other means); an ``adversary_fraction`` of the rest is pushed
    an arbitrary distance toward that hull.  Observation noise is a
    random low-rank perturbation built with spectral norm exactly
    sigma_target * sqrt(n).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 <= adversary_fraction <= 1.0 - delta:
        raise ValueError("adversary_fraction must lie in [0, 1 - delta]")
    if d < k:
        raise ValueError(f"separation infeasible: need d >= k, got d={d}, k={k}")
    if sigma_target < 0:
        raise ValueError("sigma_target must be nonnegative")
    rng = np.random.default_rng(seed)

    scale = 1.0
    if sigma_target > 0:
        needed = separation_factor * k * sigma_target / np.sqrt(delta)
        scale = max(1.0, needed / np.sqrt(2.0))
    Mdirs = np.linalg.qr(rng.standard_normal((d, k)))[0]
    M = scale * Mdirs

    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    protected_need = max(1, int(np.floor(delta * n)))
    if np.any(sizes < protected_need):
        raise ValueError(
            f"delta={delta} needs {protected_need} protected points per cluster "
            f"but clusters have only {sizes.min()}"
        )
    labels = np.repeat(np.arange(k), sizes)
    W = np.zeros((k, n))
    W[labels, np.arange(n)] = 1.0
    radius = 4.0 * sigma_target / np.sqrt(delta)

    start = 0
    for ell in range(k):
        size = int(sizes[ell])
        members = np.arange(start, start + size)
        start += size
        perm = rng.permutation(size)
        protected = members[perm[:protected_need]]
        movable = members[perm[protected_need:]]
        moved = movable[: int(np.floor(adversary_fraction * size))]
        others = np.delete(np.arange(k), ell)
        for j in moved:
            wx = np.zeros(k)
            wx[others] = rng.dirichlet(np.ones(k - 1))
            theta = rng.uniform(0.5, 1.0)
            W[:, j] = (1.0 - theta) * W[:, j] + theta * wx
        if radius > 0:
            for j in protected:
                wx = np.zeros(k)
                wx[others] = rng.dirichlet(np.ones(k - 1))
                target = M @ wx
                gap = np.linalg.norm(target - M[:, ell])
                if gap == 0:
                    continue
                step = rng.uniform(0.0, 0.5 * radius) / gap
                W[:, j] = (1.0 - step) * np.eye(k)[:, ell] + step * wx
    P = M @ W

    E = np.zeros((d, n))
    if sigma_target > 0 and noise_rank > 0:
        u = np.linalg.qr(rng.standard_normal((d, noise_rank)))[0]
        v = np.linalg.qr(rng.standard_normal((n, noise_rank)))[0]
        s = sigma_target * np.sqrt(n) * (1.0 - 1e-9) * 0.6 ** np.arange(noise_rank)
        E = (u * s) @ v.T
    A = _sparse_from_dense(P + E)
    sigma = compute_sigma(A, M, W, seed=seed)
    return SimplexInstance(
        M, A, W, sigma, float(delta), "clustering", seed,
        {"d": d, "n": n, "k": k, "sigma_target": sigma_target,
         "adversary_fraction": adversary_fraction, "noise_rank": float(noise_rank),
         "separation_factor": separation_factor},
    )


def gen_bernoulli(d: int, n: int, p: float, seed: int = 0) -> SparseColMatrix:
    """Sparse d x n matrix of independent Bernoulli(p) entries, all 1.0.

    Skip sampling (Batagelj & Brandes, Phys. Rev. E 71, 2005): in
    column-major order, position c * d + r, the gaps between successive
    nonzeros are i.i.d. Geometric(p), so their cumulative sum lists the
    nonzeros already sorted, as CSC wants them.  Time and memory are
    O(nnz + n); no d x n array is drawn.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_shape(d, n)
    total = d * n
    rng = np.random.default_rng(seed)
    # Positions count from 1 (position c * d + r + 1), in uint64.  numpy
    # saturates a geometric draw at 2^63 - 1, which then stands for a gap of
    # at least 2^63; raised to 2^63, it lands past every position.  Each
    # partial sum up to the first one past total is at most total + 2^63 <
    # 2^64, so no kept position wraps; what follows it is thrown away.
    saturated = np.uint64(np.iinfo(np.int64).max)
    found = [np.zeros(0, dtype=np.uint64)]
    last = 0
    while p > 0.0:
        left = (total - last) * p  # expected nonzeros still to come
        gaps = rng.geometric(p, int(left + 6.0 * np.sqrt(left) + 16)).astype(np.uint64)
        gaps[gaps == saturated] += np.uint64(1)
        gaps[0] += np.uint64(last)
        pos = np.cumsum(gaps, out=gaps)
        past = pos > total
        if past.any():
            found.append(pos[: int(past.argmax())])
            break
        found.append(pos)
        last = int(pos[-1])
    c, r = np.divmod(np.concatenate(found).view(np.int64) - 1, d)
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(c, minlength=n), out=col_ptr[1:])
    return SparseColMatrix(d, n, col_ptr, r, np.ones(r.size))


def check_assumptions(inst: SimplexInstance, s: np.ndarray | None) -> AssumptionReport:
    """Measure the four model conditions on a generated instance.

    ``s`` holds all singular values of A, nonincreasing, from the dense
    spectrum oracle (``sketch.singular_values``); the caller computes
    them, so one spectrum can serve several checks.  When the instance
    exceeds the oracle's size cap, pass None: the top-k-dominance check
    is then reported as unchecked (None).

    The proximity radius is 4 sigma / sqrt(delta).  The tolerated
    tail-energy multiplicity phi is capped at 4k (block-structured
    observation noise concentrates k comparable directions per vertex,
    so a k-proportional cap keeps the check meaningful across instance
    sizes).
    """
    n = inst.A.cols
    k = inst.k
    alpha = compute_alpha(inst.M)

    radius = 4.0 * inst.sigma / np.sqrt(inst.delta)
    dists = _vertex_distances(inst.M, inst.P)
    counts = (dists <= radius + 1e-15).sum(axis=1)
    need = int(np.floor(inst.delta * n))
    proximate_ok = bool(np.all(counts >= need))

    lhs = inst.sigma / np.sqrt(inst.delta)
    min_norm = float(np.min(np.linalg.norm(inst.M, axis=0)))
    rhs = alpha * alpha * min_norm / float(k) ** 9
    spectral_ok = bool(lhs <= rhs)

    phi = min(4.0 * k, inst.A.nnz / (n * float(k) ** 3))
    significant_ok: bool | None
    if s is None:
        significant_ok = None
        gap_ratio = float("nan")
        tail_ratio = float("nan")
    else:
        sigma_k = float(s[k - 1]) if k <= s.size else 0.0
        sigma_k1 = float(s[k]) if k < s.size else 0.0
        tail_sq = float(np.sum(s[k:] ** 2)) if k < s.size else 0.0
        if sigma_k1 <= 1e-12 * max(s[0], 1e-300):
            significant_ok = True  # rank <= k: vacuously dominant
            gap_ratio = float("inf") if sigma_k > 0 else 0.0
            tail_ratio = 0.0
        else:
            gap_ratio = sigma_k / sigma_k1
            tail_ratio = tail_sq / (sigma_k1 * sigma_k1)
            significant_ok = bool(sigma_k > phi * sigma_k1 and tail_ratio <= phi)
    return AssumptionReport(
        alpha=alpha,
        proximate_ok=proximate_ok,
        proximate_counts=counts,
        spectral_ok=spectral_ok,
        spectral_lhs=lhs,
        spectral_rhs=rhs,
        significant_ok=significant_ok,
        gap_ratio=gap_ratio,
        tail_energy_ratio=tail_ratio,
        phi=phi,
        proximity_radius_used=radius,
    )


# ---------------------------------------------------------------------------
# Instance directory serialization.
# ---------------------------------------------------------------------------


def save_instance(inst: SimplexInstance, directory: str) -> None:
    """Write ``A.txt``, ``M.txt``, ``W.txt`` and ``meta.txt``; P = M W is
    not stored."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "A.txt"), "w") as f:
        save_matrix_snapshot(inst.A, f)
    with open(os.path.join(directory, "M.txt"), "w") as f:
        save_dense_block("M", inst.M, f)
    with open(os.path.join(directory, "W.txt"), "w") as f:
        save_dense_block("W", inst.W, f)
    with open(os.path.join(directory, "meta.txt"), "w") as f:
        f.write(f"model_tag={inst.model_tag}\n")
        f.write(f"sigma={inst.sigma:.17g}\n")
        f.write(f"delta={inst.delta:.17g}\n")
        f.write(f"seed={inst.seed}\n")
        for key, val in sorted(inst.params.items()):
            f.write(f"param.{key}={val}\n")


def _meta_value(key: str, val: str):
    """A ``meta.txt`` value as ``SimplexInstance`` holds it."""
    if key in ("sigma", "delta") or key.startswith("param."):
        return float(val)
    return int(val) if key == "seed" else val


def load_instance_core(directory: str) -> tuple[SparseColMatrix, np.ndarray, dict]:
    """A, M and the ``meta.txt`` fields of an instance directory, without
    reading ``W.txt``: all that ``learn`` needs.

    The fields are keyed and typed as ``SimplexInstance`` names them
    (sigma, delta, model_tag, seed, params).  Raises ``ValueError`` if a
    file is malformed, M's row count differs from A's, or ``meta.txt``
    lacks a required key.
    """
    with open(os.path.join(directory, "A.txt")) as f:
        A = load_matrix_snapshot(f)
    m_path = os.path.join(directory, "M.txt")
    with open(m_path) as f:
        M = load_dense_block(f)[1]
    if M.shape[0] != A.rows:
        raise ValueError(f"{m_path} has {M.shape[0]} rows, but A is {A.rows}x{A.cols}")
    meta_path = os.path.join(directory, "meta.txt")
    with open(meta_path) as f:
        meta = read_key_values(f, _meta_value)
    required = ("sigma", "delta", "model_tag", "seed")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError(f"{meta_path} lacks {', '.join(missing)}")
    fields = {key: meta[key] for key in required}
    fields["params"] = {
        key[len("param."):]: val for key, val in meta.items() if key.startswith("param.")
    }
    return A, M, fields


def load_instance(directory: str) -> SimplexInstance:
    """Read an instance directory written by ``save_instance``: ``A.txt``,
    ``M.txt``, ``W.txt`` and ``meta.txt``.  P is derived as M @ W, so a
    ``P.txt`` that an older version wrote is ignored.

    Raises ``ValueError`` if a file is malformed, ``W.txt`` is missing,
    the shapes of M and W do not fit A, or ``meta.txt`` lacks a required
    key.
    """
    A, M, fields = load_instance_core(directory)
    wpath = os.path.join(directory, "W.txt")
    if not os.path.exists(wpath):
        raise ValueError(f"{wpath} is missing")
    with open(wpath) as f:
        W = load_dense_block(f)[1]
    if W.shape != (M.shape[1], A.cols):
        raise ValueError(f"{wpath} is {W.shape[0]}x{W.shape[1]}, "
                         f"but M has {M.shape[1]} columns and A has {A.cols}")
    return SimplexInstance(M, A, W, **fields)
