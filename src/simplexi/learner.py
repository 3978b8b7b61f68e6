"""Iterative recovery of simplex vertices from rank-k factors.

The factorization builds the rank-k factors (Y, Z) and hands them to
selection as one ``RankKFactors``.  Each of the k selection rounds works
entirely inside the factored form: a random direction is drawn in the
column space of Y, projected away from the vertices found so far, pushed
through Z^T to score every column that holds an entry (an empty column's
row of Z is zero, so it scores +0.0), and the best-scoring block of
columns is averaged into a new vertex.  Only those selected columns of A
are ever read again.

Both phases work on the m columns of A that hold an entry: the factors
carry those columns' indices and only their rows of Z, and a round picks
its block among the m live scores, which is exact whenever each side it
compares has s live scores of its own sign (otherwise, as when s > m,
the block is picked on the whole n-long row).  A round costs the
O(d k + m k) scoring product, issued below 2^24 multiply-adds in row
blocks that OpenBLAS runs on the calling thread (see
``sketch._rows_matmul``), the scatter of its m scores into its row of
the k x n directions (zero-filled once per call, the one O(k n) cost
left), a few linear scans of the m scores (from m = 2^14 on a strided
sample fixes each side's cut, so only the entries past it are
partitioned), and a read of the s selected columns.

The factorization reads A twice with the sketch (the sketch, then
A^T Q; hyper-sparse input takes one more pass for Z) and twice per
iteration with the power-iteration baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import TextIO

import numpy as np

from .sketch import (
    RankKFactors,
    _rows_matmul,
    default_power_iters,
    mixed_lra,
    subspace_power,
)
from .sparsemat import SparseColMatrix, column_subset_mean, live_columns
from .subspace import Basis, extend_basis, project_out

__all__ = [
    "LearnerConfig",
    "VertexEstimates",
    "LearnerError",
    "learn_simplex",
    "compute_factors",
    "select_vertices",
    "select_indices",
    "save_vertex_estimates",
    "load_vertex_estimates",
]

_REDRAW_LIMIT = 20
_DEGENERATE_REL = 1e-12


class LearnerError(RuntimeError):
    """Raised when vertex selection cannot make progress."""


@dataclass(frozen=True)
class LearnerConfig:
    """Settings for one vertex-recovery run.

    ``delta`` is the smoothing fraction: each vertex estimate averages
    floor(delta * n) columns (at least one).  ``selection_mode`` picks
    between the literal largest-|coordinate| rule ("abs") and the
    sign-consistent two-sided rule ("two_sided", default).  ``baseline``
    chooses the factorization: the CountSketch pipeline ("sketch", k^2
    buckets) or ``default_power_iters(d)`` steps of subspace power
    iteration plus exact projection ("power_iteration").
    """

    k: int
    delta: float
    seed: int = 0
    selection_mode: str = "two_sided"
    baseline: str = "sketch"

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.selection_mode not in ("abs", "two_sided"):
            raise ValueError(f"unknown selection_mode {self.selection_mode!r}")
        if self.baseline not in ("sketch", "power_iteration"):
            raise ValueError(f"unknown baseline {self.baseline!r}")

    def smoothing_size(self, n: int) -> int:
        return max(1, int(np.floor(self.delta * n)))


@dataclass(frozen=True)
class VertexEstimates:
    """Recovered vertices with the column sets and directions behind them.

    ``vertices[:, t]`` is exactly the mean of the columns of A indexed by
    ``index_sets[t]``; ``directions[t]`` is the score vector whose top
    block produced that set (kept for audit).  A column of A with no
    entry scores +0.0 in every direction.
    """

    vertices: np.ndarray  # d x k
    index_sets: tuple[np.ndarray, ...]
    directions: np.ndarray  # k x n
    rank_deficient: bool = False

    @property
    def k(self) -> int:
        return self.vertices.shape[1]


def _smallest(key: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s smallest keys, ties toward the lower index, in
    (key, index) order: ``np.lexsort((arange(n), key))[:s]`` in O(n + s log s)."""
    cut = np.partition(key, s - 1)[s - 1]
    near = np.flatnonzero(key <= cut)  # one scan finds every key below the cut and every tie
    near_key = key[near]
    below = near[near_key < cut]
    chosen = np.concatenate((below, near[near_key == cut][: s - below.size]))
    return chosen[np.lexsort((chosen, key[chosen]))]


_SAMPLE_STRIDE = 64
_SAMPLED_MIN_N = 1 << 14


def _extreme(v: np.ndarray, s: int, largest: bool) -> np.ndarray:
    """``_smallest(-v if largest else v, s)``: the s largest (or smallest)
    entries of v, ties toward the lower index, in (key, index) order.

    From n = 2^14 on (and s <= n/4), a cut is read from every 64th entry,
    at rank 2 floor(s/64) + 8 from the extreme end, and only the entries at
    or past it go to ``_smallest``.  When at least s entries pass, they
    hold the answer with all its ties, in ascending index order, so the
    result is the same; otherwise the exact search runs on all of v.
    """
    n = v.size
    if n >= _SAMPLED_MIN_N and 4 * s <= n:
        sample = v[::_SAMPLE_STRIDE]
        rank = 2 * (s // _SAMPLE_STRIDE) + 8
        if largest:
            cut = np.partition(sample, sample.size - rank)[sample.size - rank]
            cand = np.flatnonzero(v >= cut)
        else:
            cut = np.partition(sample, rank - 1)[rank - 1]
            cand = np.flatnonzero(v <= cut)
        if cand.size >= s:
            return cand[_smallest(-v[cand] if largest else v[cand], s)]
    return _smallest(-v if largest else v, s)


def select_indices(u: np.ndarray, s: int, mode: str = "two_sided") -> np.ndarray:
    """Indices of the s most extreme coordinates of u, sorted ascending.

    mode "abs": the s largest |u_j|.  mode "two_sided": the s largest
    and the s smallest coordinates are formed separately and the side
    with the larger |sum| wins, so one set never mixes signs.  Ties are
    broken toward the lower index; the result is scale-invariant under
    u -> c u for any c > 0.  Each side is one partition around its s-th
    key, so a call costs O(n + s log s); from n = 2^14 on, each side
    partitions only a strided sample and the entries past the sample's
    cut, so a call reads u about three times (the finiteness check and
    one comparison per side).  Raises ``ValueError`` if u has a
    non-finite entry.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    n = u.size
    if not 1 <= s <= n:
        raise ValueError(f"subset size s={s} out of range for n={n}")
    if not np.isfinite(u).all():
        raise ValueError("scores must be finite")
    if mode == "abs":
        return np.sort(_extreme(np.abs(u), s, largest=True))
    if mode == "two_sided":
        top = _extreme(u, s, largest=True)
        bottom = _extreme(u, s, largest=False)
        # both sums add in (key, index) order, as a full stable sort would
        if abs(u[top].sum()) >= abs(u[bottom].sum()):
            return np.sort(top)
        return np.sort(bottom)
    raise ValueError(f"unknown mode {mode!r}")


def _select_live(row: np.ndarray, u: np.ndarray, live: np.ndarray, s: int,
                 mode: str) -> np.ndarray:
    """``select_indices(row, s, mode)`` for a row that holds the scores u at
    the ascending columns ``live`` and +0.0 at every other column.

    When each side compared holds at least s scores of its sign among u
    (> 0 for the top, < 0 for the bottom, nonzero in "abs" mode), no zero
    of an empty column can win a place, and ties among u break toward
    the lower index as they do in the row: the choice is made on the m
    scores alone.  Otherwise, as when s > m, it is made on the whole row.
    """
    nonzero = np.count_nonzero(u)
    if mode == "abs":
        enough = nonzero >= s
    else:
        positive = np.count_nonzero(u > 0.0)
        enough = min(positive, nonzero - positive) >= s
    if enough:
        return live[select_indices(u, s, mode)]
    return select_indices(row, s, mode)


def _seeds(cfg: LearnerConfig) -> tuple[int, int]:
    s = np.random.SeedSequence(cfg.seed).generate_state(2)
    return int(s[0]), int(s[1])


def _factors(A: SparseColMatrix, cfg: LearnerConfig) -> RankKFactors:
    """Factorization phase, with Z kept to the rows of the columns of A
    that hold an entry (see ``RankKFactors``)."""
    d, n = A.shape
    seed_fac, _ = _seeds(cfg)
    if cfg.baseline == "power_iteration":
        Y, redraws = subspace_power(A, cfg.k, default_power_iters(d), seed=seed_fac)
        live, A_live = live_columns(A)
        Z = np.asarray(A_live._scipy.T @ Y)
        return RankKFactors(Y, Z, live, redraws > 0)
    return mixed_lra(A, cfg.k, seed=seed_fac)


def compute_factors(A: SparseColMatrix, cfg: LearnerConfig):
    """The factorization phase as (Y, Z, rank_deficient), with the n x k
    factor Z = A^T Y, whose row is zero for every column of A without an
    entry.

    This n-row form exists for the benchmark harness, which times and
    checks the factors apart from selection; the learner itself passes
    ``RankKFactors``, with only the live rows of Z, to ``select_vertices``.
    Raises ``ValueError`` unless 1 <= cfg.k <= min(d, n), from the shape
    check in ``mixed_lra`` or ``subspace_power``.
    """
    fac = _factors(A, cfg)
    Z = fac.Z
    if fac.live.size < A.cols:
        Z = np.zeros((A.cols, Z.shape[1]))
        Z[fac.live] = fac.Z
    return fac.Y, Z, fac.rank_deficient


def select_vertices(
    A: SparseColMatrix, fac: RankKFactors, cfg: LearnerConfig
) -> VertexEstimates:
    """Selection phase: k rounds of project-score-average inside the span
    of the factors ``fac``.

    A column of A outside ``fac.live`` has a zero row of Z = A^T Y, which
    ``fac`` does not store, so it scores +0.0.  Each round's scores fill
    one row of the k x n ``directions``; its block is picked among the m
    live scores when that is exact (see ``_select_live``), else on the
    whole row.  Reads A only through ``column_subset_mean`` on the
    selected column sets; everything else happens on the factors.  The
    result is flagged ``rank_deficient`` when ``fac`` is, or when it has
    fewer than cfg.k columns; a flagged run that runs out of directions
    returns the vertices found so far.
    """
    d, n = A.shape
    s = cfg.smoothing_size(n)
    _, seed_sel = _seeds(cfg)
    rng = np.random.default_rng(seed_sel)
    Y, Z, live = fac.Y, fac.Z, fac.live
    kf = Y.shape[1]
    rank_deficient = fac.rank_deficient or kf < cfg.k

    vertices: list[np.ndarray] = []
    index_sets: list[np.ndarray] = []
    D = np.zeros((cfg.k, n))  # row t holds round t's scores
    U_t = Basis(np.zeros((d, 0)))  # orthonormal basis of the vertices found so far
    for t in range(cfg.k):
        if vertices:
            U_t = extend_basis(U_t, vertices[-1])
        h_prime = None
        for _ in range(_REDRAW_LIMIT):
            g = rng.standard_normal(kf)
            h = Y @ g
            hn = np.linalg.norm(h)
            if hn == 0.0:
                continue
            cand = project_out(h, U_t)
            if np.linalg.norm(cand) > _DEGENERATE_REL * hn:
                h_prime = cand
                break
        if h_prime is None:
            if rank_deficient:
                break  # the factor space is exhausted; return what we have
            raise LearnerError(
                f"round {t}: random direction collapsed into the span of the "
                f"{len(vertices)} selected vertices after {_REDRAW_LIMIT} redraws"
            )
        h_prime = h_prime / np.linalg.norm(h_prime)
        u = _rows_matmul(Z, h_prime @ Y)  # O((d + m) k) per round
        D[t][live] = u  # the row view's scatter is faster than D[t, live]
        R_t = _select_live(D[t], u, live, s, cfg.selection_mode)
        vertices.append(column_subset_mean(A, R_t))
        index_sets.append(R_t)

    V = np.column_stack(vertices) if vertices else np.zeros((d, 0))
    return VertexEstimates(V, tuple(index_sets), D[: len(vertices)], rank_deficient)


def learn_simplex(
    A: SparseColMatrix, cfg: LearnerConfig, timings: dict[str, float] | None = None
) -> VertexEstimates:
    """Recover k vertex estimates from a sparse observation matrix.

    Runs the factorization phase (two or three passes over A with the
    sketch, two per iteration with the power-iteration baseline), whose
    ``RankKFactors`` keep only the rows of Z for the columns of A that
    hold an entry, and hands them to ``select_vertices``; deterministic
    given (A, cfg).  Given ``timings``, stores each phase's wall seconds
    in it under "factorization" and "selection".
    """
    t0 = time.perf_counter()
    fac = _factors(A, cfg)
    t1 = time.perf_counter()
    est = select_vertices(A, fac, cfg)
    if timings is not None:
        timings["factorization"] = t1 - t0
        timings["selection"] = time.perf_counter() - t1
    return est


def save_vertex_estimates(est: VertexEstimates, f: TextIO) -> None:
    """Text block: header 'k d s', k index lines, then k vertex vectors."""
    k = est.k
    d = est.vertices.shape[0]
    s = est.index_sets[0].size if est.index_sets else 0
    f.write(f"{k} {d} {s}\n")
    for R in est.index_sets:
        f.write(" ".join(str(int(i)) for i in R) + "\n")
    for t in range(k):
        f.write(" ".join(f"{x:.17g}" for x in est.vertices[:, t]) + "\n")


def _fields(text: str, convert, line: int, message: str) -> list:
    """The whitespace-separated fields of one line through ``convert``;
    the first field it rejects raises ``ValueError("line N: " + message)``."""
    values = []
    for x in text.split():
        try:
            values.append(convert(x))
        except ValueError:
            raise ValueError(f"line {line}: " + message.format(x)) from None
    return values


def load_vertex_estimates(f: TextIO) -> VertexEstimates:
    """Read the block ``save_vertex_estimates`` writes.

    Raises ``ValueError`` naming the line on a header other than three
    nonnegative integers, a wrong length, a column index that is not an
    integer or is negative or past int64, or a vertex entry that is not
    a finite number.
    """
    header = f.readline().split()
    if len(header) != 3 or not all(x.isdecimal() for x in header):
        raise ValueError("line 1: header must be 'k d s'")
    k, d, s = (int(x) for x in header)
    sets = []
    for line in range(2, k + 2):
        row = _fields(f.readline(), int, line, "column index {!r} is not an integer")
        if len(row) != s:
            raise ValueError(f"line {line}: index set size does not match header")
        bad = [i for i in row if not 0 <= i < 2**63]
        if bad:
            raise ValueError(f"line {line}: column index {bad[0]} is out of range")
        sets.append(np.asarray(row, dtype=np.int64))
    vertices = np.empty((d, k))
    for t in range(k):
        line = k + 2 + t
        vals = np.asarray(_fields(f.readline(), float, line, "vertex entry {!r} is not a number"))
        if vals.size != d:
            raise ValueError(f"line {line}: vertex vector length does not match header")
        if not np.isfinite(vals).all():
            bad = vals[~np.isfinite(vals)][0]
            raise ValueError(f"line {line}: vertex entry {bad} is not finite")
        vertices[:, t] = vals
    return VertexEstimates(vertices, tuple(sets), np.zeros((k, 0)))
