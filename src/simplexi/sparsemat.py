"""Sparse and dense matrix core.

Compressed sparse-column storage for the (usually large) observation
matrix, the matrix-vector / matrix-matrix kernels everything else is
built on, the spectral norm of a matrix-free operator through scipy's
seeded Lanczos solver, and parsers for whitespace edge lists, the text
snapshot format and key=value files.

All matrices are immutable after construction and every operation here
is a pure function, so they are safe to call from concurrent code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, TextIO, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseColMatrix",
    "ParsedEdgeList",
    "build_csc",
    "from_scipy",
    "right_apply",
    "left_apply",
    "column_subset_mean",
    "live_columns",
    "spectral_norm",
    "parse_edge_list",
    "save_matrix_snapshot",
    "load_matrix_snapshot",
    "save_dense_block",
    "load_dense_block",
    "read_key_values",
]

# A triplet is (row, col, value); dense matrices are plain float64 ndarrays.
Triplet = tuple[int, int, float]


@dataclass(frozen=True)
class SparseColMatrix:
    """Immutable d x n matrix in compressed sparse-column form.

    Invariants: ``col_ptr`` is nondecreasing with ``col_ptr[0] == 0`` and
    ``col_ptr[n] == nnz``; row indices are strictly increasing within each
    column and less than ``rows``; no explicitly stored zeros.
    """

    rows: int
    cols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return int(self.col_ptr[-1])

    @cached_property
    def _scipy(self) -> sp.csc_array:
        # Zero-copy view used by the product kernels.
        return sp.csc_array(
            (self.values, self.row_idx, self.col_ptr), shape=(self.rows, self.cols)
        )

    def toarray(self) -> np.ndarray:
        return self._scipy.toarray()

    def column_nnz(self) -> np.ndarray:
        return np.diff(self.col_ptr)


def build_csc(triplets: Sequence[Triplet], d: int, n: int) -> SparseColMatrix:
    """Assemble a ``SparseColMatrix`` from (row, col, value) triplets.

    Duplicate entries at the same position are summed and entries that
    end up exactly zero are dropped.  Raises ``ValueError`` naming the
    first offending triplet if an index is out of range, and if d * n
    exceeds 2^63 - 1.
    """
    r = np.asarray([t[0] for t in triplets], dtype=np.int64)
    c = np.asarray([t[1] for t in triplets], dtype=np.int64)
    v = np.asarray([t[2] for t in triplets], dtype=np.float64)
    return _csc_from_arrays(r, c, v, d, n)


class _TripletError(ValueError):
    """A bad triplet; ``index`` is its position in the input."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _check_shape(d: int, n: int) -> None:
    """Reject a negative dimension, and a shape whose c * d + r position
    keys do not all fit in int64."""
    if d < 0 or n < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {d}x{n}")
    if d * n > np.iinfo(np.int64).max:
        raise ValueError(f"a {d}x{n} matrix has more than 2^63 - 1 positions")


def _csc_from_arrays(
    r: np.ndarray, c: np.ndarray, v: np.ndarray, d: int, n: int
) -> SparseColMatrix:
    """``build_csc`` on parallel row, column and value arrays.

    The entries are ordered by one stable sort of the key c * d + r, so
    duplicates are runs of equal keys that keep their input order.
    """
    _check_shape(d, n)
    if r.size == 0:
        empty_ptr = np.zeros(n + 1, dtype=np.int64)
        return SparseColMatrix(
            d, n, empty_ptr, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        )
    bad = np.flatnonzero((r < 0) | (r >= d) | (c < 0) | (c >= n))
    if bad.size:
        i = int(bad[0])
        raise _TripletError(
            i, f"triplet #{i} = ({r[i]}, {c[i]}, {v[i]}) out of range for a {d}x{n} matrix"
        )
    if not np.all(np.isfinite(v)):
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise _TripletError(i, f"triplet #{i} has non-finite value {v[i]}")

    key = c * d + r
    order = np.argsort(key, kind="stable")
    key, v = key[order], v[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    with np.errstate(over="ignore"):
        summed = np.add.reduceat(v, starts)
    if not np.all(np.isfinite(summed)):
        j = int(np.flatnonzero(~np.isfinite(summed))[0])
        i = int(order[starts[j]])
        raise _TripletError(
            i, f"triplet #{i} and its duplicates at ({r[i]}, {c[i]}) sum to {summed[j]}"
        )
    keep = summed != 0.0
    c, r = np.divmod(key[starts[keep]], d)

    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(c, minlength=n), out=col_ptr[1:])
    return SparseColMatrix(d, n, col_ptr, r, summed[keep])


def from_scipy(m) -> SparseColMatrix:
    """Canonicalize any scipy sparse matrix into a ``SparseColMatrix``.

    Raises ``ValueError`` naming the first non-finite entry, as ``build_csc`` does.
    """
    m = sp.csc_array(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    if not np.all(np.isfinite(m.data)):
        i = int(np.flatnonzero(~np.isfinite(m.data))[0])
        col = int(np.searchsorted(m.indptr, i, side="right") - 1)
        raise ValueError(f"entry ({m.indices[i]}, {col}) has non-finite value {m.data[i]}")
    return SparseColMatrix(
        m.shape[0],
        m.shape[1],
        np.asarray(m.indptr, dtype=np.int64),
        np.asarray(m.indices, dtype=np.int64),
        np.asarray(m.data, dtype=np.float64),
    )


def right_apply(A: SparseColMatrix, X: np.ndarray) -> np.ndarray:
    """Exact product ``A @ X`` in time proportional to nnz(A) * X.shape[1]."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != A.cols:
        raise ValueError(f"inner dimensions mismatch: {A.shape} @ {X.shape}")
    out = A._scipy @ X
    return np.asarray(out)


def left_apply(y: np.ndarray, A: SparseColMatrix) -> np.ndarray:
    """Row-vector product ``y^T A`` in time proportional to nnz(A)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != A.rows:
        raise ValueError(f"expected a length-{A.rows} vector, got shape {y.shape}")
    return np.asarray(y @ A._scipy)


def column_subset_mean(A: SparseColMatrix, S: np.ndarray) -> np.ndarray:
    """Average of the columns of A indexed by S, as a dense d-vector.

    Runtime is proportional to d + |S| plus the total nnz of the selected
    columns; no other column is read.
    """
    S = np.asarray(S, dtype=np.int64).ravel()
    if S.size == 0:
        raise ValueError("column subset must be nonempty")
    if S.min() < 0 or S.max() >= A.cols:
        raise ValueError(f"column index out of range for n={A.cols}")
    # Gather the entries of the selected columns straight from col_ptr and
    # sum them per row with bincount, which adds in order from 0.0: each
    # row's entries arrive in the order of S, as in A[:, S] @ ones.
    start = A.col_ptr[S]
    count = A.col_ptr[S + 1] - start
    pos = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return np.bincount(A.row_idx[pos], weights=A.values[pos], minlength=A.rows) / S.size


def live_columns(A: SparseColMatrix) -> tuple[np.ndarray, SparseColMatrix]:
    """(live, A_live): the ascending indices of the columns of A that hold an
    entry, and those columns as a d x m matrix that shares ``row_idx`` and
    ``values`` with A.  Column i of A_live is column live[i] of A; when
    every column holds an entry, A_live is A itself.  One O(n) scan of
    ``col_ptr``.
    """
    live = np.flatnonzero(A.col_ptr[1:] != A.col_ptr[:-1])
    if live.size == A.cols:
        return live, A
    # each empty column starts where the next one does, so the start of the
    # next live column (or nnz) ends each live column
    col_ptr = np.append(A.col_ptr[live], A.col_ptr[-1])
    return live, SparseColMatrix(A.rows, live.size, col_ptr, A.row_idx, A.values)


def spectral_norm(
    shape: tuple[int, int],
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    seed: int = 0,
) -> float:
    """Spectral norm of the matrix-free d x n operator x -> matvec(x),
    y -> rmatvec(y), from scipy's Lanczos solver (``svds``, k=1) started
    at a seeded Gaussian vector."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

    d, n = shape
    if min(d, n) < 2:  # svds needs k < min(d, n); the operator is a vector
        if d == 0 or n == 0:
            return 0.0
        return float(np.linalg.norm(matvec(np.ones(1)) if n == 1 else rmatvec(np.ones(1))))
    # svds also applies the operator to single-column blocks
    op = LinearOperator(
        shape,
        matvec=lambda x: matvec(x.ravel()),
        rmatvec=lambda y: rmatvec(y.ravel()),
        dtype=np.float64,
    )
    v0 = np.random.default_rng(seed).standard_normal(min(d, n))
    try:
        return float(svds(op, k=1, v0=v0, return_singular_vectors=False)[0])
    except ArpackError:
        # ARPACK's error -9, "starting vector is zero": svds iterates on the
        # min(d, n)-side Gram operator, and it mapped v0 to zero, which for
        # a Gaussian v0 means the operator is zero to within float range
        gram_v0 = rmatvec(matvec(v0)) if d >= n else matvec(rmatvec(v0))
        if np.any(gram_v0):
            raise
        return 0.0


@dataclass(frozen=True)
class ParsedEdgeList:
    """Edge-list parse result: the matrix plus raw node/edge statistics."""

    matrix: SparseColMatrix
    num_nodes: int
    num_edges: int


def _iter_edge_lines(source: Union[str, TextIO, Iterable[str]]):
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
        yield u, v


def _ones_at(rows: np.ndarray, cols: np.ndarray, d: int, n: int) -> SparseColMatrix:
    """The d x n 0/1 matrix with a 1 at each distinct (rows[i], cols[i]).

    The pairs are deduplicated as one int64 key row * n + col, which
    sorts them in (row, col) order, as a row-wise unique of the pairs
    would, at a fraction of its cost.
    """
    key = np.unique(rows * n + cols)
    r, c = np.divmod(key, n)
    return from_scipy(sp.coo_array((np.ones(key.size), (r, c)), shape=(d, n)))


def parse_edge_list(
    source: Union[str, TextIO, Iterable[str]],
    mode: str = "square",
    d: int | None = None,
    n: int | None = None,
    seed: int = 0,
) -> ParsedEdgeList:
    """Parse a whitespace edge list ('#' lines are comments) into a 0/1 matrix.

    mode="square": symmetric adjacency matrix over the observed node ids,
    remapped densely in sorted order.

    mode="bipartite": the observed node ids are shuffled uniformly with
    ``seed``; the first ``d`` become row-nodes and the next ``n`` become
    column-nodes.  An edge contributes a 1 whenever one endpoint lands on
    each side.  Requires at least d + n observed nodes.
    """
    us, vs = [], []
    for u, v in _iter_edge_lines(source):
        us.append(u)
        vs.append(v)
    if not us:
        raise ValueError("edge list contains no edges (no nodes observed)")
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    ids = np.unique(np.concatenate([u, v]))
    num_nodes = int(ids.size)
    num_edges = int(u.size)

    if mode == "square":
        ui = np.searchsorted(ids, u)
        vi = np.searchsorted(ids, v)
        rows = np.concatenate([ui, vi])
        cols = np.concatenate([vi, ui])
        A = _ones_at(rows, cols, num_nodes, num_nodes)
        return ParsedEdgeList(A, num_nodes, num_edges)

    if mode == "bipartite":
        if d is None or n is None:
            raise ValueError("bipartite mode requires d and n")
        if num_nodes < d + n:
            raise ValueError(
                f"bipartite split needs at least d+n={d + n} nodes, observed {num_nodes}"
            )
        rng = np.random.default_rng(seed)
        # slot[i] is the place of node ids[i] in the shuffled order: rows
        # take slots [0, d), columns [d, d + n)
        slot = np.empty(num_nodes, dtype=np.int64)
        slot[rng.permutation(num_nodes)] = np.arange(num_nodes)
        su = slot[np.searchsorted(ids, u)]
        sv = slot[np.searchsorted(ids, v)]
        forward = (su < d) & (sv >= d) & (sv < d + n)
        backward = (sv < d) & (su >= d) & (su < d + n)
        rows = np.concatenate([su[forward], sv[backward]])
        cols = np.concatenate([sv[forward], su[backward]]) - d
        return ParsedEdgeList(_ones_at(rows, cols, d, n), num_nodes, num_edges)

    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Text snapshot formats (fixtures and CLI artifacts).
# ---------------------------------------------------------------------------


def save_matrix_snapshot(A: SparseColMatrix, f: TextIO) -> None:
    """Write the 'd n nnz' header followed by one 'row col value' per line."""
    f.write(f"{A.rows} {A.cols} {A.nnz}\n")
    col_of = np.repeat(np.arange(A.cols), A.column_nnz())
    f.write("".join(
        f"{r} {c} {v:.17g}\n"
        for r, c, v in zip(A.row_idx.tolist(), col_of.tolist(), A.values.tolist())
    ))


_TRIPLET = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _parse_lines(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """One ``dtype`` record per line, or None if a line is blank or malformed.

    Fields are separated by whitespace; there is no comment syntax.  A
    record without fields is an empty line.
    """
    if dtype.itemsize == 0:
        return None if any(line.strip() for line in lines) else np.zeros(len(lines), dtype)
    if not lines:
        return np.zeros(0, dtype)
    # loadtxt skips blank lines, and warns when it finds nothing else
    if not lines[0].strip():
        return None
    try:
        out = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return out if out.shape[0] == len(lines) else None


def _first_bad_line(lines: list[str], dtype: np.dtype) -> int:
    """Index of the first line that ``_parse_lines`` rejects, given that it
    rejects ``lines``.  Each line parses on its own, so bisect."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_lines(lines[lo:mid], dtype) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _source(f: TextIO) -> str:
    return getattr(f, "name", "<text>")


def _header(f: TextIO, form: str, counts: int) -> list[str]:
    """The first line's fields as ``form`` names them; the last ``counts``
    must be nonnegative integers."""
    header = f.readline().split()
    if len(header) != len(form.split()) or not all(x.isdecimal() for x in header[-counts:]):
        raise ValueError(f"{_source(f)}:1: header must be {form!r}")
    return header


def _read_body(f: TextIO, count: int, dtype: np.dtype, expected: str) -> np.ndarray:
    """Parse the ``count`` lines after the header; a malformed one raises a
    ``ValueError`` naming its line in the file."""
    lines = list(itertools.islice(f, count))
    if len(lines) < count:
        raise ValueError(
            f"{_source(f)}:{len(lines) + 2}: expected {expected}, got the end of the file"
            f" ({count} lines declared)"
        )
    body = _parse_lines(lines, dtype)
    if body is None:
        i = _first_bad_line(lines, dtype)
        got = lines[i].rstrip("\n")
        raise ValueError(f"{_source(f)}:{i + 2}: expected {expected}, got {got!r}")
    return body


def load_matrix_snapshot(f: TextIO) -> SparseColMatrix:
    """Read what ``save_matrix_snapshot`` writes.

    Raises ``ValueError`` naming the line of a malformed header or body
    line, of an index out of range or of a non-finite value.
    """
    d, n, nnz = (int(x) for x in _header(f, "d n nnz", 3))
    body = _read_body(f, nnz, _TRIPLET, "'row col value' (two integers and a number)")
    try:
        return _csc_from_arrays(body["row"], body["col"], body["value"], d, n)
    except _TripletError as exc:
        raise ValueError(f"{_source(f)}:{exc.index + 2}: {exc}") from None
    except ValueError as exc:  # the header's dimensions
        raise ValueError(f"{_source(f)}:1: {exc}") from None


def save_dense_block(name: str, M: np.ndarray, f: TextIO) -> None:
    """Write a named dense block: header '<name> rows cols', one row per line."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    f.write(f"{name} {M.shape[0]} {M.shape[1]}\n")
    f.write("".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in M.tolist()))


def load_dense_block(f: TextIO) -> tuple[str, np.ndarray]:
    """Read what ``save_dense_block`` writes: (name, rows x cols array).

    Raises ``ValueError`` naming the line of a malformed header or row.
    """
    name, rows, cols = _header(f, "<name> rows cols", 2)
    rows, cols = int(rows), int(cols)
    row = np.dtype([("row", np.float64, (cols,))])
    body = _read_body(f, rows, row, f"{cols} numbers" if cols else "an empty line")
    return name, body["row"]


def read_key_values(f: TextIO, convert: Callable[[str, str], object] | None = None) -> dict:
    """``key=value`` lines, as config files and ``meta.txt`` hold them:
    '#' starts a comment, blank lines are skipped, a later key overrides
    an earlier one.  ``convert(key, value)``, if given, makes each value.
    Raises ``ValueError`` naming the line of one without '=' or whose
    conversion fails."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(f, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{_source(f)}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        try:
            out[key] = val if convert is None else convert(key, val)
        except ValueError as exc:
            raise ValueError(f"{_source(f)}:{lineno}: {exc}") from None
    return out
