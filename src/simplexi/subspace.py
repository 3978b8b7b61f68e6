"""Subspace geometry: orthonormal bases, angular distances, projections.

The extremal principal angle between two subspaces F, G with orthonormal
bases is recovered from the smallest singular value of F^T G, so nothing
here ever materializes a d x d projection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Basis",
    "orthonormalize",
    "extend_basis",
    "sin_theta",
    "project_out",
]


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis stored as the columns of a d x r array."""

    cols: np.ndarray

    @property
    def dim(self) -> int:
        return self.cols.shape[0]

    @property
    def r(self) -> int:
        return self.cols.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.r == 0


_DEPENDENCE_TOL = 1e-10  # relative residual norm at or below which a vector is dropped


def _empty_basis(d: int) -> Basis:
    return Basis(np.zeros((d, 0), dtype=np.float64))


def _unit_residual(v: np.ndarray, cols: list[np.ndarray]) -> np.ndarray | None:
    """One Gram-Schmidt step: v minus its components along the orthonormal
    ``cols`` (two passes), normalized; None when v is zero or its residual
    norm is at most ``_DEPENDENCE_TOL`` times its own norm."""
    vn = np.linalg.norm(v)
    if vn == 0.0:
        return None
    r = v.copy()
    for _ in range(2):  # re-orthogonalize once for numerical safety
        for q in cols:
            r -= q * (q @ r)
    rn = np.linalg.norm(r)
    if rn <= _DEPENDENCE_TOL * vn:
        return None
    return r / rn


def orthonormalize(vectors: Union[np.ndarray, Sequence[np.ndarray]]) -> Basis:
    """Orthonormal basis for the span of the given d-vectors.

    Gram-Schmidt with a second re-orthogonalization pass; a vector whose
    residual norm falls below ``_DEPENDENCE_TOL`` times its own norm is
    treated as dependent and dropped.  If every vector is (numerically) zero the
    returned basis is empty.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vecs = [np.asarray(vectors[:, j], dtype=np.float64) for j in range(vectors.shape[1])]
    else:
        vecs = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    if not vecs:
        raise ValueError("orthonormalize requires at least one vector")
    d = vecs[0].shape[0]
    cols: list[np.ndarray] = []
    for v in vecs:
        if v.shape[0] != d:
            raise ValueError("all vectors must have the same length")
        q = _unit_residual(v, cols)
        if q is not None:
            cols.append(q)
    if not cols:
        return _empty_basis(d)
    return Basis(np.column_stack(cols))


def extend_basis(U: Basis, v: np.ndarray) -> Basis:
    """``orthonormalize`` of U's columns followed by v, in O(d * U.r).

    If U came from ``orthonormalize(vectors)``, the result equals
    ``orthonormalize(vectors + [v])`` bit for bit: the same Gram-Schmidt
    step appends v's normalized residual, or U is returned unchanged
    when v is zero or numerically in span(U).
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape[0] != U.dim:
        raise ValueError(f"vector length {v.shape[0]} != basis dimension {U.dim}")
    # Contiguous copies, as orthonormalize holds them: a dot product over a
    # strided column can round differently.
    cols = [q.copy() for q in U.cols.T]
    q = _unit_residual(v, cols)
    if q is None:
        return U
    return Basis(np.column_stack(cols + [q]))


def sin_theta(F: Basis, G: Basis) -> float:
    """Extremal principal-angle sine max_{u in F} min_{v in G} sin(u, v).

    Equals sqrt(1 - smin(F^T G)^2) when dim F <= dim G, and 1 when
    dim F > dim G (some direction of F is then orthogonal to all of G).
    """
    if F.is_empty or G.is_empty:
        raise ValueError("sin_theta requires nonempty bases")
    if F.r > G.r:
        return 1.0
    s = np.linalg.svd(F.cols.T @ G.cols, compute_uv=False)
    c = min(1.0, float(s.min()))
    return float(np.sqrt(max(0.0, 1.0 - c * c)))


def project_out(v: np.ndarray, U: Basis) -> np.ndarray:
    """Component of v orthogonal to span(U), i.e. (I - UU^T) v."""
    v = np.asarray(v, dtype=np.float64)
    if U.is_empty:
        return v.copy()
    if v.shape[0] != U.dim:
        raise ValueError(f"vector length {v.shape[0]} != basis dimension {U.dim}")
    r = v - U.cols @ (U.cols.T @ v)
    r -= U.cols @ (U.cols.T @ r)  # second pass keeps residual below 1e-10 * |v|
    return r
