"""Correctness checks applied to a run's outputs after its timed loop.

Each check recomputes what it compares against apart from the program
(scipy column sums, a stable argsort, a dense eigenvalue solver,
enumeration of all matchings), or tests a property the method must have.
A check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import scipy.linalg

VERTEX_RTOL = 1e-12
ORTHONORMAL_TOL = 1e-10
SMOOTHING_SLACK = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Report:
    """Runs checks, keeping every failure and any value a check returns."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0
        self.values: dict[str, float] = {}

    def run(self, name: str, check, *args) -> None:
        try:
            value = check(*args)
        except CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")
            return
        self.passed += 1
        if value is not None:
            self.values[name] = value


def smoothing_size(n: int, delta: float) -> int:
    return max(1, int(math.floor(delta * n)))


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the shapes, dtypes and bytes of the given arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)  # no copy of the bytes, so the digest adds no peak memory
    return h.hexdigest()


def identical(got, want) -> None:
    """Two outputs that must be the same, bit for bit."""
    if got != want:
        raise CheckFailed("outputs differ")


def vertex_means(A, vertices: np.ndarray, index_sets) -> None:
    """Every vertex is the mean of A's columns at its index set."""
    if vertices.shape[1] != len(index_sets):
        raise CheckFailed(f"{vertices.shape[1]} vertices for {len(index_sets)} index sets")
    for t, R in enumerate(index_sets):
        ref = np.asarray(A._scipy[:, R].sum(axis=1)).ravel() / R.size
        err = float(np.max(np.abs(vertices[:, t] - ref)))
        scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
        if err > VERTEX_RTOL * scale:
            raise CheckFailed(
                f"vertex {t} differs from the mean of its columns by {err:.3g} "
                f"(scale {scale:.3g})"
            )


def two_sided_rule(u: np.ndarray, s: int) -> np.ndarray:
    """The s largest or the s smallest coordinates of u, whichever side has
    the larger |sum|; ties go to the lower index; sorted ascending."""
    top = np.argsort(-u, kind="stable")[:s]
    bottom = np.argsort(u, kind="stable")[:s]
    chosen = top if abs(u[top].sum()) >= abs(u[bottom].sum()) else bottom
    return np.sort(chosen)


def index_sets(sets, n: int, delta: float, k: int, directions=None) -> None:
    """k sets of max(1, floor(delta n)) sorted distinct column indices; with
    ``directions``, each set is the two-sided rule applied to its direction."""
    s = smoothing_size(n, delta)
    if len(sets) != k:
        raise CheckFailed(f"{len(sets)} index sets, expected {k}")
    for t, R in enumerate(sets):
        R = np.asarray(R)
        if R.size != s:
            raise CheckFailed(f"index set {t} has {R.size} entries, expected {s}")
        if np.any(np.diff(R) <= 0):
            raise CheckFailed(f"index set {t} is not sorted and distinct")
        if R[0] < 0 or R[-1] >= n:
            raise CheckFailed(f"index set {t} leaves the range [0, {n})")
        if directions is not None and not np.array_equal(R, two_sided_rule(directions[t], s)):
            raise CheckFailed(f"index set {t} is not the two-sided rule on its direction")


def factors(A, Y: np.ndarray, Z: np.ndarray, k: int) -> float:
    """Y has orthonormal columns and ||A - Y Z^T||_2^2 meets the mixed bound
    2 sigma_{k+1}^2 + ||A - A_k||_F^2 / k, with the spectrum from a dense
    eigvalsh of A A^T.  Returns residual / bound."""
    gap = float(np.max(np.abs(Y.T @ Y - np.eye(Y.shape[1]))))
    if gap > ORTHONORMAL_TOL:
        raise CheckFailed(f"Y^T Y differs from I by {gap:.3g}")
    G = (A._scipy @ A._scipy.T).toarray()
    spectrum = np.linalg.eigvalsh(G)[::-1]
    bound = 2.0 * float(spectrum[k]) + float(np.sum(spectrum[k:])) / k
    # (A - Y Z^T)(A - Y Z^T)^T, expanded so that only d x d objects are formed
    AZ = np.asarray(A._scipy @ Z)
    R = G - AZ @ Y.T - Y @ AZ.T + Y @ (Z.T @ Z) @ Y.T
    R = 0.5 * (R + R.T)
    d = R.shape[0]
    residual = float(scipy.linalg.eigh(R, eigvals_only=True, subset_by_index=[d - 1, d - 1])[0])
    if not residual <= bound:
        raise CheckFailed(
            f"||A - Y Z^T||_2^2 = {residual:.6g} exceeds the mixed bound {bound:.6g}"
        )
    return residual / bound


def round_trip(loaded, A, M: np.ndarray, P: np.ndarray) -> None:
    """The instance read back from its directory equals the generated one bit for bit."""
    pairs = [
        ("A shape", np.array(loaded.A.shape), np.array(A.shape)),
        ("A col_ptr", loaded.A.col_ptr, A.col_ptr),
        ("A row_idx", loaded.A.row_idx, A.row_idx),
        ("A values", loaded.A.values, A.values),
        ("M", loaded.M, M),
        ("P", loaded.P, P),
    ]
    for name, got, want in pairs:
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            raise CheckFailed(f"{name} read back from the instance differs from the generated one")


def separation(M: np.ndarray) -> float:
    """Smallest norm of a vertex's part outside the span of the others,
    over the largest vertex norm (least squares, not the program's code)."""
    worst = math.inf
    for ell in range(M.shape[1]):
        others = np.delete(M, ell, axis=1)
        coef = np.linalg.lstsq(others, M[:, ell], rcond=None)[0]
        worst = min(worst, float(np.linalg.norm(M[:, ell] - others @ coef)))
    return worst / float(np.max(np.linalg.norm(M, axis=0)))


def _printed_tolerance(x: float) -> float:
    """1e-12 plus half a unit in the 12th significant digit, the precision
    ``eval.csv`` prints with."""
    if x == 0.0:
        return 1e-12
    return 1e-12 + 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def eval_table(table: dict, V: np.ndarray, M: np.ndarray, sigma: float, delta: float) -> float:
    """``eval.csv`` agrees with a matching found by enumerating every
    permutation, that error is within 300 k^4 sigma / (alpha sqrt(delta)),
    and the subset-smoothing ratio is at most 1.  Returns the max error."""
    k = M.shape[1]
    cost = np.linalg.norm(V[:, :, None] - M[:, None, :], axis=0)
    rows = np.arange(k)
    best = min(itertools.permutations(range(k)), key=lambda p: cost[rows, p].sum())
    max_error = float(cost[rows, best].max())
    printed = float(table["max_error"])
    if abs(printed - max_error) > _printed_tolerance(max_error):
        raise CheckFailed(f"eval.csv max_error {printed!r}, the best matching gives {max_error!r}")
    bound = 300.0 * k**4 * sigma / (separation(M) * math.sqrt(delta))
    if not max_error <= bound:
        raise CheckFailed(f"max_error {max_error:.6g} exceeds the recovery bound {bound:.6g}")
    ratio = float(table["smoothing_worst_ratio"])
    if not ratio <= 1.0 + SMOOTHING_SLACK:
        raise CheckFailed(f"smoothing_worst_ratio {ratio!r} exceeds 1")
    return max_error
