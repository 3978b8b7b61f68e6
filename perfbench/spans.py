"""Spans at the program's layer boundaries, for the traced run.

``Tracer.install`` rebinds the module-level names that callers look up
(``simplexi.learner.select_indices``, ``simplexi.cli.load_instance``, ...)
to timing wrappers, the way a test monkeypatches a function, and
``Tracer.close`` puts the originals back.  A name the program no longer
has is skipped, so a function a later change removes drops out of the
trace.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _selection_entries(A, S, *args, **kwargs) -> dict[str, int]:
    """Entries of A that ``column_subset_mean(A, S)`` reads: nnz of columns S."""
    S = np.asarray(S, dtype=np.int64).ravel()
    return {"learner.selection_entries_read": int((A.col_ptr[S + 1] - A.col_ptr[S]).sum())}


# (module, name callers look up, span name, optional counter of the call's work)
POINTS = (
    ("simplexi.cli", "load_instance", "models.load_instance", None),
    ("simplexi.models", "load_matrix_snapshot", "sparsemat.load_matrix_snapshot", None),
    ("simplexi.models", "load_dense_block", "sparsemat.load_dense_block", None),
    ("simplexi.cli", "save_vertex_estimates", "learner.save_vertex_estimates", None),
    ("simplexi.cli", "match_vertices", "metrics.match_vertices", None),
    ("simplexi.cli", "ls_loss", "metrics.ls_loss", None),
    ("simplexi.cli", "reduction_check", "metrics.reduction_check", None),
    ("simplexi.cli", "check_assumptions", "models.check_assumptions", None),
    ("simplexi.cli", "subset_smoothing_check", "metrics.subset_smoothing_check", None),
    ("simplexi.cli", "compute_factors", "learner.compute_factors", None),
    ("simplexi.learner", "compute_factors", "learner.compute_factors", None),
    ("simplexi.learner", "mixed_lra", "sketch.mixed_lra", None),
    ("simplexi.sketch", "apply_countsketch", "sketch.apply_countsketch", None),
    ("simplexi.cli", "select_vertices", "learner.select_vertices", None),
    ("simplexi.learner", "select_vertices", "learner.select_vertices", None),
    ("simplexi.learner", "orthonormalize", "subspace.orthonormalize", None),
    ("simplexi.learner", "project_out", "subspace.project_out", None),
    ("simplexi.learner", "select_indices", "learner.select_indices", None),
    ("simplexi.learner", "column_subset_mean", "sparsemat.column_subset_mean", _selection_entries),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    op: int  # operation the span belongs to


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, points=POINTS) -> None:
        for module_name, attr, name, counter in points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, name, counter))
            self._restore.append((module, attr, fn))

    def close(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                op_counts = self.counts.setdefault(self.op, {})
                for key, amount in counter(*args, **kwargs).items():
                    op_counts[key] = op_counts.get(key, 0) + amount
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layer_seconds(self, ops: list[int]) -> dict[str, float]:
        """Median over ``ops`` of each layer's seconds per operation, as
        ``<span>_s`` (whole span) and ``<span>_self_s`` (span minus its
        traced children).  A layer an operation did not reach adds 0 s."""
        total = {op: {} for op in ops}
        for span in self.spans:
            if span.op not in total:
                continue
            length = span.end - span.start
            per_op = total[span.op]
            per_op[span.name + "_s"] = per_op.get(span.name + "_s", 0.0) + length
            per_op[span.name + "_self_s"] = per_op.get(span.name + "_self_s", 0.0) + length
            if span.parent >= 0:
                key = self.spans[span.parent].name + "_self_s"
                per_op[key] = per_op.get(key, 0.0) - length
        names = sorted({name for per_op in total.values() for name in per_op})
        return {
            name: statistics.median(total[op].get(name, 0.0) for op in ops) for name in names
        }
