"""Command-line entry point.

Subcommands: ``gen`` (write a model instance or raw matrix), ``learn``
(recover vertices from a matrix or instance), ``bench`` (time the
sketch factorization against the power-iteration baseline over a
parameter grid), ``eval`` (score estimates against ground truth).

Each subcommand declares every option once, in its table of ``Option``
entries: name (flag and config key), parser with its bounds, whether it
is required, default.  A value resolves flag > config file > default,
the seed flag > SIMPLEXI_SEED > config file > default; an option that
is not given and has no default is left out, so the library's default
applies.  A malformed option, config file or command line exits 2 with
one line.

Every run writes ``manifest.txt`` echoing the fully resolved
configuration; CSV outputs are deterministic given the seed, with wall
clock measurements confined to the timing columns/files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import svg
from .learner import (
    LearnerConfig,
    LearnerError,
    compute_factors,
    learn_simplex,
    load_vertex_estimates,
    save_vertex_estimates,
    select_vertices,
)
from .metrics import (
    SMOOTHING_TRIALS,
    BenchRecord,
    ls_loss,
    match_vertices,
    reduction_check,
    subset_smoothing_check,
)
from .models import (
    check_assumptions,
    compute_alpha,
    gen_bernoulli,
    gen_clusters_adversarial,
    gen_lda,
    gen_mmsb,
    load_instance,
    load_instance_core,
    save_instance,
)
from .sketch import (
    RankRestoreError,
    _squared_singular_values,
    default_power_iters,
    mixed_lra,
    subspace_power,
)
from .sparsemat import (
    load_matrix_snapshot,
    parse_edge_list,
    read_key_values,
    save_matrix_snapshot,
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 1


class UsageError(Exception):
    """A malformed option, config file, environment setting or command
    line; ``main`` prints it as one line and exits with ``USAGE_ERROR``."""


def load_config_file(path: str) -> dict[str, str]:
    """The ``read_key_values`` entries of a config file; raises
    ``UsageError`` if it cannot be read or a line is not key=value."""
    try:
        with open(path) as f:
            return read_key_values(f)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read config file {path}: not text") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# option parsers: (key, text) -> value, raising UsageError naming the key
# ---------------------------------------------------------------------------


def _text(key: str, text: str) -> str:
    if not text:
        raise UsageError(f"{key} must not be empty")
    return text


def _number(key: str, text: str) -> float:
    """A float; fractions like 1/500 are accepted."""
    num, slash, den = text.partition("/")
    try:
        return float(num) / float(den) if slash else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{key} must be a number, got {text!r}") from None


def _integer(low: int | None = None, high: int | None = None) -> Callable[[str, str], int]:
    """Parser of an integer in [low, high]."""

    def parse(key: str, text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {text!r}") from None
        if low is not None and val < low:
            raise UsageError(f"{key}={val} must be at least {low}")
        if high is not None and val > high:
            raise UsageError(f"{key}={val} must be at most {high}")
        return val

    return parse


def _list_of(item: Callable[[str, str], object]) -> Callable[[str, str], list]:
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda key, text: [item(key, x) for x in text.split(",") if x]


@dataclass(frozen=True)
class Option:
    """One option of a subcommand: ``--name`` on the command line, ``name``
    in the config file.  ``required`` is True, or for ``gen`` the models
    that need the option (``model`` comes first in its table)."""

    name: str
    parse: Callable[[str, str], object] = _text
    required: bool | tuple[str, ...] = False
    default: object = None


_OUT = Option("out", required=True)
_SEED = Option("seed", _integer(0), default=0)


def _resolve(args: argparse.Namespace, table: tuple[Option, ...]) -> dict[str, object]:
    """The parsed value of every option in ``table`` that is given or has a
    default, keyed by name.  Raises ``UsageError`` naming the key of a
    value its parser rejects, or of a required option that is not given."""
    config = load_config_file(args.config) if args.config else {}
    opts: dict[str, object] = {}
    for opt in table:
        key, text = opt.name, vars(args)[opt.name]
        if text is None and key == "seed" and "SIMPLEXI_SEED" in os.environ:
            key, text = "SIMPLEXI_SEED", os.environ["SIMPLEXI_SEED"]
        if text is None:
            text = config.get(opt.name)
        if text is not None:
            opts[opt.name] = opt.parse(key, text)
        elif opt.default is not None:
            opts[opt.name] = opt.default
        elif opt.required is True:
            raise UsageError(f"missing required parameter {opt.name!r}")
        elif opts.get("model") in (opt.required or ()):
            raise UsageError(f"missing required parameter {opt.name!r} for model {opts['model']}")
    return opts


def _given(opts: dict[str, object], *names: str) -> dict[str, object]:
    """The options among ``names`` that ``opts`` holds, as keyword arguments."""
    return {name.replace("-", "_"): opts[name] for name in names if name in opts}


def _write_manifest(out_dir: str, resolved: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(f"timestamp={datetime.now(timezone.utc).isoformat()}\n")
        for key in sorted(resolved):
            f.write(f"{key}={resolved[key]}\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_MODELS = ("lda", "mmsb", "clustering", "raw")

GEN_OPTIONS = (
    Option("model", required=True), _OUT, _SEED,
    Option("d", _integer(), required=_MODELS), Option("n", _integer(), required=_MODELS),
    Option("k", _integer(1), required=("lda", "mmsb", "clustering")),
    Option("m", _integer(), required=("lda",)),
    Option("p", _number, required=("mmsb", "raw")), Option("q", _number, required=("mmsb",)),
    Option("sigma-target", _number, required=("clustering",)),
    Option("delta", _number, required=("clustering",)),
    Option("adversary-fraction", _number, default=0.0),
    Option("concentration", _number), Option("topic-concentration", _number),
    Option("separation-factor", _number), Option("noise-rank", _integer(0)),
    Option("pure", _integer(0, 1)),
)


def cmd_gen(o: dict) -> int:
    model, out, seed = o["model"], o["out"], o["seed"]
    try:
        if model == "raw":
            A = gen_bernoulli(o["d"], o["n"], o["p"], seed)
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "matrix.txt"), "w") as f:
                save_matrix_snapshot(A, f)
            resolved = {"model": model, "d": o["d"], "n": o["n"], "p": o["p"], "seed": seed,
                        "nnz": A.nnz}
        else:
            if model == "lda":
                inst = gen_lda(o["d"], o["n"], o["k"], o["m"], seed=seed,
                               **_given(o, "concentration", "topic-concentration", "delta"))
            elif model == "mmsb":
                inst = gen_mmsb(o["n"], o["d"], o["k"], o["p"], o["q"], seed=seed,
                                **_given(o, "pure", "delta"))
            elif model == "clustering":
                inst = gen_clusters_adversarial(
                    o["d"], o["n"], o["k"], o["sigma-target"], o["delta"],
                    o["adversary-fraction"], seed=seed,
                    **_given(o, "separation-factor", "noise-rank"),
                )
            else:
                raise UsageError(f"unknown model {model!r}")
            save_instance(inst, out)
            resolved = {"model": model, "seed": seed, **inst.params,
                        "sigma": inst.sigma, "delta": inst.delta}
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_manifest(out, resolved)
    return 0


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _load_input(path: str):
    """Instance directory or bare matrix snapshot; returns (A, truth), where
    truth is (M, sigma) for an instance directory and None otherwise."""
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, "meta.txt")):
            A, M, fields = load_instance_core(path)
            return A, (M, fields["sigma"])
        matrix_path = os.path.join(path, "matrix.txt")
        if os.path.exists(matrix_path):
            with open(matrix_path) as f:
                return load_matrix_snapshot(f), None
        raise FileNotFoundError(f"{path} has neither meta.txt nor matrix.txt")
    with open(path) as f:
        return load_matrix_snapshot(f), None


LEARN_OPTIONS = (
    Option("input", required=True), _OUT, _SEED,
    Option("k", _integer(), required=True), Option("delta", _number, required=True),
    Option("selection-mode"), Option("baseline"),
)


def cmd_learn(o: dict) -> int:
    inp, out = o["input"], o["out"]
    try:
        cfg = LearnerConfig(k=o["k"], delta=o["delta"], seed=o["seed"],
                            **_given(o, "selection-mode", "baseline"))
        A, truth = _load_input(inp)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from None

    try:
        t0 = time.perf_counter()
        Y, Z, factor_rank_deficient = compute_factors(A, cfg)
        t_factor = time.perf_counter() - t0
    except (RankRestoreError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"learn: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:  # k above min(d, n)
        raise UsageError(str(exc)) from None
    try:
        t0 = time.perf_counter()
        est = select_vertices(A, Y, Z, cfg)
        t_select = time.perf_counter() - t0
    except LearnerError as exc:
        print(f"learn: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "estimates.txt"), "w") as f:
        save_vertex_estimates(est, f)
    _write_csv(
        os.path.join(out, "timings.csv"),
        ["phase", "seconds"],
        [["factorization", _fmt(t_factor)], ["selection", _fmt(t_select)]],
    )
    resolved = {
        "input": inp, "k": cfg.k, "delta": cfg.delta, "seed": cfg.seed,
        "selection_mode": cfg.selection_mode, "baseline": cfg.baseline,
        # as learn_simplex reports it: from the factors or from selection
        "rank_deficient": factor_rank_deficient or est.rank_deficient,
    }
    match_path = os.path.join(out, "match.csv")
    if truth is None or truth[0].shape[1] != est.k:
        if truth is not None:
            # A k sweep over one instance is a supported run; only the matching needs k to fit
            print(f"learn: {est.k} estimated vertices against the instance's "
                  f"{truth[0].shape[1]}; match.csv not written", file=sys.stderr)
        # an earlier run's match.csv in a reused --out would read as this run's
        with contextlib.suppress(FileNotFoundError):
            os.remove(match_path)
    else:
        M, sigma = truth
        alpha = compute_alpha(M)
        match = match_vertices(est, M, sigma=sigma, alpha=alpha, delta=cfg.delta)
        rows = [["max_error", _fmt(match.max_error)],
                ["bound", _fmt(match.bound)],
                ["within_bound", str(match.within_bound).lower()]]
        rows += [[f"error_vertex_{t}", _fmt(e)] for t, e in enumerate(match.per_vertex_error)]
        rows += [[f"match_{t}", str(int(p))] for t, p in enumerate(match.permutation)]
        _write_csv(match_path, ["metric", "value"], rows)
    _write_manifest(out, resolved)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _time_phases(A, k: int, seed: int) -> tuple[float, float]:
    """(sketch seconds, top-k seconds) for one repeat."""
    t0 = time.perf_counter()
    mixed_lra(A, k, seed=seed)
    t_sketch = time.perf_counter() - t0
    T = default_power_iters(A.rows)
    t0 = time.perf_counter()
    res = subspace_power(A, k, T, seed=seed)
    Wt = np.asarray(A._scipy.T @ res.basis)
    np.linalg.svd(Wt, full_matrices=False)  # exact small SVD of the projected matrix
    t_topk = time.perf_counter() - t0
    return t_sketch, t_topk


BENCH_OPTIONS = (
    _OUT, _SEED, Option("k-list", _list_of(_integer(1)), required=True),
    Option("repeats", _integer(1), default=5),
    Option("d", _integer()), Option("n", _integer()), Option("p-list", _list_of(_number)),
    Option("edge-file"), Option("edge-mode"),
    Option("loss-delta", _number), Option("loss-sample", _integer(1), default=200),
)


def cmd_bench(o: dict) -> int:
    out, ks, seed, repeats = o["out"], o["k-list"], o["seed"], o["repeats"]
    if not ks:
        raise UsageError("empty grid")
    if "loss-delta" in o:
        # the timing legs take any k >= 1, the learner runs of the loss legs need k >= 2
        for k in ks:
            try:
                LearnerConfig(k=k, delta=o["loss-delta"])
            except ValueError as exc:
                raise UsageError(f"loss runs at k={k}: {exc}") from None
    edge_file = o.get("edge-file")

    cells: list[tuple[str, dict, object]] = []  # (label, meta, matrix)
    try:
        if edge_file:
            mode = {"mode": o["edge-mode"]} if "edge-mode" in o else {}
            with open(edge_file) as f:
                parsed = parse_edge_list(f, seed=seed, **mode, **_given(o, "d", "n"))
            base = os.path.basename(edge_file)
            for k in ks:
                cells.append((f"{base},k={k}", {"k": k, "source": base}, parsed.matrix))
        else:
            if not o.get("p-list") or "d" not in o or "n" not in o:
                raise UsageError("synthetic grid needs --d, --n and --p-list")
            d, n, ps = o["d"], o["n"], o["p-list"]
            for p in ps:
                A = gen_bernoulli(d, n, p, seed)
                for k in ks:
                    cells.append((f"p={p:g},k={k}", {"k": k, "p": p, "d": d, "n": n}, A))
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from None

    os.makedirs(out, exist_ok=True)
    nan = float("nan")

    def run_cell(label: str, k: int, A, rep: int) -> tuple[BenchRecord, str]:
        rep_seed = seed + rep
        t_sketch = t_topk = loss_sketch = loss_topk = nan
        error = ""
        try:
            t_sketch, t_topk = _time_phases(A, k, rep_seed)
            if "loss-delta" in o:
                losses = {}
                for baseline in ("sketch", "power_iteration"):
                    cfg = LearnerConfig(k=k, delta=o["loss-delta"], seed=rep_seed,
                                        baseline=baseline)
                    est = learn_simplex(A, cfg)
                    losses[baseline] = ls_loss(A, est, sample=min(o["loss-sample"], A.cols),
                                               seed=rep_seed)
                loss_sketch = losses["sketch"]
                loss_topk = losses["power_iteration"]
        except (ValueError, RuntimeError) as exc:
            error = str(exc)
        rec = BenchRecord(label, t_sketch, t_topk, loss_sketch, loss_topk, rep_seed)
        return rec, error

    results = []  # (k, repeat, record, error) for every cell and repeat, in grid order
    for label, meta, A in cells:
        for rep in range(repeats):
            results.append((meta["k"], rep, *run_cell(label, meta["k"], A, rep)))
    legs = ["wall_time_sketch", "wall_time_topk", "loss_sketch", "loss_topk"]

    rep_header = ["label", "k", "repeat", "seed"] + legs + ["error"]
    table = []
    for k, rep, rec, error in results:
        vals = [_fmt(getattr(rec, leg)) if np.isfinite(getattr(rec, leg)) else ""
                for leg in legs]
        table.append([rec.label, _fmt(k), _fmt(rep), _fmt(rec.seed)] + vals + [error])
    _write_csv(os.path.join(out, "bench_repeats.csv"), rep_header, table)

    # headline CSV: one row per grid cell, repeat means
    mean_rows = []
    for label, meta, _ in cells:
        cell = [(rec, error) for _, _, rec, error in results if rec.label == label]
        errors = "; ".join(error for _, error in cell if error)
        mean_row = [label, _fmt(meta["k"]), _fmt(len(cell))]
        for leg in legs:
            vals = [getattr(rec, leg) for rec, _ in cell if np.isfinite(getattr(rec, leg))]
            mean_row.append(_fmt(float(np.mean(vals))) if vals else "")
        mean_row.append(errors)
        mean_rows.append(mean_row)
    _write_csv(
        os.path.join(out, "bench.csv"),
        ["label", "k", "repeats"] + [f"mean_{leg}" for leg in legs] + ["error"],
        mean_rows,
    )

    # mean-over-repeats chart per phase
    by_label: dict[str, dict[str, list[float]]] = {}
    for _, _, rec, _ in results:
        if np.isfinite(rec.wall_time_sketch):
            slot = by_label.setdefault(rec.label, {"sketch": [], "topk": []})
            slot["sketch"].append(rec.wall_time_sketch)
            slot["topk"].append(rec.wall_time_topk)
    if by_label:
        labels = list(by_label.keys())
        series = {
            "sketch factorization": [float(np.mean(by_label[l]["sketch"])) for l in labels],
            "top-k subspace": [float(np.mean(by_label[l]["topk"])) for l in labels],
        }
        with open(os.path.join(out, "bench_times.svg"), "w") as f:
            f.write(svg.bar_chart("Mean phase runtime", "grid cell", "seconds",
                                  labels, series))

    _write_manifest(out, {
        "k_list": ",".join(str(k) for k in ks), "repeats": repeats, "seed": seed,
        "edge_file": edge_file or "", "cells": len(cells),
    })
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


EVAL_OPTIONS = (
    Option("instance", required=True), _OUT, _SEED,
    Option("estimates"), Option("sweep-estimates"),
    Option("sample", _integer(1), default=200),
    Option("smoothing-trials", _integer(0), default=SMOOTHING_TRIALS),
)


def cmd_eval(o: dict) -> int:
    inst_dir, out, seed = o["instance"], o["out"], o["seed"]
    sample, trials = o["sample"], o["smoothing-trials"]
    est_path, sweep_dir = o.get("estimates"), o.get("sweep-estimates")
    if est_path is None and sweep_dir is None:
        raise UsageError("missing required parameter 'estimates' (or 'sweep-estimates')")
    try:
        inst = load_instance(inst_dir)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load instance: {exc}") from None

    if sweep_dir:
        return _eval_sweep(inst, sweep_dir, out, sample, seed)

    try:
        with open(est_path) as f:
            est = load_vertex_estimates(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load estimates: {exc}") from None
    if est.vertices.shape != inst.M.shape:
        d, k = est.vertices.shape
        raise UsageError(f"estimates hold k={k} vertices of length d={d}; the instance has "
                         f"k={inst.M.shape[1]}, d={inst.M.shape[0]}")
    bad = _index_past(est, inst.A.cols)
    if bad is not None:
        raise UsageError(f"estimates select column {bad}; the instance has n={inst.A.cols}")

    try:
        alpha = compute_alpha(inst.M)
        match = match_vertices(est, inst.M, sigma=inst.sigma, alpha=alpha, delta=inst.delta)
        loss = ls_loss(inst.A, est, sample=min(sample, inst.A.cols), seed=seed)
        lam = _squared_singular_values(inst.A)  # one dense spectrum serves both checks
        red = reduction_check(inst.A, est, inst.k, lam)
        report = check_assumptions(inst, np.sqrt(lam))
        worst = subset_smoothing_check(inst.A, inst.P, inst.sigma, trials=trials, seed=seed)
    except (ValueError, RuntimeError) as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR

    rows = [
        ["k", _fmt(inst.k)],
        ["sigma", _fmt(inst.sigma)],
        ["delta", _fmt(inst.delta)],
        ["alpha", _fmt(alpha)],
        ["max_error", _fmt(match.max_error)],
        ["error_bound", _fmt(match.bound)],
        ["within_bound", str(match.within_bound).lower()],
        ["ls_loss", _fmt(loss)],
        ["reduction_residual", _fmt(red.spectral_residual)],
        ["reduction_bound", _fmt(red.lra_bound)],
        ["reduction_passes", str(red.passes).lower()],
        ["smoothing_worst_ratio", _fmt(worst)],
        ["assumption_alpha", _fmt(report.alpha)],
        ["assumption_proximate_ok", str(report.proximate_ok).lower()],
        ["assumption_spectral_ok", str(report.spectral_ok).lower()],
        ["assumption_significant_ok", str(report.significant_ok).lower()],
        ["assumption_phi", _fmt(report.phi)],
    ]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "eval.csv"), ["metric", "value"], rows)
    _write_manifest(out, {"instance": inst_dir, "estimates": est_path, "seed": seed,
                          "sample": sample, "smoothing_trials": trials})
    return 0


def _index_past(est, n: int) -> int | None:
    """The first selected column index that is not below n, if any."""
    for R in est.index_sets:
        if R.size and R.max() >= n:
            return int(R[R >= n][0])
    return None


def _eval_sweep(inst, sweep_dir: str, out: str, sample: int, seed: int) -> int:
    """Loss curves over estimate files named like est_k<k>_dn<dn>.txt."""
    try:
        names = sorted(os.listdir(sweep_dir))
    except OSError as exc:
        raise UsageError(f"cannot read {sweep_dir}: {exc.strerror}") from None
    rows = []
    for name in names:
        if not name.endswith(".txt"):
            continue
        path = os.path.join(sweep_dir, name)
        try:
            with open(path) as f:
                est = load_vertex_estimates(f)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load estimates {path}: {exc}") from None
        bad = _index_past(est, inst.A.cols)
        if bad is not None:
            raise UsageError(f"{path}: selects column {bad}; the instance has n={inst.A.cols}")
        dn = est.index_sets[0].size if est.index_sets else 0
        try:
            loss = ls_loss(inst.A, est, sample=min(sample, inst.A.cols), seed=seed)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
        rows.append((est.k, dn, loss, name))
    if not rows:
        raise UsageError(f"no estimate files in {sweep_dir}")
    os.makedirs(out, exist_ok=True)
    _write_csv(
        os.path.join(out, "sweep.csv"),
        ["k", "dn", "ls_loss", "file"],
        [[str(k), str(dn), _fmt(l), name] for k, dn, l, name in rows],
    )
    ks = sorted({k for k, _, _, _ in rows})
    if len(ks) > 1:
        xs = [float(k) for k, _, _, _ in sorted(rows)]
        ys = [l for _, _, l, _ in sorted(rows)]
        with open(os.path.join(out, "loss_vs_k.svg"), "w") as f:
            f.write(svg.line_chart("Hull fit loss vs k", "k", "loss", {"loss": (xs, ys)}))
    dns = sorted({dn for _, dn, _, _ in rows})
    if len(dns) > 1:
        ordered = sorted(rows, key=lambda r: r[1])
        xs = [float(dn) for _, dn, _, _ in ordered]
        ys = [l for _, _, l, _ in ordered]
        with open(os.path.join(out, "loss_vs_dn.svg"), "w") as f:
            f.write(svg.line_chart("Hull fit loss vs smoothing size", "delta * n", "loss",
                                   {"loss": (xs, ys)}))
    _write_manifest(out, {"sweep": sweep_dir, "sample": sample, "seed": seed})
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argparse's own rejections (an unknown flag, a missing value,
    no subcommand) as ``UsageError`` rather than printing usage."""

    def error(self, message: str):
        raise UsageError(message)


# name: (help, option table, handler)
_COMMANDS = {
    "gen": ("generate an instance or raw matrix", GEN_OPTIONS, cmd_gen),
    "learn": ("recover vertices from a matrix or instance", LEARN_OPTIONS, cmd_learn),
    "bench": ("time sketch vs top-k phases over a grid", BENCH_OPTIONS, cmd_bench),
    "eval": ("score estimates against an instance", EVAL_OPTIONS, cmd_eval),
}


def build_parser() -> argparse.ArgumentParser:
    """One ``--name`` flag per option, taken as a plain string; the option's
    own parser reads it in ``_resolve``."""
    parser = _ArgumentParser(prog="simplexi")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, table, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for opt in table:
            p.add_argument(f"--{opt.name}", dest=opt.name)
    return parser


def main(argv: list[str] | None = None) -> int:
    command = "simplexi"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        _, table, handler = _COMMANDS[command]
        return handler(_resolve(args, table))
    except UsageError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except LearnerError as exc:
        print(f"simplexi: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
