"""Command-line entry point.

Subcommands: ``gen`` (write a model instance or raw matrix), ``learn``
(recover vertices from a matrix or instance), ``bench`` (time the
sketch factorization against the power-iteration baseline over a
parameter grid), ``eval`` (score estimates against ground truth).

Every run writes ``manifest.txt`` echoing the fully resolved
configuration; CSV outputs are deterministic given the seed, with wall
clock measurements confined to the timing columns/files.  The seed
resolves flag > SIMPLEXI_SEED > config file > default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import time
from datetime import datetime, timezone

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
from .metrics import BenchRecord, ls_loss, match_vertices, reduction_check, subset_smoothing_check
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
    save_matrix_snapshot,
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 1


class UsageError(Exception):
    """A malformed option, config file or environment setting; ``main``
    prints it as one line and exits with ``USAGE_ERROR``."""


def _parse_number(text: str) -> float:
    """Float parser that also accepts fractions like 1/500."""
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _parse_int(key: str, value, low: int | None = None) -> int:
    """An integer option's value; raises ``UsageError`` naming ``key`` if it
    is not an integer or is below ``low``."""
    try:
        val = int(value)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {value!r}") from None
    if low is not None and val < low:
        raise UsageError(f"{key}={val} must be at least {low}")
    return val


def load_config_file(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; blank lines ignored.

    Raises ``UsageError`` if the file cannot be read or a line is not
    key=value.
    """
    out: dict[str, str] = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read config file {path}: not text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _resolve(args: argparse.Namespace, key: str, config: dict[str, str], default=None):
    """flag > config file > default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _resolve_int(args: argparse.Namespace, key: str, config: dict[str, str],
                 default: int | None = None, low: int | None = None) -> int | None:
    """``_resolve`` for an integer option, parsed by ``_parse_int``."""
    val = _resolve(args, key, config, default)
    return None if val is None else _parse_int(key, val, low)


def _resolve_seed(args, config) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("SIMPLEXI_SEED")
    if env is not None:
        return _parse_int("SIMPLEXI_SEED", env)
    if "seed" in config:
        return _parse_int("seed", config["seed"])
    return 0


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


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_config_file(args.config) if args.config else {}
    model = _resolve(args, "model", config)
    out = _resolve(args, "out", config)
    if not model or not out:
        print("gen: --model and --out are required", file=sys.stderr)
        return USAGE_ERROR
    seed = _resolve_seed(args, config)

    def need(key, cast):
        val = _resolve(args, key, config)
        if val is None:
            raise KeyError(key)
        return cast(val)

    def opt(key, cast, default):
        val = _resolve(args, key, config)
        return default if val is None else cast(val)

    try:
        if model == "raw":
            d = need("d", int)
            n = need("n", int)
            p = need("p", _parse_number)
            A = gen_bernoulli(d, n, p, seed)
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "matrix.txt"), "w") as f:
                save_matrix_snapshot(A, f)
            resolved = {"model": model, "d": d, "n": n, "p": p, "seed": seed, "nnz": A.nnz}
        elif model == "lda":
            inst = gen_lda(
                need("d", int), need("n", int), need("k", int), need("m", int),
                concentration=opt("concentration", _parse_number, None),
                seed=seed,
                topic_concentration=opt("topic-concentration", _parse_number, 0.05),
                delta=opt("delta", _parse_number, None),
            )
            save_instance(inst, out)
            resolved = {"model": model, "seed": seed, **inst.params,
                        "sigma": inst.sigma, "delta": inst.delta}
        elif model == "mmsb":
            inst = gen_mmsb(
                need("n", int), need("d", int), need("k", int),
                need("p", _parse_number), need("q", _parse_number),
                seed=seed,
                pure=bool(opt("pure", int, 0)),
                delta=opt("delta", _parse_number, None),
            )
            save_instance(inst, out)
            resolved = {"model": model, "seed": seed, **inst.params,
                        "sigma": inst.sigma, "delta": inst.delta}
        elif model == "clustering":
            inst = gen_clusters_adversarial(
                need("d", int), need("n", int), need("k", int),
                need("sigma-target", _parse_number), need("delta", _parse_number),
                opt("adversary-fraction", _parse_number, 0.0),
                seed=seed,
                separation_factor=opt("separation-factor", _parse_number, 10.0),
                noise_rank=opt("noise-rank", int, 1),
            )
            save_instance(inst, out)
            resolved = {"model": model, "seed": seed, **inst.params,
                        "sigma": inst.sigma, "delta": inst.delta}
        else:
            print(f"gen: unknown model {model!r}", file=sys.stderr)
            return USAGE_ERROR
    except KeyError as exc:
        print(f"gen: missing required parameter {exc.args[0]!r} for model {model}",
              file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return USAGE_ERROR
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


def cmd_learn(args: argparse.Namespace) -> int:
    config = load_config_file(args.config) if args.config else {}
    inp = _resolve(args, "input", config)
    out = _resolve(args, "out", config)
    k = _resolve(args, "k", config)
    delta = _resolve(args, "delta", config)
    if not inp or not out or k is None or delta is None:
        print("learn: --input, --out, --k and --delta are required", file=sys.stderr)
        return USAGE_ERROR
    seed = _resolve_seed(args, config)
    try:
        A, truth = _load_input(inp)
        cfg = LearnerConfig(
            k=_parse_int("k", k),
            delta=_parse_number(str(delta)),
            sketch_cols=(_parse_int("sketch-cols", v)
                         if (v := _resolve(args, "sketch-cols", config)) else None),
            seed=seed,
            selection_mode=_resolve(args, "selection-mode", config, "two_sided"),
            baseline=_resolve(args, "baseline", config, "sketch"),
            power_multiplier=_resolve_int(args, "power-multiplier", config, 3),
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"learn: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        t0 = time.perf_counter()
        Y, Z, factor_rank_deficient = compute_factors(A, cfg)
        t_factor = time.perf_counter() - t0
    except (RankRestoreError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"learn: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:  # k above min(d, n), or --sketch-cols below k
        print(f"learn: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
        "input": inp, "k": cfg.k, "delta": cfg.delta, "seed": seed,
        "selection_mode": cfg.selection_mode, "baseline": cfg.baseline,
        "sketch_cols": cfg.sketch_cols if cfg.sketch_cols is not None else cfg.k**2,
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


def _time_phases(A, k: int, power_multiplier: int, seed: int) -> tuple[float, float]:
    """(sketch seconds, top-k seconds) for one repeat."""
    t0 = time.perf_counter()
    mixed_lra(A, k, c=k * k, seed=seed)
    t_sketch = time.perf_counter() - t0
    T = default_power_iters(A.rows, power_multiplier)
    t0 = time.perf_counter()
    res = subspace_power(A, k, T, seed=seed)
    Wt = np.asarray(A._scipy.T @ res.basis)
    np.linalg.svd(Wt, full_matrices=False)  # exact small SVD of the projected matrix
    t_topk = time.perf_counter() - t0
    return t_sketch, t_topk


def cmd_bench(args: argparse.Namespace) -> int:
    config = load_config_file(args.config) if args.config else {}
    out = _resolve(args, "out", config)
    k_list = _resolve(args, "k-list", config)
    if not out or not k_list:
        print("bench: --out and --k-list are required", file=sys.stderr)
        return USAGE_ERROR
    seed = _resolve_seed(args, config)
    repeats = _resolve_int(args, "repeats", config, 5)
    power_multiplier = _resolve_int(args, "power-multiplier", config, 3)
    ks = [_parse_int("k-list", x) for x in str(k_list).split(",") if x]
    edge_file = _resolve(args, "edge-file", config)

    cells: list[tuple[str, dict, object]] = []  # (label, meta, matrix)
    try:
        if edge_file:
            mode = _resolve(args, "edge-mode", config, "square")
            with open(edge_file) as f:
                if mode == "bipartite":
                    d = _resolve_int(args, "d", config)
                    n = _resolve_int(args, "n", config)
                    parsed = parse_edge_list(f, mode="bipartite", d=d, n=n, seed=seed)
                else:
                    parsed = parse_edge_list(f, mode="square")
            base = os.path.basename(edge_file)
            for k in ks:
                cells.append((f"{base},k={k}", {"k": k, "source": base}, parsed.matrix))
        else:
            p_list = _resolve(args, "p-list", config)
            d = _resolve(args, "d", config)
            n = _resolve(args, "n", config)
            if not p_list or d is None or n is None:
                print("bench: synthetic grid needs --d, --n and --p-list", file=sys.stderr)
                return USAGE_ERROR
            d, n = _parse_int("d", d), _parse_int("n", n)
            ps = [_parse_number(x) for x in str(p_list).split(",") if x]
            if not ps or not ks:
                print("bench: empty grid", file=sys.stderr)
                return USAGE_ERROR
            for p in ps:
                A = gen_bernoulli(d, n, p, seed)
                for k in ks:
                    cells.append((f"p={p:g},k={k}", {"k": k, "p": p, "d": d, "n": n}, A))
    except (ValueError, FileNotFoundError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return USAGE_ERROR

    loss_delta = _resolve(args, "loss-delta", config)
    with_loss = loss_delta is not None
    loss_sample = _resolve_int(args, "loss-sample", config, 200)

    os.makedirs(out, exist_ok=True)
    nan = float("nan")

    def run_cell(label: str, k: int, A, rep: int) -> tuple[BenchRecord, str]:
        rep_seed = seed + rep
        t_sketch = t_topk = loss_sketch = loss_topk = nan
        error = ""
        try:
            t_sketch, t_topk = _time_phases(A, k, power_multiplier, rep_seed)
            if with_loss:
                delta = _parse_number(str(loss_delta))
                losses = {}
                for baseline in ("sketch", "power_iteration"):
                    cfg = LearnerConfig(k=k, delta=delta, seed=rep_seed,
                                        baseline=baseline,
                                        power_multiplier=power_multiplier)
                    est = learn_simplex(A, cfg)
                    losses[baseline] = ls_loss(A, est, sample=min(loss_sample, A.cols),
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


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config_file(args.config) if args.config else {}
    inst_dir = _resolve(args, "instance", config)
    est_path = _resolve(args, "estimates", config)
    out = _resolve(args, "out", config)
    sweep_dir = _resolve(args, "sweep-estimates", config)
    if not inst_dir or not out or (not est_path and not sweep_dir):
        print("eval: --instance, --out and --estimates (or --sweep-estimates) are required",
              file=sys.stderr)
        return USAGE_ERROR
    seed = _resolve_seed(args, config)
    sample = _resolve_int(args, "sample", config, 200, low=1)
    trials = _resolve_int(args, "smoothing-trials", config, 1000)
    try:
        inst = load_instance(inst_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"eval: cannot load instance: {exc}", file=sys.stderr)
        return USAGE_ERROR

    os.makedirs(out, exist_ok=True)
    if sweep_dir:
        return _eval_sweep(inst, sweep_dir, out, sample, seed)

    try:
        with open(est_path) as f:
            est = load_vertex_estimates(f)
    except (FileNotFoundError, ValueError) as exc:
        print(f"eval: cannot load estimates: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if est.vertices.shape != inst.M.shape:
        d, k = est.vertices.shape
        print(f"eval: estimates hold k={k} vertices of length d={d}; the instance has "
              f"k={inst.M.shape[1]}, d={inst.M.shape[0]}", file=sys.stderr)
        return USAGE_ERROR
    bad = _index_past(est, inst.A.cols)
    if bad is not None:
        print(f"eval: estimates select column {bad}; the instance has n={inst.A.cols}",
              file=sys.stderr)
        return USAGE_ERROR

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
    rows = []
    for name in sorted(os.listdir(sweep_dir)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(sweep_dir, name)
        try:
            with open(path) as f:
                est = load_vertex_estimates(f)
        except ValueError as exc:
            print(f"eval: cannot load estimates {path}: {exc}", file=sys.stderr)
            return USAGE_ERROR
        bad = _index_past(est, inst.A.cols)
        if bad is not None:
            print(f"eval: {path}: selects column {bad}; the instance has n={inst.A.cols}",
                  file=sys.stderr)
            return USAGE_ERROR
        dn = est.index_sets[0].size if est.index_sets else 0
        try:
            loss = ls_loss(inst.A, est, sample=min(sample, inst.A.cols), seed=seed)
        except ValueError as exc:
            print(f"eval: {path}: {exc}", file=sys.stderr)
            return USAGE_ERROR
        rows.append((est.k, dn, loss, name))
    if not rows:
        print(f"eval: no estimate files in {sweep_dir}", file=sys.stderr)
        return USAGE_ERROR
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexi")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance or raw matrix")
    _add_common(g)
    g.add_argument("--model", choices=["lda", "mmsb", "clustering", "raw"])
    for key in ("d", "n", "k", "m", "noise-rank", "pure"):
        g.add_argument(f"--{key}", type=int, dest=key.replace("-", "_"))
    for key in ("p", "q", "concentration", "topic-concentration", "delta",
                "sigma-target", "adversary-fraction", "separation-factor"):
        g.add_argument(f"--{key}", dest=key.replace("-", "_"))
    g.set_defaults(func=cmd_gen)

    l = sub.add_parser("learn", help="recover vertices from a matrix or instance")
    _add_common(l)
    l.add_argument("--input")
    l.add_argument("--k", type=int)
    l.add_argument("--delta")
    l.add_argument("--sketch-cols", dest="sketch_cols", type=int)
    l.add_argument("--selection-mode", dest="selection_mode",
                   choices=["abs", "two_sided"])
    l.add_argument("--baseline", choices=["sketch", "power_iteration"])
    l.add_argument("--power-multiplier", dest="power_multiplier", type=int)
    l.set_defaults(func=cmd_learn)

    b = sub.add_parser("bench", help="time sketch vs top-k phases over a grid")
    _add_common(b)
    b.add_argument("--d", type=int)
    b.add_argument("--n", type=int)
    b.add_argument("--k-list", dest="k_list")
    b.add_argument("--p-list", dest="p_list")
    b.add_argument("--repeats", type=int)
    b.add_argument("--power-multiplier", dest="power_multiplier", type=int)
    b.add_argument("--edge-file", dest="edge_file")
    b.add_argument("--edge-mode", dest="edge_mode", choices=["square", "bipartite"])
    b.add_argument("--loss-delta", dest="loss_delta")
    b.add_argument("--loss-sample", dest="loss_sample", type=int)
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("eval", help="score estimates against an instance")
    _add_common(e)
    e.add_argument("--instance")
    e.add_argument("--estimates")
    e.add_argument("--sweep-estimates", dest="sweep_estimates")
    e.add_argument("--sample", type=int)
    e.add_argument("--smoothing-trials", dest="smoothing_trials", type=int)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except LearnerError as exc:
        print(f"simplexi: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
