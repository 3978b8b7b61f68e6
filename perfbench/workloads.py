"""The benchmark's workloads: how each makes its inputs, what one operation
is, and which checks its outputs must pass.

``make_inputs`` runs in a process of its own (``make_inputs.py``), so the
generator's temporaries never set the peak memory of the process that runs
the operations.  ``start`` then opens the inputs in the operating process
and returns a session with ``op(i)``, ``keep(i, output, report)`` and
``check(report)``.
Operation i uses learner seed i; the workload seed only drives the
generator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from simplexi import LearnerConfig, gen_bernoulli, gen_clusters_adversarial, learn_simplex
from simplexi.cli import main as simplexi_main
from simplexi.learner import compute_factors
from simplexi.models import load_instance, save_instance
from simplexi.sparsemat import SparseColMatrix


class OperationFailed(Exception):
    """A CLI call of an operation exited non-zero."""


def estimates_digest(est) -> str:
    return checks.digest(est.vertices, est.directions, *est.index_sets)


@dataclass(frozen=True)
class BernoulliLearn:
    """``learn_simplex`` on ``gen_bernoulli(d, n, p, seed)``."""

    d: int
    n: int
    p: float
    k: int
    delta: float

    def make_inputs(self, seed: int, out: Path) -> dict:
        t0 = perf_counter()
        A = gen_bernoulli(self.d, self.n, self.p, seed)
        gen_s = perf_counter() - t0
        np.savez(out / "A.npz", col_ptr=A.col_ptr, row_idx=A.row_idx, values=A.values)
        return {"models.gen_s": gen_s, "nnz": A.nnz}

    def start(self, seed: int, out: Path) -> "LearnSession":
        with np.load(out / "A.npz") as f:
            A = SparseColMatrix(self.d, self.n, f["col_ptr"], f["row_idx"], f["values"])
        return LearnSession(self, A)


class LearnSession:
    def __init__(self, wl: BernoulliLearn, A: SparseColMatrix) -> None:
        self.wl = wl
        self.A = A
        self.digests: dict[int, str] = {}  # op -> digest of its estimates

    def config(self, i: int) -> LearnerConfig:
        return LearnerConfig(k=self.wl.k, delta=self.wl.delta, seed=i)

    def op(self, i: int):
        return learn_simplex(self.A, self.config(i))

    def keep(self, i: int, est, report: checks.Report) -> None:
        # Checked at once, outside the operation's timing, and only a digest
        # is kept, so that memory does not grow with the operations a run
        # completes.
        report.run(f"op {i} vertices", checks.vertex_means, self.A, est.vertices, est.index_sets)
        report.run(f"op {i} index sets", checks.index_sets,
                   est.index_sets, self.A.cols, self.wl.delta, self.wl.k)
        self.digests[i] = estimates_digest(est)

    def check(self, report: checks.Report) -> None:
        A, k, delta = self.A, self.wl.k, self.wl.delta
        # Re-running the first and the last operation gives their directions
        # for the rule (the n-long argsorts are too slow to run on every
        # operation) and shows that the estimates repeat bit for bit.
        for i in sorted({min(self.digests), max(self.digests)} if self.digests else ()):
            est = self.op(i)
            report.run(f"op {i} re-run", checks.identical, estimates_digest(est), self.digests[i])
            report.run(f"op {i} two-sided rule", checks.index_sets,
                       est.index_sets, A.cols, delta, k, est.directions)
        Y, Z, _ = compute_factors(A, self.config(0))
        report.run("op 0 factors", checks.factors, A, Y, Z, k)


@dataclass(frozen=True)
class CliClusters:
    """``simplexi learn`` then ``simplexi eval`` through ``simplexi.cli.main``
    on an instance directory written by ``save_instance``."""

    d: int
    n: int
    k: int
    delta: float
    sigma_target: float
    adversary_fraction: float
    noise_rank: int

    def generate(self, seed: int):
        return gen_clusters_adversarial(
            self.d, self.n, self.k, self.sigma_target, self.delta,
            self.adversary_fraction, seed=seed, noise_rank=self.noise_rank,
        )

    def make_inputs(self, seed: int, out: Path) -> dict:
        t0 = perf_counter()
        inst = self.generate(seed)
        t1 = perf_counter()
        save_instance(inst, str(out / "instance"))
        t2 = perf_counter()
        size = sum(p.stat().st_size for p in (out / "instance").iterdir())
        return {
            "models.gen_s": t1 - t0,
            "models.save_instance_s": t2 - t1,
            "models.instance_bytes": size,
            "nnz": inst.A.nnz,
        }

    def start(self, seed: int, out: Path) -> "CliSession":
        return CliSession(self, seed, out)


def parse_estimates(text: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """(vertices d x k, index sets) from an ``estimates.txt`` text."""
    lines = text.splitlines()
    k, d, _ = (int(x) for x in lines[0].split())
    sets = [np.array(lines[1 + t].split(), dtype=np.int64) for t in range(k)]
    V = np.array([[float(x) for x in lines[1 + k + t].split()] for t in range(k)]).reshape(k, d)
    return V.T, sets


def read_eval_table(path: Path) -> dict[str, str]:
    with open(path, newline="") as f:
        return {row["metric"]: row["value"] for row in csv.DictReader(f)}


class CliSession:
    def __init__(self, wl: CliClusters, seed: int, out: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.out = out
        self.instance = out / "instance"
        self.kept: dict[int, tuple[str, dict]] = {}  # op -> (estimates.txt, eval.csv)

    def op(self, i: int) -> tuple[Path, Path]:
        learned = self.out / f"learn-{i}"
        code = simplexi_main([
            "learn", "--input", str(self.instance), "--k", str(self.wl.k),
            "--delta", repr(self.wl.delta), "--seed", str(i), "--out", str(learned),
        ])
        if code != 0:
            raise OperationFailed(f"simplexi learn exited {code}")
        estimates = learned / "estimates.txt"
        evaluated = self.out / f"eval-{i}"
        code = simplexi_main([
            "eval", "--instance", str(self.instance), "--estimates", str(estimates),
            "--seed", str(i), "--out", str(evaluated),
        ])
        if code != 0:
            raise OperationFailed(f"simplexi eval exited {code}")
        return estimates, evaluated / "eval.csv"

    def keep(self, i: int, output: tuple[Path, Path], report: checks.Report) -> None:
        estimates, table = output
        self.kept[i] = (estimates.read_text(), read_eval_table(table))

    def check(self, report: checks.Report) -> None:
        wl = self.wl
        inst = wl.generate(self.seed)
        report.run("instance round trip", checks.round_trip,
                   load_instance(str(self.instance)), inst.A, inst.M, inst.P)
        parsed = {}
        for i, (text, table) in self.kept.items():
            V, sets = parsed[i] = parse_estimates(text)
            report.run(f"op {i} vertices", checks.vertex_means, inst.A, V, sets)
            report.run(f"op {i} index sets", checks.index_sets, sets, wl.n, wl.delta, wl.k)
            report.run(f"op {i} eval.csv", checks.eval_table, table, V, inst.M,
                       inst.sigma, inst.delta)
        # The CLI writes no directions.  Re-running the first and the last
        # operation through the library on the generated matrix must give
        # the CLI's output bit for bit and obey the rule on its directions.
        for i in sorted({min(self.kept), max(self.kept)} if self.kept else ()):
            est = learn_simplex(inst.A, LearnerConfig(k=wl.k, delta=wl.delta, seed=i))
            V, sets = parsed[i]
            report.run(f"op {i} CLI equals library", checks.identical,
                       checks.digest(est.vertices, *est.index_sets), checks.digest(V, *sets))
            report.run(f"op {i} two-sided rule", checks.index_sets,
                       est.index_sets, wl.n, wl.delta, wl.k, est.directions)


WORKLOADS = {
    "cli_clusters_k3": CliClusters(
        d=200, n=1000, k=3, delta=0.08, sigma_target=0.5 * math.sqrt(0.08) / 3**9,
        adversary_fraction=0.3, noise_rank=1,
    ),
    "dense_nnz2m_k32": BernoulliLearn(d=2000, n=10000, p=0.1, k=32, delta=2e-3),
    "sparse_n200k_k16": BernoulliLearn(d=1000, n=200000, p=1 / 5000, k=16, delta=1e-3),
}
