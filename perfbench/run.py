"""Run one benchmark workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one operation at a time: one warm-up operation that is
not counted, then operations 0, 1, 2, ... until S seconds have passed.
The workload seed drives only the input generator; operation i uses
learner seed i.  Outputs are checked outside the operations' timing:
per operation between operations where that is cheap, the rest after
the loop (see checks.py and workloads.py).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the layer boundaries are wrapped in
timing spans (spans.py) and the object holds the per-layer metrics, after
a table of every per-layer figure the workload reaches.  A failed check
prints its reason to standard error, reports "correct": false and exits 1.
The full result also goes to perfbench/_results/.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import program  # noqa: E402

program.use_checkout_sources()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer figures every workload reaches: the JSON line of a traced run.
PER_LAYER = {
    "traced.op_s": "s",
    "models.gen_s": "s",
    "learner.compute_factors_s": "s",
    "sketch.mixed_lra_s": "s",
    "sketch.mixed_lra_self_s": "s",
    "learner.select_vertices_s": "s",
    "learner.select_vertices_self_s": "s",
    "learner.select_indices_s": "s",
    "subspace.orthonormalize_s": "s",
    "subspace.project_out_s": "s",
    "sparsemat.column_subset_mean_s": "s",
    "learner.selection_entries_read": "count",
    "learner.selection_read_share": "ratio",
}

# Every per-layer figure, in the order the traced run's table prints them;
# those only some workloads reach are printed there alone.
TABLE = {
    "traced.op_s": "s",
    # instance I/O
    "models.load_instance_s": "s",
    "sparsemat.load_matrix_snapshot_s": "s",
    "sparsemat.load_dense_block_s": "s",
    "learner.save_vertex_estimates_s": "s",
    "models.instance_bytes": "bytes",
    # set-up
    "models.gen_s": "s",
    "models.save_instance_s": "s",
    # evaluation
    "metrics.subset_smoothing_check_s": "s",
    "metrics.reduction_check_s": "s",
    "models.check_assumptions_s": "s",
    "metrics.ls_loss_s": "s",
    "metrics.match_vertices_s": "s",
    # factorization
    "learner.compute_factors_s": "s",
    "sketch.mixed_lra_s": "s",
    "sketch.mixed_lra_self_s": "s",
    "sketch.apply_countsketch_s": "s",
    # selection
    "learner.select_vertices_s": "s",
    "learner.select_vertices_self_s": "s",
    "learner.select_indices_s": "s",
    "subspace.orthonormalize_s": "s",
    "subspace.project_out_s": "s",
    "sparsemat.column_subset_mean_s": "s",
    # selection's reads of A
    "learner.selection_entries_read": "count",
    "learner.selection_read_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_inputs(name: str, seed: int, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "make_inputs.py"), "--workload", name,
         "--seed", str(seed), "--out", str(work)],
        check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
    )
    return json.loads((work / "setup.json").read_text())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_loop(session, seconds: float, tracer, report) -> tuple[list[float], list[float], int]:
    """Closed loop after the warm-up: (wall seconds per op, CPU seconds per
    op, failed ops)."""

    def one(i: int):
        if tracer is not None:
            tracer.op = i
        with tracer.span("op") if tracer is not None else nullcontext():
            return session.op(i)

    walls, cpus, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output = one(i)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc()
            failed += 1
            output = None
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if output is not None:
            session.keep(i, output, report)
        i += 1
        if t1 >= deadline:
            return walls, cpus, failed


def layer_metrics(tracer, walls: list[float], setup: dict) -> dict[str, float]:
    values = {"traced.op_s": statistics.median(walls)}
    values.update({k: v for k, v in setup.items() if k in TABLE})
    values.update(tracer.layer_seconds(list(range(len(walls)))))
    read = tracer.counts.get(0, {}).get("learner.selection_entries_read", 0)
    values["learner.selection_entries_read"] = read
    values["learner.selection_read_share"] = read / setup["nnz"]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup = make_inputs(args.workload, args.seed, work)
        session = wl.start(args.seed, work)
        setup_s = time.perf_counter() - _PROCESS_START

        report = checks.Report()
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            session.op(0)  # warm-up, not counted
            # Peak memory of the inputs plus one operation.  Later operations
            # add only allocator retention, which on sparse_n200k_k16 jumps
            # by about 23 MB at a different operation in each run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls, cpus, failed = timed_loop(session, args.seconds, tracer, report)
        finally:
            if tracer is not None:
                tracer.close()
        session.check(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(walls),
            "op_cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(tracer, walls, setup)
        for name, unit in TABLE.items():
            if name in values:
                print(f"{name:36s} {values[name]:>14.6g} {unit}")
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}

    for failure in report.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not report.failures,
        "attempted": len(walls),
        "failed": failed,
        "metrics": metrics,
    }
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "op_wall_s": walls, "op_cpu_s": cpus, "setup": setup,
        "checks_passed": report.passed, "check_failures": report.failures,
        "check_values": report.values, "per_layer": values if tracer else None,
        "environment": environment(),
    }, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
