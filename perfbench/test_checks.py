"""Each correctness check of the benchmark passes on the program's output
and rejects a broken copy of it."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

import checks
import run
import spans
import workloads
from program import ROOT
from simplexi import (
    LearnerConfig,
    gen_bernoulli,
    gen_clusters_adversarial,
    learn_simplex,
)
from simplexi.learner import compute_factors
from simplexi.models import load_instance, save_instance
from simplexi.sparsemat import from_scipy

K, DELTA = 4, 0.02


@pytest.fixture(scope="module")
def learned():
    A = gen_bernoulli(60, 400, 0.2, seed=3)
    return A, learn_simplex(A, LearnerConfig(k=K, delta=DELTA, seed=1))


def test_vertex_check_rejects_perturbed_vertex(learned):
    A, est = learned
    checks.vertex_means(A, est.vertices, est.index_sets)
    V = est.vertices.copy()
    V[5, 2] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="vertex 2"):
        checks.vertex_means(A, V, est.index_sets)


def test_index_set_check_rejects_set_shifted_by_one(learned):
    A, est = learned
    checks.index_sets(est.index_sets, A.cols, DELTA, K, est.directions)
    shifted = list(est.index_sets)
    shifted[1] = shifted[1] + 1
    assert shifted[1][-1] < A.cols  # still in range, sorted and distinct
    checks.index_sets(shifted, A.cols, DELTA, K)
    with pytest.raises(checks.CheckFailed, match="two-sided rule"):
        checks.index_sets(shifted, A.cols, DELTA, K, est.directions)
    with pytest.raises(checks.CheckFailed, match="entries"):
        checks.index_sets([R[1:] for R in est.index_sets], A.cols, DELTA, K)


def test_factor_check_rejects_scaled_z():
    # a dominant rank-3 part, so a 10% error in Z exceeds the mixed bound
    rng = np.random.default_rng(0)
    d, n, k = 40, 300, 3
    U = np.linalg.qr(rng.standard_normal((d, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    A = from_scipy(sp.csc_array((U * [30.0, 20.0, 10.0]) @ V.T + 0.01 * rng.standard_normal((d, n))))
    Y, Z, _ = compute_factors(A, LearnerConfig(k=k, delta=0.05, seed=0))
    assert checks.factors(A, Y, Z, k) < 1.0
    with pytest.raises(checks.CheckFailed, match="mixed bound"):
        checks.factors(A, Y, 1.1 * Z, k)
    with pytest.raises(checks.CheckFailed, match="Y\\^T Y"):
        checks.factors(A, 1.01 * Y, Z, k)


@pytest.fixture(scope="module")
def small_instance():
    return gen_clusters_adversarial(20, 60, 3, 1e-6, 0.1, 0.2, seed=0)


def test_round_trip_check_rejects_changed_value_in_a_txt(small_instance, tmp_path):
    inst = small_instance
    save_instance(inst, str(tmp_path))
    checks.round_trip(load_instance(str(tmp_path)), inst.A, inst.M, inst.P)
    path = tmp_path / "A.txt"
    lines = path.read_text().splitlines()
    r, c, v = lines[1].split()
    lines[1] = f"{r} {c} {float(v) + 1e-12!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="A values"):
        checks.round_trip(load_instance(str(tmp_path)), inst.A, inst.M, inst.P)


def test_eval_table_check_rejects_wrong_figures(small_instance):
    inst = small_instance
    V = inst.M + 1e-6
    err = float(np.linalg.norm(V - inst.M, axis=0).max())
    good = {"max_error": f"{err:.12g}", "smoothing_worst_ratio": "0.5"}
    assert checks.eval_table(good, V, inst.M, inst.sigma, inst.delta) == pytest.approx(err)
    with pytest.raises(checks.CheckFailed, match="best matching"):
        checks.eval_table({**good, "max_error": f"{err * 1.001:.12g}"}, V, inst.M,
                          inst.sigma, inst.delta)
    with pytest.raises(checks.CheckFailed, match="exceeds 1"):
        checks.eval_table({**good, "smoothing_worst_ratio": "1.01"}, V, inst.M,
                          inst.sigma, inst.delta)
    far = inst.M[:, [0, 0, 2]]
    err = float(np.linalg.norm(far - inst.M, axis=0).max())
    with pytest.raises(checks.CheckFailed, match="recovery bound"):
        checks.eval_table({**good, "max_error": f"{err:.12g}"}, far, inst.M,
                          inst.sigma, inst.delta)


def test_identical_rejects_a_changed_output(learned):
    _, est = learned
    checks.identical(workloads.estimates_digest(est), workloads.estimates_digest(est))
    other = learn_simplex(learned[0], LearnerConfig(k=K, delta=DELTA, seed=2))
    with pytest.raises(checks.CheckFailed):
        checks.identical(workloads.estimates_digest(other), workloads.estimates_digest(est))


def test_layer_self_time_subtracts_traced_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("op", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 5.0, 0, 0),
        spans.Span("b", 2.0, 3.0, 1, 0),
        spans.Span("b", 3.5, 4.0, 1, 0),
        spans.Span("a", 0.0, 1.0, -1, -1),  # warm-up, not counted
    ]
    layers = tracer.layer_seconds([0])
    assert layers["a_s"] == 4.0 and layers["a_self_s"] == 2.5 and layers["b_s"] == 1.5


def test_tracer_restores_wrapped_functions():
    import simplexi.learner as learner

    original = learner.select_indices
    tracer = spans.Tracer()
    tracer.install()
    assert learner.select_indices is not original
    tracer.close()
    assert learner.select_indices is original


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
