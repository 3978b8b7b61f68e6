import csv
import xml.etree.ElementTree as ET

import pytest

from simplexi import svg
from simplexi.cli import main


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestGen:
    def test_raw_matrix(self, tmp_path):
        out = tmp_path / "raw"
        code = main([
            "gen", "--model", "raw", "--d", "40", "--n", "200", "--p", "1/10",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "matrix.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "model=raw" in manifest and "seed=3" in manifest

    @pytest.mark.parametrize("d, n", [("3", "0"), ("0", "3")])
    def test_raw_empty_shape(self, tmp_path, d, n):
        out = tmp_path / "empty"
        code = main(["gen", "--model", "raw", "--d", d, "--n", n, "--p", "0.1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "matrix.txt").read_text() == f"{d} {n} 0\n"

    def test_raw_shape_past_int64_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--model", "raw", "--d", "100000000000",
                     "--n", "100000000000", "--p", "1e-20", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2^63 - 1 positions" in err

    def test_raw_huge_shape_at_tiny_p(self, tmp_path):
        # 1e12 positions and about 1000 entries: drawing costs O(nnz + n)
        out = tmp_path / "huge"
        code = main(["gen", "--model", "raw", "--d", "1000000", "--n", "1000000",
                     "--p", "1e-9", "--seed", "5", "--out", str(out)])
        assert code == 0
        header = (out / "matrix.txt").read_text().split("\n", 1)[0].split()
        assert header[:2] == ["1000000", "1000000"]
        assert 800 < int(header[2]) < 1200

    def test_missing_param_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--model", "raw", "--d", "4", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "missing required parameter" in capsys.readouterr().err

    def test_instance_models(self, tmp_path):
        out = tmp_path / "lda"
        code = main([
            "gen", "--model", "lda", "--d", "30", "--n", "60", "--k", "3",
            "--m", "40", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        for name in ("A.txt", "M.txt", "W.txt", "meta.txt", "manifest.txt"):
            assert (out / name).exists()
        assert not (out / "P.txt").exists()  # P = M W is derived

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        code = main([
            "gen", "--model", "mmsb", "--n", "30", "--d", "10", "--k", "2",
            "--p", "0.1", "--q", "0.5", "--out", str(tmp_path / "y"),
        ])
        assert code == 2


class TestLearnAndEval:
    @pytest.fixture()
    def instance_dir(self, tmp_path):
        out = tmp_path / "inst"
        assert main([
            "gen", "--model", "clustering", "--d", "25", "--n", "400", "--k", "3",
            "--sigma-target", "1e-6", "--delta", "0.1", "--adversary-fraction", "0.2",
            "--seed", "5", "--out", str(out),
        ]) == 0
        return out

    def test_learn_writes_outputs(self, tmp_path, instance_dir):
        out = tmp_path / "learned"
        code = main([
            "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert (out / "estimates.txt").exists()
        timings = dict(read_csv(out / "timings.csv")[1:])
        assert set(timings) == {"factorization", "selection"}
        assert all(float(v) >= 0 for v in timings.values())
        match = dict(read_csv(out / "match.csv")[1:])
        assert float(match["max_error"]) <= float(match["bound"])

    def test_learn_deterministic_outputs(self, tmp_path, instance_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
                "--seed", "7", "--out", str(out),
            ]) == 0
        assert (a / "estimates.txt").read_bytes() == (b / "estimates.txt").read_bytes()
        assert (a / "match.csv").read_bytes() == (b / "match.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, instance_dir, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("SIMPLEXI_SEED", "7")
        assert main(["learn", "--input", str(instance_dir), "--k", "3",
                     "--delta", "0.1", "--out", str(a)]) == 0
        monkeypatch.delenv("SIMPLEXI_SEED")
        assert main(["learn", "--input", str(instance_dir), "--k", "3",
                     "--delta", "0.1", "--seed", "7", "--out", str(b)]) == 0
        assert (a / "estimates.txt").read_bytes() == (b / "estimates.txt").read_bytes()

    def test_eval_outputs(self, tmp_path, instance_dir):
        learned = tmp_path / "learned"
        assert main([
            "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
            "--seed", "7", "--out", str(learned),
        ]) == 0
        out = tmp_path / "eval"
        code = main([
            "eval", "--instance", str(instance_dir),
            "--estimates", str(learned / "estimates.txt"),
            "--sample", "50", "--smoothing-trials", "60",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = dict(read_csv(out / "eval.csv")[1:])
        assert rows["within_bound"] == "true"
        assert float(rows["smoothing_worst_ratio"]) <= 1.0 + 1e-9
        assert rows["reduction_passes"] == "true"

    def test_eval_missing_estimates_is_usage_error(self, tmp_path, instance_dir, capsys):
        for path, message in [(tmp_path / "nope.txt", "No such file or directory"),
                              (instance_dir, "Is a directory")]:
            code = main(["eval", "--instance", str(instance_dir),
                         "--estimates", str(path), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and message in err
        sweep = tmp_path / "no_sweep"
        code = main(["eval", "--instance", str(instance_dir), "--sweep-estimates", str(sweep),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"eval: cannot read {sweep}: No such file or directory\n")

    def test_k_other_than_instance(self, tmp_path, instance_dir, capsys):
        # learn writes the estimates without match.csv; eval refuses them as usage
        learned = tmp_path / "k4"
        code = main([
            "learn", "--input", str(instance_dir), "--k", "4", "--delta", "0.1",
            "--seed", "7", "--out", str(learned),
        ])
        assert code == 0
        assert (learned / "estimates.txt").exists() and (learned / "manifest.txt").exists()
        assert not (learned / "match.csv").exists()
        err = capsys.readouterr().err
        assert err == "learn: 4 estimated vertices against the instance's 3; match.csv not written\n"
        code = main([
            "eval", "--instance", str(instance_dir),
            "--estimates", str(learned / "estimates.txt"), "--out", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("eval: estimates hold k=4 vertices of length d=25; "
                       "the instance has k=3, d=25\n")

    def test_reused_out_drops_stale_match_csv(self, tmp_path, instance_dir):
        out = tmp_path / "learned"
        for k in ("3", "4"):
            assert main(["learn", "--input", str(instance_dir), "--k", k, "--delta", "0.1",
                         "--seed", "7", "--out", str(out)]) == 0
            assert (out / "match.csv").exists() == (k == "3")

    def test_eval_estimates_of_other_length_is_usage_error(self, tmp_path, instance_dir, capsys):
        import numpy as np

        from simplexi.learner import VertexEstimates, save_vertex_estimates

        sets = tuple(np.arange(t, t + 5) for t in range(3))
        path = tmp_path / "short.txt"
        with open(path, "w") as f:
            save_vertex_estimates(VertexEstimates(np.zeros((24, 3)), sets, np.zeros((3, 0))), f)
        code = main(["eval", "--instance", str(instance_dir), "--estimates", str(path),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("eval: estimates hold k=3 vertices of length d=24; "
                       "the instance has k=3, d=25\n")

    @pytest.mark.parametrize("line, old, new, message", [
        (5, "0.5", "nan", "line 5: vertex entry nan is not finite"),
        (7, "0.5", "inf", "line 7: vertex entry inf is not finite"),
        (3, "2", "-5", "line 3: column index -5 is out of range"),
        (1, "3 25 5", "3 25 x", "line 1: header must be 'k d s'"),
        (1, "3 25 5", "3 -25 5", "line 1: header must be 'k d s'"),
        (2, "0", "x", "line 2: column index 'x' is not an integer"),
        (6, "0.5", "abc", "line 6: vertex entry 'abc' is not a number"),
    ])
    def test_eval_malformed_estimates_are_usage_errors(
        self, tmp_path, instance_dir, capsys, line, old, new, message
    ):
        import numpy as np

        from simplexi.learner import VertexEstimates, save_vertex_estimates

        sets = tuple(np.arange(t, t + 5) for t in range(3))
        path = tmp_path / "bad.txt"
        with open(path, "w") as f:
            save_vertex_estimates(VertexEstimates(np.full((25, 3), 0.5), sets,
                                                  np.zeros((3, 0))), f)
        lines = path.read_text().splitlines()
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--instance", str(instance_dir), "--estimates", str(path),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err == f"eval: cannot load estimates: {message}\n"
        assert not (tmp_path / "e").exists()

    def test_eval_index_past_n_is_usage_error(self, tmp_path, instance_dir, capsys):
        import numpy as np

        from simplexi.learner import VertexEstimates, save_vertex_estimates

        sets = (np.arange(5), np.array([1, 2, 3, 4, 999999]), np.arange(5))
        path = tmp_path / "far.txt"
        with open(path, "w") as f:
            save_vertex_estimates(VertexEstimates(np.zeros((25, 3)), sets, np.zeros((3, 0))), f)
        code = main(["eval", "--instance", str(instance_dir), "--estimates", str(path),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err == (
            "eval: estimates select column 999999; the instance has n=400\n")
        assert not (tmp_path / "e" / "eval.csv").exists()
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        path.rename(sweep / "est_k3_dn5.txt")
        code = main(["eval", "--instance", str(instance_dir), "--sweep-estimates", str(sweep),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"eval: {sweep / 'est_k3_dn5.txt'}: selects column 999999; the instance has n=400\n")

    def test_eval_sweep_malformed_file_is_usage_error(self, tmp_path, instance_dir, capsys):
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        bad = sweep / "est_k3_dn40.txt"
        bad.write_text("3 25 1\n1\n2\n")
        code = main(["eval", "--instance", str(instance_dir), "--sweep-estimates", str(sweep),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eval: cannot load estimates {bad}: ") and err.count("\n") == 1

    def test_eval_sweep_estimates_of_other_length_is_usage_error(
        self, tmp_path, instance_dir, capsys
    ):
        import numpy as np

        from simplexi.learner import VertexEstimates, save_vertex_estimates

        sweep = tmp_path / "sweep"
        sweep.mkdir()
        sets = tuple(np.arange(t, t + 5) for t in range(3))
        path = sweep / "est_k3_dn5.txt"
        with open(path, "w") as f:
            save_vertex_estimates(VertexEstimates(np.zeros((24, 3)), sets, np.zeros((3, 0))), f)
        code = main(["eval", "--instance", str(instance_dir), "--sweep-estimates", str(sweep),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"eval: {path}: vertices have length 24, the instance has d=25\n"
        assert not (tmp_path / "e" / "sweep.csv").exists()

    def test_eval_zero_smoothing_trials(self, tmp_path, instance_dir):
        learned = tmp_path / "learned"
        assert main(["learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
                     "--seed", "7", "--out", str(learned)]) == 0
        out = tmp_path / "eval"
        assert main([
            "eval", "--instance", str(instance_dir),
            "--estimates", str(learned / "estimates.txt"),
            "--sample", "20", "--smoothing-trials", "0", "--out", str(out),
        ]) == 0
        assert dict(read_csv(out / "eval.csv")[1:])["smoothing_worst_ratio"] == "0"

    def _learn_and_eval(self, tmp_path, instance_dir, name):
        learned = tmp_path / f"learned_{name}"
        assert main(["learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
                     "--seed", "7", "--out", str(learned)]) == 0
        out = tmp_path / f"eval_{name}"
        code = main([
            "eval", "--instance", str(instance_dir),
            "--estimates", str(learned / "estimates.txt"),
            "--sample", "50", "--smoothing-trials", "60", "--seed", "1", "--out", str(out),
        ])
        return code, out

    def test_eval_missing_w_is_usage_error(self, tmp_path, instance_dir, capsys):
        (instance_dir / "W.txt").unlink()
        code, _ = self._learn_and_eval(tmp_path, instance_dir, "no_w")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"eval: cannot load instance: {instance_dir / 'W.txt'} is missing\n"

    def test_eval_ignores_stale_p(self, tmp_path, instance_dir):
        import numpy as np

        from simplexi.sparsemat import save_dense_block

        code, fresh = self._learn_and_eval(tmp_path, instance_dir, "fresh")
        assert code == 0
        with open(instance_dir / "P.txt", "w") as f:  # as an older version wrote it, but wrong
            save_dense_block("P", np.ones((25, 400)), f)
        code, stale = self._learn_and_eval(tmp_path, instance_dir, "stale")
        assert code == 0
        assert (fresh / "eval.csv").read_bytes() == (stale / "eval.csv").read_bytes()

    def test_eval_computes_the_spectrum_once(self, tmp_path, instance_dir, monkeypatch):
        import simplexi.cli as cli_mod
        import simplexi.sketch as sketch_mod

        calls = []
        oracle = sketch_mod._squared_singular_values

        def spy(A):
            calls.append(A.shape)
            return oracle(A)

        # the oracle under both names it is looked up by
        monkeypatch.setattr(sketch_mod, "_squared_singular_values", spy)
        monkeypatch.setattr(cli_mod, "_squared_singular_values", spy)
        code, _ = self._learn_and_eval(tmp_path, instance_dir, "spy")
        assert code == 0
        assert calls == [(25, 400)]

    def test_learn_oversized_header_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "matrix.txt"
        path.write_text("4294967296 4294967296 1\n0 0 1\n")
        code = main(["learn", "--input", str(path), "--k", "3", "--delta", "0.1",
                     "--out", str(tmp_path / "z")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"learn: {path}:1: a 4294967296x4294967296 matrix has more than "
                       "2^63 - 1 positions\n")

    def test_learn_invalid_k_is_usage_error(self, tmp_path, instance_dir, capsys):
        # k is checked against the shape inside the factorization, on both baselines
        for baseline in ("sketch", "power_iteration"):
            code = main([
                "learn", "--input", str(instance_dir), "--k", "100", "--delta", "0.1",
                "--baseline", baseline, "--out", str(tmp_path / "z"),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("learn: k=100 ") and len(err.strip().splitlines()) == 1

    def test_learn_missing_meta_key_is_usage_error(self, tmp_path, instance_dir, capsys):
        meta = instance_dir / "meta.txt"
        meta.write_text("".join(
            line for line in meta.read_text().splitlines(keepends=True)
            if not line.startswith("sigma=")
        ))
        code = main([
            "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
            "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("learn: ") and "sigma" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, replacement, message", [
        ("model_tag=", "model_tag clustering",
         "expected key=value, got 'model_tag clustering'"),
        ("sigma=", "sigma=abc", "could not convert string to float: 'abc'"),
    ])
    def test_learn_malformed_meta_line_is_usage_error(
        self, tmp_path, instance_dir, capsys, key, replacement, message
    ):
        meta = instance_dir / "meta.txt"
        lines = meta.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(key))
        lines[i] = replacement
        meta.write_text("\n".join(lines) + "\n")
        code = main([
            "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
            "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"learn: {meta}:{i + 1}: {message}\n"

    def test_learn_malformed_matrix_is_usage_error(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "A.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "1 2\n"
        path.write_text("".join(lines))
        code = main([
            "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
            "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"learn: {path}:4: expected 'row col value' (two integers and a number), got '1 2'\n"

    def test_learn_reads_neither_p_nor_w(self, tmp_path, instance_dir):
        args = ["learn", "--k", "3", "--delta", "0.1", "--seed", "7"]
        for baseline in ("sketch", "power_iteration"):
            full, bare = tmp_path / f"full_{baseline}", tmp_path / f"bare_{baseline}"
            assert main(args + ["--baseline", baseline, "--input", str(instance_dir),
                                "--out", str(full)]) == 0
            stripped = tmp_path / f"stripped_{baseline}"
            stripped.mkdir()
            for name in ("A.txt", "M.txt", "meta.txt"):
                (stripped / name).write_bytes((instance_dir / name).read_bytes())
            assert main(args + ["--baseline", baseline, "--input", str(stripped),
                                "--out", str(bare)]) == 0
            for name in ("estimates.txt", "match.csv"):
                assert (full / name).read_bytes() == (bare / name).read_bytes()

    def test_learn_power_iteration_failure_is_numerical_error(
        self, tmp_path, instance_dir, capsys, monkeypatch
    ):
        import numpy as np

        import simplexi.learner as learner_mod
        from simplexi.sketch import RankRestoreError

        # LinAlgError subclasses ValueError, yet it is a numerical failure, not a usage error
        for exc in (
            RankRestoreError("subspace power iteration could not restore full rank"),
            np.linalg.LinAlgError("QR factorization did not converge"),
        ):
            def fail(*args, exc=exc, **kwargs):
                raise exc

            monkeypatch.setattr(learner_mod, "subspace_power", fail)
            code = main([
                "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
                "--baseline", "power_iteration", "--out", str(tmp_path / "z"),
            ])
            assert code == 1
            assert capsys.readouterr().err == f"learn: {exc}\n"

    def test_learn_reports_factor_rank_deficiency(self, tmp_path):
        import numpy as np
        import scipy.sparse as sp

        from simplexi import LearnerConfig, learn_simplex
        from simplexi.sparsemat import from_scipy, save_matrix_snapshot

        # rank 2 with k = 3: power iteration has to redraw a collapsed direction
        rng = np.random.default_rng(0)
        A = from_scipy(sp.csc_array(rng.uniform(0, 1, (30, 2)) @ rng.uniform(0, 1, (2, 200))))
        est = learn_simplex(A, LearnerConfig(k=3, delta=0.1, seed=0, baseline="power_iteration"))
        assert est.rank_deficient
        path = tmp_path / "matrix.txt"
        with open(path, "w") as f:
            save_matrix_snapshot(A, f)
        out = tmp_path / "learned"
        assert main([
            "learn", "--input", str(path), "--k", "3", "--delta", "0.1", "--seed", "0",
            "--baseline", "power_iteration", "--out", str(out),
        ]) == 0
        assert "rank_deficient=True\n" in (out / "manifest.txt").read_text()

    def test_learn_scores_only_the_columns_that_hold_an_entry(self, tmp_path, monkeypatch):
        import io

        import numpy as np

        import simplexi.learner as learner_mod
        from simplexi import LearnerConfig, gen_bernoulli, learn_simplex
        from simplexi.learner import save_vertex_estimates
        from simplexi.sparsemat import save_matrix_snapshot

        A = gen_bernoulli(40, 3000, 0.002, 1)  # most columns hold no entry
        m = int(np.count_nonzero(np.diff(A.col_ptr)))
        path = tmp_path / "matrix.txt"
        with open(path, "w") as f:
            save_matrix_snapshot(A, f)
        rows = []
        real = learner_mod.select_vertices

        def spy(A, fac, cfg):
            rows.append(fac.Z.shape[0])
            return real(A, fac, cfg)

        monkeypatch.setattr(learner_mod, "select_vertices", spy)
        out = tmp_path / "learned"
        assert main([
            "learn", "--input", str(path), "--k", "4", "--delta", "0.01", "--seed", "2",
            "--out", str(out),
        ]) == 0
        assert rows == [m] and m < A.cols  # the factor Z kept the live rows only
        want = io.StringIO()
        save_vertex_estimates(learn_simplex(A, LearnerConfig(k=4, delta=0.01, seed=2)), want)
        assert (out / "estimates.txt").read_text() == want.getvalue()
        phases = [row[0] for row in read_csv(out / "timings.csv")]
        assert phases == ["phase", "factorization", "selection"]

    def test_learn_other_runtime_error_propagates(self, tmp_path, instance_dir, monkeypatch):
        import simplexi.learner as learner_mod

        def broken(*args, **kwargs):
            raise NotImplementedError("not a numerical failure")

        monkeypatch.setattr(learner_mod, "subspace_power", broken)
        with pytest.raises(NotImplementedError):
            main([
                "learn", "--input", str(instance_dir), "--k", "3", "--delta", "0.1",
                "--baseline", "power_iteration", "--out", str(tmp_path / "z"),
            ])

    def test_config_file_with_flag_override(self, tmp_path, instance_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# learner settings\nk=3\ndelta=0.1\nseed=9\n"
            f"input={instance_dir}\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["learn", "--config", str(cfg), "--out", str(a)]) == 0
        # flag overrides the config seed
        assert main(["learn", "--config", str(cfg), "--seed", "9", "--out", str(b)]) == 0
        assert (a / "estimates.txt").read_bytes() == (b / "estimates.txt").read_bytes()


class TestBench:
    def test_synthetic_grid(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "bench", "--d", "50", "--n", "500", "--k-list", "3,5",
            "--p-list", "0.02,0.05", "--repeats", "2", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "bench.csv")
        header, body = rows[0], rows[1:]
        assert len(body) == 2 * 2  # one mean row per grid cell
        ti = header.index("mean_wall_time_sketch")
        tj = header.index("mean_wall_time_topk")
        assert all(float(r[ti]) > 0 and float(r[tj]) > 0 for r in body)
        reps = read_csv(out / "bench_repeats.csv")
        assert len(reps) - 1 == 2 * 2 * 2  # cells x repeats
        assert (out / "bench_times.svg").exists()

    def test_k_one_is_timed_without_loss_runs(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--d", "20", "--n", "30", "--p-list", "0.2", "--k-list", "1",
                     "--repeats", "1", "--out", str(out)]) == 0
        header, row = read_csv(out / "bench.csv")
        assert row[header.index("error")] == ""
        assert float(row[header.index("mean_wall_time_sketch")]) > 0

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        code = main([
            "bench", "--d", "50", "--n", "500", "--k-list", "",
            "--p-list", "0.1", "--out", str(tmp_path / "b"),
        ])
        assert code == 2

    def test_edge_file_single_row_and_ordering(self, tmp_path, email_fixture_path):
        out = tmp_path / "bench_edges"
        code = main([
            "bench", "--edge-file", email_fixture_path, "--edge-mode", "square",
            "--k-list", "20", "--repeats", "4", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "bench.csv")
        assert len(rows) == 2  # header + one cell
        # ordering asserted on per-repeat minima: scheduler spikes on this
        # host can distort any single wall-clock sample
        reps = read_csv(out / "bench_repeats.csv")
        header, body = reps[0], reps[1:]
        sketch = min(float(r[header.index("wall_time_sketch")]) for r in body)
        topk = min(float(r[header.index("wall_time_topk")]) for r in body)
        assert sketch < topk  # the sketch phase is the faster leg


# each subcommand's required options; the inputs they name are never read,
# because every case below fails before the subcommand loads anything
_REQUIRED = {
    "gen": ["--model", "raw", "--d", "4", "--n", "5", "--p", "0.5"],
    "learn": ["--input", "absent", "--k", "2", "--delta", "0.1"],
    "bench": ["--d", "20", "--n", "30", "--p-list", "0.1", "--k-list", "2"],
    "eval": ["--instance", "absent", "--estimates", "absent.txt"],
}
_MISSING = object()  # stands for a --config path that names no file


class TestUsageErrors:
    @pytest.mark.parametrize("command, config, env, extra, message", [
        *[pytest.param(cmd, _MISSING, None, [],
                       f"{cmd}: cannot read config file {{cfg}}: No such file or directory",
                       id=f"missing-config-{cmd}") for cmd in _REQUIRED],
        *[pytest.param(cmd, "# settings\nseed 3\n", None, [],
                       f"{cmd}: {{cfg}}:2: expected key=value, got 'seed 3'",
                       id=f"bad-config-line-{cmd}") for cmd in _REQUIRED],
        pytest.param("eval", b"seed=\xff\n", None, [],
                     "eval: cannot read config file {cfg}: not text", id="binary-config"),
        pytest.param("learn", None, "abc", [],
                     "learn: SIMPLEXI_SEED must be an integer, got 'abc'", id="env-seed"),
        pytest.param("gen", "seed=abc\n", None, [],
                     "gen: seed must be an integer, got 'abc'", id="config-seed"),
        pytest.param("eval", "sample=ten\n", None, [],
                     "eval: sample must be an integer, got 'ten'", id="eval-sample"),
        pytest.param("eval", "smoothing-trials=1.5\n", None, [],
                     "eval: smoothing-trials must be an integer, got '1.5'",
                     id="eval-smoothing-trials"),
        pytest.param("bench", "repeats=x\n", None, [],
                     "bench: repeats must be an integer, got 'x'", id="bench-repeats"),
        pytest.param("bench", "loss-sample=x\n", None, [],
                     "bench: loss-sample must be an integer, got 'x'", id="bench-loss-sample"),
        pytest.param("bench", None, None, ["--k-list", "2,x"],
                     "bench: k-list must be an integer, got 'x'", id="bench-k-list"),
        pytest.param("eval", None, None, ["--sample", "0"],
                     "eval: sample=0 must be at least 1", id="eval-sample-0"),
        pytest.param("eval", None, None, ["--sample", "-3"],
                     "eval: sample=-3 must be at least 1", id="eval-sample-negative"),
        pytest.param("eval", None, None, ["--seed", "-1"],
                     "eval: seed=-1 must be at least 0", id="eval-seed-negative"),
        pytest.param("learn", None, None, ["--seed", "-1"],
                     "learn: seed=-1 must be at least 0", id="learn-seed-negative"),
        pytest.param("bench", None, "-2", [],
                     "bench: SIMPLEXI_SEED=-2 must be at least 0", id="env-seed-negative"),
        pytest.param("gen", "seed=-3\n", None, [],
                     "gen: seed=-3 must be at least 0", id="config-seed-negative"),
        pytest.param("bench", None, None, ["--repeats", "0"],
                     "bench: repeats=0 must be at least 1", id="bench-repeats-0"),
        pytest.param("bench", None, None, ["--loss-delta", "0.1", "--loss-sample", "0"],
                     "bench: loss-sample=0 must be at least 1", id="bench-loss-sample-0"),
        pytest.param("eval", None, None, ["--smoothing-trials", "-5"],
                     "eval: smoothing-trials=-5 must be at least 0",
                     id="eval-smoothing-trials-negative"),
        pytest.param("gen", None, None, ["--pure", "2"],
                     "gen: pure=2 must be at most 1", id="gen-pure-2"),
        pytest.param("gen", None, None, ["--k", "0"],
                     "gen: k=0 must be at least 1", id="gen-k-0"),
        pytest.param("bench", None, None, ["--k-list", "2,0"],
                     "bench: k-list=0 must be at least 1", id="bench-k-list-0"),
        pytest.param("bench", None, None, ["--edge-file", "absent.txt", "--k-list", ""],
                     "bench: empty grid", id="bench-edge-file-empty-k-list"),
        pytest.param("bench", None, None, ["--edge-file", "."],
                     "bench: [Errno 21] Is a directory: '.'", id="bench-edge-file-directory"),
        pytest.param("learn", None, None, ["--k", "x"],
                     "learn: k must be an integer, got 'x'", id="learn-k-flag"),
        pytest.param("gen", None, None, ["--seed", "x"],
                     "gen: seed must be an integer, got 'x'", id="gen-seed-flag"),
        pytest.param("learn", None, None, ["--selection-mode", "bogus"],
                     "learn: unknown selection_mode 'bogus'", id="learn-selection-mode-flag"),
        pytest.param("gen", None, None, ["--model", "foo"],
                     "gen: unknown model 'foo'", id="gen-model-flag"),
        pytest.param("learn", None, None, ["--bogus", "1"],
                     "simplexi: unrecognized arguments: --bogus 1", id="unknown-flag"),
        pytest.param("bench", None, None, ["--k-list", "2,1", "--loss-delta", "0.1"],
                     "bench: loss runs at k=1: k must be at least 2", id="bench-loss-k-1"),
        pytest.param("bench", None, None, ["--loss-delta", "5"],
                     "bench: loss runs at k=2: delta must lie in (0, 1]",
                     id="bench-loss-delta-5"),
    ])
    def test_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                  command, config, env, extra, message):
        monkeypatch.delenv("SIMPLEXI_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("SIMPLEXI_SEED", env)
        cfg = tmp_path / "run.cfg"
        argv = [command, *_REQUIRED[command], "--out", str(tmp_path / "out"), *extra]
        if config is not None:
            if isinstance(config, bytes):
                cfg.write_bytes(config)
            elif config is not _MISSING:
                cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == message.format(cfg=cfg) + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, body, message", [
        (False, "3 25 1\nx\n", "cannot load estimates: line 2: column index 'x' is not an "
                               "integer"),
        (False, "3 24 0\n\n\n\n" + "0 " * 24 + "\n" + ("0 " * 24 + "\n") * 2,
         "estimates hold k=3 vertices of length d=24; the instance has k=3, d=25"),
        (False, "1 25 1\n999\n" + "0 " * 25 + "\n",
         "estimates hold k=1 vertices of length d=25; the instance has k=3, d=25"),
        (False, "3 25 1\n999\n0\n0\n" + ("0 " * 25 + "\n") * 3,
         "estimates select column 999; the instance has n=400"),
        (True, "3 25 1\nx\n", "cannot load estimates {path}: line 2: column index 'x' is "
                              "not an integer"),
        (True, "3 25 1\n999\n0\n0\n" + ("0 " * 25 + "\n") * 3,
         "{path}: selects column 999; the instance has n=400"),
    ], ids=["malformed", "other-d", "other-k", "index-past-n", "sweep-malformed",
            "sweep-index-past-n"])
    def test_eval_rejected_estimates_create_no_out(self, tmp_path, capsys, sweep, body,
                                                   message):
        inst = tmp_path / "inst"
        assert main(["gen", "--model", "clustering", "--d", "25", "--n", "400", "--k", "3",
                     "--sigma-target", "1e-6", "--delta", "0.1",
                     "--adversary-fraction", "0.2", "--seed", "5", "--out", str(inst)]) == 0
        path = tmp_path / "sweep" / "est_k3_dn1.txt"
        path.parent.mkdir()
        path.write_text(body)
        source = ["--sweep-estimates", str(path.parent)] if sweep else ["--estimates", str(path)]
        argv = ["eval", "--instance", str(inst), *source, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "eval: " + message.format(path=path) + "\n"
        assert not (tmp_path / "out").exists()


class TestSvgOutputs:
    def test_line_chart_is_valid_xml_with_data(self, tmp_path):
        xs = [1.0, 2.0, 3.0]
        ys = [2.0, 1.0, 4.0]
        text = svg.line_chart("t", "x", "y", {"series a": (xs, ys)})
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 1
        pts = polylines[0].attrib["points"].split()
        assert len(pts) == len(xs)
        circles = root.findall(f".//{ns}circle")
        assert len(circles) == len(xs)

    def test_bar_chart_matches_groups(self):
        text = svg.bar_chart("t", "x", "y", ["a", "b"], {"s1": [1.0, 2.0], "s2": [2.0, 1.0]})
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        bars = [r for r in root.findall(f".//{ns}rect") if r.attrib.get("fill") != "white"]
        # 4 data bars + 2 legend swatches
        assert len(bars) == 6

    def test_bench_svg_data_matches_csv(self, tmp_path):
        out = tmp_path / "bench"
        assert main([
            "bench", "--d", "40", "--n", "300", "--k-list", "3",
            "--p-list", "0.05", "--repeats", "2", "--seed", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out / "bench.csv")
        root = ET.parse(out / "bench_times.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        bars = [r for r in root.findall(f".//{ns}rect") if r.attrib.get("fill") != "white"]
        # one cell x two phases + 2 legend swatches
        assert len(bars) == 2 * (len(rows) - 1) + 2


class TestDeterministicOutputsAndSweep:
    def test_gen_raw_expected_density(self, tmp_path):
        out = tmp_path / "raw_big"
        assert main([
            "gen", "--model", "raw", "--d", "1000", "--n", "50000", "--p", "1/500",
            "--seed", "2", "--out", str(out),
        ]) == 0
        header = (out / "matrix.txt").read_text().split("\n", 1)[0].split()
        nnz = int(header[2])
        assert abs(nnz - 100000) <= 0.05 * 100000

    def test_eval_csv_byte_identical(self, tmp_path):
        inst = tmp_path / "inst"
        assert main([
            "gen", "--model", "clustering", "--d", "20", "--n", "300", "--k", "3",
            "--sigma-target", "1e-6", "--delta", "0.1", "--adversary-fraction", "0.1",
            "--seed", "4", "--out", str(inst),
        ]) == 0
        learned = tmp_path / "l"
        assert main(["learn", "--input", str(inst), "--k", "3", "--delta", "0.1",
                     "--seed", "2", "--out", str(learned)]) == 0
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main([
                "eval", "--instance", str(inst),
                "--estimates", str(learned / "estimates.txt"),
                "--sample", "40", "--smoothing-trials", "50", "--seed", "3",
                "--out", str(out),
            ]) == 0
            outs.append((out / "eval.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_sweep_mode(self, tmp_path):
        from simplexi.learner import LearnerConfig, learn_simplex, save_vertex_estimates
        from simplexi.models import load_instance

        inst_dir = tmp_path / "inst"
        assert main([
            "gen", "--model", "mmsb", "--n", "200", "--d", "40", "--k", "4",
            "--p", "0.4", "--q", "0.05", "--seed", "5", "--out", str(inst_dir),
        ]) == 0
        inst = load_instance(str(inst_dir))
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        for k in (2, 3, 4):
            est = learn_simplex(inst.A, LearnerConfig(k=k, delta=0.05, seed=1))
            with open(sweep / f"est_k{k}_dn10.txt", "w") as f:
                save_vertex_estimates(est, f)
        out = tmp_path / "sweepout"
        assert main([
            "eval", "--instance", str(inst_dir), "--sweep-estimates", str(sweep),
            "--sample", "50", "--seed", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 4  # header + 3 estimate files
        assert (out / "loss_vs_k.svg").exists()
        losses = {int(r[0]): float(r[2]) for r in rows[1:]}
        assert losses[4] <= losses[2]  # more vertices fit no worse
