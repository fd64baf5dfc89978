import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qmcrff
from qmcrff.cli import main
from qmcrff.experiment import (
    PIPELINE_SEQUENCES,
    Dataset,
    ExperimentConfig,
    _split_indices,
    estimate_box,
    korobov_vector,
    krr_predict,
    krr_train,
    load_csv,
    make_pointset,
    regression_error,
    run_gram_experiment,
    run_pipeline,
)
from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.discrepancy import Box, box_discrepancy_quadrature
from qmcrff.featmap import (
    WeightedFeatureMap,
    gram_approx,
    gram_exact,
    gram_norms,
    real_feature_matrix,
    relative_errors,
)
from qmcrff.ioutil import DataError, read_matrix_csv
from qmcrff.sequences import halton


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _xy_csv(tmp_path, rows):
    return _write(tmp_path, "xy.csv",
                  "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")


def _primal_ridge(Z, y, lam):
    return np.linalg.solve(Z.T @ Z + lam * np.eye(Z.shape[1]), Z.T @ y)


def _spearman(a, b):
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def _scipy_modules_after(argv):
    """The scipy modules loaded by ``main(argv)`` in a fresh interpreter."""
    script = ("import json, sys\n"
              "from qmcrff.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmcrff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout))


@pytest.fixture(scope="module")
def synthetic():
    rng = np.random.default_rng(100)
    return Dataset(X=rng.standard_normal((64, 4)))


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((80, 3))
    y = np.exp(-0.5 * np.sum(X ** 2, axis=1)) + rng.normal(0, 0.01, 80)
    return Dataset(X=X, y=y)


class TestLoadCsv:
    def test_plain_matrix(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a.csv", "1,2\n3,4\n5,6\n"), has_target=False)
        assert ds.X.shape == (3, 2)
        assert ds.y is None

    def test_target_split(self, tmp_path):
        ds = load_csv(_write(tmp_path, "b.csv", "1,2\n3,4\n5,6\n"), has_target=True)
        assert ds.X.shape == (3, 1)
        assert ds.y.tolist() == [2.0, 4.0, 6.0]

    def test_parse_error_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 1"):
            load_csv(_write(tmp_path, "c.csv", "1,a\n"), has_target=False)

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_csv(_write(tmp_path, "d.csv", "1,2\n3\n"), has_target=False)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no data"):
            load_csv(_write(tmp_path, "e.csv", ""), has_target=False)

    def test_header_skip(self, tmp_path):
        ds = load_csv(_write(tmp_path, "f.csv", "x,y\n1,2\n"), has_target=False,
                      skip_header=True)
        assert ds.X.shape == (1, 2)

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot open"):
            load_csv("/nonexistent/nope.csv", has_target=False)

    def test_column_stats(self, tmp_path):
        ds = load_csv(_write(tmp_path, "g.csv", "0\n1\n3\n"), has_target=False)
        assert ds.column_stats[0]["min"] == 0.0
        assert ds.column_stats[0]["max"] == 3.0


class TestEstimateBox:
    def test_range(self):
        ds = Dataset(X=np.array([[0.0], [1.0], [3.0]]))
        assert estimate_box(ds).b.tolist() == [3.0]

    def test_constant_column_warns(self):
        ds = Dataset(X=np.array([[1.0, 2.0], [1.0, 5.0]]))
        with pytest.warns(RuntimeWarning, match="constant"):
            box = estimate_box(ds)
        assert box.b[0] == 1e-12
        assert box.b[1] == 3.0

    def test_box_scale(self):
        ds = Dataset(X=np.array([[0.0], [4.0]]))
        assert estimate_box(ds, box_scale=0.5).b.tolist() == [2.0]

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            estimate_box(Dataset(X=np.zeros((1, 2))))


class TestSequenceFactory:
    def test_korobov_vector(self):
        z = korobov_vector(101, 3, a=7)
        assert z.tolist() == [1, 7, 49]

    @pytest.mark.parametrize("s,d,name", [(3, 0, "d"), (3, -1, "d"), (0, 2, "s"), (-2, 2, "s")])
    def test_korobov_vector_rejects_empty_sizes(self, s, d, name):
        with pytest.raises(ValueError, match=rf"requires {name} >= 1, got {min(s, d)}"):
            korobov_vector(s, d)

    def test_all_base_names(self):
        for name in ("halton", "halton-scrambled", "lattice", "mc"):
            pts = make_pointset(name, 8, 2, seed=1)
            assert pts.points.shape == (8, 2)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="halton"):
            make_pointset("sobol", 8, 2)


class TestKrr:
    def test_zero_target(self):
        Z = np.random.default_rng(0).normal(size=(20, 4))
        beta = krr_train(Z, np.zeros(20), 1e-3)
        assert np.allclose(beta, 0.0)
        assert regression_error(krr_predict(beta, Z), np.zeros(20)) == 0.0

    def test_orthonormal_limit(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.normal(size=(30, 5)))
        y = rng.normal(size=30)
        beta = krr_train(Q, y, 1e-12)
        assert np.allclose(beta, Q.T @ y, atol=1e-8)

    @pytest.mark.parametrize("rows, cols", [(20, 50), (30, 30), (50, 20)])
    def test_matches_primal_reference(self, rows, cols):
        # Wide Z takes the dual system, square and tall Z the primal one;
        # all must give the primal solution.
        rng = np.random.default_rng(rows * cols)
        Z = rng.normal(size=(rows, cols))
        y = rng.normal(size=rows)
        beta = krr_train(Z, y, 1e-2)
        assert beta.shape == (cols,)
        assert beta == pytest.approx(_primal_ridge(Z, y, 1e-2), rel=1e-9, abs=0.0)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            krr_train(np.eye(3), np.ones(3), 0.0)

    def test_relative_error_definition(self):
        y = np.array([3.0, 4.0])
        assert regression_error(np.zeros(2), y) == pytest.approx(1.0)


class TestExperimentConfig:
    def test_unknown_sequence_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid names"):
            ExperimentConfig(sequences=("halton", "sobol"))

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(s_grid=(64, 32))
        with pytest.raises(ValueError, match="s_grid must be strictly ascending"):
            ExperimentConfig(s_grid=(4, 4))
        with pytest.raises(ValueError, match="s_grid values must be >= 1"):
            ExperimentConfig(s_grid=(0, 4))
        with pytest.raises(ValueError, match="max_n must be >= 2"):
            ExperimentConfig(max_n=1)
        with pytest.raises(ValueError, match="adapt_iters must be >= 0"):
            ExperimentConfig(adapt_iters=-1)
        with pytest.raises(ValueError, match="sequences must not repeat a name"):
            ExperimentConfig(sequences=("halton", "halton"), s_grid=(4,))
        with pytest.raises(ValueError, match="sequences must name at least one"):
            ExperimentConfig(sequences=(), s_grid=(4,))
        with pytest.raises(ValueError, match="s_grid must hold at least one value"):
            ExperimentConfig(sequences=("halton",), s_grid=())

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()


class TestGramExperiment:
    def test_halton_has_zero_variance(self, synthetic):
        cfg = ExperimentConfig(sigma=(2.0,), sequences=("halton",),
                               s_grid=(32,), trials=5, seed=0)
        cells = run_gram_experiment(cfg, synthetic)
        assert cells[0]["trials"] == 1
        assert cells[0]["relative_frobenius"]["std"] == 0.0

    def test_mc_errors_decrease_and_halton_wins(self, synthetic):
        cfg = ExperimentConfig(sigma=(2.0,), sequences=("halton", "mc"),
                               s_grid=(64, 512), trials=5, seed=0)
        cells = {(c["label"], c["s"]): c for c in run_gram_experiment(cfg, synthetic)}
        assert (cells[("mc", 512)]["relative_frobenius"]["mean"]
                < cells[("mc", 64)]["relative_frobenius"]["mean"])
        for s in (64, 512):
            assert (cells[("halton", s)]["relative_frobenius"]["mean"]
                    <= cells[("mc", s)]["relative_frobenius"]["mean"])


class TestPipeline:
    def test_serial_equals_parallel(self, regression_data):
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "mc"),
                               s_grid=(16, 32), trials=3, seed=5, box_scale=0.5)
        a = run_pipeline(cfg, regression_data, workers=1)
        b = run_pipeline(cfg, regression_data, workers=4)
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_adaptive_and_weighted_cells(self, regression_data):
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("adaptive-global", "weighted"),
                               s_grid=(8,), trials=1, seed=5, adapt_iters=20)
        report = run_pipeline(cfg, regression_data)
        cells = {c["label"]: c for c in report["cells"]}
        assert set(cells) == {"adaptive-global", "weighted"}
        for c in cells.values():
            assert c["discrepancy"]["mean"] >= -1e-10
            assert "regression_error" in c

    def test_adaptive_beats_halton_discrepancy(self, regression_data):
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "adaptive-global"),
                               s_grid=(16,), trials=1, seed=5, adapt_iters=50)
        report = run_pipeline(cfg, regression_data)
        cells = {c["label"]: c for c in report["cells"]}
        assert (cells["adaptive-global"]["discrepancy"]["mean"]
                <= cells["halton"]["discrepancy"]["mean"])

    def test_discrepancy_tracks_frobenius_error(self, regression_data):
        # rank correlation between the half-box discrepancy and the Gram
        # error across the grid
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "mc"),
                               s_grid=(8, 32, 128), trials=4, seed=2, box_scale=0.5)
        report = run_pipeline(cfg, regression_data)
        disc = [c["discrepancy"]["mean"] for c in report["cells"]]
        frob = [c["relative_frobenius"]["mean"] for c in report["cells"]]
        assert _spearman(disc, frob) > 0.0

    def test_constant_column_discrepancy_matches_quadrature(self):
        # A constant feature gets the degenerate half-width 1e-12, so its
        # erf arguments sit right on the imaginary axis.
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.standard_normal(40), np.full(40, 2.0),
                             rng.standard_normal(40)])
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton",), s_grid=(16,),
                               trials=1, seed=0, box_scale=0.5)
        with pytest.warns(RuntimeWarning, match="constant"):
            report = run_pipeline(cfg, Dataset(X=X))
        density = ProductDensity.for_kernel("gaussian", (1.0,), 3)
        freqs = transform(make_pointset("halton", 16, 3), density)
        oracle = box_discrepancy_quadrature(freqs, density, Box(b=report["box"]))
        assert report["cells"][0]["discrepancy"]["mean"] == pytest.approx(oracle, rel=1e-6, abs=0.0)

    def test_cells_match_per_map_references(self, regression_data):
        # n_train = 40, so s = 16 solves the primal ridge system and s = 32
        # and 64 (2s > n_train) the dual one.
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "halton-scrambled", "lattice"),
                               s_grid=(16, 32, 64), trials=1, seed=4, ridge_lambda=1e-3)
        report = run_pipeline(cfg, regression_data)
        X, y = regression_data.X, regression_data.y
        density = ProductDensity.for_kernel("gaussian", (1.0,), X.shape[1])
        K = gram_exact(density, X)
        train, test = _split_indices(len(y), cfg.split, cfg.seed)
        assert len(train) == 40
        for cell in report["cells"]:
            fmap = WeightedFeatureMap(
                freqs=transform(make_pointset(cell["label"], cell["s"], X.shape[1]), density))
            spectral, frobenius = relative_errors(K, gram_approx(fmap, X), gram_norms(K))
            assert cell["relative_spectral"]["mean"] == spectral
            assert cell["relative_frobenius"]["mean"] == frobenius
            Z = real_feature_matrix(fmap, X)
            beta = _primal_ridge(Z[train], y[train], cfg.ridge_lambda)
            err = regression_error(Z[test] @ beta, y[test])
            assert cell["regression_error"]["mean"] == pytest.approx(err, rel=1e-9, abs=0.0)

    def test_laplacian_kernel_supported(self, regression_data):
        cfg = ExperimentConfig(kernel="laplacian", sigma=(2.0,),
                               sequences=("halton",), s_grid=(16,), trials=1, seed=0)
        report = run_pipeline(cfg, regression_data)
        assert "discrepancy" not in report["cells"][0]

    def test_adaptive_requires_gaussian(self, regression_data):
        cfg = ExperimentConfig(kernel="laplacian", sigma=(2.0,),
                               sequences=("adaptive-global",), s_grid=(8,),
                               trials=1, seed=0)
        with pytest.raises(ValueError, match="gaussian"):
            run_pipeline(cfg, regression_data)


class TestCommandLine:
    def test_generate_stdout(self, capsys):
        assert main(["generate", "--seq", "halton", "--s", "3", "--d", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
        got = np.asarray(rows, dtype=float)
        assert np.allclose(got, halton(3, 2).points)

    def test_generate_json_envelope(self, tmp_path):
        out = tmp_path / "env.json"
        assert main(["generate", "--seq", "mc", "--s", "4", "--d", "2",
                     "--seed", "3", "--json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["generator"] == "mc"
        assert payload["s"] == 4 and payload["d"] == 2
        assert payload["seed_or_start"] == 3

    @pytest.mark.parametrize("s,d,name", [("3", "0", "d"), ("3", "-1", "d"), ("0", "2", "s")])
    def test_generate_lattice_empty_size_exit_code(self, s, d, name, capsys):
        code = main(["generate", "--seq", "lattice", "--s", s, "--d", d])
        assert code == 2
        assert f"requires {name} >= 1" in capsys.readouterr().err

    def test_unknown_sequence_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--seq", "sobol", "--s", "3", "--d", "2"])
        assert err.value.code == 2

    def test_generate_transform_discrepancy_round_trip(self, tmp_path):
        pts = tmp_path / "pts.csv"
        freqs = tmp_path / "freqs.csv"
        report = tmp_path / "rep.json"
        assert main(["generate", "--seq", "halton", "--s", "16", "--d", "2",
                     "--out", str(pts)]) == 0
        assert main(["transform", "--in", str(pts), "--kernel", "gaussian",
                     "--sigma", "1", "--out", str(freqs)]) == 0
        assert main(["discrepancy", "--freqs", str(freqs), "--sigma", "1",
                     "--b", "1,1", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())

        from qmcrff.densities import FrequencySet, ProductDensity
        from qmcrff.discrepancy import Box, box_discrepancy_gaussian

        expect = box_discrepancy_gaussian(
            FrequencySet(points=read_matrix_csv(freqs)),
            ProductDensity.gaussian(1.0, d=2), Box(b=[1.0, 1.0]))
        assert payload["d_squared"] == pytest.approx(expect.d_squared, rel=1e-12)

    def test_laplacian_discrepancy_uses_quadrature(self, tmp_path):
        W = np.random.default_rng(5).standard_cauchy(size=(12, 2))
        freqs = _write(tmp_path, "w.csv",
                       "\n".join(",".join("%.17g" % v for v in r) for r in W) + "\n")
        report = tmp_path / "rep.json"
        assert main(["discrepancy", "--freqs", freqs, "--kernel", "laplacian",
                     "--sigma", "2", "--b", "1,3", "--box-scale", "0.5",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        expect = box_discrepancy_quadrature(
            FrequencySet(points=read_matrix_csv(freqs)), ProductDensity.cauchy(2.0, d=2),
            Box(b=[0.5, 1.5]))
        assert payload["d_squared"] == expect
        assert (payload["s"], payload["d"], payload["box_scale"]) == (12, 2, 0.5)

    def test_laplacian_discrepancy_above_three_dimensions_is_usage_error(self, tmp_path,
                                                                         capsys):
        freqs = _write(tmp_path, "w4.csv", "0.1,0.2,0.3,0.4\n-1,2,-3,4\n")
        code = main(["discrepancy", "--freqs", freqs, "--kernel", "laplacian"])
        assert code == 2
        err = capsys.readouterr().err
        assert "d <= 3" in err and "d=4" in err
        assert "box_discrepancy" not in err

    def test_pipeline_leaves_scipy_stats_unimported(self, tmp_path):
        # Importing scipy.stats costs most of a second, which every CLI run
        # would pay; no sequence in the pipeline may pull it in.
        rows = np.random.default_rng(6).normal(size=(24, 3))
        data = _write(tmp_path, "xy.csv",
                      "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")
        argv = ["pipeline", "--data", data, "--target", "--s", "4",
                "--seq", ",".join(PIPELINE_SEQUENCES), "--trials", "1",
                "--max-iters", "2", "--out", str(tmp_path / "rep.json")]
        assert "scipy.stats" not in _scipy_modules_after(argv)

    @pytest.mark.parametrize("command", ["generate", "transform", "discrepancy"])
    def test_sequence_commands_leave_scipy_linalg_and_optimize_unimported(
            self, tmp_path, command):
        # scipy.linalg and scipy.optimize take about a quarter second to
        # import, and these commands solve no linear system or program.
        cube = halton(16, 2)
        cube.save_csv(str(tmp_path / "cube.csv"))
        transform(cube, ProductDensity.gaussian(1.0, d=2)).save_csv(str(tmp_path / "freqs.csv"))
        argv = {
            "generate": ["generate", "--seq", "halton", "--s", "16", "--d", "2"],
            "transform": ["transform", "--in", str(tmp_path / "cube.csv")],
            "discrepancy": ["discrepancy", "--freqs", str(tmp_path / "freqs.csv")],
        }[command] + ["--out", str(tmp_path / "out")]
        assert not {"scipy.linalg", "scipy.optimize"} & _scipy_modules_after(argv)

    def test_missing_data_file_is_data_error(self, capsys):
        code = main(["gram-error", "--data", "/missing.csv", "--s", "8",
                     "--seq", "halton"])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_pipeline_unknown_sequence_exit_code(self, tmp_path, capsys):
        data = _write(tmp_path, "x.csv", "\n".join(
            ",".join(map(str, row))
            for row in np.random.default_rng(0).normal(size=(16, 2))) + "\n")
        code = main(["pipeline", "--data", data, "--s", "8",
                     "--seq", "halton,bogus"])
        assert code == 2
        assert "valid names" in capsys.readouterr().err

    def test_pipeline_repeated_sequence_exit_code(self, tmp_path, capsys):
        data = _write(tmp_path, "x.csv", "\n".join(
            ",".join(map(str, row))
            for row in np.random.default_rng(0).normal(size=(16, 2))) + "\n")
        code = main(["pipeline", "--data", data, "--target", "--s", "2",
                     "--seq", "halton,halton"])
        assert code == 2
        assert "sequences must not repeat a name" in capsys.readouterr().err

    def test_optimize_weights_subcommand(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["optimize", "--mode", "weights", "--s", "8", "--d", "2",
                     "--sigma", "1", "--b", "1,1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kkt_residual"] <= 1e-8
        assert payload["objective"] <= payload["uniform_objective"] + 1e-15

    def test_optimize_global_subcommand(self, tmp_path):
        out = tmp_path / "trace.json"
        pts = tmp_path / "opt.csv"
        assert main(["optimize", "--mode", "global", "--s", "8", "--d", "2",
                     "--sigma", "1", "--b", "1,1", "--max-iters", "30",
                     "--out", str(out), "--out-points", str(pts)]) == 0
        trace = json.loads(out.read_text())
        vals = trace["objective_values"]
        assert vals[-1] <= vals[0]
        assert read_matrix_csv(pts).shape == (8, 2)

    def test_avgcase_subcommand(self, tmp_path):
        out = tmp_path / "avg.json"
        assert main(["avgcase-check", "--s", "8", "--d", "2", "--sigma", "1",
                     "--b", "1,1", "--samples", "20000", "--seed", "1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["within_3se"] is True

    def test_krr_subcommand(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 2))
        y = np.exp(-0.5 * np.sum(X ** 2, axis=1))
        rows = np.column_stack([X, y])
        data = _write(tmp_path, "xy.csv",
                      "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")
        out = tmp_path / "krr.json"
        feats = tmp_path / "features.csv"
        assert main(["krr", "--data", data, "--s", "64", "--sigma", "1",
                     "--lambda", "1e-8", "--split", "0.5", "--out", str(out),
                     "--features-out", str(feats)]) == 0
        payload = json.loads(out.read_text())
        assert payload["test_error"] < 0.2
        assert read_matrix_csv(feats).shape == (60, 128)

    @pytest.mark.parametrize("split", ["1.5", "-0.2"])
    def test_krr_rejects_split_outside_unit_interval(self, tmp_path, capsys, split):
        data = _xy_csv(tmp_path, np.random.default_rng(9).normal(size=(20, 3)))
        code = main(["krr", "--data", data, "--s", "8", "--split", split])
        assert code == 2
        assert "split fraction must lie in (0, 1)" in capsys.readouterr().err

    def test_krr_rejects_single_row(self, tmp_path, capsys):
        data = _xy_csv(tmp_path, [[0.5, -0.25, 1.0]])
        code = main(["krr", "--data", data, "--s", "8"])
        assert code == 3
        assert "at least 2 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["krr"], ["pipeline", "--target", "--seq", "halton"]])
    def test_non_finite_target_is_data_error(self, tmp_path, capsys, command):
        rows = np.random.default_rng(11).normal(size=(20, 3))
        rows[15, -1] = np.nan
        code = main(command + ["--data", _xy_csv(tmp_path, rows), "--s", "4"])
        assert code == 3
        assert "target contains non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_pipeline_rejects_nonpositive_workers(self, tmp_path, capsys, workers):
        data = _xy_csv(tmp_path, np.random.default_rng(10).normal(size=(20, 3)))
        code = main(["pipeline", "--data", data, "--target", "--s", "8",
                     "--seq", "halton", "--workers", workers])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_transform_rejects_out_of_cube_points(self, tmp_path, capsys):
        data = _write(tmp_path, "bad.csv", "0.5,0.5\n7.3,0.1\n")
        code = main(["transform", "--in", data, "--kernel", "gaussian",
                     "--sigma", "1"])
        assert code == 3
        assert "must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command,entry", [
        (["transform", "--kernel", "gaussian", "--sigma", "1", "--in"], "nan"),
        (["discrepancy", "--sigma", "1", "--b", "1", "--freqs"], "nan"),
        (["discrepancy", "--sigma", "1", "--b", "1", "--freqs"], "1e400"),
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--init", "file",
          "--in"], "nan"),
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--init", "file",
          "--in"], "1e400"),
    ])
    def test_non_finite_input_file_is_data_error(self, tmp_path, capsys, command, entry):
        data = _write(tmp_path, "bad.csv", f"0.25,0.5\n{entry},0.75\n0.5,0.125\n")
        code = main(command + [data])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and data in err and "finite" in err

    @pytest.mark.parametrize("command", [
        ["krr", "--s", "8"],
        ["pipeline", "--s", "8", "--seq", "halton", "--target"],
        ["gram-error", "--s", "8", "--seq", "halton"],
    ])
    def test_sigma_length_mismatch_is_data_error(self, tmp_path, capsys, command):
        rows = np.random.default_rng(2).normal(size=(24, 4))
        data = _write(tmp_path, "x4.csv",
                      "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")
        code = main(command + ["--data", data, "--sigma", "1,2"])
        assert code == 3
        assert "--sigma" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from qmcrff.ioutil import NumericalError
        import qmcrff.cli as climod

        def boom(*args, **kwargs):
            raise NumericalError("factorization broke")

        monkeypatch.setattr(climod, "run_pipeline", boom)
        data = _write(tmp_path, "z.csv", "0,1\n1,0\n0.5,0.5\n")
        code = main(["pipeline", "--data", data, "--s", "8", "--seq", "halton"])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err
