import argparse
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qmcrff
from qmcrff import adaptive, sequences
from qmcrff._blas import syrk_lower
from qmcrff.adaptive import OptimizerOptions, optimize_greedy
from qmcrff.cli import _experiment_from_args, build_parser, main
from qmcrff.experiment import (
    ADAPTIVE_SEQUENCES,
    Dataset,
    ExperimentConfig,
    _frequency_maps_for_cell,
    _mean_std,
    _ridge_solve,
    _split_indices,
    estimate_box,
    krr_predict,
    krr_train,
    load_csv,
    regression_error,
    run_gram_experiment,
    run_pipeline,
)
from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.discrepancy import Box, box_discrepancy_gaussian
from qmcrff.featmap import (
    ExactGram,
    WeightedFeatureMap,
    gram_approx,
    gram_exact,
    real_feature_matrix,
    relative_errors,
)
from qmcrff.ioutil import DataError, read_matrix_csv, write_matrix_csv
from qmcrff.sequences import (
    UNIT_SEQUENCES,
    UnitPointSet,
    halton,
    korobov_vector,
    lattice,
    make_pointset,
)

from oracles import box_discrepancy_quadrature

PIPELINE_SEQUENCES = (*UNIT_SEQUENCES, *ADAPTIVE_SEQUENCES)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _xy_csv(tmp_path, rows):
    return _write(tmp_path, "xy.csv",
                  "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")


def _primal_ridge(Z, y, lam):
    return np.linalg.solve(Z.T @ Z + lam * np.eye(Z.shape[1]), Z.T @ y)


def _lower_gram(Z):
    """The lower triangle of ZZ' over zeros, as the pipeline's workspace holds it."""
    G = np.zeros((Z.shape[0], Z.shape[0]))
    syrk_lower(G, Z)
    return G


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
        # 1571 = 56 mod 101 and 56^2 = 5 mod 101.
        assert korobov_vector(101, 3).tolist() == [1, 56, 5]

    @pytest.mark.parametrize("s,d,name", [(3, 0, "d"), (3, -1, "d"), (0, 2, "s"), (-2, 2, "s")])
    def test_korobov_vector_rejects_empty_sizes(self, s, d, name):
        with pytest.raises(ValueError, match=rf"requires {name} >= 1, got {min(s, d)}"):
            korobov_vector(s, d)

    def test_korobov_lattice_at_a_multiple_of_a_is_rejected(self):
        # a = 1571 is prime, so at s = 1571 the Korobov vector is (1, 0, 0),
        # which would put every point on the cube's first axis.
        assert korobov_vector(1571, 3).tolist() == [1, 0, 0]
        with pytest.raises(ValueError, match=r"\[1, 0, 0\].*s=1571"):
            make_pointset("lattice", 1571, 3)

    def test_all_base_names(self):
        for name in UNIT_SEQUENCES:
            pts = make_pointset(name, 8, 2, seed=1)
            assert pts.points.shape == (8, 2)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="halton"):
            make_pointset("sobol", 8, 2)

    @pytest.mark.parametrize("seq,params,unread", [
        ("mc", {"start_index": 7}, "start_index"),
        ("lattice", {"start_index": 1}, "start_index"),
        ("halton", {"generating_vector": (1, 2)}, "generating_vector"),
        ("halton-scrambled", {"generating_vector": (1, 2)}, "generating_vector"),
    ])
    def test_a_parameter_the_sequence_does_not_read_is_rejected(self, seq, params, unread):
        with pytest.raises(ValueError, match=rf"sequence '{seq}' does not read {unread}"):
            make_pointset(seq, 3, 2, **params)

    def test_parameters_the_sequence_reads_are_passed_on(self):
        assert make_pointset("halton", 3, 2, start_index=5).seed_or_start == 5
        assert np.array_equal(make_pointset("lattice", 5, 2, generating_vector=(1, 2)).points,
                              lattice(5, 2, [1, 2]).points)
        # None stands for an omitted parameter, as an omitted CLI flag passes it.
        assert make_pointset("mc", 3, 2, seed=4, start_index=None).seed_or_start == 4


def _subcommands():
    """The CLI's subcommand parsers, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _seq_choices(command):
    """The ``--seq`` choices of a CLI subcommand."""
    return next(a.choices for a in _subcommands()[command]._actions if a.dest == "seq")


class TestSequenceRegistry:
    """Each sequence is one entry of `UNIT_SEQUENCES` or `ADAPTIVE_SEQUENCES`,
    and every list of names is read from them."""

    def test_names_are_the_registry_names(self):
        for command in ("generate", "krr", "avgcase-check"):
            assert tuple(_seq_choices(command)) == tuple(UNIT_SEQUENCES)
        for name in PIPELINE_SEQUENCES:
            ExperimentConfig(sequences=(name,))
        with pytest.raises(ValueError) as err:
            ExperimentConfig(sequences=("sobol",))
        assert str(err.value).endswith("valid names: " + ", ".join(PIPELINE_SEQUENCES))
        assert not set(UNIT_SEQUENCES) & set(ADAPTIVE_SEQUENCES)

    def test_a_new_unit_sequence_reaches_everything_from_its_entry(
            self, monkeypatch, regression_data, capsys):
        # monkeypatch puts the registry back as it was after the test.
        monkeypatch.setitem(UNIT_SEQUENCES, "toy", (
            lambda s, d, seed: UnitPointSet(points=halton(s, d, start_index=9).points,
                                            generator="toy"), ()))
        for command in ("generate", "krr", "avgcase-check"):
            assert "toy" in _seq_choices(command)
        assert main(["generate", "--seq", "toy", "--s", "3", "--d", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["generator"] == "toy"
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "toy"), s_grid=(4, 8),
                               trials=2)
        cells = {(c["label"], c["s"]): c for c in run_pipeline(cfg, regression_data)["cells"]}
        assert set(cells) == {(q, s) for q in ("halton", "toy") for s in (4, 8)}
        assert cells[("toy", 8)]["trials"] == 1
        toy, plain = cells[("toy", 8)], cells[("halton", 8)]
        assert toy["relative_frobenius"] != plain["relative_frobenius"]

    def test_a_new_adaptive_sequence_reaches_the_pipeline_from_its_entry(
            self, monkeypatch, regression_data):
        monkeypatch.setitem(ADAPTIVE_SEQUENCES, "toy-adaptive",
                            lambda base, density, box, opts: (base, None))
        assert "toy-adaptive" not in _seq_choices("generate")
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "toy-adaptive"),
                               s_grid=(8,))
        halton_cell, toy_cell = run_pipeline(cfg, regression_data)["cells"]
        # The toy keeps its Halton start, so its cell is Halton's under its own label.
        assert toy_cell["label"] == "toy-adaptive"
        assert toy_cell == dict(halton_cell, label="toy-adaptive")

    def test_rebound_generators_and_optimizers_see_every_call(self, monkeypatch, regression_data):
        # A tracer rebinds a function in every qmcrff namespace that binds it;
        # a registry entry holding the original would bypass the rebinding.
        calls = {"halton": 0, "optimize_global": 0}
        for module, name in ((sequences, "halton"), (adaptive, "optimize_global")):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qmcrff" or mod_name.startswith("qmcrff."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, key, counted)
        halton_cells = ("halton", "halton-scrambled", "adaptive-global", "weighted")
        cfg = ExperimentConfig(sigma=(1.0,), sequences=halton_cells + ("lattice", "mc"),
                               s_grid=(4, 8), trials=2, adapt_iters=2)
        run_pipeline(cfg, regression_data)
        assert calls == {"halton": 2 * len(halton_cells), "optimize_global": 2}


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

    @pytest.mark.parametrize("rows, cols", [(20, 50), (50, 20)])
    def test_solve_reads_the_lower_triangle_and_restores_it(self, rows, cols):
        # The pipeline's dual ridge factors a block of its Gram buffer, whose
        # upper triangle holds K or zeros and which it reuses afterwards.
        Z = np.random.default_rng(rows).normal(size=(rows, cols))
        y = np.random.default_rng(cols).normal(size=rows)
        A = np.tril(Z @ Z.T)
        A[np.triu_indices(rows, 1)] = np.nan
        before = A.copy()
        alpha = _ridge_solve(A, y, 1e-2, np.empty_like(A))
        assert np.array_equal(A, before, equal_nan=True)
        assert np.allclose((Z @ Z.T + 1e-2 * np.eye(rows)) @ alpha, y, rtol=0.0, atol=1e-10)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            krr_train(np.eye(3), np.ones(3), 0.0)
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge lambda must be positive and finite"):
                krr_train(np.eye(3), np.ones(3), lam)

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

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field,setting", [("box_scale", "box scale"),
                                               ("ridge_lambda", "ridge lambda")])
    def test_positive_settings_must_be_finite(self, field, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be positive and finite"):
            ExperimentConfig(**{field: value})

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

    def test_serial_equals_parallel_where_blas_threads(self):
        # At n = 600 OpenBLAS splits the rank-k updates and the Lanczos
        # matvecs across its threads; worker threads must not change a bit.
        rng = np.random.default_rng(8)
        ds = Dataset(X=rng.standard_normal((600, 3)), y=rng.standard_normal(600))
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "mc"),
                               s_grid=(8, 256), trials=2, seed=5, box_scale=0.5)
        a = run_pipeline(cfg, ds, workers=1)
        b = run_pipeline(cfg, ds, workers=3)
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
        # and 64 (2s > n_train) the dual one.  The pipeline orders the rows
        # train first and scores each map from the lower triangle of ZZ'.
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "halton-scrambled", "lattice"),
                               s_grid=(16, 32, 64), trials=1, seed=4, ridge_lambda=1e-3)
        report = run_pipeline(cfg, regression_data)
        X, y = regression_data.X, regression_data.y
        train, test = _split_indices(len(y), cfg.split, cfg.seed)
        assert len(train) == 40
        X_ordered = X[np.concatenate([train, test])]
        density = ProductDensity.for_kernel("gaussian", (1.0,), X.shape[1])
        K, gram = gram_exact(density, X), ExactGram(density, X_ordered)
        for cell in report["cells"]:
            fmap = WeightedFeatureMap(
                freqs=transform(make_pointset(cell["label"], cell["s"], X.shape[1]), density))
            spectral, frobenius = gram.errors(_lower_gram(real_feature_matrix(fmap, X_ordered)))
            assert cell["relative_spectral"]["mean"] == spectral
            assert cell["relative_frobenius"]["mean"] == frobenius
            # The per-map function agrees with the dense K - ZZ' path on the
            # rows as given, to the tolerance of the spectral_norm oracle tests.
            dense = relative_errors(K, gram_approx(fmap, X))
            assert (spectral, frobenius) == pytest.approx(dense, rel=1e-12, abs=0.0)
            Z = real_feature_matrix(fmap, X)
            beta = _primal_ridge(Z[train], y[train], cfg.ridge_lambda)
            err = regression_error(Z[test] @ beta, y[test])
            assert cell["regression_error"]["mean"] == pytest.approx(err, rel=1e-9, abs=0.0)

    def test_mc_cells_summarize_the_trials(self, regression_data):
        # Each mc cell holds the mean and ddof-1 std of its trials' errors.
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("mc",), s_grid=(8, 16),
                               trials=3, seed=6)
        report = run_pipeline(cfg, regression_data)
        X = regression_data.X
        X_ordered = X[np.concatenate(_split_indices(len(X), cfg.split, cfg.seed))]
        density = ProductDensity.for_kernel("gaussian", (1.0,), X.shape[1])
        box = Box(b=report["box"])
        K, gram = gram_exact(density, X), ExactGram(density, X_ordered)
        for cell in report["cells"]:
            maps = _frequency_maps_for_cell(cfg, density, box, "mc", cell["s"], X.shape[1])
            fmaps = [WeightedFeatureMap(freqs=freqs) for freqs, _ in maps]
            errors = [gram.errors(_lower_gram(real_feature_matrix(fmap, X_ordered)))
                      for fmap in fmaps]
            assert cell["trials"] == len(errors) == 3
            spectral, frobenius = zip(*errors)
            assert cell["relative_spectral"] == _mean_std(spectral)
            assert cell["relative_frobenius"] == _mean_std(frobenius)
            dense = [relative_errors(K, gram_approx(fmap, X)) for fmap in fmaps]
            for pair, reference in zip(errors, dense):
                assert pair == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s_small", [16, 32])
    def test_cells_after_a_larger_map_match_fresh_runs(self, regression_data, s_small,
                                                       monkeypatch):
        # n_train = 40: s = 16 solves the primal ridge system, s = 32 the dual
        # one.  In one worker's workspace the mc cell at s_small, three
        # trials, runs right after halton's s = 64 map; a fresh run holds it
        # alone in buffers sized for it.  Each worker takes one Gram buffer,
        # and only the first is the array gram_exact built, whose strict
        # upper half holds K.
        taken = []
        gram_buffer = ExactGram.gram_buffer

        def recording_gram_buffer(gram):
            taken.append((threading.get_ident(), gram_buffer(gram)))
            return taken[-1][1]

        monkeypatch.setattr(ExactGram, "gram_buffer", recording_gram_buffer)
        cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "mc"),
                               s_grid=(s_small, 64), trials=3, seed=8, ridge_lambda=1e-3)
        report = run_pipeline(cfg, regression_data, workers=1)
        assert [(c["label"], c["s"]) for c in report["cells"]] == [
            ("halton", s_small), ("halton", 64), ("mc", s_small), ("mc", 64)]
        assert len(taken) == 1 and np.triu(taken[0][1], 1).any()
        fresh = run_pipeline(replace(cfg, sequences=("mc",), s_grid=(s_small,)), regression_data)
        assert fresh["cells"] == [report["cells"][2]]
        taken.clear()
        parallel = run_pipeline(cfg, regression_data, workers=3)
        assert parallel["cells"] == report["cells"]
        assert 1 <= len(taken) <= 3
        assert len({thread for thread, _ in taken}) == len(taken)
        assert sum(np.triu(G, 1).any() for _, G in taken) == 1

    def test_laplacian_kernel_supported(self, regression_data):
        cfg = ExperimentConfig(kernel="laplacian", sigma=(2.0,),
                               sequences=("halton",), s_grid=(16,), trials=1, seed=0)
        report = run_pipeline(cfg, regression_data)
        density = ProductDensity.cauchy(2.0, d=regression_data.d)
        freqs = transform(make_pointset("halton", 16, regression_data.d), density)
        expect = box_discrepancy_gaussian(freqs, density, Box(b=report["box"])).d_squared
        assert report["cells"][0]["discrepancy"]["mean"] == expect

    def test_laplacian_adaptive_sequences(self, regression_data):
        cfg = ExperimentConfig(kernel="laplacian", sigma=(2.0,),
                               sequences=("halton", "adaptive-global", "adaptive-greedy",
                                          "weighted"),
                               s_grid=(8,), trials=1, seed=0)
        report = run_pipeline(cfg, regression_data)
        d2 = {c["label"]: c["discrepancy"]["mean"] for c in report["cells"]}
        assert d2["adaptive-global"] < d2["halton"]
        assert d2["adaptive-greedy"] <= d2["halton"]
        assert d2["weighted"] <= d2["halton"]

    def test_adapt_iters_caps_the_greedy_inner_solves(self):
        density = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 3.0])
        cfg = ExperimentConfig(sequences=("adaptive-greedy",), s_grid=(6,), adapt_iters=1)
        [(freqs, weights)] = _frequency_maps_for_cell(cfg, density, box, "adaptive-greedy", 6, 2)
        ref = optimize_greedy(6, density, box, transform(halton(6, 2), density),
                              OptimizerOptions(max_iters=1))
        assert weights is None
        assert np.array_equal(freqs.points, ref.freqs.points)


class TestConfigFromFlags:
    # ExperimentConfig owns the defaults: gram-error and pipeline pass only
    # the flags given, each to the config field its dest names.
    @staticmethod
    def _config(tmp_path, flags):
        data = _write(tmp_path, "x.csv", "0,1\n1,0\n2,2\n")
        args = build_parser().parse_args(["pipeline", "--data", data] + flags)
        return _experiment_from_args(args, has_target=False)[0]

    def test_omitted_flags_keep_the_config_defaults(self, tmp_path):
        cfg = self._config(tmp_path, ["--s", "4", "--seq", "halton"])
        assert cfg == ExperimentConfig(sequences=("halton",), s_grid=(4,))

    def test_every_field_is_set_by_a_pipeline_flag(self, tmp_path):
        cfg = self._config(tmp_path, [
            "--kernel", "laplacian", "--sigma", "2", "--seq", "mc,lattice", "--s", "2,8",
            "--trials", "3", "--box-scale", "0.5", "--lambda", "1e-3", "--split", "0.25",
            "--seed", "4", "--max-n", "100", "--max-iters", "7"])
        assert cfg.to_json_dict() == {
            "kernel": "laplacian", "sigma": [2.0], "sequences": ["mc", "lattice"],
            "s_grid": [2, 8], "trials": 3, "box_scale": 0.5, "ridge_lambda": 1e-3,
            "split": 0.25, "seed": 4, "max_n": 100, "adapt_iters": 7}
        default = ExperimentConfig().to_json_dict()
        assert sorted(default) == sorted(f.name for f in fields(ExperimentConfig))
        assert [k for k, v in cfg.to_json_dict().items() if v == default[k]] == []


class TestCommandLine:
    def test_readme_table_lists_every_subcommand(self):
        readme = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
        table = readme.split("\n| subcommand ", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` +\|", table, flags=re.MULTILINE)
        assert sorted(rows) == sorted(_subcommands())

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

    def test_generate_lattice_vector_not_coprime_exit_code(self, capsys):
        code = main(["generate", "--seq", "lattice", "--s", "4", "--d", "2", "--z", "2,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[2, 0]" in captured.err and "s=4" in captured.err

    @pytest.mark.parametrize("seq,flags,unread", [
        ("halton", ["--s", "3", "--z", "2,0"], "generating_vector"),
        ("mc", ["--s", "3", "--start", "7"], "start_index"),
        ("lattice", ["--s", "3", "--start", "0"], "start_index"),
    ])
    def test_generate_rejects_a_flag_the_sequence_does_not_read(self, seq, flags, unread,
                                                                capsys):
        assert main(["generate", "--seq", seq, "--d", "2"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sequence '{seq}' does not read {unread}" in captured.err

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
        # The oracle needs well over max |w_lj| b_j / 2 nodes to resolve cos(w beta).
        nodes = 64 + int(np.max(np.abs(W) * [0.5, 1.5]))
        expect = box_discrepancy_quadrature(
            FrequencySet(points=read_matrix_csv(freqs)), ProductDensity.cauchy(2.0, d=2),
            Box(b=[0.5, 1.5]), nodes=nodes)
        assert payload["d_squared"] == pytest.approx(expect, rel=1e-6)
        assert (payload["s"], payload["d"], payload["box_scale"]) == (12, 2, 0.5)

    def test_laplacian_discrepancy_above_three_dimensions(self, tmp_path):
        freqs = _write(tmp_path, "w4.csv", "0.1,0.2,0.3,0.4\n-1,2,-3,4\n")
        report = tmp_path / "rep.json"
        assert main(["discrepancy", "--freqs", freqs, "--kernel", "laplacian",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        expect = box_discrepancy_gaussian(
            FrequencySet(points=read_matrix_csv(freqs)), ProductDensity.cauchy(1.0, d=4),
            Box(b=[1.0] * 4))
        assert payload["d_squared"] == expect.d_squared
        assert (payload["s"], payload["d"]) == (2, 4)

    def test_laplacian_discrepancy_of_transformed_halton(self, tmp_path):
        # 200 quadrature nodes, the old laplacian path, printed 7.18e-5 here.
        pts = tmp_path / "pts.csv"
        freqs = tmp_path / "freqs.csv"
        report = tmp_path / "rep.json"
        assert main(["generate", "--seq", "halton", "--s", "256", "--d", "1",
                     "--out", str(pts)]) == 0
        assert main(["transform", "--in", str(pts), "--kernel", "laplacian",
                     "--sigma", "0.3", "--out", str(freqs)]) == 0
        assert main(["discrepancy", "--freqs", str(freqs), "--kernel", "laplacian",
                     "--sigma", "0.3", "--b", "2", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["d_squared"] == pytest.approx(
            1.5351359e-4, rel=1e-6)

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

    def test_greedy_pipeline_leaves_scipy_optimize_unimported(self, tmp_path):
        # Greedy's inner solves run on the package's own conjugate gradient;
        # importing scipy.optimize would add about a tenth of a second to
        # every greedy CLI run.
        rows = np.random.default_rng(8).normal(size=(24, 3))
        data = _write(tmp_path, "xy.csv",
                      "\n".join(",".join("%.17g" % v for v in r) for r in rows) + "\n")
        argv = ["pipeline", "--data", data, "--target", "--s", "4",
                "--seq", "halton,adaptive-greedy", "--trials", "1",
                "--max-iters", "2", "--out", str(tmp_path / "rep.json")]
        assert "scipy.optimize" not in _scipy_modules_after(argv)

    @pytest.mark.parametrize("command", ["generate", "transform", "discrepancy"])
    def test_sequence_commands_leave_scipy_linalg_and_optimize_unimported(
            self, tmp_path, command):
        # scipy.linalg and scipy.optimize take about a quarter second to
        # import, and these commands solve no linear system or program.
        cube = halton(16, 2)
        with open(tmp_path / "cube.csv", "w") as fh:
            write_matrix_csv(fh, cube.points)
        with open(tmp_path / "freqs.csv", "w") as fh:
            write_matrix_csv(fh, transform(cube, ProductDensity.gaussian(1.0, d=2)).points)
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

    def test_optimize_greedy_laplacian(self, tmp_path):
        # Greedy growth minimizes the Cauchy discrepancy, the one it reports.
        out = tmp_path / "trace.json"
        pts = tmp_path / "greedy.csv"
        assert main(["optimize", "--mode", "greedy", "--s", "8", "--d", "2",
                     "--kernel", "laplacian", "--sigma", "1", "--b", "1,2",
                     "--max-iters", "200", "--out", str(out), "--out-points", str(pts)]) == 0
        density = ProductDensity.cauchy(1.0, d=2)
        box = Box(b=[1.0, 2.0])
        final = box_discrepancy_gaussian(
            FrequencySet(points=read_matrix_csv(pts)), density, box).d_squared
        assert json.loads(out.read_text())["objective_values"][-1] == pytest.approx(
            final, rel=1e-12, abs=0.0)
        assert final < box_discrepancy_gaussian(
            transform(halton(8, 2), density), density, box).d_squared

    def test_optimize_in_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["optimize", "--mode", "greedy", "--s", "2", "--d", "2",
                     "--in", str(tmp_path / "does-not-exist.csv")])
        assert code == 3
        assert "cannot open" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,s", [("global", "-1"), ("weights", "0"), ("greedy", "0")])
    def test_optimize_s_below_one_is_usage_error(self, tmp_path, capsys, mode, s):
        # Checked before --in is read, so a missing file is never reached.
        data = _write(tmp_path, "init.csv", "0.25,-0.5\n1.5,0.75\n-1,2\n")
        for infile in (data, str(tmp_path / "missing.csv")):
            assert main(["optimize", "--mode", mode, "--s", s, "--d", "2", "--in", infile]) == 2
            assert "s >= 1" in capsys.readouterr().err

    def test_optimize_starts_from_the_in_file(self, tmp_path):
        data = _write(tmp_path, "init.csv", "0.25,-0.5\n1.5,0.75\n-1,2\n")
        out = tmp_path / "trace.json"
        assert main(["optimize", "--mode", "greedy", "--s", "2", "--d", "2",
                     "--in", data, "--out", str(out)]) == 0
        init = json.loads(out.read_text())["freqs"]["provenance"]["init"]
        assert init == {"source": "file", "path": data}

    def test_optimize_has_no_init_flag(self, tmp_path):
        data = _write(tmp_path, "init.csv", "0.25,-0.5\n1.5,0.75\n")
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--mode", "greedy", "--s", "2", "--d", "2",
                  "--init", "file", "--in", data])
        assert err.value.code == 2

    def test_optimize_has_no_seed_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--mode", "global", "--s", "2", "--d", "1", "--seed", "1"])
        assert err.value.code == 2

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

    @pytest.mark.parametrize("command,setting", [
        (["pipeline", "--target", "--s", "8", "--seq", "halton", "--lambda", "nan"],
         "ridge lambda"),
        (["pipeline", "--target", "--s", "8", "--seq", "halton", "--lambda", "inf"],
         "ridge lambda"),
        (["krr", "--s", "8", "--lambda", "nan", "--features-out", "features.csv"],
         "ridge lambda"),
        (["pipeline", "--s", "8", "--seq", "halton", "--box-scale", "nan"], "box scale"),
        (["optimize", "--mode", "greedy", "--s", "2", "--d", "2", "--box-scale", "nan"],
         "box scale"),
        (["discrepancy", "--sigma", "1", "--b", "1", "--box-scale", "nan"], "box scale"),
        (["discrepancy", "--sigma", "1", "--b", "inf"], "b"),
        (["krr", "--s", "8", "--sigma", "nan"], "scale"),
    ])
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                               command, setting):
        # Each setting is checked before any output is written, and the
        # message names it.
        monkeypatch.chdir(tmp_path)
        data = _xy_csv(tmp_path, np.random.default_rng(10).normal(size=(20, 3)))
        inputs = {"optimize": [], "discrepancy": ["--freqs", data]}
        code = main(command + inputs.get(command[0], ["--data", data]))
        assert code == 2
        assert f"error: {setting} must be positive and finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir() if p.stat().st_size] == ["xy.csv"]

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
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--in"], "nan"),
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--in"], "1e400"),
    ])
    def test_non_finite_input_file_is_data_error(self, tmp_path, capsys, command, entry):
        data = _write(tmp_path, "bad.csv", f"0.25,0.5\n{entry},0.75\n0.5,0.125\n")
        code = main(command + [data])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and data in err and "finite" in err

    @pytest.mark.parametrize("command", [
        ["pipeline", "--s", "4", "--seq", "halton", "--data"],
        ["discrepancy", "--sigma", "1", "--b", "1", "--freqs"],
    ])
    def test_undecodable_input_file_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00\x01,2\n")
        assert main(command + [str(path)]) == 3
        err = capsys.readouterr().err
        assert "cannot read" in err and str(path) in err

    @pytest.mark.parametrize("command,flag", [
        (["pipeline", "--s", "4", "--seq", "halton", "--target"], "--out"),
        (["generate", "--seq", "halton", "--s", "4", "--d", "2"], "--out"),
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--max-iters", "2"],
         "--out-points"),
        (["krr", "--s", "4"], "--features-out"),
        (["optimize", "--mode", "global", "--s", "2", "--d", "2", "--max-iters", "2",
          "--out-points", "ok.csv"], "--out"),
        (["krr", "--s", "4", "--features-out", "ok.csv"], "--out"),
    ])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, monkeypatch,
                                             command, flag):
        # Every output is opened before the command runs: the run never
        # starts, and the other output the command names stays unwritten.
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr("qmcrff.cli.run_pipeline", lambda *a, **k: calls.append(a))
        if command[0] in ("pipeline", "krr"):
            command = command + ["--data", _xy_csv(tmp_path, np.eye(4) + 0.5)]
        target = str(tmp_path / "missing-dir" / "out.csv")
        assert main(command + [flag, target]) == 3
        err = capsys.readouterr().err
        assert "cannot write" in err and target in err
        assert calls == [] and not (tmp_path / "ok.csv").exists()

    @pytest.mark.parametrize("command,inflag,outflag", [
        (["transform"], "--in", "--out"),
        (["discrepancy"], "--freqs", "--out"),
        (["optimize", "--mode", "global", "--s", "1", "--d", "2"], "--in", "--out-points"),
    ])
    def test_output_naming_the_input_is_usage_error(self, tmp_path, capsys,
                                                    command, inflag, outflag):
        # Opening the output first would empty the input before it is read.
        path = tmp_path / "in.csv"
        path.write_text("0.25,0.5\n")
        alias = str(tmp_path / "." / "in.csv")
        assert main(command + [inflag, str(path), outflag, alias]) == 2
        assert "also an input" in capsys.readouterr().err
        assert path.read_text() == "0.25,0.5\n"

    @pytest.mark.parametrize("command,second", [
        (["optimize", "--mode", "global", "--s", "3", "--d", "2", "--max-iters", "2"],
         "--out-points"),
        (["krr", "--s", "4"], "--features-out"),
    ])
    def test_two_outputs_naming_one_file_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        command, second):
        # The second opening would discard what the first output wrote.
        # Nothing is opened: the file is not created.
        monkeypatch.chdir(tmp_path)
        if command[0] == "krr":
            command = command + ["--data", _xy_csv(tmp_path, np.eye(4) + 0.5)]
        assert main(command + ["--out", "f", second, str(tmp_path / "." / "f")]) == 2
        assert "also another output" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("command", [
        ["optimize", "--mode", "global", "--s", "3", "--d", "2", "--max-iters", "2",
         "--out", "-", "--out-points", "-"],
        ["optimize", "--mode", "global", "--s", "3", "--d", "2", "--max-iters", "2",
         "--out-points", "-"],
        ["krr", "--s", "4", "--features-out", "-"],
    ])
    def test_two_outputs_on_stdout_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # An omitted --out is stdout too.  Two outputs there would interleave
        # the CSV and the JSON report on one stream; the command never runs.
        calls = []
        monkeypatch.setattr("qmcrff.cli.optimize_global", lambda *a, **k: calls.append(a))
        monkeypatch.setattr("qmcrff.cli.real_feature_matrix", lambda *a, **k: calls.append(a))
        if command[0] == "krr":
            command = command + ["--data", _xy_csv(tmp_path, np.eye(4) + 0.5)]
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "both write to stdout" in captured.err
        assert calls == []

    @pytest.mark.parametrize("command", [
        ["generate", "--seq", "halton-scrambled", "--s", "5", "--d", "3"],
        ["transform", "--kernel", "laplacian", "--sigma", "0.5,2"],
    ])
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsys, command):
        if command[0] == "transform":
            cube = tmp_path / "cube.csv"
            with open(cube, "w") as fh:
                write_matrix_csv(fh, halton(6, 2).points)
            command = command + ["--in", str(cube)]
        assert main(command) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.csv"
        assert main(command + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout and stdout.count("\n") >= 5

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
