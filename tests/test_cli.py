import copy
import hashlib
import json
import zlib

import numpy as np
import pytest
from click.testing import CliRunner

import momentprop as mp
from momentprop.cli import cli
from oracles import gen_tabular_regression, write_regression_csv


@pytest.fixture
def runner():
    return CliRunner()


def toy_train_config(tmp_path, epochs=3, lr=1e-3, n=64, optimizer="adam"):
    cfg = {
        "name": "toy-tiny",
        "dataset": {"kind": "toy", "n": n, "seed": 1},
        "model": {"kind": "mlp", "hidden": [8], "dropout_rate": 0.2, "tau": 25.0},
        "train": {"epochs": epochs, "batch_size": 16, "loss": "mse",
                  "learning_rate": lr, "optimizer": optimizer, "seed": 3},
        "model_out": "model.mpmdl",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestTrainCommand:
    def test_trains_and_saves(self, runner, tmp_path):
        cfg = toy_train_config(tmp_path)
        out = tmp_path / "run"
        result = runner.invoke(cli, ["--out", str(out), "train", str(cfg)])
        assert result.exit_code == 0, result.output
        model = mp.load_model(out / "model.mpmdl")
        assert model.task == "regression"
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["report"]["val_loss"]) == 3

    def test_fixed_seed_rerun_identical_model_file(self, runner, tmp_path):
        cfg = toy_train_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert runner.invoke(cli, ["--out", str(out1), "train", str(cfg)]).exit_code == 0
        assert runner.invoke(cli, ["--out", str(out2), "train", str(cfg)]).exit_code == 0
        assert (out1 / "model.mpmdl").read_bytes() == (out2 / "model.mpmdl").read_bytes()

    def test_missing_config_is_usage_error(self, runner):
        result = runner.invoke(cli, ["train"])
        assert result.exit_code == 2

    def test_nonexistent_config_is_data_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["train", str(tmp_path / "absent.json")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("bad", [{"size": 0}, {"size": 7.5}, {"n_per_class": 2.5},
                                     {"noise_sigma": -0.1}, {"n_classes": 11}])
    def test_bad_synthetic_images_arguments_are_data_errors(self, runner, tmp_path, bad):
        cfg = {
            "dataset": {"kind": "synthetic_images", "n_per_class": 4, "n_classes": 3,
                        "size": 8, **bad},
            "model": {"kind": "cnn", "conv_channels": [2], "dense_units": [4]},
            "train": {"epochs": 1, "loss": "categorical_nll"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(cli, ["--out", str(tmp_path / "o"), "train", str(path)])
        assert result.exit_code == 3, result.output
        assert "bad 'dataset' config" in result.output and "Traceback" not in result.output

    BASES = {
        "mlp": {"dataset": {"kind": "toy", "n": 64}, "model": {"kind": "mlp", "hidden": [4]},
                "train": {"epochs": 1, "loss": "mse"}},
        "cnn": {"dataset": {"kind": "synthetic_images", "n_per_class": 4, "n_classes": 3,
                            "size": 8},
                "model": {"kind": "cnn", "conv_channels": [2], "dense_units": [4]},
                "train": {"epochs": 1, "loss": "categorical_nll"}},
    }

    @pytest.mark.parametrize("base, path, value, section", [
        pytest.param("mlp", ("dataset", "noise_sigam"), 0.2, "dataset", id="dataset-key"),
        pytest.param("mlp", ("model", "pool_size"), 2, "model", id="model-key"),
        pytest.param("mlp", ("train", "learning_rte"), 5.0, "train", id="train-key"),
        pytest.param("mlp", ("train", "lr_reduction"), {"patince": 3}, "train.lr_reduction",
                     id="lr_reduction-key"),
        pytest.param("mlp", ("nmae",), "x", "top-level", id="top-level-key"),
        pytest.param("mlp", ("model", "dropout_rate"), 1.5, "model", id="dropout_rate-1.5"),
        pytest.param("mlp", ("model", "dropout_rate"), -0.1, "model", id="dropout_rate--0.1"),
        pytest.param("cnn", ("model", "dropout_rate"), float("nan"), "model",
                     id="cnn-dropout_rate-nan"),
        pytest.param("mlp", ("train", "epochs"), 0, "train", id="epochs-0"),
        pytest.param("mlp", ("train", "epochs"), 2.5, "train", id="epochs-2.5"),
        pytest.param("mlp", ("train", "batch_size"), 8.5, "train", id="batch_size-8.5"),
        pytest.param("mlp", ("train", "learning_rate"), -1.0, "train", id="learning_rate--1"),
        pytest.param("mlp", ("train", "learning_rate"), "0.1", "train",
                     id="learning_rate-string"),
        pytest.param("mlp", ("train", "lr_reduction"), {"patience": 0}, "train.lr_reduction",
                     id="lr_patience-0"),
        pytest.param("cnn", ("train", "loss"), "mse", "train", id="cnn-mse"),
    ])
    def test_bad_train_config_is_data_error(self, runner, tmp_path, base, path, value, section):
        cfg = copy.deepcopy(self.BASES[base])
        *parents, key = path
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = value
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        result = runner.invoke(cli, ["--out", str(tmp_path / "o"), "train", str(config)])
        assert result.exit_code == 3, result.output
        assert f"bad {section!r} config" in result.output and "Traceback" not in result.output

    @pytest.mark.parametrize("cfg, digest", [
        ({"seed": 5, "dataset": {"kind": "toy"}, "model": {"kind": "mlp", "hidden": [8]},
          "train": {"loss": "mse"}},
         "dd6f583a276d60389ef1c663fbd64a0a1726e848307e5c6a71809bbf142c575a"),
        ({"seed": 5, "dataset": {"kind": "synthetic_images", "n_per_class": 6},
          "model": {"kind": "cnn"},
          "train": {"epochs": 2, "loss": "categorical_nll", "batch_size": 16}},
         "54d27d0b4fd3763d9bdf7c5332d802fcbd8deae2859d55be4871ef932e90aacf"),
    ], ids=["mlp", "cnn"])
    def test_model_file_is_pinned(self, runner, tmp_path, cfg, digest):
        """The CLI defaults (toy n, image noise_sigma and n_per_class, cnn
        widths, 100 epochs) and the seeded training give these exact bytes."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        result = runner.invoke(cli, ["--out", str(out), "train", str(config)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256((out / "model.mpmdl").read_bytes()).hexdigest() == digest

    def test_data_dir_resolves_relative_paths(self, runner, tmp_path):
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        x, y = gen_tabular_regression(60, n_features=3, seed=0)
        write_regression_csv(data_dir / "d.csv", x, y)
        cfg = {
            "dataset": {"kind": "csv", "path": "d.csv", "target_column": "y"},
            "model": {"kind": "mlp", "hidden": [4]},
            "train": {"epochs": 1, "loss": "mse"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(cli, ["--data-dir", str(data_dir),
                                     "--out", str(tmp_path / "o"), "train", str(path)])
        assert result.exit_code == 0, result.output

    def test_missing_csv_is_data_error(self, runner, tmp_path):
        cfg = {
            "dataset": {"kind": "csv", "path": str(tmp_path / "nope.csv"), "target_column": "y"},
            "model": {"kind": "mlp"},
            "train": {"epochs": 1, "loss": "mse"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(cli, ["--out", str(tmp_path / "o"), "train", str(path)])
        assert result.exit_code == 3

    def test_divergence_is_numeric_failure(self, runner, tmp_path):
        cfg = toy_train_config(tmp_path, epochs=30, lr=1e9, optimizer="sgd")
        result = runner.invoke(cli, ["--out", str(tmp_path / "o"), "train", str(cfg)])
        assert result.exit_code == 4


@pytest.fixture
def trained_model_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("model")
    runner = CliRunner()
    cfg = toy_train_config(base, epochs=4)
    out = base / "run"
    assert runner.invoke(cli, ["--out", str(out), "train", str(cfg)]).exit_code == 0
    return out / "model.mpmdl"


class TestCompareCommand:
    def test_compare_with_npy(self, runner, trained_model_path, cnn3_path, tmp_path):
        cases = {
            "regression": (trained_model_path, (12, 1), "500",
                           "example,e_mp,v_mp,mean_mc,var_mc,se_mc,abs_diff,z_score",
                           "t,max_abs_z,frac_within_3se,max_abs_diff"),
            "classifier": (cnn3_path, (12, 1, 8, 8), "16",
                           "example,max_abs_prob_diff,entropy_mp,entropy_mc",
                           "t,max_abs_prob_diff"),
        }
        for task, (model_path, shape, t, header, summary) in cases.items():
            npy = tmp_path / f"{task}.npy"
            np.save(npy, np.random.default_rng(0).uniform(-1, 1, shape))
            out = tmp_path / f"cmp-{task}"
            result = runner.invoke(cli, [
                "--out", str(out), "compare", str(model_path), "--input", str(npy), "--t", t,
            ])
            assert result.exit_code == 0, result.output
            lines = (out / "per_example.csv").read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 13
            lines = (out / "summary.csv").read_text().splitlines()
            assert lines[0] == summary
            assert lines[1].startswith(f"{t},")
            assert len(lines) == 2

    def test_requires_some_input(self, runner, trained_model_path):
        result = runner.invoke(cli, ["compare", str(trained_model_path)])
        assert result.exit_code == 2

    def test_unknown_dataset_config_key_is_data_error(self, runner, trained_model_path,
                                                      tmp_path):
        spec = tmp_path / "ds.json"
        spec.write_text(json.dumps({"kind": "toy", "n": 64, "noise_sigam": 0.2}))
        result = runner.invoke(cli, ["--out", str(tmp_path / "c"), "compare",
                                     str(trained_model_path), "--dataset-config", str(spec)])
        assert result.exit_code == 3, result.output
        assert "bad 'dataset' config" in result.output and "noise_sigam" in result.output


class TestPredictCommand:
    def test_predict_modes(self, runner, trained_model_path, cnn3_path, tmp_path):
        cases = {
            "regression": (trained_model_path, (3, 1), "example,mean,variance,total_variance"),
            "classifier": (cnn3_path, (3, 1, 8, 8),
                           "example,predicted_class,entropy,one_minus_max,p0,p1,p2"),
        }
        for task, (model_path, shape, header) in cases.items():
            npy = tmp_path / f"{task}.npy"
            np.save(npy, np.zeros(shape))
            for mode in ("det", "mp", "mc"):
                out = tmp_path / f"pred-{task}-{mode}"
                result = runner.invoke(cli, [
                    "--out", str(out), "predict", str(model_path),
                    "--input", str(npy), "--mode", mode, "--t", "16",
                ])
                assert result.exit_code == 0, result.output
                rows = (out / "predictions.csv").read_text().splitlines()
                assert len(rows) == 4
                assert rows[0] == header
                # example and predicted_class are written as integers
                assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]
                if task == "classifier":
                    assert all(r.split(",")[1] in {"0", "1", "2"} for r in rows[1:])

    def test_corrupt_model_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.mpmdl"
        bad.write_bytes(b"garbage")
        xs = tmp_path / "x.npy"
        np.save(xs, np.zeros((1, 1)))
        result = runner.invoke(cli, ["predict", str(bad), "--input", str(xs)])
        assert result.exit_code == 3

    def test_manifest_entry_without_in_dim_is_data_error(self, runner, trained_model_path,
                                                          tmp_path):
        # a well-formed file whose first dense entry lost its in_dim
        raw = trained_model_path.read_bytes()
        old_len = int(np.frombuffer(raw, "<u8", 1, 12)[0])
        manifest = json.loads(raw[20 : 20 + old_len])
        del manifest["layers"][0]["in_dim"]
        mbytes = json.dumps(manifest).encode()
        body = raw[:12] + np.uint64(len(mbytes)).tobytes() + mbytes + raw[20 + old_len : -4]
        bad = tmp_path / "bad.mpmdl"
        bad.write_bytes(body + np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes())
        xs = tmp_path / "x.npy"
        np.save(xs, np.zeros((1, 1)))
        result = runner.invoke(cli, ["predict", str(bad), "--input", str(xs)])
        assert result.exit_code == 3
        assert "in_dim" in result.output and "Traceback" not in result.output

    def test_deeply_nested_manifest_is_data_error(self, runner, mlp3_path, tmp_path):
        # a checksum-valid file whose manifest nests deeper than the JSON parser recurses
        raw = mlp3_path.read_bytes()
        old_len = int(np.frombuffer(raw, "<u8", 1, 12)[0])
        mbytes = b"[" * 100_000 + b"]" * 100_000
        body = raw[:12] + np.uint64(len(mbytes)).tobytes() + mbytes + raw[20 + old_len : -4]
        bad = tmp_path / "deep.mpmdl"
        bad.write_bytes(body + np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes())
        xs = tmp_path / "x.npy"
        np.save(xs, np.zeros((1, 3)))
        result = runner.invoke(cli, ["predict", str(bad), "--input", str(xs)])
        assert result.exit_code == 3, result.output
        assert "manifest" in result.output and "Traceback" not in result.output


class TestNonFiniteInputs:
    """predict and compare refuse NaN, inf and non-numeric input rows (exit
    3) instead of returning NaN predictions or a traceback."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_predict_csv(self, runner, trained_model_path, tmp_path, cell):
        csv = tmp_path / "x.csv"
        csv.write_text(f"x\n0.5\n{cell}\n")
        result = runner.invoke(cli, ["--out", str(tmp_path / "p"), "predict",
                                     str(trained_model_path), "--input", str(csv)])
        assert result.exit_code == 3, result.output
        assert "row 1" in result.output and "Traceback" not in result.output
        assert not (tmp_path / "p" / "predictions.csv").exists()

    def test_non_numeric_npy(self, runner, trained_model_path, tmp_path):
        npy = tmp_path / "x.npy"
        np.save(npy, np.array([["0.5"], ["a"]]))
        result = runner.invoke(cli, ["predict", str(trained_model_path), "--input", str(npy)])
        assert result.exit_code == 3, result.output
        assert "non-numeric" in result.output and "Traceback" not in result.output

    def test_compare_npy(self, runner, trained_model_path, tmp_path):
        xs = np.zeros((4, 1))
        xs[2, 0] = np.inf
        npy = tmp_path / "x.npy"
        np.save(npy, xs)
        result = runner.invoke(cli, ["--out", str(tmp_path / "c"), "compare",
                                     str(trained_model_path), "--input", str(npy), "--t", "8"])
        assert result.exit_code == 3, result.output
        assert "row 2" in result.output and "Traceback" not in result.output


@pytest.fixture
def mlp3_path(tmp_path):
    path = tmp_path / "mlp3.mpmdl"
    mp.save_model(mp.mlp_regression(3, hidden=(8,), seed=0), path)
    return path


@pytest.fixture
def cnn3_path(tmp_path):
    """An untrained three-class CNN on 1x8x8 images."""
    path = tmp_path / "cnn3.mpmdl"
    mp.save_model(mp.cnn_classifier(input_shape=(1, 8, 8), conv_channels=(4,), dense_units=(8,),
                                    n_classes=3, seed=0), path)
    return path


class TestNonFiniteOutputs:
    """A finite input that overflows the forward to NaN or inf is a numeric
    failure (exit 4) in every mode, with no predictions written."""

    @pytest.mark.parametrize("mode", ["det", "mp", "mc"])
    def test_overflow_is_numeric_failure(self, runner, mlp3_path, tmp_path, mode):
        npy = tmp_path / "x.npy"
        np.save(npy, np.array([[1e308, 1e308, 1e308], [0.1, 0.2, 0.3]]))
        out = tmp_path / "o"
        result = runner.invoke(cli, ["--out", str(out), "predict", str(mlp3_path),
                                     "--input", str(npy), "--mode", mode, "--t", "8"])
        assert result.exit_code == 4, result.output
        assert "NaN or inf" in result.output and "Traceback" not in result.output
        assert not (out / "predictions.csv").exists()

    def test_compare_overflow_is_numeric_failure(self, runner, mlp3_path, tmp_path):
        npy = tmp_path / "x.npy"
        np.save(npy, np.array([[1e308, 1e308, 1e308], [0.1, 0.2, 0.3]]))
        out = tmp_path / "o"
        result = runner.invoke(cli, ["--out", str(out), "compare", str(mlp3_path),
                                     "--input", str(npy), "--t", "8"])
        assert result.exit_code == 4, result.output
        assert "NaN or inf" in result.output and "Traceback" not in result.output
        assert not (out / "per_example.csv").exists()


class TestBadFlags:
    """A command-line value below an option's bound, or a list that does not
    parse, is a usage error (exit 2) before any work runs; an MC sample count
    of 1 for a regression model, whose MC variance needs two passes, is a
    data error (exit 3) that names --t."""

    @pytest.mark.parametrize("args, code, names", [
        (["predict", "{mlp3}", "--input", "{x}", "--mode", "mc", "--t", "0"], 2, "--t"),
        (["compare", "{mlp3}", "--input", "{x}", "--t", "0"], 2, "--t"),
        (["predict", "{mlp3}", "--input", "{x}", "--mode", "mc", "--t", "1"], 3, "--t"),
        (["compare", "{mlp3}", "--input", "{x}", "--t", "1"], 3, "--t"),
        (["compare", "{mlp3}", "--input", "{x}", "--limit", "0"], 2, "--limit"),
        (["compare", "{mlp3}", "--input", "{x}", "--limit", "-1", "--t", "4"], 2, "--limit"),
        (["benchmark", "--t-list", "abc"], 2, "--t-list"),
        (["benchmark", "--t-list", "0"], 2, "--t-list"),
        (["benchmark", "--batch", "0"], 2, "--batch"),
        (["experiment", "ood", "--seeds", "a"], 2, "--seeds"),
        (["experiment", "auc-vs-t", "--t-list", "0,2"], 2, "--t-list"),
    ], ids=["predict-t0", "compare-t0", "predict-t1-regression", "compare-t1-regression",
            "compare-limit0", "compare-limit-negative", "benchmark-t-list-abc",
            "benchmark-t-list0", "benchmark-batch0", "ood-seeds-a", "auc-vs-t-t-list0"])
    def test_bad_flag_value(self, runner, mlp3_path, tmp_path, args, code, names):
        npy = tmp_path / "x.npy"
        np.save(npy, np.zeros((3, 3)))
        args = [a.format(mlp3=mlp3_path, x=npy) for a in args]
        out = tmp_path / "o"
        result = runner.invoke(cli, ["--out", str(out), *args])
        assert result.exit_code == code, result.output
        assert names in result.output and "Traceback" not in result.output
        assert not out.exists()


class TestInputShapes:
    """predict and compare read a lone example as a batch of one; inputs of
    any other shape than (N,) + the model's input shape, and a file with no
    rows, are a data error (exit 3) that names the file and both shapes."""

    BAD = {
        "two-columns.csv": ("x0,x1\n0.5,1.0\n0.2,0.3\n", "shape (2, 2)"),
        "header-only.csv": ("x0,x1,x2\n", "no input rows"),
        "rank-3.npy": (np.zeros((2, 3, 1)), "shape (2, 3, 1)"),
        "no-rows.npy": (np.zeros((0, 3)), "no input rows"),
    }

    @staticmethod
    def invoke(runner, command, model_path, out, *args):
        return runner.invoke(cli, ["--out", str(out), command, str(model_path), *args, "--t", "8"])

    @pytest.mark.parametrize("command", ["predict", "compare"])
    @pytest.mark.parametrize("name", sorted(BAD))
    def test_input_that_does_not_fit_is_data_error(self, runner, mlp3_path, tmp_path, command,
                                                   name):
        content, detail = self.BAD[name]
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            np.save(path, content)
        result = self.invoke(runner, command, mlp3_path, tmp_path / "o", "--input", str(path))
        assert result.exit_code == 3, result.output
        assert name in result.output and detail in result.output
        assert "Traceback" not in result.output
        if detail.startswith("shape"):
            assert "input shape (3,)" in result.output

    # read as the csv dataset kind reads its file: a malformed cell or row is
    # named by line, and quoted cells are numbers
    CSV = {
        "ragged.csv": ("x0,x1,x2\n0.1,0.2,0.3\n0.4,0.5\n", "ragged.csv:3: expected 3 cells, got 2"),
        "blank-line.csv": ("x0,x1,x2\n0.1,0.2,0.3\n\n0.4,0.5,0.6\n",
                           "blank-line.csv:3: expected 3 cells, got 0"),
        "empty-cell.csv": ("x0,x1,x2\n0.1,,0.3\n",
                           "empty-cell.csv:2: missing value in column 'x1'"),
        "quoted.csv": ('"x0","x1","x2"\n"0.1","0.2","0.3"\n', None),
    }

    @pytest.mark.parametrize("command", ["predict", "compare"])
    @pytest.mark.parametrize("name", sorted(CSV))
    def test_csv_input_read_as_the_csv_dataset_kind(self, runner, mlp3_path, tmp_path, command,
                                                    name):
        content, detail = self.CSV[name]
        path = tmp_path / name
        path.write_text(content)
        out = tmp_path / "o"
        result = self.invoke(runner, command, mlp3_path, out, "--input", str(path))
        if detail is not None:
            assert result.exit_code == 3, result.output
            assert detail in result.output and "Traceback" not in result.output
            return
        assert result.exit_code == 0, result.output
        npy = tmp_path / "same.npy"
        np.save(npy, np.array([[0.1, 0.2, 0.3]]))
        assert self.invoke(runner, command, mlp3_path, tmp_path / "n", "--input",
                           str(npy)).exit_code == 0
        tables = sorted(p.name for p in out.glob("*.csv"))
        assert tables and all((out / t).read_bytes() == (tmp_path / "n" / t).read_bytes()
                              for t in tables)

    @pytest.mark.parametrize("command, table", [("predict", "predictions.csv"),
                                                ("compare", "per_example.csv")])
    def test_one_example_is_a_batch_of_one(self, runner, mlp3_path, tmp_path, command, table):
        npy = tmp_path / "one.npy"
        np.save(npy, np.array([0.1, -0.2, 0.3]))
        out = tmp_path / "o"
        result = self.invoke(runner, command, mlp3_path, out, "--input", str(npy))
        assert result.exit_code == 0, result.output
        assert len((out / table).read_text().splitlines()) == 2

    def test_dataset_that_does_not_fit_is_data_error(self, runner, mlp3_path, tmp_path):
        spec = tmp_path / "toy.json"
        spec.write_text(json.dumps({"kind": "toy", "n": 64}))  # one feature per row
        result = self.invoke(runner, "compare", mlp3_path, tmp_path / "o",
                             "--dataset-config", str(spec))
        assert result.exit_code == 3, result.output
        assert "toy.json" in result.output and "input shape (3,)" in result.output
        assert "Traceback" not in result.output


# set-up keys that train a held-out-class protocol's models in well under a second
_SMALL_OOD = {"n_per_class": 20, "epochs": 1, "conv_channels": [4], "dense_units": [8]}


class TestExperimentCommands:
    def test_uci_on_handmade_csv(self, runner, tmp_path):
        x, y = gen_tabular_regression(50, n_features=3, seed=0)
        csv_path = tmp_path / "hand.csv"
        write_regression_csv(csv_path, x, y)
        # an absolute path, then a relative one resolved against --data-dir
        for path, extra in ((str(csv_path), []), ("hand.csv", ["--data-dir", str(tmp_path)])):
            over = {"uci": {"epochs": 5, "t": 50,
                            "datasets": [{"name": "hand", "path": path,
                                          "target_column": "y"}]}}
            cfg = tmp_path / "over.json"
            cfg.write_text(json.dumps(over))
            out = tmp_path / f"uci{len(extra)}"
            result = runner.invoke(cli, ["--out", str(out), "--config", str(cfg), *extra,
                                         "experiment", "uci"])
            assert result.exit_code == 0, result.output
            header = (out / "benchmark.csv").read_text().splitlines()[0].split(",")
            for col in ("dataset", "n", "q", "rmse_mc", "nll_mc", "rt_mc_s",
                        "rmse_mp", "nll_mp", "rt_mp_s"):
                assert col in header
            # the echo holds uci_run's defaults next to the values given
            config = json.loads((out / "summary.json").read_text())["config"]
            assert {k: config[k] for k in ("p_grid", "tau_grid", "hidden", "epochs", "t_mc",
                                           "timing_repeats", "seed", "threads")} == {
                "p_grid": [0.01, 0.05], "tau_grid": [0.25, 1.0, 4.0], "hidden": [50],
                "epochs": 5, "t_mc": 50, "timing_repeats": 3, "seed": 0, "threads": 1}

    def test_uci_without_datasets_is_usage_error(self, runner):
        assert runner.invoke(cli, ["experiment", "uci"]).exit_code == 2

    def test_toy_small(self, runner, tmp_path):
        over = {"toy": {"epochs": 3, "t": 100, "n": 64, "hidden": [8], "batch_size": 32}}
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(over))
        out = tmp_path / "toy"
        result = runner.invoke(cli, ["--out", str(out), "--config", str(cfg),
                                     "experiment", "toy"])
        assert result.exit_code == 0, result.output
        assert (out / "curves.csv").exists()

    def test_ood_small_and_seed_reproducible(self, runner, tmp_path):
        over = {"ood": {"n_per_class": 20, "epochs": 2, "conv_channels": [4],
                        "dense_units": [8], "t": 3}}
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(over))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(cli, [
                "--seed", "5", "--out", str(out), "--config", str(cfg),
                "experiment", "ood", "--ensemble", "1",
            ])
            assert result.exit_code == 0, result.output
            outs.append((out / "ood_metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_auc_vs_t_row_count(self, runner, tmp_path):
        over = {"auc_vs_t": {"n_per_class": 20, "epochs": 2, "conv_channels": [4],
                             "dense_units": [8]}}
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(over))
        out = tmp_path / "avt"
        result = runner.invoke(cli, [
            "--out", str(out), "--config", str(cfg),
            "experiment", "auc-vs-t", "--t-list", "1,2", "--repeats", "3",
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "auc_vs_t.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_filter_small(self, runner, tmp_path):
        over = {"filter": {"n_per_class": 20, "epochs": 2, "conv_channels": [4],
                           "dense_units": [8], "t": 3}}
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(over))
        out = tmp_path / "filt"
        result = runner.invoke(cli, ["--out", str(out), "--config", str(cfg),
                                     "experiment", "filter", "--ensemble", "2"])
        assert result.exit_code == 0, result.output
        assert (out / "filter.csv").exists()

    @pytest.mark.parametrize("command, section, over", [
        ("ood", "ood", {"n_per_class": 0}),
        ("filter", "filter", {"no_such_option": 1}),
        ("auc-vs-t", "auc_vs_t", {"ind_classes": [0, 99]}),
        ("toy", "toy", {"no_such_option": 1}),
        ("uci", "uci", {"datasets": [{"name": "hand", "path": "hand.csv"}]}),
        ("uci", "uci", {"datasets": [{"name": "hand", "path": "hand.csv",
                                      "target_column": "y", "sep": ","}]}),
        ("ood", "ood", {"ensemble_size": 0, **_SMALL_OOD}),
        ("ood", "ood", {"seeds": [], **_SMALL_OOD}),
        ("filter", "filter", {"ensemble_size": 0, **_SMALL_OOD}),
        ("filter", "filter", {"seeds": [], **_SMALL_OOD}),
        ("auc-vs-t", "auc_vs_t", {"repeats": 0, **_SMALL_OOD}),
        ("auc-vs-t", "auc_vs_t", {"t_list": [0, 2], **_SMALL_OOD}),
        ("auc-vs-t", "auc_vs_t", {"t_list": [], **_SMALL_OOD}),
        ("ood", "ood", {"ind_classes": [0.5, 1], **_SMALL_OOD}),
        ("toy", "toy", {"dropout_rate": -0.1}),
        ("uci", "uci", {"p_grid": [-0.1], "epochs": 1,
                        "datasets": [{"name": "hand", "path": "hand.csv", "target_column": "y"}]}),
    ])
    def test_bad_config_is_data_error(self, runner, tmp_path, command, section, over):
        x, y = gen_tabular_regression(20, n_features=2, seed=0)
        write_regression_csv(tmp_path / "hand.csv", x, y)
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps({section: over}))
        result = runner.invoke(cli, ["--out", str(tmp_path / "run"), "--config", str(cfg),
                                     "--data-dir", str(tmp_path), "experiment", command])
        assert result.exit_code == 3, result.output
        assert f"bad {section!r} config" in result.output
        # the protocols' own checks name the key they reject
        for key in over.keys() & {"seeds", "ensemble_size", "repeats", "t_list", "ind_classes"}:
            assert key in result.output

    def test_config_that_is_not_an_object_is_data_error(self, runner, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1]")
        for args in (["--config", str(cfg), "experiment", "toy"], ["train", str(cfg)]):
            result = runner.invoke(cli, ["--out", str(tmp_path / "run"), *args])
            assert result.exit_code == 3, result.output
            assert "is not a JSON object" in result.output

    def test_deeply_nested_config_is_data_error(self, runner, tmp_path):
        # nests deeper than the JSON parser recurses
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        result = runner.invoke(cli, ["--out", str(tmp_path / "run"), "--config", str(cfg),
                                     "experiment", "toy"])
        assert result.exit_code == 3, result.output
        assert "is not valid JSON" in result.output and "Traceback" not in result.output

    def test_diverged_experiment_training_is_numeric_failure(self, runner, tmp_path):
        over = {"toy": {"epochs": 30, "t": 10, "n": 64, "hidden": [8], "batch_size": 32,
                        "learning_rate": 1e200}}
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(over))
        result = runner.invoke(cli, ["--out", str(tmp_path / "toy"), "--config", str(cfg),
                                     "experiment", "toy"])
        assert result.exit_code == 4, result.output


_OOD_SETUP_KEYS = {"batch_size", "conv_channels", "data_seed", "dense_units", "dropout_rate",
                   "ensemble_size", "epochs", "image_size", "ind_classes", "learning_rate",
                   "n_classes", "n_per_class", "seeds", "split_fractions", "threads"}


class TestAcceptedKeys:
    """Each config section takes exactly these keys: an unknown key's data
    error lists them ("it takes ...")."""

    @pytest.mark.parametrize("base, path, keys", [
        ("mlp", (), {"dataset", "model", "model_out", "name", "seed", "train"}),
        ("mlp", ("dataset",), {"kind", "n", "noise_sigma", "seed", "x_range"}),
        ("csv", ("dataset",), {"kind", "path", "seed", "split_fractions", "target_column"}),
        ("cnn", ("dataset",), {"ind_classes", "kind", "n_classes", "n_per_class", "noise_sigma",
                               "seed", "size", "split_fractions"}),
        ("cifar10", ("dataset",), {"kind", "path"}),
        ("mlp", ("model",), {"dropout_rate", "hidden", "kind", "name", "seed", "tau"}),
        ("cnn", ("model",), {"conv_channels", "dense_units", "dropout_rate", "kernel_size",
                             "kind", "name", "seed"}),
        ("mlp", ("train",), {"batch_size", "dropout_rates", "early_stopping", "epochs",
                             "learning_rate", "loss", "lr_reduction", "momentum", "optimizer",
                             "seed"}),
        ("mlp", ("train", "lr_reduction"), {"factor", "min_lr", "patience"}),
        ("mlp", ("train", "early_stopping"), {"patience"}),
    ], ids=["top-level", "toy", "csv", "synthetic_images", "cifar10", "mlp", "cnn", "train",
            "lr_reduction", "early_stopping"])
    def test_train_config_keys(self, runner, tmp_path, base, path, keys):
        cfg = copy.deepcopy(TestTrainCommand.BASES["cnn" if base == "cnn" else "mlp"])
        if base in ("csv", "cifar10"):  # the unknown key is refused before the path is read
            cfg["dataset"] = {"kind": base}
        node = cfg
        for name in path:
            node = node.setdefault(name, {})
        node["no_such_key"] = 1
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        result = runner.invoke(cli, ["--out", str(tmp_path / "o"), "train", str(config)])
        assert result.exit_code == 3, result.output
        assert f"(it takes {', '.join(sorted(keys))})" in result.output

    @pytest.mark.parametrize("command, over, keys", [
        ("toy", {}, {"batch_size", "data_seed", "dropout_rate", "epochs", "hidden",
                     "learning_rate", "n", "seed", "t", "tau"}),
        ("uci", {}, {"datasets", "epochs", "hidden", "p_grid", "seed", "t_mc", "tau_grid",
                     "threads", "timing_repeats"}),
        ("uci", {"datasets": [{"no_such_key": 1}]}, {"name", "path", "target_column"}),
        ("ood", {}, _OOD_SETUP_KEYS | {"t"}),
        ("filter", {}, _OOD_SETUP_KEYS | {"kind", "t"}),
        ("auc-vs-t", {}, _OOD_SETUP_KEYS | {"repeats", "seed", "t_list"}),
    ], ids=["toy", "uci", "uci-dataset", "ood", "filter", "auc_vs_t"])
    def test_experiment_config_keys(self, runner, tmp_path, command, over, keys):
        section = command.replace("-", "_")
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps({section: over or {"no_such_key": 1}}))
        result = runner.invoke(cli, ["--out", str(tmp_path / "run"), "--config", str(cfg),
                                     "experiment", command])
        assert result.exit_code == 3, result.output
        assert f"bad {section!r} config" in result.output
        assert f"(it takes {', '.join(sorted(keys))})" in result.output


class TestBenchmarkCommand:
    def test_benchmark_runs(self, runner, trained_model_path, tmp_path):
        out = tmp_path / "bench"
        result = runner.invoke(cli, [
            "--out", str(out), "benchmark", "--model", str(trained_model_path),
            "--batch", "16", "--t-list", "2,5", "--repeats", "3",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "benchmark"
        assert (out / "ratios.csv").exists()
