import json

import numpy as np
import pytest

import momentprop as mp
from momentprop import experiments as ex
from momentprop.data import load_csv_regression
from momentprop.network import kind_of
from oracles import gen_tabular_regression, write_regression_csv


@pytest.fixture(scope="module")
def tiny_setup():
    """One miniature held-out-class setup shared by the experiment tests."""
    return ex.build_ood_setup(
        seeds=(0, 1), ensemble_size=2, n_per_class=40, epochs=4,
        conv_channels=(4,), dense_units=(16,),
    )


class TestCompare:
    def test_regression_table(self):
        rng = np.random.default_rng(0)
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.3),
                    mp.DenseSpec(rng.normal(size=(3, 1)), np.zeros(1))),
            input_shape=(3,), task="regression", tau=1.0,
        )
        x = rng.normal(size=(10, 3))
        report = ex.run_compare(model, x, t=4000, seed=0)
        rows = report.tables["per_example"]
        assert len(rows) == 10
        assert set(rows[0]) >= {"e_mp", "v_mp", "mean_mc", "var_mc", "se_mc", "z_score"}
        summary = report.tables["summary"][0]
        assert summary["frac_within_3se"] >= 0.8

    def test_zero_dropout_exact_match(self):
        rng = np.random.default_rng(1)
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.0),
                    mp.DenseSpec(rng.normal(size=(3, 1)), np.zeros(1))),
            input_shape=(3,), task="regression", tau=1.0,
        )
        # t=2 keeps the sample mean of identical outputs bit-exact
        x = rng.normal(size=(5, 3))
        report = ex.run_compare(model, x, t=2, seed=0)
        assert report.tables["summary"][0]["max_abs_diff"] == 0.0

    def test_output_no_mask_moves_has_zero_z_score(self):
        """A ReLU dead for the first input under every dropout mask leaves its
        MC output constant (SE 0): its z-score is 0.0, with no RuntimeWarning."""
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.3), mp.DenseSpec(np.ones((1, 1)), np.full(1, -2.0)),
                    mp.ReluSpec(), mp.DenseSpec(np.ones((1, 1)), np.zeros(1))),
            input_shape=(1,), task="regression", tau=1.0,
        )
        rows = ex.run_compare(model, np.array([[0.5], [3.0]]), t=200, seed=0).tables["per_example"]
        assert rows[0]["se_mc"] == 0.0 and rows[0]["abs_diff"] > 0.0
        assert rows[0]["z_score"] == 0.0
        assert rows[1]["se_mc"] > 0.0 and rows[1]["z_score"] != 0.0


class TestReportWriting:
    def test_write_emits_csv_and_summary(self, tmp_path):
        report = ex.ExperimentReport(
            experiment="demo",
            config={"alpha": 1},
            tables={"rows": [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}]},
            runtimes={"main": {"mean_s": 0.1, "se_s": 0.0, "repeats": 3}},
        )
        paths = report.write(tmp_path / "out")
        assert (tmp_path / "out" / "rows.csv").read_text().splitlines()[0] == "a,b"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["experiment"] == "demo"
        assert summary["config"] == {"alpha": 1}
        assert "rows" in summary["tables"]

    def test_table_rows_from_columns(self):
        rows = ex.table_rows(b=range(2), a=np.array([0.5, 1.5]))
        assert rows == [{"b": 0, "a": 0.5}, {"b": 1, "a": 1.5}]
        assert list(rows[0]) == ["b", "a"]
        with pytest.raises(ValueError):
            ex.table_rows(a=[1, 2], b=[1])


class TestToyExperiment:
    def test_small_run_schema(self):
        report = ex.run_toy_experiment(t=200, seed=0, epochs=5, n=96,
                                       hidden=(16,), batch_size=32)
        rows = report.tables["curves"]
        assert set(rows[0]) == {"x", "det_mean", "mp_mean", "mp_sd", "mc_mean", "mc_sd", "mc_se_mean"}
        assert report.runtimes["curve_evaluation"]["repeats"] == 1
        assert all(r["mp_sd"] >= 0 for r in rows)
        # the resolved configuration: the call's arguments and train_toy_model's defaults
        assert report.config == {
            "t": 200, "n": 96, "hidden": [16], "dropout_rate": 0.3, "epochs": 5,
            "batch_size": 32, "learning_rate": 1e-3, "tau": 100.0, "seed": 0, "data_seed": 1,
        }

    def test_curves_computed_once(self, monkeypatch):
        calls, toy_curves = [], ex.toy_curves

        def counted(*args, **kwargs):
            calls.append(args)
            return toy_curves(*args, **kwargs)

        monkeypatch.setattr(ex, "toy_curves", counted)
        ex.run_toy_experiment(t=10, seed=0, epochs=2, n=64, hidden=(8,), batch_size=32)
        assert len(calls) == 1


class TestUciExperiment:
    def test_row_schema_and_agreement(self, tmp_path):
        x, y = gen_tabular_regression(220, n_features=4, noise_sigma=0.4, seed=0)
        path = tmp_path / "standin.csv"
        write_regression_csv(path, x, y)
        data = load_csv_regression(path, "y", seed=0)
        row = ex.uci_run("standin", data, p_grid=(0.05,), tau_grid=(1.0, 4.0),
                         hidden=(24,), epochs=40, t_mc=200, seed=0)
        for col in ("dataset", "n", "q", "p_star", "tau", "rmse_mc", "nll_mc",
                    "rmse_mp", "nll_mp", "rt_mc_s", "rt_mp_s"):
            assert col in row
        assert row["q"] == 4
        # sampling and propagation describe the same model
        assert abs(row["rmse_mc"] - row["rmse_mp"]) / row["rmse_mc"] < 0.1
        assert row["rt_mc_s"] > row["rt_mp_s"]

    def test_scoring_outside_timed_calls(self, monkeypatch, tmp_path):
        """The rt_* columns time the forwards alone: each result is scored once."""
        calls = []
        for name in ("score_regression_mc", "score_regression_mp"):
            def counted(*args, _score=getattr(ex.metrics, name), _name=name):
                calls.append(_name)
                return _score(*args)
            monkeypatch.setattr(ex.metrics, name, counted)
        write_regression_csv(tmp_path / "s.csv", *gen_tabular_regression(80, n_features=3))
        data = load_csv_regression(tmp_path / "s.csv", "y", seed=0)
        ex.uci_run("standin", data, p_grid=(0.05,), tau_grid=(1.0,), hidden=(8,), epochs=2,
                   t_mc=10, seed=0)
        assert sorted(calls) == ["score_regression_mc", "score_regression_mp"]


def _ood_with(threads, tmp_path):
    setup = ex.build_ood_setup(seeds=(0, 1), ensemble_size=2, n_per_class=20, epochs=2,
                               conv_channels=(4,), dense_units=(8,), threads=threads)
    members = [m for seed in setup.members for m in setup.members[seed]]
    weights = [t for m in members for l in m.layers for t in kind_of(l).tensors(l)]
    return weights, ex.run_ood_experiment(setup=setup, t=4).tables


def _uci_with(threads, tmp_path):
    for i in range(2):
        write_regression_csv(tmp_path / f"{i}.csv", *gen_tabular_regression(80, 3, seed=i))
    specs = [{"name": i, "path": tmp_path / f"{i}.csv", "target_column": "y"} for i in range(2)]
    rows = ex.run_uci_experiment(specs, threads=threads, p_grid=(0.05, 0.1), tau_grid=(1.0,),
                                 hidden=(8,), epochs=3, t_mc=10).tables["benchmark"]
    return [], [{k: v for k, v in r.items() if not k.startswith("rt_")} for r in rows]


@pytest.mark.parametrize("run", [_ood_with, _uci_with])
def test_threads_leave_results_unchanged(run, tmp_path):
    """threads=2 runs the jobs on a pool: same weights and tables as one thread,
    the uci timing columns aside."""
    weights, tables = run(1, tmp_path)
    threaded_weights, threaded_tables = run(2, tmp_path)
    assert [w.tobytes() for w in weights] == [w.tobytes() for w in threaded_weights]
    assert repr(tables) == repr(threaded_tables)


class TestOodExperiment:
    def test_seed_metrics_schema(self, tiny_setup):
        row = ex.ood_seed_metrics(tiny_setup, 0, t=4)
        for col in ("pearson_mp_mc_ind", "pearson_nn_mc_ind", "auc_nn", "auc_mc",
                    "auc_mp", "auc_mp_ens", "accuracy_ind"):
            assert col in row
        for key in ("auc_nn", "auc_mc", "auc_mp"):
            assert 0.0 <= row[key] <= 1.0

    def test_run_ood_report(self, tiny_setup):
        report = ex.run_ood_experiment(setup=tiny_setup, t=4)
        assert len(report.tables["ood_metrics"]) == 2
        assert "entropies" in report.tables
        assert report.config["ind_classes"] == [0, 1, 4, 5, 8]
        assert report.config["split_fractions"] == [0.5, 0.125, 0.375]

    def test_entropies_table_gives_the_first_row_aucs(self, tiny_setup):
        report = ex.run_ood_experiment(setup=tiny_setup, t=4)
        table, row = report.tables["entropies"], report.tables["ood_metrics"][0]
        labels = np.array([r["subset"] == "ood" for r in table], dtype=float)
        for method in ("nn", "mc", "mp"):
            scores = np.array([r[f"entropy_{method}"] for r in table])
            assert mp.roc_auc(scores, labels).auc == row[f"auc_{method}"], method

    def test_filter_report(self, tiny_setup):
        report = ex.run_filter_experiment(setup=tiny_setup, t=4)
        rows = report.tables["filter"]
        methods = {(r["method"], r["ensemble"]) for r in rows}
        assert methods == {(m, e) for m in ("nn", "mc", "mp") for e in ("1", "2")}
        n_test = len(tiny_setup.ind_data.test_xy()[0])
        assert sum(1 for r in rows if r["method"] == "mp" and r["ensemble"] == "1") == n_test

    def test_auc_vs_t_rows(self, tiny_setup):
        model = tiny_setup.members[0][0]
        rows, baselines = ex.auc_vs_t_rows(model, tiny_setup, t_list=(1, 3), repeats=4, seed=0)
        assert len(rows) == 8
        assert {r["t"] for r in rows} == {1, 3}
        assert 0 <= baselines["auc_mp"] <= 1

    def test_auc_vs_t_report_20_repeats(self, tiny_setup):
        report = ex.run_auc_vs_t_experiment(setup=tiny_setup, t_list=(1, 2), repeats=20, seed=0)
        rows = report.tables["auc_vs_t"]
        assert sum(1 for r in rows if r["t"] == 1) == 20
        assert sum(1 for r in rows if r["t"] == 2) == 20
        assert len(report.tables["auc_vs_t_median"]) == 2


class TestBenchmark:
    def test_timings_and_ratios(self):
        model = mp.cnn_classifier(input_shape=(1, 8, 8), conv_channels=(4,),
                                  dense_units=(8,), n_classes=3, seed=0)
        x = np.random.default_rng(0).standard_normal((8, 1, 8, 8))
        report = ex.run_benchmark(model, x, t_list=(2, 6), repeats=3, seed=0)
        modes = {(r["mode"], r["t"]) for r in report.tables["timings"]}
        assert modes == {("det", 1), ("mp", 1), ("mc", 2), ("mc", 6)}
        ratios = {r["t"]: r for r in report.tables["ratios"]}
        # sampling cost grows with T
        assert ratios[6]["mc_over_det"] > ratios[2]["mc_over_det"]
        assert all(r["repeats"] >= 3 for r in report.tables["timings"])
        # runtimes record the calls actually timed, as the timings rows do
        rows = {r["mode"]: r for r in report.tables["timings"]}
        for mode in ("det", "mp"):
            assert report.runtimes[mode]["repeats"] == rows[mode]["repeats"]
