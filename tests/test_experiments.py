import json

import numpy as np
import pytest

import momentprop as mp
from momentprop import experiments as ex
from momentprop.data import gen_tabular_regression, load_csv_regression, write_regression_csv


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


class TestToyExperiment:
    def test_small_run_schema(self):
        report = ex.run_toy_experiment(t=200, seed=0, epochs=5, n=96,
                                       hidden=(16,), batch_size=32)
        rows = report.tables["curves"]
        assert set(rows[0]) == {"x", "det_mean", "mp_mean", "mp_sd", "mc_mean", "mc_sd", "mc_se_mean"}
        assert report.runtimes["curve_evaluation"]["repeats"] >= 3
        assert all(r["mp_sd"] >= 0 for r in rows)


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
