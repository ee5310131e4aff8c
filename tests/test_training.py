import numpy as np
import pytest

import momentprop as mp
from momentprop.data import Dataset, gen_toy_regression, standardize_regression
from momentprop.network import forward_det
from momentprop.training import (
    EarlyStopping,
    LrReduction,
    TrainConfig,
    TrainingDivergedError,
    draw_masks_for,
    extract_params,
    grads_with_params,
    grid_search_uci,
    loss_with_params,
    train,
)


def linear_dataset(n=200, seed=0, slope=2.0, intercept=1.0, noise=0.01):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 1))
    y = slope * x[:, 0] + intercept + noise * rng.standard_normal(n)
    split = np.array(["train"] * int(n * 0.8) + ["val"] * (n - int(n * 0.8)))
    return Dataset(features=x, targets=y, split=split, task="regression")


def blobs_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.r_[rng.normal((2, 2), 0.5, size=(half, 2)),
              rng.normal((-2, -2), 0.5, size=(half, 2))]
    y = np.r_[np.zeros(half, dtype=int), np.ones(half, dtype=int)]
    perm = rng.permutation(n)
    x, y = x[perm], y[perm]
    split = np.array(["train"] * int(n * 0.8) + ["val"] * (n - int(n * 0.8)))
    return Dataset(features=x, targets=y, split=split, task="classification", n_classes=2)


def tiny_classifier(seed=0, dropout=0.2):
    rng = np.random.default_rng(seed)
    return mp.ModelSpec(
        layers=(
            mp.DenseSpec(rng.normal(0, 0.5, (2, 16)), np.zeros(16)),
            mp.ReluSpec(),
            mp.DropoutSpec(dropout),
            mp.DenseSpec(rng.normal(0, 0.5, (16, 2)), np.zeros(2)),
            mp.SoftmaxSpec(),
        ),
        input_shape=(2,), task="classification",
    )


class TestGradients:
    """Analytic gradients against central finite differences (step 1e-5)."""

    @staticmethod
    def check_model(model, x, y, loss_kind, seed=0, step=1e-5, tol=1e-4):
        params = extract_params(model)
        masks = draw_masks_for(model, params, x.shape, seed=seed)
        _, grads = grads_with_params(model, params, x, y, loss_kind, masks)
        for li, p in enumerate(params):
            for key, arr in p.items():
                flat = arr.ravel()
                g_flat = grads[li][key].ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = loss_with_params(model, params, x, y, loss_kind, masks)
                    flat[idx] = orig - step
                    down = loss_with_params(model, params, x, y, loss_kind, masks)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), abs(g_flat[idx]), 1e-6)
                    assert abs(g_flat[idx] - numeric) / denom < tol, (
                        f"layer {li} {key}[{idx}]: analytic {g_flat[idx]} vs fd {numeric}"
                    )

    def test_dense_relu_dropout_mse(self):
        rng = np.random.default_rng(1)
        model = mp.ModelSpec(
            layers=(
                mp.DenseSpec(rng.normal(0, 0.7, (3, 5)), rng.normal(0, 0.1, 5)),
                mp.ReluSpec(),
                mp.DropoutSpec(0.4),
                mp.DenseSpec(rng.normal(0, 0.7, (5, 1)), np.zeros(1)),
            ),
            input_shape=(3,), task="regression", tau=1.0,
        )
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        self.check_model(model, x, y, "mse", seed=3)

    def test_conv_pool_flatten_nll(self):
        rng = np.random.default_rng(2)
        model = mp.ModelSpec(
            layers=(
                mp.Conv2DSpec(rng.normal(0, 0.4, (2, 1, 3, 3)), rng.normal(0, 0.1, 2), padding="same"),
                mp.ReluSpec(),
                mp.MaxPool2DSpec(2),
                mp.DropoutSpec(0.3),
                mp.FlattenSpec(),
                mp.DenseSpec(rng.normal(0, 0.4, (8, 3)), np.zeros(3)),
                mp.SoftmaxSpec(),
            ),
            input_shape=(1, 4, 4), task="classification",
        )
        x = rng.normal(size=(5, 1, 4, 4))
        y = rng.integers(0, 3, 5)
        self.check_model(model, x, y, "categorical_nll", seed=4)

    def test_strided_valid_conv(self):
        rng = np.random.default_rng(3)
        model = mp.ModelSpec(
            layers=(
                mp.Conv2DSpec(rng.normal(0, 0.4, (2, 2, 2, 2)), np.zeros(2),
                              padding="valid", stride=2),
                mp.ReluSpec(),
                mp.FlattenSpec(),
                mp.DenseSpec(rng.normal(0, 0.4, (8, 1)), np.zeros(1)),
            ),
            input_shape=(2, 4, 4), task="regression", tau=1.0,
        )
        x = rng.normal(size=(4, 2, 4, 4))
        y = rng.normal(size=4)
        self.check_model(model, x, y, "mse", seed=5)

    def test_stacked_convs(self):
        # the first conv's gradients pass back through the second conv's
        # input gradient; its non-square kernel and stride pin the patch order
        rng = np.random.default_rng(6)
        model = mp.ModelSpec(
            layers=(
                mp.Conv2DSpec(rng.normal(0, 0.4, (3, 2, 3, 3)), rng.normal(0, 0.1, 3), padding="same"),
                mp.ReluSpec(),
                mp.Conv2DSpec(rng.normal(0, 0.4, (2, 3, 2, 3)), rng.normal(0, 0.1, 2),
                              padding="valid", stride=2),
                mp.ReluSpec(),
                mp.FlattenSpec(),
                mp.DenseSpec(rng.normal(0, 0.4, (12, 3)), np.zeros(3)),
                mp.SoftmaxSpec(),
            ),
            input_shape=(2, 7, 6), task="classification",
        )
        x = rng.normal(size=(3, 2, 7, 6))
        y = rng.integers(0, 3, 3)
        self.check_model(model, x, y, "categorical_nll", seed=6)


class TestTrain:
    def test_recovers_linear_fit(self):
        data = linear_dataset(seed=1)
        model = mp.ModelSpec(
            layers=(mp.DenseSpec(np.zeros((1, 1)), np.zeros(1)),),
            input_shape=(1,), task="regression", tau=100.0,
        )
        cfg = TrainConfig(epochs=500, batch_size=32, optimizer="adam", learning_rate=0.05,
                          loss="mse", early_stopping=None, lr_reduction=None, seed=0)
        trained, _ = train(model, data, cfg)
        # closed-form least squares on the train split
        x, y = data.train_xy()
        a = np.c_[x[:, 0], np.ones(len(x))]
        slope, intercept = np.linalg.lstsq(a, y, rcond=None)[0]
        w = trained.layers[0].weights[0, 0]
        b = trained.layers[0].bias[0]
        assert w == pytest.approx(slope, abs=1e-2)
        assert b == pytest.approx(intercept, abs=1e-2)

    def test_toy_reaches_noise_floor(self):
        data = standardize_regression(gen_toy_regression(512, seed=3, test_points=16))
        model = mp.mlp_regression(1, hidden=(64, 64), dropout_rate=0.1, seed=0, tau=100.0)
        cfg = TrainConfig(epochs=300, batch_size=64, loss="mse",
                          early_stopping=None, lr_reduction=None, seed=0)
        trained, _ = train(model, data, cfg)
        x_val, y_val = data.val_xy()
        pred = mp.forward_mp(trained, x_val).expectation[:, 0]
        rmse = np.sqrt(np.mean((pred - y_val) ** 2)) * data.standardization.target_std
        assert rmse <= 0.2  # 2x the noise level 0.1

    def test_separable_blobs_accuracy(self):
        data = blobs_dataset(seed=2)
        cfg = TrainConfig(epochs=150, batch_size=32, loss="categorical_nll",
                          early_stopping=None, lr_reduction=None, seed=0)
        trained, _ = train(tiny_classifier(), data, cfg)
        x, y = data.train_xy()
        acc = (forward_det(trained, x).argmax(axis=1) == y).mean()
        assert acc >= 0.99

    def test_best_beats_init_across_seeds(self):
        data = standardize_regression(gen_toy_regression(256, seed=5, test_points=8))
        wins = 0
        for seed in range(10):
            model = mp.mlp_regression(1, hidden=(16,), dropout_rate=0.1, seed=seed, tau=1.0)
            cfg = TrainConfig(epochs=25, batch_size=64, loss="mse",
                              early_stopping=None, lr_reduction=None, seed=seed)
            x_val, y_val = data.val_xy()
            init = float(np.mean((mp.forward_mp(model, x_val).expectation[:, 0] - y_val) ** 2))
            _, report = train(model, data, cfg)
            if min(report.val_loss) <= init:
                wins += 1
        assert wins >= 9

    def test_early_stopping_halts_within_patience(self):
        data = standardize_regression(gen_toy_regression(128, seed=6, test_points=8))
        model = mp.mlp_regression(1, hidden=(8,), dropout_rate=0.3, seed=1, tau=1.0)
        cfg = TrainConfig(epochs=300, batch_size=32, loss="mse", learning_rate=0.05,
                          early_stopping=EarlyStopping(patience=7),
                          lr_reduction=None, seed=1)
        _, report = train(model, data, cfg)
        assert report.stopped_early
        assert report.epochs_run - 1 - report.best_epoch <= 7
        assert len(report.val_loss) == report.epochs_run

    def test_lr_plateau_reduces(self):
        data = standardize_regression(gen_toy_regression(128, seed=7, test_points=8))
        model = mp.mlp_regression(1, hidden=(8,), dropout_rate=0.2, seed=2, tau=1.0)
        cfg = TrainConfig(epochs=60, batch_size=32, loss="mse", learning_rate=0.05,
                          early_stopping=None,
                          lr_reduction=LrReduction(patience=3, factor=0.5), seed=2)
        _, report = train(model, data, cfg)
        assert min(report.lr_history) < 0.05

    def test_divergence_raises(self):
        data = linear_dataset(seed=8)
        model = mp.mlp_regression(1, hidden=(16,), dropout_rate=0.0, seed=0, tau=1.0)
        cfg = TrainConfig(epochs=50, batch_size=16, optimizer="sgd", learning_rate=1e9,
                          loss="mse", seed=0)
        with pytest.raises(TrainingDivergedError):
            train(model, data, cfg)

    def test_loss_task_mismatch(self):
        data = blobs_dataset()
        model = mp.mlp_regression(2, hidden=(4,), seed=0, tau=1.0)
        cfg = TrainConfig(epochs=1, loss="categorical_nll")
        with pytest.raises(ValueError):
            train(model, data, cfg)

    def test_dropout_override(self):
        data = linear_dataset(seed=9)
        model = mp.mlp_regression(1, hidden=(8,), dropout_rate=0.5, seed=0, tau=1.0)
        cfg = TrainConfig(epochs=2, loss="mse", dropout_rates=(0.1,), seed=0)
        trained, _ = train(model, data, cfg)
        assert trained.dropout_rates == (0.1,)

    def test_reproducible_given_seed(self):
        data = linear_dataset(seed=10)
        cfg = TrainConfig(epochs=5, loss="mse", seed=4)
        m1, r1 = train(mp.mlp_regression(1, hidden=(8,), dropout_rate=0.2, seed=1, tau=1.0), data, cfg)
        m2, r2 = train(mp.mlp_regression(1, hidden=(8,), dropout_rate=0.2, seed=1, tau=1.0), data, cfg)
        assert np.array_equal(m1.layers[0].weights, m2.layers[0].weights)
        assert r1.val_loss == r2.val_loss

    def test_config_digest_recorded(self):
        data = linear_dataset(seed=11)
        cfg = TrainConfig(epochs=2, loss="mse", seed=3)
        trained, _ = train(mp.mlp_regression(1, hidden=(4,), seed=0, tau=1.0), data, cfg)
        assert trained.metadata.config_digest == cfg.digest()
        assert trained.metadata.seed == 3


class TestGridSearch:
    @staticmethod
    def make_data(tau_true=4.0, n=240, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(n, 1))
        sigma = 1.0 / np.sqrt(tau_true)
        y = 0.8 * x[:, 0] + sigma * rng.standard_normal(n)
        split = np.array(["train"] * int(n * 0.7) + ["val"] * (n - int(n * 0.7)))
        return Dataset(features=x, targets=y, split=split, task="regression")

    @staticmethod
    def builder(seed=0):
        def build(p_star):
            return mp.mlp_regression(1, hidden=(16,), dropout_rate=p_star, seed=seed, tau=1.0)
        return build

    def test_single_point_grid(self):
        data = self.make_data()
        cfg = TrainConfig(epochs=30, loss="mse", early_stopping=None, lr_reduction=None, seed=0)
        result = grid_search_uci(self.builder(), data, (0.05,), (2.0,), cfg)
        assert result.p_star == 0.05 and result.tau == 2.0
        assert len(result.entries) == 1

    def test_duplicate_grid_ties_break_small(self):
        data = self.make_data(seed=1)
        cfg = TrainConfig(epochs=10, loss="mse", early_stopping=None, lr_reduction=None, seed=0)
        result = grid_search_uci(self.builder(), data, (0.05, 0.05), (3.0, 3.0, 3.0), cfg)
        # identical scores for duplicated points: smallest pair wins deterministically
        best = min(result.entries, key=lambda e: (e["val_nll"], e["p_star"], e["tau"]))
        assert (result.p_star, result.tau) == (best["p_star"], best["tau"])

    def test_recovers_noise_precision(self):
        """The tau closest to the generating precision should win in most
        seeds, within one grid step."""
        tau_grid = (1.0, 4.0, 16.0)
        hits = 0
        for seed in range(10):
            data = self.make_data(tau_true=4.0, seed=seed)
            cfg = TrainConfig(epochs=60, loss="mse", early_stopping=None,
                              lr_reduction=None, seed=seed)
            result = grid_search_uci(self.builder(seed), data, (0.01,), tau_grid, cfg)
            if result.tau in (1.0, 4.0, 16.0) and abs(np.log(result.tau / 4.0)) <= np.log(4.0):
                hits += 1
        assert hits >= 8

    def test_rejects_bad_tau(self):
        data = self.make_data()
        cfg = TrainConfig(epochs=1, loss="mse")
        with pytest.raises(ValueError):
            grid_search_uci(self.builder(), data, (0.1,), (0.0,), cfg)
