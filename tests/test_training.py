import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import momentprop as mp
from momentprop import training
from momentprop.data import (
    Dataset,
    gen_synthetic_images,
    gen_toy_regression,
    ood_partition,
    standardize_regression,
)
from momentprop.layers import _col2im, _conv_apply, _conv_geometry, _im2col, maxpool2d_det
from momentprop.network import KINDS, forward_det
from momentprop.training import (
    EarlyStopping,
    LrReduction,
    TrainConfig,
    TrainingDivergedError,
    draw_masks_for,
    extract_params,
    grads_with_params,
    grid_search_uci,
    train,
)
from oracles import gradient_errors


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
        for where, rel in gradient_errors(model, x, y, loss_kind, seed, step):
            assert rel < tol, where

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

    def test_first_layer_dropout(self):
        # the reverse pass stops at the lowest layer with parameters, here
        # the dense layer above an input dropout
        rng = np.random.default_rng(7)
        model = mp.ModelSpec(
            layers=(
                mp.DropoutSpec(0.3),
                mp.DenseSpec(rng.normal(0, 0.7, (4, 6)), rng.normal(0, 0.1, 6)),
                mp.ReluSpec(),
                mp.DenseSpec(rng.normal(0, 0.7, (6, 1)), np.zeros(1)),
            ),
            input_shape=(4,), task="regression", tau=1.0,
        )
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=7)
        self.check_model(model, x, y, "mse", seed=8)

    def test_size3_pool_on_ragged_input(self):
        # 8x7 conv output under a 3x3 pool: the last two rows and the last
        # column are cropped, and a wrong gradient there shows in the kernel's
        rng = np.random.default_rng(8)
        model = size3_pool_model(rng)
        x = rng.normal(size=(4, 2, 8, 7))
        y = rng.integers(0, 3, 4)
        self.check_model(model, x, y, "categorical_nll", seed=9)


def size3_pool_model(rng):
    return mp.ModelSpec(
        layers=(
            mp.Conv2DSpec(rng.normal(0, 0.4, (3, 2, 3, 3)), rng.normal(0, 0.1, 3), padding="same"),
            mp.ReluSpec(),
            mp.MaxPool2DSpec(3),
            mp.DropoutSpec(0.3),
            mp.FlattenSpec(),
            mp.DenseSpec(rng.normal(0, 0.4, (12, 3)), np.zeros(3)),
            mp.SoftmaxSpec(),
        ),
        input_shape=(2, 8, 7), task="classification",
    )


# ---------------------------------------------------------------------------
# reference trainer: the max pool copies its windows, takes argmax over them
# and scatters the gradient back with put_along_axis; every layer builds its
# input gradient, the network input's included


def reference_pool_windows(x, n):
    b, c, h, w = x.shape
    hh, ww = (h // n) * n, (w // n) * n
    x = x[:, :, :hh, :ww].reshape(b, c, hh // n, n, ww // n, n).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(x.reshape(b, c, hh // n, ww // n, n * n))


def reference_pool_backward(grad, idx, x_shape, n):
    b, c, h, w = x_shape
    hh, ww = (h // n) * n, (w // n) * n
    dwin = np.zeros(idx.shape + (n * n,))
    np.put_along_axis(dwin, idx[..., None], grad[..., None], axis=-1)
    dx = np.zeros(x_shape)
    dx[:, :, :hh, :ww] = (
        dwin.reshape(b, c, hh // n, ww // n, n, n).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, hh, ww)
    )
    return dx


def reference_grads(model, params, x, y, loss_kind, masks):
    layers = training._train_layers(model)
    h, caches = x, []
    for i, layer in enumerate(layers):
        if isinstance(layer, mp.DropoutSpec):
            caches.append(masks[i])
            h = h * masks[i]
        elif isinstance(layer, mp.DenseSpec):
            caches.append(h)
            h = h @ params[i]["w"] + params[i]["b"]
        elif isinstance(layer, mp.Conv2DSpec):
            w = params[i]["w"]
            _, _, pads = _conv_geometry(h.shape[2], h.shape[3], w.shape[2], w.shape[3],
                                        layer.stride, layer.padding)
            cols, oh, ow = _im2col(h, w.shape[2], w.shape[3], layer.stride, pads)
            caches.append((cols, h.shape, oh, ow, pads))
            h = _conv_apply(cols, w.reshape(w.shape[0], -1), params[i]["b"], oh, ow)
        elif isinstance(layer, mp.MaxPool2DSpec):
            win = reference_pool_windows(h, layer.size)
            idx = win.argmax(axis=-1)
            caches.append((idx, h.shape))
            h = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        elif isinstance(layer, mp.ReluSpec):
            caches.append(h > 0.0)
            h = h * caches[-1]
        else:
            caches.append(h.shape)
            h = h.reshape(h.shape[0], -1)
    loss, grad = training._loss_fn(loss_kind)(h, y)
    grads = [dict() for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        layer, cache = layers[i], caches[i]
        if isinstance(layer, (mp.DropoutSpec, mp.ReluSpec)):
            grad = grad * cache
        elif isinstance(layer, mp.DenseSpec):
            grads[i] = {"w": cache.T @ grad, "b": grad.sum(axis=0)}
            grad = grad @ params[i]["w"].T
        elif isinstance(layer, mp.Conv2DSpec):
            cols, x_shape, oh, ow, pads = cache
            w = params[i]["w"]
            dmat = grad.reshape(grad.shape[0], w.shape[0], oh * ow)
            dk = np.tensordot(dmat, cols, axes=([0, 2], [0, 2]))
            grads[i] = {"w": dk.reshape(w.shape), "b": grad.sum(axis=(0, 2, 3))}
            grad = _col2im(w.reshape(w.shape[0], -1).T @ dmat, x_shape,
                           w.shape[2], w.shape[3], layer.stride, pads, oh, ow)
        elif isinstance(layer, mp.MaxPool2DSpec):
            grad = reference_pool_backward(grad, cache[0], cache[1], layer.size)
        else:
            grad = grad.reshape(cache)
    return loss, grads


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


POOL = KINDS[mp.MaxPool2DSpec]


def pool_forward(x, n):
    """The trainer's pool output and the window offset it routes to."""
    out, (idx, _) = POOL.train_forward(x, mp.MaxPool2DSpec(n), {}, None)
    return out, idx


def pool_input_grad(hmap, n, gout):
    """The gradient the trainer's pool sends to its (H, W) input hmap."""
    spec = mp.MaxPool2DSpec(n)
    out, cache = POOL.train_forward(hmap[None, None], spec, {}, None)
    assert_bitwise(out, maxpool2d_det(hmap[None, None], spec))
    dx, grads = POOL.train_backward(gout, cache, spec, {}, True)
    assert grads == {}
    return dx[0, 0]


def reference_input_grad(hmap, n, gout):
    win = reference_pool_windows(hmap[None, None], n)
    return reference_pool_backward(gout, win.argmax(axis=-1), (1, 1) + hmap.shape, n)[0, 0]


class TestPoolRouting:
    @pytest.mark.parametrize("n", [2, 3])
    def test_forward_equals_maxpool2d_det(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(5, 3, 11, 13))
        x = x * (x > 0)  # post-ReLU: -0.0 and +0.0 ties among the zeros
        x[rng.random(x.shape) < 0.1] = 0.0
        out, _ = pool_forward(x, n)
        assert_bitwise(out, maxpool2d_det(x, mp.MaxPool2DSpec(n)))

    def test_ties_route_to_first_max(self):
        hmap = np.array([
            [0.0, 0.0, 1.0, 3.0, 2.0, 2.0],
            [0.0, -0.0, 3.0, 2.0, 1.0, 2.0],
        ])
        gout = np.array([[[[1.5, 2.5, 3.5]]]])
        expected = np.array([
            [1.5, 0.0, 0.0, 2.5, 3.5, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        assert_bitwise(pool_input_grad(hmap, 2, gout), expected)
        # ReLU of negative inputs: all-zero windows route to their first offset
        _, idx = pool_forward(np.full((2, 3, 4, 6), -0.0), 2)
        assert idx.dtype == np.uint8 and not idx.any()

    @pytest.mark.parametrize("n,shape", [(2, (5, 7)), (3, (7, 8)), (3, (5, 5)), (17, (18, 17))])
    def test_ragged_edges_get_zero_gradient(self, n, shape):
        # a 17x17 window has more offsets than a uint8 record can name
        rng = np.random.default_rng(sum(shape))
        hmap = rng.normal(size=shape)
        oh, ow = shape[0] // n, shape[1] // n
        gout = rng.normal(size=(1, 1, oh, ow))
        dx = pool_input_grad(hmap, n, gout)
        assert not dx[oh * n :].any() and not dx[:, ow * n :].any()
        assert np.count_nonzero(dx) == oh * ow
        assert_bitwise(dx, reference_input_grad(hmap, n, gout))

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_signed_zero_gradients_stay_at_their_winners(self, n):
        # dropout's backward hands the pool -0.0 where a negative gradient
        # meets a dropped unit; only the window's winner may carry that sign
        rng = np.random.default_rng(n)
        shape = (2 * n + 1, 3 * n + 2)  # a cropped row and cropped columns
        hmap = rng.normal(size=shape)
        oh, ow = shape[0] // n, shape[1] // n
        gout = -rng.random((1, 1, oh, ow))
        gout[rng.random(gout.shape) < 0.5] = -0.0
        _, idx = pool_forward(hmap[None, None], n)
        assert idx.dtype == np.min_scalar_type(n * n - 1)
        dx = pool_input_grad(hmap, n, gout)
        winners = np.zeros(shape, dtype=bool)
        expected = np.zeros(shape)
        best = reference_pool_windows(hmap[None, None], n).argmax(axis=-1)[0, 0]
        for i, j in np.ndindex(oh, ow):
            at = (i * n + best[i, j] // n, j * n + best[i, j] % n)
            winners[at], expected[at] = True, gout[0, 0, i, j]
        assert np.signbit(gout).all() and (gout == 0.0).any()
        assert np.signbit(dx[winners]).all()
        assert not np.signbit(dx[~winners]).any()
        assert_bitwise(dx, expected)

    def test_grads_match_reference_on_held_out_cnn(self):
        images = gen_synthetic_images(400, n_classes=10, size=16, seed=7,
                                      split_fractions=(0.5, 0.125, 0.375))
        ind, _ = ood_partition(images, (0, 1, 4, 5, 8))
        x, y = ind.train_xy()
        x, y = x[:64], y[:64]
        model = mp.cnn_classifier(input_shape=(1, 16, 16), conv_channels=(8, 16),
                                  dense_units=(64,), n_classes=5, dropout_rate=0.3, seed=0)
        self.check_against_reference(model, x, y, seed=1)

    def test_grads_match_reference_with_size3_pool(self):
        rng = np.random.default_rng(10)
        model = size3_pool_model(rng)
        x = rng.normal(size=(6, 2, 8, 7))
        self.check_against_reference(model, x, rng.integers(0, 3, 6), seed=2)

    @staticmethod
    def check_against_reference(model, x, y, seed):
        params = extract_params(model)
        masks = draw_masks_for(model, params, x.shape, seed=seed)
        loss, grads = grads_with_params(model, params, x, y, "categorical_nll", masks)
        ref_loss, ref_grads = reference_grads(model, params, x, y, "categorical_nll", masks)
        assert loss.hex() == ref_loss.hex()
        assert [sorted(g) for g in grads] == [sorted(g) for g in ref_grads]
        for g, r in zip(grads, ref_grads):
            for key in r:
                assert_bitwise(g[key], r[key])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(2, 9),
        st.integers(2, 9),
        st.integers(0, 2**32 - 1),
    )
    @example(n=3, hgt=6, wid=4, seed=14592633)  # a window of +0.0 and -0.0 only
    def test_integer_inputs_route_like_argmax(self, n, hgt, wid, seed):
        # small integers make ties common, zero ones among them
        hgt, wid = max(hgt, n), max(wid, n)
        rng = np.random.default_rng(seed)
        hmap = rng.integers(-1, 3, size=(hgt, wid)).astype(np.float64)
        hmap = hmap * (hmap > 0)
        gout = rng.integers(1, 5, size=(1, 1, hgt // n, wid // n)).astype(np.float64)
        assert_bitwise(pool_input_grad(hmap, n, gout), reference_input_grad(hmap, n, gout))


class TestAdam:
    @staticmethod
    def reference_step(state, params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        state["t"] += 1
        c1, c2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
        for p, g, m, v in zip(params, grads, state["m"], state["v"]):
            for k in p:
                m[k] = b1 * m[k] + (1.0 - b1) * g[k]
                v[k] = b2 * v[k] + (1.0 - b2) * np.square(g[k])
                p[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)

    def test_step_matches_reference_formula(self):
        # bitwise, moments included, and the caller's gradients untouched: a
        # rewrite that saves temporaries must keep the formula's roundings
        rng = np.random.default_rng(0)
        params = extract_params(size3_pool_model(rng))
        ref_params = [{k: v.copy() for k, v in p.items()} for p in params]
        opt = training._Adam(params)
        state = {"t": 0, "m": [{k: np.zeros_like(v) for k, v in p.items()} for p in params],
                 "v": [{k: np.zeros_like(v) for k, v in p.items()} for p in params]}
        for step in range(6):
            grads = [{k: rng.normal(size=v.shape) * 10.0**-step for k, v in p.items()}
                     for p in params]
            kept = [{k: v.copy() for k, v in g.items()} for g in grads]
            lr = 1e-3 * 0.85**step
            opt.step(params, grads, lr)
            self.reference_step(state, ref_params, kept, lr)
            for g, k_ in zip(grads, kept):
                for key in g:
                    assert_bitwise(g[key], k_[key])
            for p, r, m, rm, v, rv in zip(params, ref_params, opt.m, state["m"], opt.v, state["v"]):
                for key in r:
                    assert_bitwise(p[key], r[key])
                    assert_bitwise(m[key], rm[key])
                    assert_bitwise(v[key], rv[key])


class TestMaskDraws:
    def test_masks_follow_layer_shapes(self):
        # one draw per dropout layer, in layer order, at that layer's input shape
        rng = np.random.default_rng(1)
        model = size3_pool_model(rng)
        masks = draw_masks_for(model, None, (5, 2, 8, 7), seed=3)
        draws = np.random.default_rng(3)
        assert list(masks) == [3]
        assert np.array_equal(masks[3], draws.random((5, 3, 2, 2)) >= 0.3)


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
        data = standardize_regression(gen_toy_regression(512, seed=3))
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
        data = standardize_regression(gen_toy_regression(256, seed=5))
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
        data = standardize_regression(gen_toy_regression(128, seed=6))
        model = mp.mlp_regression(1, hidden=(8,), dropout_rate=0.3, seed=1, tau=1.0)
        cfg = TrainConfig(epochs=300, batch_size=32, loss="mse", learning_rate=0.05,
                          early_stopping=EarlyStopping(patience=7),
                          lr_reduction=None, seed=1)
        _, report = train(model, data, cfg)
        assert report.stopped_early
        assert report.epochs_run - 1 - report.best_epoch <= 7
        assert len(report.val_loss) == report.epochs_run

    def test_lr_plateau_reduces(self):
        data = standardize_regression(gen_toy_regression(128, seed=7))
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


class TestTrainConfig:
    @pytest.mark.parametrize("cls, name, value", [
        (TrainConfig, "epochs", 0),
        (TrainConfig, "epochs", 2.5),
        (TrainConfig, "epochs", True),
        (TrainConfig, "batch_size", 8.5),
        (TrainConfig, "batch_size", 0),
        (TrainConfig, "learning_rate", -1.0),
        (TrainConfig, "learning_rate", 0.0),
        (TrainConfig, "learning_rate", float("inf")),
        (TrainConfig, "learning_rate", float("nan")),
        (TrainConfig, "learning_rate", "0.1"),
        (TrainConfig, "momentum", 1.0),
        (TrainConfig, "momentum", -0.1),
        (TrainConfig, "momentum", float("nan")),
        (LrReduction, "patience", 0),
        (LrReduction, "patience", 1.5),
        (LrReduction, "factor", "0.5"),
        (LrReduction, "min_lr", -1e-6),
        (LrReduction, "min_lr", float("nan")),
        (EarlyStopping, "patience", 0),
        (EarlyStopping, "patience", 2.5),
        (TrainConfig, "seed", -1),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_refuses_bad_fields(self, cls, name, value):
        """Each field is checked where the config is built, before train()
        could die in range() or run with a negative learning rate."""
        kwargs = {"epochs": 1} if cls is TrainConfig else {}
        with pytest.raises(ValueError):
            cls(**{**kwargs, name: value})

    @pytest.mark.parametrize("numpy_kw, python_kw", [
        ({"epochs": np.int64(2)}, {"epochs": 2}),
        ({"epochs": 2, "seed": np.int64(4)}, {"epochs": 2, "seed": 4}),
        ({"epochs": 2, "lr_reduction": LrReduction(factor=np.float32(0.5))},
         {"epochs": 2, "lr_reduction": LrReduction(factor=0.5)}),
    ], ids=["int64-epochs", "int64-seed", "float32-factor"])
    def test_numpy_scalars_train_as_python_numbers(self, tmp_path, numpy_kw, python_kw):
        # train() used to run one epoch, then raise json's TypeError from the
        # config digest
        data = standardize_regression(gen_toy_regression(64, seed=1))
        model = mp.mlp_regression(1, hidden=(4,), seed=0, tau=1.0)
        paths = []
        for kw in (numpy_kw, python_kw):
            trained, report = train(model, data, TrainConfig(**kw))
            assert report.epochs_run == 2
            paths.append(tmp_path / f"{len(paths)}.mpmdl")
            mp.save_model(trained, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


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

    def test_result_carries_the_model_trained_at_p_star(self):
        data = self.make_data(seed=2)
        cfg = TrainConfig(epochs=5, loss="mse", early_stopping=None, lr_reduction=None, seed=0)
        result = grid_search_uci(self.builder(), data, (0.01, 0.2), (2.0,), cfg)
        retrained, _ = train(self.builder()(result.p_star), data, cfg)
        for got, want in zip(extract_params(result.model), extract_params(retrained)):
            assert got.keys() == want.keys()
            for k in got:
                np.testing.assert_array_equal(got[k], want[k])

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
