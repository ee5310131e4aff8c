import json
import zlib

import numpy as np
import pytest

import momentprop as mp
from momentprop.mc import mc_forward
from momentprop.moments import MomentTensor
from momentprop.network import (
    MalformedModelError,
    ModelChecksumError,
    ModelVersionError,
    trace_det,
    trace_mp,
)


def small_regressor(seed=0, dropout=0.2):
    return mp.mlp_regression(3, hidden=(8, 8), dropout_rate=dropout, seed=seed, tau=4.0)


def small_classifier(seed=0, dropout=0.3):
    return mp.cnn_classifier(
        input_shape=(1, 8, 8), conv_channels=(4,), dense_units=(16,),
        n_classes=3, dropout_rate=dropout, seed=seed,
    )


class TestModelSpec:
    def test_shape_chain_validated(self):
        with pytest.raises(ValueError):
            mp.ModelSpec(
                layers=(mp.DenseSpec(np.ones((3, 2)), np.zeros(2)),
                        mp.DenseSpec(np.ones((5, 1)), np.zeros(1))),
                input_shape=(3,), task="regression", tau=1.0,
            )

    def test_classification_must_end_in_softmax(self):
        with pytest.raises(ValueError):
            mp.ModelSpec(
                layers=(mp.DenseSpec(np.ones((3, 2)), np.zeros(2)),),
                input_shape=(3,), task="classification",
            )

    def test_regression_needs_tau(self):
        with pytest.raises(ValueError):
            mp.ModelSpec(
                layers=(mp.DenseSpec(np.ones((3, 1)), np.zeros(1)),),
                input_shape=(3,), task="regression", tau=None,
            )

    def test_layer_shapes(self):
        model = small_classifier()
        assert model.layer_shapes[-1] == (3,)
        assert model.output_shape == (3,)


class TestForwardModes:
    def test_zero_dropout_mp_equals_det(self):
        model = small_classifier(dropout=0.0)
        x = np.random.default_rng(0).standard_normal((1, 8, 8))
        td, tm = trace_det(model, x), trace_mp(model, x)
        assert np.array_equal(td[-2], tm[-2].expectation)  # bit-exact pre-softmax
        assert np.all(tm[-2].variance == 0.0)
        assert np.abs(td[-1] - tm[-1]).max() < 1e-3

    def test_mp_deterministic_bitwise(self):
        model = small_classifier()
        x = np.random.default_rng(1).standard_normal((4, 1, 8, 8))
        a = mp.forward_mp(model, x)
        b = mp.forward_mp(model, x)
        assert np.array_equal(a, b)

    def test_dropout_dense_model_mp_matches_mc(self):
        rng = np.random.default_rng(2)
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.4),
                    mp.DenseSpec(rng.normal(size=(4, 2)), rng.normal(size=2))),
            input_shape=(4,), task="regression", tau=1.0,
        )
        x = rng.normal(size=4)
        mt = mp.forward_mp(model, x)
        est = mc_forward(model, x, 100_000, seed=3).moments()
        assert np.all(np.abs(mt.expectation - est.mean) <= 3 * est.standard_error_mean)
        assert np.all(np.abs(mt.variance - est.variance) <= 3 * est.standard_error_variance)

    def test_mode_dispatch(self):
        model = small_regressor()
        x = np.zeros(3)
        assert isinstance(mp.forward(model, x, mp.Deterministic()), np.ndarray)
        assert isinstance(mp.forward(model, x, mp.MomentPropagation()), MomentTensor)
        batch = mp.forward(model, x, mp.MCSample(4, seed=0))
        assert batch.outputs.shape == (4, 1)

    def test_input_shape_mismatch(self):
        model = small_regressor()
        with pytest.raises(ValueError):
            mp.forward_det(model, np.zeros(5))

    def test_zero_rate_sampled_equals_deterministic(self):
        from momentprop.network import forward_sample

        model = small_classifier(dropout=0.0)
        x = np.random.default_rng(9).standard_normal((3, 1, 8, 8))
        det = mp.forward_det(model, x)
        for seed in (0, 123):
            rngs = {}

            def rng_for(idx, seed=seed):
                return rngs.setdefault(idx, np.random.default_rng(seed + idx))

            assert np.array_equal(forward_sample(model, x, rng_for), det)

    def test_mc_convergence_toward_mp(self):
        """Sample means approach the propagated expectation as T grows."""
        rng = np.random.default_rng(5)
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.3),
                    mp.DenseSpec(rng.normal(size=(3, 1)), np.zeros(1))),
            input_shape=(3,), task="regression", tau=1.0,
        )
        xs = rng.normal(size=(20, 3))
        e_mp = mp.forward_mp(model, xs).expectation[:, 0]
        devs = {}
        for t in (100, 1000, 10000):
            mean = mc_forward(model, xs, t, seed=8).outputs[..., 0].mean(axis=0)
            devs[t] = np.abs(mean - e_mp)
        assert np.median(devs[1000]) < np.median(devs[100])
        assert np.median(devs[10000]) < np.median(devs[1000])
        # per-input sign test at the 95% level: 15+/20 must shrink
        assert (devs[1000] < devs[100]).sum() >= 15
        assert (devs[10000] < devs[1000]).sum() >= 15


class TestVarianceFreePrefix:
    """Layers before the first dropout run as deterministic ops in mp."""

    @pytest.mark.parametrize("name", ["reference-cnn", "toy-mlp"])
    def test_prefix_entries_equal_det(self, name):
        from momentprop.experiments import reference_cnn

        if name == "reference-cnn":
            model, prefix = reference_cnn(seed=1), 3  # conv, relu, pool
            x = np.random.default_rng(3).standard_normal(model.input_shape)
        else:
            model = mp.mlp_regression(1, hidden=(256, 256, 256), dropout_rate=0.3, seed=1)
            prefix, x = 2, np.array([0.7])  # dense, relu
        assert model.det_prefix == prefix
        td, tm = trace_det(model, x), trace_mp(model, x)
        assert len(tm) == len(model.layers)
        for k in range(prefix):
            assert isinstance(tm[k], MomentTensor)
            assert np.array_equal(tm[k].expectation, td[k])
            assert np.array_equal(tm[k].variance, np.zeros_like(td[k]))
            upto = mp.forward_mp(model, x, upto=k + 1)
            assert np.array_equal(upto.expectation, td[k])
            assert np.array_equal(upto.variance, tm[k].variance)
        # the first dropout receives the prefix output lifted to zero variance
        first = mp.dropout_mp(MomentTensor.from_point(td[prefix - 1]), model.layers[prefix])
        assert np.array_equal(tm[prefix].expectation, first.expectation)
        assert np.array_equal(tm[prefix].variance, first.variance)
        assert np.any(tm[prefix].variance > 0.0)

    def test_model_starting_with_dropout(self):
        rng = np.random.default_rng(4)
        model = mp.ModelSpec(
            layers=(mp.DropoutSpec(0.25), mp.DenseSpec(rng.normal(size=(3, 4)), np.zeros(4)),
                    mp.ReluSpec(), mp.DenseSpec(rng.normal(size=(4, 1)), np.zeros(1))),
            input_shape=(3,), task="regression", tau=1.0,
        )
        assert model.det_prefix == 0
        x = rng.normal(size=3)
        tm = trace_mp(model, x)
        first = mp.dropout_mp(MomentTensor.from_point(x), model.layers[0])
        assert np.array_equal(tm[0].expectation, first.expectation)
        assert np.array_equal(tm[0].variance, first.variance)
        out = mp.forward_mp(model, x)
        assert np.array_equal(out.expectation, tm[-1].expectation)
        assert np.array_equal(out.variance, tm[-1].variance)
        assert np.array_equal(mp.forward_mp(model, x, upto=0).expectation, x)


class TestPredict:
    def test_regression_modes(self):
        model = small_regressor()
        x = np.random.default_rng(3).standard_normal((5, 3))
        det = mp.predict(model, x, mp.Deterministic())
        assert np.all(det.variance == 0.0) and det.tau == 4.0
        mpp = mp.predict(model, x, mp.MomentPropagation())
        assert np.all(mpp.total_variance >= mpp.variance)
        mc = mp.predict(model, x, mp.MCSample(64, seed=1))
        assert mc.mean.shape == (5,)

    def test_classification_modes(self):
        model = small_classifier()
        x = np.random.default_rng(4).standard_normal((5, 1, 8, 8))
        for mode in (mp.Deterministic(), mp.MomentPropagation(), mp.MCSample(16, seed=0)):
            pred = mp.predict(model, x, mode)
            assert np.allclose(pred.probs.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(pred.entropy() >= 0.0)
        assert np.all(pred.one_minus_max() <= 1 - 1 / 3 + 1e-12)

    def test_categorical_validation(self):
        with pytest.raises(ValueError):
            mp.CategoricalPrediction(np.array([0.7, 0.7]))


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        model = small_classifier(seed=9)
        path = tmp_path / "model.mpmdl"
        mp.save_model(model, path)
        loaded = mp.load_model(path)
        assert loaded.task == model.task
        assert loaded.input_shape == model.input_shape
        assert loaded.metadata == model.metadata
        for a, b in zip(model.layers, loaded.layers):
            assert type(a) is type(b)
            if isinstance(a, mp.DenseSpec):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
            if isinstance(a, mp.Conv2DSpec):
                assert np.array_equal(a.kernel, b.kernel)
                assert a.padding == b.padding and a.stride == b.stride
            if isinstance(a, mp.DropoutSpec):
                assert a.rate == b.rate

    def test_save_load_save_bytes_identical(self, tmp_path):
        model = small_regressor(seed=2)
        p1, p2 = tmp_path / "a.mpmdl", tmp_path / "b.mpmdl"
        mp.save_model(model, p1)
        mp.save_model(mp.load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_fails_checksum(self, tmp_path):
        model = small_regressor()
        path = tmp_path / "m.mpmdl"
        mp.save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(ModelChecksumError):
            mp.load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mpmdl"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 32)
        with pytest.raises(MalformedModelError):
            mp.load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = small_regressor()
        path = tmp_path / "m.mpmdl"
        mp.save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = np.uint32(99).tobytes()
        body = bytes(raw[:-4])
        raw[-4:] = np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelVersionError):
            mp.load_model(path)

    def test_manifest_blob_length_disagreement(self, tmp_path):
        model = small_regressor()
        path = tmp_path / "m.mpmdl"
        mp.save_model(model, path)
        raw = path.read_bytes()
        header = 8 + 4 + 8
        manifest_len = int(np.frombuffer(raw, "<u8", 1, 12)[0])
        manifest = json.loads(raw[header : header + manifest_len])
        manifest["layers"][0]["in_dim"] += 1  # now declares more weight bytes
        mbytes = json.dumps(manifest, separators=(",", ":")).encode()
        body = raw[:8] + np.uint32(1).tobytes() + np.uint64(len(mbytes)).tobytes() \
            + mbytes + raw[header + manifest_len : -4]
        fixed = body + np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes()
        path.write_bytes(fixed)
        with pytest.raises(MalformedModelError):
            mp.load_model(path)
