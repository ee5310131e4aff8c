import json
import tracemalloc
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
)
from momentprop.training import override_dropout
from oracles import per_layer


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

    def test_no_layer_may_follow_softmax(self):
        # such a model used to build and run under det, then fail in forward_mp
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="follow softmax"):
            mp.ModelSpec(
                layers=(mp.DenseSpec(rng.normal(size=(3, 4)), np.zeros(4)), mp.DropoutSpec(0.2),
                        mp.SoftmaxSpec(), mp.DenseSpec(rng.normal(size=(4, 1)), np.zeros(1))),
                input_shape=(3,), task="regression", tau=1.0,
            )

    def test_unknown_layer_type(self):
        with pytest.raises(TypeError, match="unknown layer spec"):
            mp.ModelSpec(layers=(object(), mp.DenseSpec(np.ones((3, 1)), np.zeros(1))),
                         input_shape=(3,), task="regression", tau=1.0)

    @pytest.mark.parametrize("shape", [(8.5,), (True,), (0,), (-3,), (3, 2.0)])
    def test_input_shape_must_be_positive_integers(self, shape):
        # (8.5,) used to become an 8-input model through int()
        layer = mp.DenseSpec(np.ones((8, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="input_shape"):
            mp.ModelSpec(layers=(layer,), input_shape=shape, task="regression", tau=1.0)

    def test_input_shape_accepts_numpy_integers(self):
        layer = mp.DenseSpec(np.ones((8, 1)), np.zeros(1))
        model = mp.ModelSpec(layers=(layer,), input_shape=np.array([8]), task="regression",
                             tau=1.0)
        assert model.input_shape == (8,) and type(model.input_shape[0]) is int

    @pytest.mark.parametrize("rate", [-0.1, float("nan")])
    def test_builders_refuse_a_bad_dropout_rate(self, rate):
        # such a rate used to build a model with no dropout layer
        with pytest.raises(ValueError, match="dropout rate"):
            small_regressor(dropout=rate)
        with pytest.raises(ValueError, match="dropout rate"):
            small_classifier(dropout=rate)
        with pytest.raises(ValueError, match="dropout rate"):
            mp.mlp_regression(3, hidden=(), dropout_rate=rate)

    def test_layer_shapes(self):
        model = small_classifier()
        assert model.layer_shapes[-1] == (3,)
        assert model.output_shape == (3,)


class TestForwardModes:
    def test_zero_dropout_mp_equals_det(self):
        model = small_classifier(dropout=0.0)
        x = np.random.default_rng(0).standard_normal((1, 8, 8))
        td, tm = per_layer(mp.forward_det, model, x), per_layer(mp.forward_mp, model, x)
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
        td, tm = per_layer(mp.forward_det, model, x), per_layer(mp.forward_mp, model, x)
        assert len(tm) == len(model.layers)
        for k in range(prefix):
            assert isinstance(tm[k], MomentTensor)
            assert np.array_equal(tm[k].expectation, td[k])
            assert np.array_equal(tm[k].variance, np.zeros_like(td[k]))
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
        tm = per_layer(mp.forward_mp, model, x)
        first = mp.dropout_mp(MomentTensor.from_point(x), model.layers[0])
        assert np.array_equal(tm[0].expectation, first.expectation)
        assert np.array_equal(tm[0].variance, first.variance)
        out = mp.forward_mp(model, x)
        assert np.array_equal(out.expectation, tm[-1].expectation)
        assert np.array_equal(out.variance, tm[-1].variance)
        assert np.array_equal(mp.forward_mp(model, x, upto=0).expectation, x)


class TestWalkerMemory:
    """The det and sampled walkers run ReLU and dropout in place on arrays
    they allocated, so a pass of the toy 3x256 MLP holds about two
    activations at once (three before in-place ops); tracemalloc counts the
    bytes numpy asks for, whatever the host's allocator does with them."""

    @staticmethod
    def toy():
        model = mp.mlp_regression(1, hidden=(256, 256, 256), dropout_rate=0.3, seed=0, tau=100.0)
        return model, np.linspace(-3.0, 3.0, 2048)[:, None]

    @pytest.mark.parametrize("name", ["forward_det", "mc_forward"])
    def test_peak_traced_memory(self, name):
        model, x = self.toy()
        call = {
            "forward_det": lambda: mp.forward_det(model, x),
            "mc_forward": lambda: mc_forward(model, x, 1, seed=0),  # one pass
        }[name]
        call()  # fill the lazily built weight caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        activations = peak / (len(x) * 256 * 8)
        print(f"{name}: peak traced memory {activations:.3f} activations of 2048x256 float64")
        assert activations <= 2.2


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

    @pytest.mark.parametrize("model", [small_regressor(), small_classifier()],
                             ids=["regression", "classification"])
    def test_overflow_is_floating_point_error(self, model):
        # finite inputs can overflow: no NaN or inf prediction, and no RuntimeWarning
        x = np.full((2,) + model.input_shape, 1e308)
        for mode in (mp.Deterministic(), mp.MomentPropagation(), mp.MCSample(8, seed=0)):
            with pytest.raises(FloatingPointError, match=type(mode).__name__):
                mp.predict(model, x, mode)

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

    def test_layer_sizes_accept_numpy_integers(self, tmp_path):
        # np.int64 stride and pool sizes used to be refused
        conv = mp.Conv2DSpec(np.ones((2, 1, 3, 3)), np.zeros(2), stride=np.int64(1))
        pool = mp.MaxPool2DSpec(np.int64(2))
        assert type(conv.stride) is int and type(pool.size) is int
        model = mp.ModelSpec(
            layers=(conv, pool, mp.FlattenSpec(), mp.DenseSpec(np.ones((8, 1)), np.zeros(1))),
            input_shape=(1, 4, 4), task="regression", tau=1.0,
        )
        p1, p2 = tmp_path / "a.mpmdl", tmp_path / "b.mpmdl"
        mp.save_model(model, p1)
        mp.save_model(mp.load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bool_stride_refused(self):
        # stride=True used to build a model whose saved file load_model refused
        with pytest.raises(ValueError, match="stride"):
            mp.Conv2DSpec(np.ones((2, 1, 3, 3)), np.zeros(2), stride=True)

    @pytest.mark.parametrize("build, python_build", [
        (lambda: override_dropout(
            mp.mlp_regression(3, hidden=(4,), dropout_rate=0.1), (0,)),
         lambda: override_dropout(
            mp.mlp_regression(3, hidden=(4,), dropout_rate=0.1), (0.0,))),
        (lambda: mp.mlp_regression(3, hidden=(4,), dropout_rate=np.float32(0.25)),
         lambda: mp.mlp_regression(3, hidden=(4,), dropout_rate=0.25)),
        (lambda: mp.mlp_regression(3, hidden=(4,), seed=np.int64(2)),
         lambda: mp.mlp_regression(3, hidden=(4,), seed=2)),
        (lambda: mp.mlp_regression(3, hidden=(4,), tau=np.float32(2)),
         lambda: mp.mlp_regression(3, hidden=(4,), tau=2.0)),
    ], ids=["int-rate-0", "float32-rate", "int64-seed", "float32-tau"])
    def test_numbers_saved_as_python_floats_and_ints(self, tmp_path, build, python_build):
        # an int rate used to save as "rate":0 and load back as 0.0, so
        # save -> load -> save changed the bytes; a numpy scalar rate, seed
        # or tau made save_model raise json's TypeError
        p1, p2, p3 = (tmp_path / f"{k}.mpmdl" for k in "abc")
        mp.save_model(build(), p1)
        mp.save_model(mp.load_model(p1), p2)
        mp.save_model(python_build(), p3)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    @pytest.mark.parametrize("build", [
        lambda: mp.DropoutSpec(False),
        lambda: mp.DropoutSpec(np.bool_(False)),
        lambda: mp.mlp_regression(3, hidden=(4,), tau=True),
    ], ids=["rate-False", "rate-numpy-False", "tau-True"])
    def test_bool_rate_or_tau_refused(self, build):
        with pytest.raises(ValueError):
            build()

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


def read_manifest(path):
    raw = path.read_bytes()
    return json.loads(raw[20 : 20 + int(np.frombuffer(raw, "<u8", 1, 12)[0])])


def write_manifest(path, manifest):
    """Put manifest in place of the model file's own, keeping the weight
    bytes and fixing the checksum."""
    raw = path.read_bytes()
    old_len = int(np.frombuffer(raw, "<u8", 1, 12)[0])
    mbytes = json.dumps(manifest, separators=(",", ":")).encode()
    body = raw[:12] + np.uint64(len(mbytes)).tobytes() + mbytes + raw[20 + old_len : -4]
    path.write_bytes(body + np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes())


def entry_of(manifest, kind):
    return next(e for e in manifest["layers"] if e.get("kind") == kind)


class TestManifestValidation:
    """Hostile manifests fail load_model with MalformedModelError."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: entry_of(m, "dense").pop("in_dim"), "needs in_dim"),
            (lambda m: entry_of(m, "relu").pop("kind"), "no known kind"),
            (lambda m: m["layers"].__setitem__(1, ["relu"]), "no known kind"),
            (lambda m: m["layers"].__setitem__(1, "relu"), "no known kind"),
            (lambda m: entry_of(m, "relu").update(kind=["relu"]), "no known kind"),
            (lambda m: entry_of(m, "relu").update(kind="gelu"), "no known kind"),
            (lambda m: entry_of(m, "dense").update(in_dim=-64), "positive integer"),
            (lambda m: entry_of(m, "conv2d").update(out_channels=-4), "positive integer"),
            # declares as many weight bytes as [3, 3] does
            (lambda m: entry_of(m, "conv2d").update(kernel_size=[-3, -3]), "positive integer"),
            (lambda m: entry_of(m, "conv2d").update(kernel_size=[9]), "positive integer"),
            (lambda m: entry_of(m, "conv2d").update(stride=0), "positive integer"),
            (lambda m: entry_of(m, "conv2d").update(stride=True), "positive integer"),
            (lambda m: entry_of(m, "maxpool2d").update(size=2.5), "positive integer"),
            (lambda m: entry_of(m, "conv2d").pop("padding"), "needs"),
            (lambda m: entry_of(m, "conv2d").update(padding="full"), "invalid model"),
            (lambda m: entry_of(m, "dropout").update(rate="high"), "invalid model"),
            (lambda m: entry_of(m, "dropout").update(rate=1.5), "invalid model"),
            (lambda m: entry_of(m, "maxpool2d").update(size=1), "invalid model"),
            (lambda m: m.update(layers={"0": {"kind": "relu"}}), "no layer list"),
            (lambda m: m.update(metadata=["seed", 1]), "invalid model"),
            (lambda m: m.update(input_shape=[1, 8.5, 8]), "input_shape"),
            (lambda m: m.update(input_shape=[True, 8, 8]), "input_shape"),
            (lambda m: m.update(input_shape=[1, -8, 8]), "input_shape"),
            (lambda m: m.update(input_shape=[1, 8, 0]), "input_shape"),
            (lambda m: m.update(input_shape=64), "input_shape"),
        ],
    )
    def test_malformed_entry(self, tmp_path, edit, message):
        path = tmp_path / "m.mpmdl"
        mp.save_model(small_classifier(), path)
        manifest = read_manifest(path)
        edit(manifest)
        write_manifest(path, manifest)
        with pytest.raises(MalformedModelError, match=message):
            mp.load_model(path)

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "m.mpmdl"
        mp.save_model(small_classifier(), path)
        write_manifest(path, [read_manifest(path)])
        with pytest.raises(MalformedModelError, match="no layer list"):
            mp.load_model(path)

    def test_rewritten_manifest_loads(self, tmp_path):
        path = tmp_path / "m.mpmdl"
        mp.save_model(small_classifier(), path)
        before = path.read_bytes()
        write_manifest(path, read_manifest(path))
        assert path.read_bytes() == before
        mp.load_model(path)
